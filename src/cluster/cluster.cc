/**
 * @file
 * Cluster implementation (ISSUE 10). Pure indexing + forwarding: the
 * only logic here is global<->local index translation, fixed-order
 * device stepping, link-track sampling, and report assembly — no
 * scheduling decisions (those stay in runtime::Session) and no timing
 * (that stays in ChannelShard and Link).
 */

#include "cluster/cluster.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/logging.h"

namespace fleet {
namespace cluster {

namespace {

std::string
linkName(int src, int dst)
{
    std::ostringstream os;
    os << "link/d" << src << "->d" << dst;
    return os.str();
}

/** Append a (cycle, value) sample, deduplicating repeats. */
void
sampleTrack(trace::CounterTrack &track, uint64_t cycle, uint64_t value)
{
    if (!track.samples.empty() && track.samples.back().second == value)
        return;
    track.samples.emplace_back(cycle, value);
}

} // namespace

bool
ClusterReport::allOk() const
{
    for (const system::RunReport &device : devices)
        if (!device.allOk())
            return false;
    return true;
}

std::string
ClusterReport::summary() const
{
    std::ostringstream os;
    for (size_t d = 0; d < devices.size(); ++d)
        os << "dev" << d << ": " << devices[d].summary()
           << (d + 1 < devices.size() ? "\n" : "");
    return os.str();
}

bool
operator==(const ClusterReport &a, const ClusterReport &b)
{
    return a.devices == b.devices &&
           a.linkCounters == b.linkCounters &&
           a.linkTracks == b.linkTracks;
}

Cluster::Cluster(const std::vector<lang::Program> &programs,
                 std::vector<DeviceSpec> devices,
                 const system::SystemConfig &system,
                 const LinkParams &link)
    : numPrograms_(static_cast<int>(programs.size())),
      systemConfig_(system)
{
    if (devices.empty())
        panic("Cluster: at least one device required");
    for (DeviceSpec &spec : devices) {
        // Hand the device only its own programs, and rebind its slots
        // to device-local indices. A binding to a program the device
        // does not host maps past its list, which FleetSystem rejects.
        std::vector<lang::Program> hosted;
        for (uint32_t index : spec.programs)
            hosted.push_back(programs.at(index));
        for (system::SlotBinding &binding : spec.bindings)
            binding.program = static_cast<uint32_t>(
                std::find(spec.programs.begin(), spec.programs.end(),
                          binding.program) -
                spec.programs.begin());
        devices_.push_back(std::make_unique<system::FleetSystem>(
            std::move(hosted), system, spec.numSlots,
            std::move(spec.bindings)));
        devicePrograms_.push_back(std::move(spec.programs));
    }
    const int n = numDevices();
    for (int src = 0; src < n; ++src)
        for (int dst = 0; dst < n; ++dst)
            if (src != dst)
                links_.push_back(std::make_unique<Link>(
                    linkName(src, dst), link));
    linkTracks_.resize(links_.size());
    for (size_t l = 0; l < links_.size(); ++l)
        linkTracks_[l].name = links_[l]->name() + "/inflight_bytes";
    buildIndex();
}

void
Cluster::buildIndex()
{
    channelBase_.clear();
    for (size_t d = 0; d < devices_.size(); ++d) {
        channelBase_.push_back(static_cast<int>(channelDevice_.size()));
        for (int p = 0; p < devices_[d]->numPus(); ++p) {
            slotDevice_.push_back(static_cast<int>(d));
            slotLocal_.push_back(p);
        }
        for (int c = 0; c < devices_[d]->numShards(); ++c) {
            channelDevice_.push_back(static_cast<int>(d));
            channelLocal_.push_back(c);
        }
    }
}

Link &
Cluster::link(int src, int dst)
{
    return const_cast<Link &>(
        static_cast<const Cluster *>(this)->link(src, dst));
}

const Link &
Cluster::link(int src, int dst) const
{
    const int n = numDevices();
    if (src == dst || src < 0 || dst < 0 || src >= n || dst >= n)
        panic("Cluster::link: bad endpoint pair (", src, ", ", dst, ")");
    // Links are stored in (src, dst) lexicographic order with the
    // diagonal removed: src contributes (n - 1) entries.
    int index = src * (n - 1) + dst - (dst > src ? 1 : 0);
    return *links_[index];
}

void
Cluster::beginSession()
{
    for (auto &device : devices_)
        device->beginSession();
}

Status
Cluster::armJob(int slot, BitBuffer stream, uint64_t job_id)
{
    return devices_[slotDevice_[slot]]->armJob(
        slotLocal_[slot], std::move(stream), job_id);
}

void
Cluster::stepEpoch(uint64_t epoch_cycles)
{
    // Fixed device order. Devices share no state (links are driven
    // only between epochs, by the layer above), so this order is
    // unobservable in the results — the determinism tests pin it by
    // comparing against a reversed-stepping driver.
    for (auto &device : devices_)
        device->stepEpoch(epoch_cycles);
    if (systemConfig_.trace.events && !links_.empty()) {
        const uint64_t now = deviceCycles();
        for (size_t l = 0; l < links_.size(); ++l)
            sampleTrack(linkTracks_[l], now,
                        links_[l]->inFlightBytes());
    }
}

bool
Cluster::puDrained(int slot) const
{
    return devices_[slotDevice_[slot]]->puDrained(slotLocal_[slot]);
}

system::ShardState
Cluster::slotShardState(int slot) const
{
    return devices_[slotDevice_[slot]]->puShardState(slotLocal_[slot]);
}

const Status &
Cluster::slotShardStatus(int slot) const
{
    return devices_[slotDevice_[slot]]->puShardStatus(slotLocal_[slot]);
}

BitBuffer
Cluster::jobOutput(int slot) const
{
    return devices_[slotDevice_[slot]]->jobOutput(slotLocal_[slot]);
}

system::RetiredJob
Cluster::retireJob(int slot)
{
    return devices_[slotDevice_[slot]]->retireJob(slotLocal_[slot]);
}

Status
Cluster::cancelJob(int slot, Status status)
{
    return devices_[slotDevice_[slot]]->cancelJob(slotLocal_[slot],
                                                  std::move(status));
}

void
Cluster::forceHaltChannel(int global_channel, Status status)
{
    devices_[channelDevice_[global_channel]]->forceHaltChannel(
        channelLocal_[global_channel], std::move(status));
}

void
Cluster::setSessionTracks(std::vector<trace::CounterTrack> tracks)
{
    // Device 0 carries the scheduler tracks so a 1-device cluster's
    // devices[0] report is bit-identical to the legacy Session report.
    devices_[0]->setSessionTracks(std::move(tracks));
}

const ClusterReport &
Cluster::finishSession()
{
    if (finished_)
        return report_;
    finished_ = true;
    for (auto &device : devices_)
        report_.devices.push_back(device->finishSession());
    for (const auto &link : links_)
        report_.linkCounters.push_back(link->counterSet());
    report_.linkTracks = std::move(linkTracks_);
    return report_;
}

uint64_t
Cluster::deviceCycles() const
{
    uint64_t max_cycles = 0;
    for (const auto &device : devices_) {
        uint64_t cycles = device->sessionCycles();
        if (cycles > max_cycles)
            max_cycles = cycles;
    }
    return max_cycles;
}

uint64_t
Cluster::channelCycles(int global_channel) const
{
    return devices_[channelDevice_[global_channel]]->shardCycles(
        channelLocal_[global_channel]);
}

Status
ClusterReport::writeTrace(const std::string &path) const
{
    // Merge the device traces into one report: channel ids offset to
    // the global index space, process rows labelled per device, and
    // counter-set names prefixed so "ch0/dram" on two devices cannot
    // collide. Session tracks (device 0) and link tracks ride along.
    trace::TraceReport merged;
    bool any = false;
    int channel_base = 0;
    for (size_t d = 0; d < devices.size(); ++d) {
        const auto &trace = devices[d].trace;
        if (!trace) {
            continue;
        }
        any = true;
        merged.config = trace->config;
        merged.clockMHz = trace->clockMHz;
        for (const trace::ChannelTrace &channel : trace->channels) {
            trace::ChannelTrace copy = channel;
            std::ostringstream label;
            label << "dev" << d << "/channel " << channel.channel;
            copy.label = label.str();
            copy.channel = channel_base + channel.channel;
            std::ostringstream prefix;
            prefix << "dev" << d << "/";
            for (trace::CounterSet &set : copy.counters)
                set.name = prefix.str() + set.name;
            merged.channels.push_back(std::move(copy));
        }
        for (const trace::CounterTrack &track : trace->sessionTracks)
            merged.sessionTracks.push_back(track);
        channel_base += static_cast<int>(trace->channels.size());
    }
    if (!any)
        return Status::make(StatusCode::InvalidArgument,
                            "ClusterReport::writeTrace: no device "
                            "recorded a trace (enable "
                            "TraceConfig::events)");
    for (const trace::CounterTrack &track : linkTracks)
        merged.sessionTracks.push_back(track);
    return merged.writeChromeTrace(path);
}

} // namespace cluster
} // namespace fleet

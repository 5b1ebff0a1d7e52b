#include "trace/trace.h"

#include <sstream>

namespace fleet {
namespace trace {

namespace {

/** Events mode: the DRAM queue-depth counter tracks are sampled every
 * this-many cycles, which keeps traces small. */
constexpr uint64_t kCounterSampleCycles = 16;

} // namespace

// ---------------------------------------------------------------------------
// Histogram

uint64_t
Histogram::samples() const
{
    uint64_t total = 0;
    for (uint64_t count : buckets)
        total += count;
    return total;
}

uint64_t
Histogram::weightedSum() const
{
    uint64_t sum = 0;
    for (size_t v = 0; v < buckets.size(); ++v)
        sum += v * buckets[v];
    return sum;
}

double
Histogram::mean() const
{
    uint64_t n = samples();
    return n ? double(weightedSum()) / double(n) : 0.0;
}

bool
operator==(const Histogram &a, const Histogram &b)
{
    return a.name == b.name && a.buckets == b.buckets;
}

// ---------------------------------------------------------------------------
// CounterSet

void
CounterSet::set(std::string_view key, uint64_t value)
{
    for (auto &entry : values) {
        if (entry.first == key) {
            entry.second = value;
            return;
        }
    }
    values.emplace_back(std::string(key), value);
}

void
CounterSet::add(std::string_view key, uint64_t delta)
{
    for (auto &entry : values) {
        if (entry.first == key) {
            entry.second += delta;
            return;
        }
    }
    values.emplace_back(std::string(key), delta);
}

uint64_t
CounterSet::get(std::string_view key) const
{
    for (const auto &entry : values)
        if (entry.first == key)
            return entry.second;
    return 0;
}

bool
CounterSet::has(std::string_view key) const
{
    for (const auto &entry : values)
        if (entry.first == key)
            return true;
    return false;
}

bool
operator==(const CounterSet &a, const CounterSet &b)
{
    return a.name == b.name && a.values == b.values;
}

// ---------------------------------------------------------------------------
// Event structures

bool
operator==(const Span &a, const Span &b)
{
    return a.phase == b.phase && a.beginCycle == b.beginCycle &&
           a.endCycle == b.endCycle;
}

bool
operator==(const Marker &a, const Marker &b)
{
    return a.cycle == b.cycle && a.label == b.label;
}

bool
operator==(const JobSpan &a, const JobSpan &b)
{
    return a.jobId == b.jobId && a.beginCycle == b.beginCycle &&
           a.endCycle == b.endCycle;
}

bool
operator==(const Lane &a, const Lane &b)
{
    return a.globalPu == b.globalPu && a.spans == b.spans &&
           a.markers == b.markers && a.jobs == b.jobs &&
           a.droppedSpans == b.droppedSpans;
}

bool
operator==(const CounterTrack &a, const CounterTrack &b)
{
    return a.name == b.name && a.samples == b.samples;
}

const CounterSet *
ChannelTrace::find(std::string_view name) const
{
    for (const auto &set : counters)
        if (set.name == name)
            return &set;
    return nullptr;
}

bool
operator==(const ChannelTrace &a, const ChannelTrace &b)
{
    return a.channel == b.channel && a.label == b.label &&
           a.cycles == b.cycles && a.counters == b.counters &&
           a.histograms == b.histograms && a.lanes == b.lanes &&
           a.tracks == b.tracks;
}

// ---------------------------------------------------------------------------
// TraceReport

const CounterSet *
TraceReport::find(std::string_view name) const
{
    for (const auto &channel : channels)
        if (const CounterSet *set = channel.find(name))
            return set;
    return nullptr;
}

std::string
TraceReport::countersSummary() const
{
    std::ostringstream os;
    for (const auto &channel : channels) {
        os << "channel " << channel.channel << " (" << channel.cycles
           << " cycles)\n";
        for (const auto &set : channel.counters) {
            os << "  " << set.name << ":";
            for (const auto &[key, value] : set.values)
                os << " " << key << "=" << value;
            os << "\n";
        }
        for (const auto &histogram : channel.histograms) {
            os << "  " << histogram.name << ": samples "
               << histogram.samples() << ", mean ";
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.3f", histogram.mean());
            os << buf << "\n";
        }
    }
    return os.str();
}

bool
operator==(const TraceReport &a, const TraceReport &b)
{
    // The config knobs only shape what was collected; the collected
    // data itself is what determinism is asserted over.
    return a.channels == b.channels && a.sessionTracks == b.sessionTracks;
}

// ---------------------------------------------------------------------------
// ShardTrace

ShardTrace::ShardTrace(int channel, const TraceConfig &config,
                       int max_outstanding_reads, int max_outstanding_writes)
    : channel_(channel), config_(config),
      readDepth_("dram_read_queue_depth", max_outstanding_reads),
      writeDepth_("dram_write_queue_depth", max_outstanding_writes)
{
    readTrack_.name = "dram read queue";
    writeTrack_.name = "dram write queue";
}

void
ShardTrace::addPu(int global_index)
{
    PuCollect pu;
    pu.lane.globalPu = global_index;
    pus_.push_back(std::move(pu));
}

void
ShardTrace::closeSpan(PuCollect &pu, uint64_t end_cycle)
{
    if (!pu.hasOpen || end_cycle == pu.openBegin)
        return;
    // "Done" is rendered as a gap between spans, not a span of its own.
    if (pu.openPhase != PuPhase::Done) {
        if (pu.lane.spans.size() <
            static_cast<size_t>(config_.maxSpansPerLane))
            pu.lane.spans.push_back(
                Span{pu.openPhase, pu.openBegin, end_cycle});
        else
            ++pu.lane.droppedSpans;
    }
    pu.hasOpen = false;
}

void
ShardTrace::puCycle(int local, uint64_t cycle, PuPhase phase)
{
    PuCollect &pu = pus_[local];
    ++pu.phaseCycles[static_cast<int>(phase)];
    if (!config_.events)
        return;
    if (pu.hasOpen && pu.openPhase == phase)
        return; // Coalesce: the span just grows.
    closeSpan(pu, cycle);
    pu.openPhase = phase;
    pu.openBegin = cycle;
    pu.hasOpen = true;
}

void
ShardTrace::jobSpan(int local, uint64_t job_id, uint64_t begin_cycle,
                    uint64_t end_cycle)
{
    if (!config_.events)
        return;
    pus_[local].lane.jobs.push_back(
        JobSpan{job_id, begin_cycle, end_cycle});
}

void
ShardTrace::marker(int local, uint64_t cycle, std::string label)
{
    if (!config_.events)
        return;
    pus_[local].lane.markers.push_back(Marker{cycle, std::move(label)});
}

void
ShardTrace::dramCycle(uint64_t cycle, int outstanding_reads,
                      int outstanding_writes)
{
    readDepth_.sample(outstanding_reads);
    writeDepth_.sample(outstanding_writes);
    if (!config_.events)
        return;
    if (cycle % kCounterSampleCycles != 0)
        return;
    // Skip repeats so flat stretches cost one sample, not thousands.
    auto push = [cycle](CounterTrack &track, uint64_t value) {
        if (track.samples.empty() || track.samples.back().second != value)
            track.samples.emplace_back(cycle, value);
    };
    push(readTrack_, outstanding_reads);
    push(writeTrack_, outstanding_writes);
}

uint64_t
ShardTrace::phaseCycles(int local, PuPhase phase) const
{
    return pus_[local].phaseCycles[static_cast<int>(phase)];
}

ChannelTrace
ShardTrace::finish(uint64_t cycles)
{
    ChannelTrace out;
    out.channel = channel_;
    out.cycles = cycles;
    if (config_.counters) {
        out.histograms.push_back(readDepth_);
        out.histograms.push_back(writeDepth_);
    }
    if (config_.events) {
        for (auto &pu : pus_) {
            closeSpan(pu, cycles);
            out.lanes.push_back(std::move(pu.lane));
        }
        out.tracks.push_back(std::move(readTrack_));
        out.tracks.push_back(std::move(writeTrack_));
    }
    return out;
}

} // namespace trace
} // namespace fleet

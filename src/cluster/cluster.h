#ifndef FLEET_CLUSTER_CLUSTER_H
#define FLEET_CLUSTER_CLUSTER_H

/**
 * @file
 * The cluster layer (ISSUE 10): N simulated devices — each a
 * session-mode FleetSystem — plus a directed Link (link.h) between
 * every ordered device pair, exposed to the runtime as ONE
 * device-shaped pool under *global* slot and channel indices
 * (device-major: device 0's slots first).
 *
 * Design rule: the Cluster adds indexing, links, and report assembly —
 * never behaviour. Every session-protocol call forwards to exactly one
 * device, and stepEpoch steps the devices in fixed (device-index)
 * order, so a 1-device cluster is *cycle-exact* with driving the
 * underlying FleetSystem directly, and an N-device schedule is a pure
 * function of simulated state: bit-identical across host thread
 * counts, PU backends, and — because devices share nothing except the
 * links, which are driven only at round boundaries — device stepping
 * order. The cluster tests pin all three.
 *
 * Programs: one cluster-wide list. Each DeviceSpec names the programs
 * its device hosts and gives each of its slots a program by index into
 * that list; the Cluster maps device-local indices back
 * (slotProgramIndex). Every slot of every device runs the one engine
 * SystemConfig::backend names.
 *
 * Clocks: each device keeps its own session clock (max over its
 * shards; a parked device's clock lags). The cluster clock is the max
 * over devices, raised to a floor that only a pipeline waiting on the
 * wire moves (raiseClockFloor), and is what link offer/delivery
 * cycles are computed against.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cluster/link.h"
#include "system/fleet_system.h"

namespace fleet {
namespace cluster {

/** One device's share of the cluster (programs + slot pool). */
struct DeviceSpec
{
    /** Cluster-wide indices of the hosted programs, in device order. */
    std::vector<uint32_t> programs;
    /** One entry per slot: the cluster-wide index of the program the
     * slot runs (one of `programs`). */
    std::vector<uint32_t> slotPrograms;
};

/**
 * The settled result of a cluster session: one RunReport per device
 * (device 0 carries the scheduler's session tracks, so a 1-device
 * ClusterReport's devices[0] equals the legacy Session RunReport
 * bit-for-bit) plus the link fabric's counters and utilization tracks.
 * Everything is simulated state; operator== fences it all.
 */
struct ClusterReport
{
    std::vector<system::RunReport> devices;
    /** One CounterSet per directed link, in (src, dst) order. */
    std::vector<trace::CounterSet> linkCounters;
    /** Events mode: per-link window-occupancy tracks, sampled at
     * round boundaries on the cluster clock. */
    std::vector<trace::CounterTrack> linkTracks;

    bool allOk() const;
    std::string summary() const;

    /**
     * Write a merged Chrome trace: every device's channels as process
     * rows labelled "dev<d>/channel <c>" (with channel pids offset so
     * devices never collide), the session tracks, and the link tracks.
     * Fails with InvalidArgument when events were not recorded.
     */
    Status writeTrace(const std::string &path) const;
};

bool operator==(const ClusterReport &a, const ClusterReport &b);
inline bool
operator!=(const ClusterReport &a, const ClusterReport &b)
{
    return !(a == b);
}

class Cluster
{
  public:
    /** One spec per device over the cluster-wide `programs` list.
     * `system` supplies the shared channel/DRAM/backend/trace/fault
     * configuration; `link` models every inter-device edge. */
    Cluster(const std::vector<lang::Program> &programs,
            std::vector<DeviceSpec> devices,
            const system::SystemConfig &system, const LinkParams &link);

    int numDevices() const { return static_cast<int>(devices_.size()); }
    /** The simulator of device `d`. */
    system::FleetSystem &deviceSystem(int d) { return *devices_[d]; }
    const system::FleetSystem &deviceSystem(int d) const
    {
        return *devices_[d];
    }

    /** Directed link src -> dst (src != dst). */
    Link &link(int src, int dst);
    const Link &link(int src, int dst) const;

    /// @name Global slot / channel indexing (device-major).
    /// @{
    int numSlots() const { return static_cast<int>(slotDevice_.size()); }
    int slotDevice(int slot) const { return slotDevice_[slot]; }
    int numChannels() const
    {
        return static_cast<int>(channelDevice_.size());
    }
    int channelDevice(int c) const { return channelDevice_[c]; }
    /** Global channel owning global slot `slot`. */
    int slotChannel(int slot) const
    {
        return channelBase_[slotDevice_[slot]] +
               devices_[slotDevice_[slot]]->puChannel(slotLocal_[slot]);
    }
    /// @}

    /// @name The session protocol, lifted to global indices.
    /// @{
    void beginSession();
    Status armJob(int slot, const BitBuffer &stream, uint64_t job_id);
    /** Step every device one epoch, in device order, then sample the
     * link tracks (events mode). */
    void stepEpoch(uint64_t epoch_cycles);
    bool puDrained(int slot) const;
    system::ShardState slotShardState(int slot) const;
    const Status &slotShardStatus(int slot) const;
    BitBuffer jobOutput(int slot) const;
    system::RetiredJob retireJob(int slot);
    Status cancelJob(int slot, Status status);
    void forceHaltChannel(int global_channel, Status status);
    void setSessionTracks(std::vector<trace::CounterTrack> tracks);
    /** Settle every device and assemble the ClusterReport. Once. */
    const ClusterReport &finishSession();
    /// @}

    /** The cluster clock: max over device session clocks, and never
     * below the floor raised by raiseClockFloor(). */
    uint64_t cycles() const { return std::max(clockFloor_, deviceCycles()); }
    /** Max over device session clocks alone. */
    uint64_t deviceCycles() const;
    /** Let the cluster clock reach `cycle` with every device parked:
     * the wire clock of a pipeline (cluster/pipeline.h). */
    void raiseClockFloor(uint64_t cycle)
    {
        clockFloor_ = std::max(clockFloor_, cycle);
    }
    /** Live cycle count of a global channel's shard. */
    uint64_t channelCycles(int global_channel) const;

    /** Cluster-wide index of the program bound to global `slot`. */
    uint32_t slotProgramIndex(int slot) const
    {
        const int d = slotDevice_[slot];
        return devicePrograms_[d][devices_[d]->slotProgramIndex(
            slotLocal_[slot])];
    }
    /** Size of the cluster-wide program list. */
    int numPrograms() const { return numPrograms_; }

  private:
    void buildIndex();

    std::vector<std::unique_ptr<system::FleetSystem>> devices_;
    /** Per device: local program index -> cluster-wide index. */
    std::vector<std::vector<uint32_t>> devicePrograms_;
    int numPrograms_ = 0;
    uint64_t clockFloor_ = 0;
    system::SystemConfig systemConfig_;
    /** Directed links in (src, dst) lexicographic order, src != dst. */
    std::vector<std::unique_ptr<Link>> links_;
    std::vector<trace::CounterTrack> linkTracks_;
    std::vector<int> slotDevice_;
    std::vector<int> slotLocal_;
    std::vector<int> channelDevice_;
    std::vector<int> channelLocal_;
    std::vector<int> channelBase_; ///< First global channel per device.
    ClusterReport report_;
    bool finished_ = false;
};

} // namespace cluster
} // namespace fleet

#endif // FLEET_CLUSTER_CLUSTER_H

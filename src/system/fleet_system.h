#ifndef FLEET_SYSTEM_FLEET_SYSTEM_H
#define FLEET_SYSTEM_FLEET_SYSTEM_H

/**
 * @file
 * Full-system simulator and host runtime: N copies of a compiled
 * processing unit, divided among the memory channels, each channel with
 * its own input and output controller (Section 5: "the processing units
 * are simply divided among the channels ... no further coordination is
 * needed"). Mirrors the paper's software runtime (Section 2): the user
 * supplies one stream per processing unit, the runtime places them in
 * (simulated) FPGA DRAM, kicks off the units, and reads back each unit's
 * output region when all units have finished. A unit starts one way,
 * in one-shot runs and session jobs alike: its stream is uploaded into
 * its slot's input region, the unit is armed with it
 * (ProcessingUnit::arm; FastPu pre-runs it there), and the slot's
 * controller lanes are re-armed (ChannelShard::rearmPu).
 *
 * Because channels share nothing, each channel's simulation is owned by a
 * ChannelShard (channel_shard.h) and the shards are stepped concurrently
 * on a host worker pool (SystemConfig::numThreads). The parallel run is
 * bit-for-bit deterministic: outputs, per-PU stats, and the merged cycle
 * count (max over shards) are identical to the numThreads = 1 run.
 *
 * Failure model (ISSUE 2): run() returns a RunReport instead of
 * throwing. Per-PU faults — a parity error on a corrupted read beat, an
 * output-region overflow — quarantine that unit while its channel-mates
 * complete; channel-level failures (forward-progress watchdog, cycle
 * limit) end that channel with a diagnostic status. A unit that refuses
 * its stream at arm time (InvalidArgument: a restriction violation in
 * FastPu's pre-run) is contained at cycle 0 in a one-shot run; armJob
 * returns the Status and leaves the slot parked. Deterministic fault
 * injection is configured via SystemConfig::faults (fault/fault.h);
 * with the plan disabled (the default) runs are bit-identical to the
 * pre-fault-layer simulator.
 *
 * Timing is cycle-accurate end to end; throughput in GB/s is
 * bytes / (cycles / clockMHz), the same accounting the paper uses at
 * 125 MHz.
 */

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "dram/dram.h"
#include "fault/fault.h"
#include "lang/ast.h"
#include "memctl/input_controller.h"
#include "memctl/output_controller.h"
#include "model/device.h"
#include "system/channel_shard.h"
#include "system/device.h"
#include "system/pu.h"
#include "system/run_report.h"
#include "util/bitbuf.h"

namespace fleet {
namespace system {

// PuBackend, SlotBinding, and SystemStats live in system/device.h;
// this header re-exports them transitively for every include site.

struct SystemConfig
{
    int numChannels = 4;
    memctl::ControllerParams inputCtrl;  ///< Blocking by default.
    memctl::ControllerParams outputCtrl; ///< Made non-blocking in ctor
                                         ///< unless explicitly configured.
    dram::DramParams dram;
    PuBackend backend = PuBackend::Fast;
    double clockMHz = 125.0;
    /** Per-PU output region; 0 = auto, sized from the program's declared
     * maxOutputExpansion (at least 2x input) plus 8 KiB of slack. */
    uint64_t outputRegionBytes = 0;
    /**
     * Session mode only (runtime/session.h): fixed per-slot input
     * region size. Every job's stream must fit in one region — armJob
     * rejects longer streams with InvalidArgument. 0 = 256 KiB.
     */
    uint64_t inputRegionBytes = 0;
    uint64_t maxCycles = 1ULL << 40;
    /**
     * Deterministic fault-injection plan (fault/fault.h). Disabled by
     * default; a disabled plan is never consulted, so fault-free runs
     * are bit-identical to the pre-fault-layer simulator.
     */
    fault::FaultPlan faults;
    /**
     * Forward-progress watchdog: if a channel retires no token and moves
     * no DRAM beat for this many cycles, its run ends with a
     * WatchdogStall outcome carrying a diagnostic dump.
     */
    uint64_t watchdogCycles = 200000;
    /**
     * Scale the watchdog with armed job size (ISSUE 7): when nonzero,
     * each channel's effective threshold is
     * max(watchdogCycles, factor x largest armed stream's token count),
     * re-computed as jobs arm and retire — so a large job's naturally
     * longer quiet stretches cannot false-trip a threshold tuned for
     * small ones. 0 (default) = fixed watchdogCycles.
     */
    double watchdogStreamFactor = 0.0;
    /**
     * Cycle-level observability (ISSUE 3, trace/trace.h). Disabled by
     * default; disabled tracing allocates nothing and adds no per-cycle
     * work, and *enabled* tracing is purely observational — outputs,
     * stats, and cycle counts are bit-identical either way. The
     * collected TraceReport is attached to the RunReport.
     */
    trace::TraceConfig trace;
    /**
     * Host worker threads used to step the channel shards (and to arm
     * one-shot units: FastPu's functional pre-runs). 0 = one per
     * hardware thread; 1 = legacy single-threaded path (no pool).
     * Results are identical for every value — see channel_shard.h.
     */
    int numThreads = 0;

    SystemConfig() { outputCtrl.blockingAddressing = false; }
};

class FleetSystem
{
  public:
    /**
     * Build a system with one processing unit per input stream, each
     * slot armed with its stream as a job whose id is the PU index.
     * Each stream must be a whole number of input tokens.
     */
    FleetSystem(const lang::Program &program, const SystemConfig &config,
                std::vector<BitBuffer> streams);

    /**
     * Session mode (the multi-stream job runtime, runtime/session.h):
     * build `num_slots` parked units with fixed-size input regions
     * (SystemConfig::inputRegionBytes) and no streams. Jobs attach to
     * slots with armJob() and the simulation advances in stepEpoch()
     * slices; run() is unavailable (InvalidState).
     */
    FleetSystem(const lang::Program &program, const SystemConfig &config,
                int num_slots);

    /**
     * Multi-program session (ISSUE 8): host several compiled programs
     * at once, each slot pre-armed with the program its SlotBinding
     * names. Empty bindings = every slot runs programs[0] on lane 0
     * (the single-program behaviour). All programs must share input
     * and output token widths (one channel-wide controller
     * configuration serves every slot); a mix of two or more programs
     * is checked against the device area model at construction
     * (checkProgramMix) — violations throw
     * StatusError(ResourceExhausted / InvalidArgument).
     */
    FleetSystem(std::vector<lang::Program> programs,
                const SystemConfig &config, int num_slots,
                std::vector<SlotBinding> bindings = {});
    ~FleetSystem();

    /**
     * Configure-time area check for a program mix: estimates each bound
     * program's per-PU resources (model/area.h) plus the per-channel
     * controllers, and compares the total against the device net of its
     * shell. Pure — no system state; callable standalone (the property
     * tests exercise it against tiny synthetic devices). Returns Ok
     * when the mix fits, ResourceExhausted (with the limiting resource)
     * when it does not, InvalidArgument for malformed bindings.
     */
    static Status checkProgramMix(
        const std::vector<lang::Program> &programs,
        const std::vector<SlotBinding> &bindings,
        const SystemConfig &config, const model::Device &device = {});

    /**
     * Run until every unit has finished or been contained and all output
     * is flushed. Simulation failures (parity errors, output overflow,
     * watchdog stalls, cycle-limit overruns) are *contained* — recorded
     * in the returned RunReport at per-channel / per-PU granularity —
     * not thrown. Protocol misuse is not contained: calling run() twice
     * or on a session-mode system throws StatusError(InvalidState).
     */
    const RunReport &run();

    /** The last run's report. Throws StatusError(InvalidState) before a
     * run has produced one. */
    const RunReport &report() const;

    /**
     * Output stream of one processing unit (valid after run()). For a
     * contained unit this is the partial output flushed before the
     * failure; for a unit on a truncated stream, the full output over
     * the truncated prefix. Throws StatusError(InvalidState) before a
     * run.
     */
    BitBuffer output(int pu) const;

    /// @name Session mode (driven by runtime::Session).
    /// @{

    bool sessionMode() const { return sessionMode_; }

    /** Start the clock: beginRun on every shard (once; one-shot
     * construction starts it to arm its slots). */
    void beginSession();

    /**
     * Arm a parked slot with a job: applies the fault plan's per-job
     * stream truncation (keyed by job id), copies the stream into the
     * slot's input region, arms the unit with it, and re-arms the
     * slot's controller lanes. Errors are returned, not thrown:
     * InvalidState when the system is not in session mode / the slot
     * is busy / its channel halted; InvalidArgument when the stream is
     * not whole tokens, exceeds the input region, or the unit refuses
     * it (a restriction violation in FastPu's pre-run) — the slot then
     * stays parked for the next job.
     */
    Status armJob(int pu, BitBuffer stream, uint64_t job_id);

    /** Step every Active shard up to `epoch_cycles` cycles (worker
     * pool). Shards park early when they drain; the schedule depends
     * only on simulated state, so any thread count is bit-identical. */
    void stepEpoch(uint64_t epoch_cycles);

    /** True once `pu`'s armed job drained (finished or contained, input
     * lane idle, every output bit flushed — the region is readable). */
    bool puDrained(int pu) const;

    /** Shard state of the channel owning `pu`. */
    ShardState puShardState(int pu) const
    {
        return shards_[puShard_[pu]]->state();
    }
    /** The halt status of the channel owning `pu` (Ok if healthy). */
    const Status &puShardStatus(int pu) const
    {
        return shards_[puShard_[pu]]->haltStatus();
    }

    /**
     * A drained job's flushed output. Read *before* retireJob +
     * re-arm: the slot's output region is reused by the next job.
     */
    BitBuffer jobOutput(int pu) const;

    /** Retire a drained job: capture its outcome (with the truncation
     * surfaced as StreamTruncated, as in one-shot runs) and park the
     * slot for the next armJob. */
    RetiredJob retireJob(int pu);

    /**
     * Abandon `pu`'s in-flight job with `status` (ISSUE 7: per-job
     * deadlines): the unit is contained exactly like a parity event —
     * killed in both controllers, slot drains within a few cycles —
     * and the eventual retireJob reports the job with `status`.
     * Returns Ok when the cancel took effect; InvalidState when there
     * is nothing to cancel (slot parked, already drained, or its
     * channel not active).
     */
    Status cancelJob(int pu, Status status);

    /**
     * Force channel `c` into the Halted state with `status` (ISSUE 7:
     * the chaos harness's forced-failure drill). In-flight jobs on the
     * channel strand exactly as they would under a real watchdog trip,
     * exercising the recovery layer's re-queue path deterministically.
     */
    void forceHaltChannel(int c, Status status);

    /** Settle every shard and assemble the session's RunReport (channel
     * outcomes, last-job PU outcomes, trace). Call once, last. */
    const RunReport &finishSession();

    /**
     * Hand the scheduler's own observability tracks (queue depth, jobs
     * in flight — sampled on the session clock by runtime::Session) to
     * the trace assembly: finishSession attaches them to the
     * TraceReport as TraceReport::sessionTracks. No-op content-wise
     * when tracing is disabled. Call before finishSession.
     */
    void setSessionTracks(std::vector<trace::CounterTrack> tracks);

    /// @}

    SystemStats stats() const;

    /** Per-PU stall breakdown (valid after run()). */
    const PuStats &puStats(int pu) const
    {
        return shards_[puShard_[pu]]->puStats(puLocal_[pu]);
    }

    int numPus() const { return static_cast<int>(puShard_.size()); }
    int numShards() const { return static_cast<int>(shards_.size()); }
    /** The memory channel that owns `pu`. */
    int puChannel(int pu) const { return puShard_[pu]; }

    /// @name Per-slot program bindings (ISSUE 8).
    /// @{
    int numPrograms() const
    {
        return static_cast<int>(programs_.size());
    }
    uint32_t slotProgramIndex(int pu) const
    {
        return bindings_[pu].program;
    }
    int slotLane(int pu) const { return bindings_[pu].lane; }
    PuBackend slotBackend(int pu) const
    {
        return slotBackends_[pu];
    }
    const lang::Program &slotProgram(int pu) const
    {
        return programs_[bindings_[pu].program];
    }
    /// @}

    const dram::DramChannel &channel(int c) const
    {
        return shards_[c]->channel();
    }
    const ChannelShard &shard(int c) const { return *shards_[c]; }

    /** Live cycle count of channel `c`'s shard. */
    uint64_t shardCycles(int c) const
    {
        return shards_[c]->cycles();
    }

    /** The device's session clock: max over its shards so far. */
    uint64_t sessionCycles() const;

  private:
    /** Worker threads to use for `jobs` independent jobs. */
    int resolveThreads(int jobs) const;
    /** Shared tail of both constructors: layout, shards, units. */
    void build(int num_slots);
    /**
     * Upload `stream` into `pu`'s input region and arm its unit: the
     * first half of arming a slot, which ChannelShard::rearmPu
     * completes. Touches only the slot's own region and unit, so slots
     * load concurrently.
     */
    Status loadSlot(int pu, const BitBuffer &stream);
    /** Settle every shard and assemble report_ (channel outcomes, PU
     * outcomes, trace, cycles); the run is over. */
    void settle();
    /** Read `bits` payload bits from `pu`'s output region. */
    BitBuffer readOutput(int pu, uint64_t bits) const;

    /** The hosted programs; one-shot and legacy session constructors
     * store exactly one. Token widths are validated equal across the
     * list, so programs_[0] defines the channel-wide widths. */
    std::vector<lang::Program> programs_;
    SystemConfig config_;
    /** One binding per slot (defaulted when the caller passes none). */
    std::vector<SlotBinding> bindings_;
    /** Resolved per-slot backend: binding override or the global. */
    std::vector<PuBackend> slotBackends_;
    std::vector<BitBuffer> streams_; ///< Empty in session mode.
    std::vector<std::unique_ptr<ChannelShard>> shards_;
    std::vector<int> puShard_; ///< Global PU index -> owning shard.
    std::vector<int> puLocal_; ///< Global PU index -> local index.
    std::vector<memctl::StreamRegion> inputRegions_;  ///< Global PU index.
    std::vector<memctl::StreamRegion> outputRegions_; ///< Global PU index.
    /** Tokens kept / original per PU when fault truncation applied; in
     * session mode, the per-slot values for the currently armed job. */
    std::vector<std::pair<uint64_t, uint64_t>> truncation_;
    /** Scheduler-level tracks pending attachment (session mode). */
    std::vector<trace::CounterTrack> sessionTracks_;
    RunReport report_;
    uint64_t cycles_ = 0;
    int threadsUsed_ = 1;
    double wallSeconds_ = 0.0;
    bool ran_ = false;
    bool sessionMode_ = false;
    bool begun_ = false;
};

} // namespace system
} // namespace fleet

#endif // FLEET_SYSTEM_FLEET_SYSTEM_H

#ifndef FLEET_SYSTEM_CHANNEL_SHARD_H
#define FLEET_SYSTEM_CHANNEL_SHARD_H

/**
 * @file
 * One memory channel's complete simulation state: the DRAM timing model,
 * the input and output controllers, and every processing unit assigned to
 * the channel. Section 5 of the paper observes that "the processing units
 * are simply divided among the channels ... no further coordination is
 * needed" — a shard is exactly that coordination-free partition, so the
 * full-system simulator can step each shard on its own host thread with
 * no shared mutable state and still be bit-for-bit identical to a
 * single-threaded run (per-shard cycle counts merge as a max at the end).
 *
 * A shard's run() loop is the reference semantics: the legacy
 * single-threaded FleetSystem::run() is now "run every shard in sequence
 * on the calling thread", which is why numThreads = 1 and numThreads = N
 * are byte-identical by construction (enforced by determinism_test).
 *
 * Failure containment (ISSUE 2): the shard is also the failure boundary.
 * Per-PU faults (parity errors on corrupted read beats, output-region
 * overflow) quarantine the single unit — it is killed in both
 * controllers and skipped thereafter while its channel-mates run to
 * completion. Channel-level faults (a forward-progress watchdog trip,
 * the cycle limit, an unexpected exception) end this shard's run with a
 * diagnostic ChannelOutcome; other shards are unaffected. run() never
 * throws for simulation failures — it reports.
 *
 * Incremental stepping (ISSUE 5): run() is the one-shot wrapper over a
 * resumable three-phase protocol — beginRun() initializes the loop
 * state, step(budget) advances up to `budget` cycles and parks at the
 * budget, on completion (Idle), or on a channel-level failure (Halted),
 * and finishRun() settles the ChannelOutcome. Between step() slices a
 * caller may retire a drained unit's job (retireJob) and re-arm the
 * slot with a fresh stream (rearmPu) without disturbing channel-mates
 * mid-flight — the multi-stream job runtime (runtime/session.h) is
 * built on exactly this seam. run() == beginRun + step(unbounded) +
 * finishRun, so the one-shot path is bit-identical by construction.
 *
 * Sleeping lanes: the cost of a cycle scales with the lanes that can
 * make progress. An untraced, unbatched unit that is quiet() — starved,
 * output-blocked or finished — sleeps until a controller touches its
 * buffers, and its stall counters are credited in bulk before anyone
 * reads them. Traced shards keep every lane on the per-cycle path, and
 * the two are bit-identical (lane_sleep_test).
 */

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "dram/dram.h"
#include "fault/fault.h"
#include "memctl/input_controller.h"
#include "memctl/output_controller.h"
#include "system/pu.h"
#include "system/run_report.h"
#include "trace/trace.h"

namespace fleet {
namespace system {

class RtlBatch;

/** Per-PU stall breakdown (valid after the shard has run). */
struct PuStats
{
    uint64_t inputStarvedCycles = 0;  ///< Wanted a token, buffer empty.
    uint64_t outputBlockedCycles = 0; ///< Emitting, buffer full.
    uint64_t finishedAtCycle = 0;
};

/**
 * Per-channel utilization counters, surfaced through SystemStats so the
 * benches can report where each channel's cycles went.
 */
struct ChannelStats
{
    uint64_t cycles = 0;
    int numPus = 0;
    uint64_t inputBytes = 0;
    uint64_t outputBytes = 0;
    /** Summed over the channel's PUs. */
    uint64_t inputStarvedCycles = 0;
    uint64_t outputBlockedCycles = 0;
    /** DRAM data-bus beats moved (512-bit each by default). */
    uint64_t beatsDelivered = 0;
    uint64_t beatsWritten = 0;
    /** Per-cycle samples of the DRAM queues (occupancy integrals). */
    uint64_t readQueueOccupancySum = 0;
    uint64_t writeQueueOccupancySum = 0;

    double avgReadQueueDepth() const
    {
        return cycles ? double(readQueueOccupancySum) / cycles : 0.0;
    }
    double avgWriteQueueDepth() const
    {
        return cycles ? double(writeQueueOccupancySum) / cycles : 0.0;
    }
    /** Fraction of cycles the DRAM data bus moved a beat. */
    double busUtilization() const
    {
        return cycles ? double(beatsDelivered + beatsWritten) / cycles
                      : 0.0;
    }
};

/** Where a shard's incremental run currently stands. */
enum class ShardState
{
    Unstarted, ///< beginRun() not yet called.
    Active,    ///< Work pending; step() advances the simulation.
    Idle, ///< Every armed slot drained and flushed; step() is a no-op
          ///< until a slot is re-armed.
    Halted, ///< Channel-level failure (watchdog, cycle limit,
            ///< exception); terminal.
};

/** Everything the job runtime needs to report one drained job. */
struct RetiredJob
{
    uint64_t jobId = 0;
    /** Ok / containment status, decided-at cycle, flushed output bits. */
    PuOutcome outcome;
    uint64_t armCycle = 0;
    uint64_t retireCycle = 0;
    uint64_t streamBits = 0;
    uint64_t emittedBits = 0;
    /** This job's slice of the slot's stall counters. */
    PuStats stats;
    /** Tokens kept / original when fault truncation applied (filled by
     * the system layer; equal when the stream ran whole). */
    uint64_t keptTokens = 0;
    uint64_t originalTokens = 0;
};

class ChannelShard
{
  public:
    /**
     * Build the channel's DRAM model and controllers. Input streams are
     * copied into channel memory by the caller (via memory()); PUs are
     * attached with addPu() in local-index order. A fault injector is
     * constructed only when the plan is enabled — a fault-free shard
     * never consults fault state.
     */
    ChannelShard(int channel_index, const dram::DramParams &dram_params,
                 const memctl::ControllerParams &input_params,
                 const memctl::ControllerParams &output_params,
                 std::vector<memctl::StreamRegion> input_regions,
                 std::vector<memctl::StreamRegion> output_regions,
                 uint64_t mem_bytes, const fault::FaultPlan &fault_plan,
                 const trace::TraceConfig &trace_config = {});

    /** Attach the next processing unit (local index = attach order). */
    void addPu(std::unique_ptr<ProcessingUnit> pu, int global_index,
               uint64_t stream_bits);

    /**
     * Attach a batched RTL engine whose lane l is the PU with local
     * index locals[l] (empty locals = identity: lane l is local l,
     * covering every PU — the legacy single-program arrangement). When
     * a local is covered by a batch, run() evaluates and steps it
     * through the batch's vectorized group calls instead of per-unit
     * eval()/step() — observably identical, since phase 1 of the cycle
     * loop only reads per-PU controller state. Multi-program sessions
     * (ISSUE 8) attach one batch per program hosted on the channel,
     * each covering the slots bound to that program.
     */
    void attachBatch(std::shared_ptr<RtlBatch> batch,
                     std::vector<int> locals = {});

    /**
     * Run this channel until all attached PUs are finished or contained
     * and all output is flushed to channel memory. Self-contained —
     * touches no state outside the shard, so shards may run
     * concurrently. Simulation failures (watchdog stall, cycle-limit
     * overrun, escaped exceptions) are returned as the ChannelOutcome,
     * never thrown. Exactly beginRun + step(unbounded) + finishRun.
     */
    ChannelOutcome run(int input_token_width, int output_token_width,
                       uint64_t max_cycles, uint64_t watchdog_cycles);

    /// @name Incremental stepping (the job runtime's driving seam).
    /// @{

    /** Initialize the cycle loop; the shard becomes Active. */
    void beginRun(int input_token_width, int output_token_width,
                  uint64_t max_cycles, uint64_t watchdog_cycles);

    /**
     * Advance up to `budget` cycles. Returns the state afterwards:
     * Active (budget exhausted, work remains), Idle (every armed slot
     * drained and all output flushed — re-arm or finish), or Halted
     * (watchdog / cycle limit / exception; the status is settled by
     * finishRun). Stepping a non-Active shard is a no-op.
     */
    ShardState step(uint64_t budget);

    /** Settle the ChannelOutcome (Ok when Idle). Call once, last. */
    ChannelOutcome finishRun();

    ShardState state() const { return state_; }
    /** The failure recorded when the shard halted (Ok otherwise). */
    const Status &haltStatus() const { return haltStatus_; }

    /**
     * Park a slot: it holds no job, is skipped by the cycle loop, and
     * never blocks channel completion. Session-mode construction parks
     * every slot; retireJob() parks the slot it retires. Arm with
     * rearmPu(). Call only before beginRun() or on a retired slot.
     */
    void parkPu(int local);

    /**
     * True once `local`'s armed job has fully drained: the unit
     * finished (or was contained), its input lane is idle, and every
     * output bit has been flushed to channel memory — so the output
     * region is readable and the slot is safe to retire + re-arm.
     */
    bool puDrained(int local) const;

    /**
     * Capture a drained job's outcome and park the slot. Closes the
     * job's trace span at the current cycle. The caller reads the
     * output region *before* the next rearmPu (the region is reused).
     */
    RetiredJob retireJob(int local);

    /**
     * Arm a parked slot with a fresh stream of `stream_bits` payload
     * bits (already written at the lane's region base by the caller,
     * who also re-targeted a stream-specialized unit — FastPu::rearm).
     * Resets both controller lanes and the unit, starts the job's trace
     * span, and re-bases the forward-progress watchdog. Channel-mates
     * are untouched mid-flight. The shard becomes Active.
     */
    void rearmPu(int local, uint64_t stream_bits, uint64_t job_id);

    /** The attached unit (the system layer re-targets FastPu here). */
    ProcessingUnit &processingUnit(int local) { return *pus_[local].pu; }

    /** True when the slot holds no job and can be armed. */
    bool puParked(int local) const { return pus_[local].parked; }

    /**
     * Abandon `local`'s in-flight job (ISSUE 7: deadline enforcement):
     * contain the unit with `status` exactly as a parity/overflow event
     * would — killed in both controllers, in-flight bursts discarded,
     * committed output flushed — so the slot drains within a few cycles
     * and retireJob() reclaims it for the next job. No-op if the slot
     * is parked, already drained/contained, or the shard is not Active.
     * Returns true if the cancel took effect.
     */
    bool cancelPu(int local, Status status);

    /**
     * Force a channel-level halt (ISSUE 7: the chaos harness's fault
     * drill): the shard transitions to Halted with `status`, exactly
     * as a watchdog trip would land it, so the recovery layer's
     * re-queue path can be exercised deterministically. No-op unless
     * the shard is Active or Idle.
     */
    void forceHalt(Status status);

    /**
     * Scale the forward-progress watchdog with armed job size
     * (ISSUE 7): the effective threshold is
     * max(watchdog_cycles, factor x largest armed stream's tokens),
     * re-computed whenever the armed set changes (beginRun / rearmPu /
     * retireJob), so a large job's naturally longer quiet stretches
     * (deep prefetch stalls, fault-injected latency storms) cannot
     * false-trip a threshold tuned for small jobs. 0 (default)
     * disables scaling — the threshold is watchdog_cycles verbatim.
     * Set before beginRun().
     */
    void setWatchdogStreamFactor(double factor)
    {
        watchdogStreamFactor_ = factor;
    }

    /// @}

    int channelIndex() const { return channelIndex_; }
    int numPus() const { return static_cast<int>(pus_.size()); }
    uint64_t cycles() const { return cycles_; }

    dram::DramChannel &channel() { return *channel_; }
    const dram::DramChannel &channel() const { return *channel_; }
    const memctl::InputController &inputController() const
    {
        return *inputCtrl_;
    }
    const memctl::OutputController &outputController() const
    {
        return *outputCtrl_;
    }

    /// @name Per-PU results, by local index (valid after run()).
    /// @{
    const PuStats &puStats(int local) const { return pus_[local].stats; }
    uint64_t emittedBits(int local) const { return pus_[local].emittedBits; }
    uint64_t flushedPayloadBits(int local) const
    {
        return outputCtrl_->payloadBits(local);
    }
    const PuOutcome &puOutcome(int local) const
    {
        return pus_[local].outcome;
    }
    /// @}

    /** Utilization counters (valid after run()). */
    const ChannelStats &stats() const { return stats_; }

    /** True if this shard carries a trace collector. */
    bool traceEnabled() const { return trace_ != nullptr; }

    /**
     * Freeze and take the channel's trace — spans closed at the final
     * cycle, component CounterSets harvested from the DRAM model, both
     * controllers, and every attached unit. Call once, after run().
     */
    trace::ChannelTrace takeTrace();

  private:
    struct PuSlot
    {
        std::unique_ptr<ProcessingUnit> pu;
        int globalIndex = -1;
        uint64_t streamBits = 0;
        uint64_t emittedBits = 0;
        bool finishedSeen = false;
        bool failed = false; ///< Contained: skipped until re-armed.
        bool parked = false; ///< No job: skipped, never blocks finish.
        /** Armed via rearmPu (job runtime) — a trace job span is open.
         * One-shot slots armed by addPu stay false: no job spans. */
        bool hasJob = false;
        uint64_t jobId = 0;
        uint64_t armCycle = 0;
        /** Retired jobs' bytes, rolled up for the channel stats. */
        uint64_t pastInputBytes = 0;
        uint64_t pastOutputBytes = 0;
        uint64_t jobsRetired = 0;
        PuStats stats;
        /** Snapshot at arm — per-job stall slices are deltas. */
        PuStats statsAtArm;
        PuOutcome outcome;
        /** Last cycle's handshake, for the watchdog's stall diagnosis.
         * Constant while the lane sleeps. */
        PuInputs lastIn;
        PuOutputs lastOut;
        /** While asleep: the first cycle whose stall counts are not yet
         * credited to stats. */
        uint64_t sleptFrom = 0;
    };

    /** Quarantine one PU: kill it in both controllers, record why. */
    void containPu(int local, Status status);
    /** Credit a sleeping lane's stall counters for every cycle before
     * `through`, exactly as the per-cycle path counts them. */
    void creditSleep(PuSlot &slot, uint64_t through);
    /** Credit and wake `local` if it sleeps (no-op otherwise). */
    void wakeLane(int local, uint64_t through);
    /** Credit every sleeping lane through `through`; they stay asleep. */
    void settleSleepers(uint64_t through);
    /** Effective watchdog threshold for the currently armed set. */
    void recomputeWatchdogBudget();
    /** Fill stats_ from whatever state the run reached. */
    void finalizeStats();
    /** Multi-line forward-progress diagnostic for a watchdog trip. */
    std::string watchdogDump(uint64_t stalled_cycles) const;
    /** One PU's stall classification for the watchdog dump. */
    const char *stallReason(const PuSlot &slot) const;

    int channelIndex_;
    trace::TraceConfig traceConfig_;
    /** Null unless tracing is enabled — the null check is the entire
     * cost of the disabled mode, mirroring the fault layer. */
    std::unique_ptr<trace::ShardTrace> trace_;
    std::optional<fault::ChannelFaults> faults_;
    std::unique_ptr<dram::DramChannel> channel_;
    std::unique_ptr<memctl::InputController> inputCtrl_;
    std::unique_ptr<memctl::OutputController> outputCtrl_;
    std::vector<PuSlot> pus_;
    /** One batched RTL engine + the local PU index behind each of its
     * lanes. Locals covered by a binding are group-evaluated. */
    struct BatchBinding
    {
        std::shared_ptr<RtlBatch> batch;
        std::vector<int> locals; ///< Empty = identity over all PUs.
    };
    std::vector<BatchBinding> batches_;
    /** Per-local (batch index, lane in batch); (-1, -1) = unbatched,
     * evaluated per-unit. Resolved by beginRun(). */
    std::vector<std::pair<int, int>> laneOfLocal_;
    /** Per-cycle scratch: every live PU's gathered input ports. */
    std::vector<PuInputs> cycleIn_;
    /**
     * Per-local sleep flag, dense so the per-cycle loops skip a
     * sleeping lane without touching its PuSlot. A lane sleeps after a
     * cycle in which it was unbatched and untraced, did not produce,
     * consume or finish, and its unit was quiet(): its inputs then
     * hold until a controller touches its buffers, so every skipped
     * cycle would repeat the last one. The controllers' touched lists
     * wake it; its stall counts are credited in bulk (creditSleep).
     */
    std::vector<uint8_t> asleep_;
    /** Sleeping lanes that have not finished (they block Idle). */
    int sleepingUnfinished_ = 0;
    uint64_t cycles_ = 0;
    ChannelStats stats_;

    // Resumable-run state, persisted across step() slices.
    ShardState state_ = ShardState::Unstarted;
    int inWidth_ = 0;
    int outWidth_ = 0;
    uint64_t maxCycles_ = 0;
    uint64_t watchdogCycles_ = 0;
    /** Stream-size scaling for the watchdog (0 = off). */
    double watchdogStreamFactor_ = 0.0;
    /** Effective threshold: max(watchdogCycles_, factor x max armed
     * stream tokens). Equals watchdogCycles_ when scaling is off. */
    uint64_t watchdogBudget_ = 0;
    uint64_t lastActivityCycle_ = 0;
    uint64_t lastBeats_ = 0;
    Status haltStatus_;
};

} // namespace system
} // namespace fleet

#endif // FLEET_SYSTEM_CHANNEL_SHARD_H

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
 * Every thread count runs the same per-shard loop, which is why
 * numThreads = 1 and numThreads = N are byte-identical by construction
 * (enforced by determinism_test).
 *
 * Failure containment (ISSUE 2): the shard is also the failure boundary.
 * Per-PU faults (parity errors on corrupted read beats, output-region
 * overflow) quarantine the single unit — it is killed in both
 * controllers and skipped thereafter while its channel-mates run to
 * completion. Channel-level faults (a forward-progress watchdog trip,
 * the cycle limit, an unexpected exception) end this shard's run with a
 * diagnostic ChannelOutcome; other shards are unaffected. step() never
 * throws for simulation failures — it reports.
 *
 * One arm path: units attach parked; beginRun() initializes the loop
 * state, and each stream arms its slot with rearmPu() (its unit
 * already armed by the caller, ProcessingUnit::arm). step(budget)
 * advances up to `budget` cycles and parks at the budget, on completion
 * (Idle), or on a channel-level failure (Halted), and finishRun()
 * settles the ChannelOutcome. Between step() slices a caller may retire
 * a drained unit's job (retireJob) and re-arm the slot with a fresh
 * stream without disturbing channel-mates mid-flight. The shard does
 * not know whether it serves one job per slot or many: a one-shot
 * FleetSystem arms every slot once at cycle 0, steps without a budget
 * and settles with finishRun(), exactly as a session finishes.
 *
 * Lane masks: the cost of a cycle follows the lanes whose handshake can
 * change. The shard keeps every lane's handshake inputs (input valid,
 * input finished, output ready) and outputs (input ready, output valid,
 * output finished) as bitmask words, 64 lanes each. The lane's own pop
 * and push and the controllers' touched lists update the input bits as
 * buffers change, so no pass recomputes them. A cycle then runs:
 *
 *  1. wake the lanes whose inputs changed, hand each batched engine its
 *     changed lanes' inputs, and evaluate every batch, gathering its
 *     output bits;
 *  2. evaluate the awake unbatched units (FastPu, which replays its
 *     pre-run and never reads the input token, so none is peeked), all
 *     before any handshake acts, then walk only the set bits of the
 *     lanes that push, pop or finish. A lane's stall class (starved,
 *     blocked) is a pair of mask bits; its counters are credited in
 *     bulk when the class changes or a reader needs them;
 *  3. tick the controllers and the DRAM model, re-derive the touched
 *     lanes' input bits, and clock the batches and awake units.
 *
 * An unbatched unit that is quiet() and did not act sleeps: it is not
 * evaluated or stepped until its inputs change (ProcessingUnit::quiet).
 * A batched lane costs its engine's sweep and a bit gather, and nothing
 * more unless it acts or changes stall class. Traced shards run the
 * same loop and record every lane's phase from the same masks.
 *
 * The shard, its controllers, DRAM model and hot per-lane arrays sit on
 * cache lines of their own (util/aligned.h), and FleetSystem allocates
 * units shard by shard, so shards stepping on different host threads
 * share no written line.
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
#include "util/aligned.h"

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

class alignas(kCacheLineBytes) ChannelShard
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

    /**
     * Attach the next processing unit (local index = attach order),
     * parked: it holds no job, is skipped by the cycle loop, and never
     * blocks channel completion until rearmPu() arms it.
     */
    void addPu(std::unique_ptr<ProcessingUnit> pu, int global_index);

    /**
     * Attach a batched RTL engine whose lane l is the PU with local
     * index locals[l]. When a local is covered by a batch, step()
     * evaluates and steps it through the batch's vectorized group calls
     * instead of per-unit eval()/step() — observably identical, since
     * a lane's inputs depend only on its own buffers: phase 1 hands
     * the batch each lane's inputs when they change and gathers every
     * lane's outputs into the lane masks. The system attaches one
     * batch per (channel, program) group of batched slots.
     */
    void attachBatch(std::shared_ptr<RtlBatch> batch,
                     std::vector<int> locals);

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
     * who also armed the unit with it — ProcessingUnit::arm). Resets
     * both controller lanes, starts the job's trace span, and re-bases
     * the forward-progress watchdog. Channel-mates are untouched
     * mid-flight. The shard becomes Active.
     */
    void rearmPu(int local, uint64_t stream_bits, uint64_t job_id);

    /**
     * Arm `local`'s unit with the stream its next rearmPu() feeds it
     * (ProcessingUnit::arm). Touches only that unit, so distinct lanes
     * arm concurrently; never call it while the shard steps.
     */
    Status armUnit(int local, const BitBuffer &stream)
    {
        return pus_[local].pu->arm(stream);
    }

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

    /// @name Per-PU results, by local index (valid after finishRun()).
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

    /** Utilization counters (valid after finishRun()). */
    const ChannelStats &stats() const { return stats_; }

    /**
     * Freeze and take the channel's trace — spans closed at the final
     * cycle, component CounterSets harvested from the DRAM model, both
     * controllers, and every attached unit. Call once, after
     * finishRun().
     */
    trace::ChannelTrace takeTrace();

  private:
    struct PuSlot
    {
        std::unique_ptr<ProcessingUnit> pu;
        int globalIndex = -1;
        uint64_t streamBits = 0;
        uint64_t emittedBits = 0;
        bool failed = false; ///< Contained: skipped until re-armed.
        /** No job: skipped, never blocks finish. An armed slot has an
         * open trace job span. */
        bool parked = false;
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
    };

    /**
     * Loop state of 64 lanes, one bit per local PU (bit l % 64 of word
     * l / 64). Bits past numPus() stay clear.
     */
    struct LaneWord
    {
        /// @name Handshake inputs, kept current as the buffers change.
        /// @{
        uint64_t inputValid = 0;
        uint64_t inputFinished = 0;
        uint64_t outputReady = 0;
        /// @}
        /// @name Outputs of the lane's last evaluation (they hold
        /// while an unbatched lane sleeps).
        /// @{
        uint64_t inputReady = 0;
        uint64_t outputValid = 0;
        uint64_t outputFinished = 0;
        /// @}
        uint64_t live = 0;     ///< Armed and not contained.
        uint64_t finished = 0; ///< output_finished seen this job.
        /** Stall class of the last stepped cycle; the run since
         * runFrom_ is not yet credited to the slot's stats. */
        uint64_t starved = 0;
        uint64_t blocked = 0;
        uint64_t asleep = 0; ///< Quiet unbatched unit, not evaluated.
        uint64_t dirty = 0;  ///< Inputs changed since the last phase 1.
        uint64_t unbatched = 0; ///< Evaluated per unit, not by a batch.
    };

    LaneWord &laneWord(int local) { return masks_[size_t(local) >> 6]; }
    const LaneWord &laneWord(int local) const
    {
        return masks_[size_t(local) >> 6];
    }
    bool laneFinished(int local) const;
    /** The lane's handshake inputs as the masks hold them; the token
     * is read from its buffer only when `peek` is set. */
    PuInputs laneInputs(int local, bool peek) const;
    /** Re-derive input valid / finished from the lane's input buffer;
     * a change marks the lane dirty. */
    void refreshInputs(int local);
    /** Re-derive output ready from the lane's output buffer; a change
     * marks the lane dirty. */
    void refreshOutputReady(int local);
    /** Record one cycle's phase for every lane of word `w` (traced). */
    void recordPhases(size_t w, uint64_t acting, uint64_t starved,
                      uint64_t blocked);

    /** Quarantine one PU: kill it in both controllers, record why.
     * Its stall counters are credited for every cycle before
     * `through`. */
    void containPu(int local, Status status, uint64_t through);
    /** Credit the lane's current stall class for every cycle in
     * [runFrom_, through); the class keeps running from `through`. */
    void creditLane(int local, uint64_t through);
    /** Credit the lane through `through` and clear its stall class: it
     * leaves the loop (contained, retired) or starts a new job. */
    void settleLane(int local, uint64_t through);
    /** Credit every lane through `through`; classes keep running. */
    void settleAll(uint64_t through);
    /** Effective watchdog threshold for the currently armed set. */
    void recomputeWatchdogBudget();
    /** Fill stats_ from whatever state the run reached. */
    void finalizeStats();
    /** Multi-line forward-progress diagnostic for a watchdog trip. */
    std::string watchdogDump(uint64_t stalled_cycles) const;
    /** One PU's stall classification for the watchdog dump. */
    const char *stallReason(int local) const;

    int channelIndex_;
    trace::TraceConfig traceConfig_;
    /** Null unless tracing is enabled — the null check is the entire
     * cost of the disabled mode, mirroring the fault layer. */
    std::unique_ptr<trace::ShardTrace> trace_;
    std::optional<fault::ChannelFaults> faults_;
    std::unique_ptr<dram::DramChannel> channel_;
    std::unique_ptr<memctl::InputController> inputCtrl_;
    std::unique_ptr<memctl::OutputController> outputCtrl_;
    AlignedVec<PuSlot> pus_;
    /** One batched RTL engine + the local PU index behind each of its
     * lanes. Locals covered by a binding are group-evaluated. */
    struct BatchBinding
    {
        std::shared_ptr<RtlBatch> batch;
        std::vector<int> locals; ///< Local PU behind each lane.
    };
    std::vector<BatchBinding> batches_;
    /** Per-local (batch index, lane in batch); (-1, -1) = unbatched,
     * evaluated per-unit. Resolved by beginRun(). */
    std::vector<std::pair<int, int>> laneOfLocal_;
    /** The lane masks, ceil(numPus() / 64) words (see LaneWord). */
    AlignedVec<LaneWord> masks_;
    /** Per local: the first cycle of its stall run not yet credited. */
    AlignedVec<uint64_t> runFrom_;
    /** Per unbatched local: outputToken of its last evaluation. */
    AlignedVec<uint64_t> outToken_;
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

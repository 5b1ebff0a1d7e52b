#include "system/channel_shard.h"

#include <algorithm>
#include <bit>
#include <sstream>

#include "system/pu_rtl_batch.h"
#include "util/bits.h"
#include "util/logging.h"
#include "util/status.h"

namespace fleet {
namespace system {

namespace {

uint64_t
laneBit(int local)
{
    return uint64_t(1) << (local & 63);
}

void
assignBit(uint64_t &word, uint64_t bit, bool value)
{
    word = value ? word | bit : word & ~bit;
}

/** fn(local) for every set bit of word w's `bits`, lowest first. */
template <typename Fn>
void
forEachLane(uint64_t bits, size_t w, Fn &&fn)
{
    for (; bits != 0; bits &= bits - 1)
        fn(static_cast<int>(w * 64 + std::countr_zero(bits)));
}

} // namespace

ChannelShard::ChannelShard(int channel_index,
                           const dram::DramParams &dram_params,
                           const memctl::ControllerParams &input_params,
                           const memctl::ControllerParams &output_params,
                           std::vector<memctl::StreamRegion> input_regions,
                           std::vector<memctl::StreamRegion> output_regions,
                           uint64_t mem_bytes,
                           const fault::FaultPlan &fault_plan,
                           const trace::TraceConfig &trace_config)
    : channelIndex_(channel_index), traceConfig_(trace_config)
{
    // A fault-free shard carries no injector at all: the DRAM model's
    // null check is the only cost, so disabled-plan runs are
    // bit-identical to a build without the fault layer. The trace
    // collector follows the same discipline.
    if (trace_config.enabled())
        trace_ = std::make_unique<trace::ShardTrace>(
            channel_index, trace_config, dram_params.maxOutstandingReads,
            dram_params.maxOutstandingWrites);
    if (fault_plan.enabled())
        faults_.emplace(fault_plan, channel_index);
    channel_ = std::make_unique<dram::DramChannel>(
        dram_params, mem_bytes, faults_ ? &*faults_ : nullptr);
    inputCtrl_ = std::make_unique<memctl::InputController>(
        *channel_, input_params, std::move(input_regions));
    outputCtrl_ = std::make_unique<memctl::OutputController>(
        *channel_, output_params, std::move(output_regions));
}

void
ChannelShard::addPu(std::unique_ptr<ProcessingUnit> pu, int global_index)
{
    PuSlot slot;
    slot.pu = std::move(pu);
    slot.globalIndex = global_index;
    slot.parked = true;
    // Until a job arms it, the slot reports its global PU index as the
    // job id (a one-shot run arms exactly that job).
    slot.jobId = static_cast<uint64_t>(global_index);
    pus_.push_back(std::move(slot));
    // A parked lane counts as finished-and-flushed so it never blocks
    // the channel's completion check.
    outputCtrl_->setPuFinished(numPus() - 1);
    if (trace_)
        trace_->addPu(global_index);
}

void
ChannelShard::attachBatch(std::shared_ptr<RtlBatch> batch,
                          std::vector<int> locals)
{
    batches_.push_back(BatchBinding{std::move(batch), std::move(locals)});
}

void
ChannelShard::containPu(int local, Status status, uint64_t through)
{
    PuSlot &slot = pus_[local];
    if (slot.failed)
        return;
    settleLane(local, through);
    slot.failed = true;
    laneWord(local).live &= ~laneBit(local);
    if (trace_)
        trace_->marker(local, cycles_,
                       std::string("contained: ") +
                           statusCodeName(status.code));
    slot.outcome.status = std::move(status);
    slot.outcome.atCycle = cycles_;
    // Kill it in both controllers so the shared burst registers and
    // addressing units keep flowing for the channel's healthy units:
    // no further input bursts (in-flight ones are discarded), and the
    // output side flushes what was already emitted as a final burst.
    inputCtrl_->killPu(local);
    outputCtrl_->setPuFinished(local);
}

void
ChannelShard::creditLane(int local, uint64_t through)
{
    uint64_t &from = runFrom_[local];
    if (through <= from)
        return;
    const LaneWord &m = laneWord(local);
    const uint64_t bit = laneBit(local);
    PuStats &stats = pus_[local].stats;
    if (m.starved & bit)
        stats.inputStarvedCycles += through - from;
    if (m.blocked & bit)
        stats.outputBlockedCycles += through - from;
    from = through;
}

void
ChannelShard::settleLane(int local, uint64_t through)
{
    creditLane(local, through);
    LaneWord &m = laneWord(local);
    m.starved &= ~laneBit(local);
    m.blocked &= ~laneBit(local);
}

void
ChannelShard::settleAll(uint64_t through)
{
    for (size_t w = 0; w < masks_.size(); ++w)
        forEachLane(masks_[w].starved | masks_[w].blocked, w,
                    [&](int l) { creditLane(l, through); });
}

bool
ChannelShard::laneFinished(int local) const
{
    return laneWord(local).finished & laneBit(local);
}

PuInputs
ChannelShard::laneInputs(int local, bool peek) const
{
    const LaneWord &m = laneWord(local);
    const uint64_t bit = laneBit(local);
    PuInputs in;
    in.inputValid = m.inputValid & bit;
    in.inputFinished = m.inputFinished & bit;
    in.outputReady = m.outputReady & bit;
    if (peek && in.inputValid)
        in.inputToken = inputCtrl_->buffer(local).peek(inWidth_);
    return in;
}

void
ChannelShard::refreshInputs(int local)
{
    const memctl::BitFifo &buf = inputCtrl_->buffer(local);
    LaneWord &m = laneWord(local);
    const uint64_t bit = laneBit(local);
    const uint64_t valid = m.inputValid, finished = m.inputFinished;
    assignBit(m.inputValid, bit, buf.sizeBits() >= uint64_t(inWidth_));
    assignBit(m.inputFinished, bit,
              inputCtrl_->streamExhausted(local) && buf.empty());
    if (((valid ^ m.inputValid) | (finished ^ m.inputFinished)) & bit)
        m.dirty |= bit;
}

void
ChannelShard::refreshOutputReady(int local)
{
    LaneWord &m = laneWord(local);
    const uint64_t bit = laneBit(local);
    const uint64_t ready = m.outputReady;
    assignBit(m.outputReady, bit,
              outputCtrl_->buffer(local).freeBits() >= uint64_t(outWidth_));
    if ((ready ^ m.outputReady) & bit)
        m.dirty |= bit;
}

bool
ChannelShard::cancelPu(int local, Status status)
{
    PuSlot &slot = pus_[local];
    if (state_ != ShardState::Active)
        return false;
    if (slot.parked || slot.failed)
        return false;
    if (puDrained(local))
        return false; // Already drained: the job won, retire it.
    containPu(local, std::move(status), cycles_);
    return true;
}

void
ChannelShard::forceHalt(Status status)
{
    if (state_ != ShardState::Active && state_ != ShardState::Idle)
        return;
    haltStatus_ = std::move(status);
    state_ = ShardState::Halted;
}

void
ChannelShard::recomputeWatchdogBudget()
{
    watchdogBudget_ = watchdogCycles_;
    if (watchdogStreamFactor_ <= 0.0 || inWidth_ <= 0)
        return;
    uint64_t max_tokens = 0;
    for (const PuSlot &slot : pus_) {
        if (slot.parked)
            continue;
        max_tokens = std::max(
            max_tokens, slot.streamBits / uint64_t(inWidth_));
    }
    uint64_t scaled = static_cast<uint64_t>(watchdogStreamFactor_ *
                                            double(max_tokens));
    watchdogBudget_ = std::max(watchdogBudget_, scaled);
}

void
ChannelShard::beginRun(int input_token_width, int output_token_width,
                       uint64_t max_cycles, uint64_t watchdog_cycles)
{
    inWidth_ = input_token_width;
    outWidth_ = output_token_width;
    maxCycles_ = max_cycles;
    watchdogCycles_ = watchdog_cycles;
    // Forward-progress watchdog: a configuration can genuinely hang
    // (e.g. blocking output addressing with divergent filter rates, the
    // pathology Section 5's non-blocking default avoids — or a PU
    // program that spins in a `while` without retiring tokens). If no
    // PU retired a token and no DRAM beat moved for watchdog_cycles,
    // turn the hang into a WatchdogStall outcome with a diagnostic dump
    // instead of spinning to maxCycles. Per-shard, the watchdog is
    // stricter than a global one: a stuck channel cannot hide behind
    // another channel's activity.
    lastActivityCycle_ = 0;
    lastBeats_ = 0;
    haltStatus_ = Status::make(StatusCode::Ok);
    cycles_ = 0;
    recomputeWatchdogBudget();

    // Resolve which batched engine lane (if any) drives each local PU.
    laneOfLocal_.assign(pus_.size(), {-1, -1});
    for (size_t b = 0; b < batches_.size(); ++b) {
        BatchBinding &binding = batches_[b];
        int lanes = binding.batch->lanes();
        if (static_cast<int>(binding.locals.size()) != lanes) {
            panic("system: batched RTL engine has ", lanes,
                  " lanes but ", binding.locals.size(),
                  " bound local PUs");
        }
        for (int lane = 0; lane < lanes; ++lane) {
            int local = binding.locals[lane];
            if (local < 0 || local >= numPus())
                panic("system: batch lane ", lane,
                      " binds out-of-range local PU ", local);
            if (laneOfLocal_[local].first >= 0)
                panic("system: local PU ", local,
                      " bound to two batched engines");
            laneOfLocal_[local] = {static_cast<int>(b), lane};
        }
    }
    // Every lane starts parked: no bit is live until rearmPu().
    masks_.assign((pus_.size() + 63) / 64, LaneWord{});
    runFrom_.assign(pus_.size(), 0);
    outToken_.assign(pus_.size(), 0);
    for (int l = 0; l < numPus(); ++l)
        if (laneOfLocal_[l].first < 0)
            laneWord(l).unbatched |= laneBit(l);
    state_ = ShardState::Active;
}

ShardState
ChannelShard::step(uint64_t budget)
{
    if (state_ != ShardState::Active)
        return state_;
    const int in_width = inWidth_;
    const int out_width = outWidth_;
    const size_t words = masks_.size();
    // A failure halts the loop with stall runs credited through here:
    // the end of the last cycle whose stall classes were recorded.
    uint64_t counted = cycles_;

    try {
        for (; budget > 0 && cycles_ < maxCycles_; ++cycles_, --budget) {
            bool activity = false;
            bool all_finished = true;

            // Phase 1: wake the lanes whose inputs changed, and hand the
            // batched engines those lanes' new inputs (inputs persist in
            // an engine between cycles). Then evaluate every batch in
            // one vectorized sweep and gather its output bits.
            for (size_t w = 0; w < words; ++w) {
                LaneWord &m = masks_[w];
                m.asleep &= ~m.dirty;
                forEachLane(m.dirty & m.live & ~m.unbatched, w, [&](int l) {
                    auto [b, lane] = laneOfLocal_[l];
                    batches_[b].batch->setLaneInputs(lane,
                                                     laneInputs(l, true));
                });
                m.dirty = 0;
            }
            for (BatchBinding &binding : batches_) {
                RtlBatch &batch = *binding.batch;
                batch.evalAll();
                for (size_t lane = 0; lane < binding.locals.size();
                     ++lane) {
                    const int l = binding.locals[lane];
                    LaneWord &m = laneWord(l);
                    const uint64_t bit = laneBit(l);
                    assignBit(m.inputReady, bit, batch.inputReady(lane));
                    assignBit(m.outputValid, bit, batch.outputValid(lane));
                    assignBit(m.outputFinished, bit,
                              batch.outputFinished(lane));
                }
            }

            // Phase 2: evaluate the awake unbatched units, all before
            // any handshake acts, so a unit that throws abandons the
            // whole cycle.
            for (size_t w = 0; w < words; ++w) {
                LaneWord &m = masks_[w];
                forEachLane(m.unbatched & m.live & ~m.asleep, w, [&](int l) {
                    const uint64_t bit = laneBit(l);
                    PuOutputs out = pus_[l].pu->eval(laneInputs(l, false));
                    assignBit(m.inputReady, bit, out.inputReady);
                    assignBit(m.outputValid, bit, out.outputValid);
                    assignBit(m.outputFinished, bit, out.outputFinished);
                    outToken_[l] = out.outputToken;
                });
            }
            // Then act on the lanes whose handshake fires (each touches
            // only its own buffers) and classify every lane's cycle.
            for (size_t w = 0; w < words; ++w) {
                LaneWord &m = masks_[w];
                const uint64_t pushes = m.live & m.outputValid & m.outputReady;
                const uint64_t pops = m.live & m.inputReady & m.inputValid;
                const uint64_t finishes =
                    m.live & m.outputFinished & ~m.finished;
                const uint64_t acting = pushes | pops | finishes;
                // Shared taxonomy (trace/taxonomy.h), for lanes still
                // unfinished after this cycle. The two counters are
                // independent conditions, not the exclusive phase
                // partition the trace records.
                const uint64_t waiting = m.live & ~(m.finished | finishes);
                const uint64_t starved = waiting & m.inputReady &
                                         ~m.inputValid & ~m.inputFinished;
                const uint64_t blocked =
                    waiting & m.outputValid & ~m.outputReady;
                if (trace_)
                    recordPhases(w, acting, starved, blocked);

                forEachLane(pushes, w, [&](int l) {
                    const auto [b, lane] = laneOfLocal_[l];
                    const uint64_t token =
                        b < 0 ? outToken_[l]
                              : batches_[b].batch->outputToken(lane);
                    outputCtrl_->push(l, token, out_width);
                    pus_[l].emittedBits += out_width;
                    refreshOutputReady(l);
                });
                forEachLane(pops, w, [&](int l) {
                    inputCtrl_->buffer(l).drop(in_width);
                    refreshInputs(l);
                    m.dirty |= laneBit(l); // The token moved on.
                });
                forEachLane(finishes, w, [&](int l) {
                    outputCtrl_->setPuFinished(l);
                    pus_[l].stats.finishedAtCycle = cycles_;
                });
                // A lane whose stall class changes closes its run.
                forEachLane((starved ^ m.starved) | (blocked ^ m.blocked), w,
                            [&](int l) { creditLane(l, cycles_); });
                m.starved = starved;
                m.blocked = blocked;
                m.finished |= finishes;
                // An evaluated unit that did not act sleeps if quiet.
                forEachLane(m.unbatched & m.live & ~m.asleep & ~acting, w,
                            [&](int l) {
                                if (pus_[l].pu->quiet())
                                    m.asleep |= laneBit(l);
                            });
                activity = activity || acting != 0;
                all_finished = all_finished && (m.live & ~m.finished) == 0;
            }
            counted = cycles_ + 1;

            inputCtrl_->tick();
            outputCtrl_->tick();
            channel_->tick();
            // A buffer a controller touched may change its lane's
            // inputs; a change wakes the lane next cycle.
            for (int l : inputCtrl_->touchedLanes())
                refreshInputs(l);
            for (int l : outputCtrl_->touchedLanes())
                refreshOutputReady(l);
            // One vectorized clock edge per batched group. Failed lanes
            // advance too, but nothing observes them again. Awake
            // unbatched units step per-unit; a sleeping one is quiet, so
            // step() would change nothing.
            for (BatchBinding &binding : batches_)
                binding.batch->step();
            for (size_t w = 0; w < words; ++w) {
                const LaneWord &m = masks_[w];
                forEachLane(m.unbatched & m.live & ~m.asleep, w,
                            [&](int l) { pus_[l].pu->step(); });
            }

            // Containment events raised by this cycle's ticks. Polled
            // after the ticks so the kill takes effect from the next
            // cycle — the same point on every host thread count.
            while (auto parity = inputCtrl_->takeParityEvent()) {
                if (laneFinished(parity->pu))
                    continue; // Already done; stale beat is harmless.
                std::ostringstream os;
                os << "PU " << pus_[parity->pu].globalIndex
                   << ": parity error on read beat at channel address "
                   << parity->addr;
                containPu(parity->pu,
                          Status::make(StatusCode::ParityError, os.str()),
                          cycles_ + 1);
                activity = true;
            }
            while (auto overflow = outputCtrl_->takeOverflowEvent()) {
                std::ostringstream os;
                os << "PU " << pus_[overflow->pu].globalIndex
                   << ": output exceeds its " << overflow->regionBytes
                   << "-byte region (declare a larger "
                      "maxOutputExpansion)";
                containPu(overflow->pu,
                          Status::make(StatusCode::OutputOverflow,
                                       os.str()),
                          cycles_ + 1);
                activity = true;
            }

            stats_.readQueueOccupancySum += channel_->outstandingReads();
            stats_.writeQueueOccupancySum += channel_->outstandingWrites();
            if (trace_)
                trace_->dramCycle(cycles_, channel_->outstandingReads(),
                                  channel_->outstandingWrites());

            uint64_t beats =
                channel_->beatsDelivered() + channel_->beatsWritten();
            if (activity || beats != lastBeats_) {
                lastActivityCycle_ = cycles_;
                lastBeats_ = beats;
            } else if (cycles_ - lastActivityCycle_ > watchdogBudget_) {
                settleAll(cycles_ + 1);
                haltStatus_ = Status::make(
                    StatusCode::WatchdogStall,
                    watchdogDump(cycles_ - lastActivityCycle_));
                state_ = ShardState::Halted;
                return state_;
            }

            // Idle also waits for discarded in-flight bursts of
            // contained lanes to drain: a lane with reads still in
            // flight is not puIdle, so retiring its job (and re-arming
            // the slot) would be impossible once step() short-circuits.
            if (all_finished && outputCtrl_->done() &&
                inputCtrl_->inflightBursts() == 0) {
                ++cycles_;
                settleAll(cycles_);
                state_ = ShardState::Idle;
                return state_;
            }
        }
        settleAll(cycles_);
        if (cycles_ >= maxCycles_) {
            std::ostringstream os;
            os << "channel " << channelIndex_ << " did not finish within "
               << maxCycles_ << " cycles";
            haltStatus_ =
                Status::make(StatusCode::CycleLimitExceeded, os.str());
            state_ = ShardState::Halted;
        }
    } catch (const StatusError &error) {
        haltStatus_ = error.status();
        state_ = ShardState::Halted;
        settleAll(counted);
    } catch (const std::exception &error) {
        haltStatus_ =
            Status::make(StatusCode::InternalError, error.what());
        state_ = ShardState::Halted;
        settleAll(counted);
    }
    return state_;
}

void
ChannelShard::recordPhases(size_t w, uint64_t acting, uint64_t starved,
                           uint64_t blocked)
{
    const LaneWord &m = masks_[w];
    const int end = std::min(numPus(), static_cast<int>(w + 1) * 64);
    for (int l = static_cast<int>(w) * 64; l < end; ++l) {
        const uint64_t bit = laneBit(l);
        trace::PuPhase phase = trace::PuPhase::InternalSpin;
        if (!(m.live & bit) || (m.finished & bit))
            phase = trace::PuPhase::Done; // Contained, parked or done.
        else if (acting & bit)
            phase = trace::PuPhase::Active;
        else if (starved & bit)
            phase = trace::PuPhase::InputStarved;
        else if (blocked & bit)
            phase = trace::PuPhase::OutputBlocked;
        trace_->puCycle(l, cycles_, phase);
    }
}

ChannelOutcome
ChannelShard::finishRun()
{
    ChannelOutcome channel_outcome;
    channel_outcome.status = haltStatus_;
    channel_outcome.cycles = cycles_;

    // Close any job spans still open (jobs left armed at session end —
    // on a halted channel they inherit the channel status below).
    if (trace_) {
        for (size_t l = 0; l < pus_.size(); ++l) {
            PuSlot &slot = pus_[l];
            if (!slot.parked)
                trace_->jobSpan(static_cast<int>(l), slot.jobId,
                                slot.armCycle, cycles_);
        }
    }

    finalizeStats();

    // Settle per-PU outcomes: contained units keep the status recorded
    // at containment; on a failed channel every other unit inherits the
    // channel status (even a unit that asserted output_finished may
    // have unflushed output stranded in its buffer); on a completed
    // channel every non-contained unit finished and fully flushed.
    for (size_t l = 0; l < pus_.size(); ++l) {
        PuSlot &slot = pus_[l];
        if (!slot.failed) {
            if (channel_outcome.status.ok()) {
                slot.outcome.status = Status::make(StatusCode::Ok);
                slot.outcome.atCycle = slot.stats.finishedAtCycle;
            } else {
                slot.outcome.status = channel_outcome.status;
                slot.outcome.atCycle = cycles_;
            }
        }
        slot.outcome.outputBits =
            outputCtrl_->payloadBits(static_cast<int>(l));
        slot.outcome.jobId = slot.jobId;
    }
    return channel_outcome;
}

bool
ChannelShard::puDrained(int local) const
{
    const PuSlot &slot = pus_[local];
    if (slot.parked)
        return false;
    if (!laneFinished(local) && !slot.failed)
        return false;
    return inputCtrl_->puIdle(local) && outputCtrl_->puFlushed(local);
}

RetiredJob
ChannelShard::retireJob(int local)
{
    PuSlot &slot = pus_[local];
    if (!puDrained(local))
        panic("ChannelShard: retireJob(", local,
              ") before the job drained");
    settleLane(local, cycles_);

    RetiredJob job;
    job.jobId = slot.jobId;
    job.armCycle = slot.armCycle;
    job.retireCycle = cycles_;
    job.streamBits = slot.streamBits;
    job.emittedBits = slot.emittedBits;
    job.stats.inputStarvedCycles = slot.stats.inputStarvedCycles -
                                   slot.statsAtArm.inputStarvedCycles;
    job.stats.outputBlockedCycles = slot.stats.outputBlockedCycles -
                                    slot.statsAtArm.outputBlockedCycles;
    job.stats.finishedAtCycle = slot.stats.finishedAtCycle;
    if (slot.failed) {
        job.outcome = slot.outcome; // Status recorded at containment.
    } else {
        job.outcome.status = Status::make(StatusCode::Ok);
        job.outcome.atCycle = slot.stats.finishedAtCycle;
    }
    job.outcome.outputBits = outputCtrl_->payloadBits(local);
    job.outcome.jobId = slot.jobId;

    if (trace_)
        trace_->jobSpan(local, slot.jobId, slot.armCycle, cycles_);

    // Roll the finished job into the cumulative channel accounting,
    // then park the slot. The controller lanes keep their drained
    // state (idle input, finished-and-flushed output) so the channel's
    // completion check and channel-mates are unaffected; the next
    // rearmPu resets them.
    slot.pastInputBytes += ceilDiv(slot.streamBits, 8);
    slot.pastOutputBytes += ceilDiv(slot.emittedBits, 8);
    ++slot.jobsRetired;
    slot.parked = true;
    slot.failed = false;
    LaneWord &m = laneWord(local);
    m.live &= ~laneBit(local);
    m.finished &= ~laneBit(local);
    m.asleep &= ~laneBit(local);
    slot.streamBits = 0;
    slot.emittedBits = 0;
    recomputeWatchdogBudget();
    return job;
}

void
ChannelShard::rearmPu(int local, uint64_t stream_bits, uint64_t job_id)
{
    PuSlot &slot = pus_[local];
    if (state_ == ShardState::Unstarted || state_ == ShardState::Halted)
        panic("ChannelShard: rearmPu(", local,
              ") outside an active run");
    if (!slot.parked)
        panic("ChannelShard: rearmPu(", local,
              ") on a slot that still holds a job");

    settleLane(local, cycles_);
    inputCtrl_->rearmPu(local, stream_bits);
    outputCtrl_->rearmPu(local);
    slot.parked = false;
    slot.jobId = job_id;
    slot.armCycle = cycles_;
    slot.streamBits = stream_bits;
    slot.emittedBits = 0;
    slot.failed = false;
    slot.statsAtArm = slot.stats;
    slot.stats.finishedAtCycle = 0;
    slot.outcome = PuOutcome{};
    // Live from the next cycle, with its inputs read afresh from the
    // reset buffers and handed to its engine in phase 1.
    LaneWord &m = laneWord(local);
    m.live |= laneBit(local);
    m.finished &= ~laneBit(local);
    m.asleep &= ~laneBit(local);
    m.dirty |= laneBit(local);
    refreshInputs(local);
    refreshOutputReady(local);
    // Fresh work: the stretch the slot sat parked must not count
    // against the forward-progress watchdog.
    lastActivityCycle_ = cycles_;
    lastBeats_ = channel_->beatsDelivered() + channel_->beatsWritten();
    recomputeWatchdogBudget();
    state_ = ShardState::Active;
}

void
ChannelShard::finalizeStats()
{
    stats_.cycles = cycles_;
    stats_.numPus = numPus();
    stats_.beatsDelivered = channel_->beatsDelivered();
    stats_.beatsWritten = channel_->beatsWritten();
    for (const auto &slot : pus_) {
        // Past* are the retired jobs' roll-ups (always 0 one-shot).
        stats_.inputBytes += slot.pastInputBytes +
                             ceilDiv(slot.streamBits, 8);
        stats_.outputBytes += slot.pastOutputBytes +
                              ceilDiv(slot.emittedBits, 8);
        stats_.inputStarvedCycles += slot.stats.inputStarvedCycles;
        stats_.outputBlockedCycles += slot.stats.outputBlockedCycles;
    }
}

const char *
ChannelShard::stallReason(int local) const
{
    const PuSlot &slot = pus_[local];
    if (slot.failed)
        return "contained";
    if (slot.parked)
        return "parked";
    if (laneFinished(local))
        return "finished";
    // The last stepped cycle's stall class, from the same shared
    // taxonomy (trace/taxonomy.h) the trace layer records.
    const LaneWord &m = laneWord(local);
    if (m.starved & laneBit(local))
        return trace::stallCauseName(trace::StallCause::InputStarved);
    if (m.blocked & laneBit(local))
        return trace::stallCauseName(trace::StallCause::OutputBlocked);
    return trace::stallCauseName(trace::StallCause::InternalSpin);
}

trace::ChannelTrace
ChannelShard::takeTrace()
{
    trace::ChannelTrace out = trace_->finish(cycles_);
    if (!traceConfig_.counters)
        return out;

    auto component = [this](const char *suffix) {
        trace::CounterSet set;
        set.name = "ch" + std::to_string(channelIndex_) + "/" + suffix;
        return set;
    };

    trace::CounterSet dram = component("dram");
    channel_->exportCounters(dram);
    out.counters.push_back(std::move(dram));

    trace::CounterSet input = component("input_ctrl");
    inputCtrl_->exportCounters(input);
    out.counters.push_back(std::move(input));

    trace::CounterSet output = component("output_ctrl");
    outputCtrl_->exportCounters(output);
    out.counters.push_back(std::move(output));

    for (size_t l = 0; l < pus_.size(); ++l) {
        const PuSlot &slot = pus_[l];
        trace::CounterSet set = component(
            ("pu" + std::to_string(slot.globalIndex)).c_str());
        const int local = static_cast<int>(l);
        for (int p = 0; p < trace::kNumPuPhases; ++p) {
            auto phase = static_cast<trace::PuPhase>(p);
            set.set(std::string(trace::puPhaseName(phase)) + "_cycles",
                    trace_->phaseCycles(local, phase));
        }
        set.set("stream_bits", slot.streamBits);
        set.set("delivered_bits", inputCtrl_->puBitsDelivered(local));
        set.set("emitted_bits", slot.emittedBits);
        set.set("flushed_payload_bits", outputCtrl_->payloadBits(local));
        set.set("finished_at_cycle", slot.stats.finishedAtCycle);
        set.set("contained", slot.failed ? 1 : 0);
        set.set("jobs_retired", slot.jobsRetired);
        slot.pu->appendCounters(set);
        out.counters.push_back(std::move(set));
    }
    return out;
}

std::string
ChannelShard::watchdogDump(uint64_t stalled_cycles) const
{
    std::ostringstream os;
    os << "channel " << channelIndex_ << " made no forward progress for "
       << stalled_cycles << " cycles (cycle " << cycles_
       << "): no PU retired a token and no DRAM beat moved\n";
    for (size_t l = 0; l < pus_.size(); ++l) {
        const PuSlot &slot = pus_[l];
        os << "  PU " << slot.globalIndex << " (local " << l
           << "): " << stallReason(static_cast<int>(l)) << "; in-fifo "
           << inputCtrl_->buffer(static_cast<int>(l)).sizeBits()
           << " bits, out-fifo "
           << outputCtrl_->buffer(static_cast<int>(l)).sizeBits()
           << " bits, emitted " << slot.emittedBits << " bits, starved "
           << slot.stats.inputStarvedCycles << " cycles, blocked "
           << slot.stats.outputBlockedCycles << " cycles\n";
    }
    os << "  input-ctrl in-flight bursts " << inputCtrl_->inflightBursts()
       << ", output-ctrl pending bursts " << outputCtrl_->pendingBursts()
       << ", DRAM outstanding reads " << channel_->outstandingReads()
       << " / writes " << channel_->outstandingWrites();
    return os.str();
}

} // namespace system
} // namespace fleet

#include "system/channel_shard.h"

#include <algorithm>
#include <sstream>

#include "system/pu_rtl_batch.h"
#include "util/bits.h"
#include "util/logging.h"
#include "util/status.h"

namespace fleet {
namespace system {

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
    asleep_.push_back(0);
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
ChannelShard::containPu(int local, Status status)
{
    PuSlot &slot = pus_[local];
    if (slot.failed)
        return;
    slot.failed = true;
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
ChannelShard::creditSleep(PuSlot &slot, uint64_t through)
{
    uint64_t slept = through - slot.sleptFrom;
    slot.sleptFrom = through;
    if (slot.finishedSeen)
        return;
    if (trace::inputStarved(slot.lastOut.inputReady,
                            slot.lastIn.inputValid,
                            slot.lastIn.inputFinished))
        slot.stats.inputStarvedCycles += slept;
    if (trace::outputBlocked(slot.lastOut.outputValid,
                             slot.lastIn.outputReady))
        slot.stats.outputBlockedCycles += slept;
}

void
ChannelShard::wakeLane(int local, uint64_t through)
{
    if (!asleep_[local])
        return;
    PuSlot &slot = pus_[local];
    creditSleep(slot, through);
    asleep_[local] = 0;
    if (!slot.finishedSeen)
        --sleepingUnfinished_;
}

void
ChannelShard::settleSleepers(uint64_t through)
{
    for (size_t l = 0; l < pus_.size(); ++l) {
        if (asleep_[l])
            creditSleep(pus_[l], through);
    }
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
    wakeLane(local, cycles_);
    containPu(local, std::move(status));
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
    cycleIn_.assign(pus_.size(), PuInputs{});
    asleep_.assign(pus_.size(), 0);
    sleepingUnfinished_ = 0;
    state_ = ShardState::Active;
}

ShardState
ChannelShard::step(uint64_t budget)
{
    if (state_ != ShardState::Active)
        return state_;
    const int in_width = inWidth_;
    const int out_width = outWidth_;
    // Traced shards keep every lane awake: the trace records a phase
    // per lane per cycle.
    const bool may_sleep = !trace_;
    // Phase 2's progress through the current cycle, so an exception
    // credits sleeping lanes exactly as far as the per-cycle path got.
    size_t phase2_at = 0;

    try {
        for (; budget > 0 && cycles_ < maxCycles_; ++cycles_, --budget) {
            bool activity = false;
            bool all_finished = true;
            phase2_at = 0;

            // Phase 1: latch every live PU's view of its controller
            // buffers. These are pure reads of per-PU state, so
            // gathering them all before any handshake acts is identical
            // to the interleaved order — and lets the batched engine
            // evaluate every lane in one vectorized sweep.
            for (size_t l = 0; l < pus_.size(); ++l) {
                if (asleep_[l])
                    continue;
                PuSlot &slot = pus_[l];
                if (slot.failed || slot.parked)
                    continue;
                auto &in_buf = inputCtrl_->buffer(static_cast<int>(l));
                auto &out_buf = outputCtrl_->buffer(static_cast<int>(l));
                PuInputs in;
                in.inputValid = in_buf.sizeBits() >= uint64_t(in_width);
                in.inputToken = in.inputValid ? in_buf.peek(in_width) : 0;
                in.inputFinished =
                    inputCtrl_->streamExhausted(static_cast<int>(l)) &&
                    in_buf.empty();
                in.outputReady = out_buf.freeBits() >= uint64_t(out_width);
                cycleIn_[l] = in;
                if (laneOfLocal_[l].first >= 0) {
                    batches_[laneOfLocal_[l].first].batch->setLaneInputs(
                        laneOfLocal_[l].second, in);
                }
            }
            for (BatchBinding &binding : batches_)
                binding.batch->evalAll();

            // Phase 2: act on each PU's outputs (handshakes mutate only
            // that PU's buffers), classify the cycle, track completion.
            for (size_t l = 0; l < pus_.size(); ++l) {
                if (asleep_[l])
                    continue; // Untraced: nothing to record.
                phase2_at = l;
                PuSlot &slot = pus_[l];
                if (slot.failed || slot.parked) {
                    // Contained or awaiting a job: quarantined from the
                    // loop until retired / re-armed.
                    if (trace_)
                        trace_->puCycle(static_cast<int>(l), cycles_,
                                        trace::PuPhase::Done);
                    continue;
                }
                const bool was_finished = slot.finishedSeen;
                auto &in_buf = inputCtrl_->buffer(static_cast<int>(l));

                const PuInputs &in = cycleIn_[l];
                PuOutputs out =
                    laneOfLocal_[l].first >= 0
                        ? batches_[laneOfLocal_[l].first]
                              .batch->laneOutputs(laneOfLocal_[l].second)
                        : slot.pu->eval(in);
                slot.lastIn = in;
                slot.lastOut = out;

                bool produced = false, consumed = false;
                if (out.outputValid && in.outputReady) {
                    outputCtrl_->push(static_cast<int>(l), out.outputToken,
                                      out_width);
                    slot.emittedBits += out_width;
                    produced = true;
                    activity = true;
                }
                if (out.inputReady && in.inputValid) {
                    in_buf.pop(in_width);
                    consumed = true;
                    activity = true;
                }
                if (out.outputFinished && !slot.finishedSeen) {
                    outputCtrl_->setPuFinished(static_cast<int>(l));
                    slot.finishedSeen = true;
                    slot.stats.finishedAtCycle = cycles_;
                    activity = true;
                }
                if (!slot.finishedSeen) {
                    // Shared taxonomy (trace/taxonomy.h). Note these two
                    // legacy counters are independent conditions, not
                    // the exclusive phase partition the trace records.
                    if (trace::inputStarved(out.inputReady, in.inputValid,
                                            in.inputFinished))
                        ++slot.stats.inputStarvedCycles;
                    if (trace::outputBlocked(out.outputValid,
                                             in.outputReady))
                        ++slot.stats.outputBlockedCycles;
                }
                if (trace_) {
                    trace::PuPhase phase;
                    if (was_finished)
                        phase = trace::PuPhase::Done;
                    else if (consumed || produced ||
                             (slot.finishedSeen && !was_finished))
                        phase = trace::PuPhase::Active;
                    else
                        phase = trace::phaseForStall(trace::classifyStall(
                            out.inputReady, in.inputValid,
                            in.inputFinished, out.outputValid,
                            in.outputReady));
                    trace_->puCycle(static_cast<int>(l), cycles_, phase);
                }
                all_finished = all_finished && slot.finishedSeen;
                if (may_sleep && !produced && !consumed &&
                    was_finished == slot.finishedSeen &&
                    laneOfLocal_[l].first < 0 && slot.pu->quiet()) {
                    asleep_[l] = 1;
                    slot.sleptFrom = cycles_ + 1;
                    if (!slot.finishedSeen)
                        ++sleepingUnfinished_;
                }
            }
            phase2_at = pus_.size();
            all_finished = all_finished && sleepingUnfinished_ == 0;

            inputCtrl_->tick();
            outputCtrl_->tick();
            channel_->tick();
            // A buffer a controller touched changes its lane's inputs:
            // wake the lane for the next cycle, crediting this one.
            for (int l : inputCtrl_->touchedLanes())
                wakeLane(l, cycles_ + 1);
            for (int l : outputCtrl_->touchedLanes())
                wakeLane(l, cycles_ + 1);
            // One vectorized clock edge per batched group. Failed lanes
            // advance too, but nothing observes them again. Unbatched
            // slots step per-unit.
            for (BatchBinding &binding : batches_)
                binding.batch->step();
            for (size_t l = 0; l < pus_.size(); ++l) {
                if (asleep_[l])
                    continue; // Quiet: step() would change nothing.
                PuSlot &slot = pus_[l];
                if (laneOfLocal_[l].first < 0 && !slot.failed &&
                    !slot.parked) {
                    slot.pu->step();
                }
            }

            // Containment events raised by this cycle's ticks. Polled
            // after the ticks so the kill takes effect from the next
            // cycle — the same point on every host thread count.
            while (auto parity = inputCtrl_->takeParityEvent()) {
                if (pus_[parity->pu].finishedSeen)
                    continue; // Already done; stale beat is harmless.
                wakeLane(parity->pu, cycles_ + 1);
                std::ostringstream os;
                os << "PU " << pus_[parity->pu].globalIndex
                   << ": parity error on read beat at channel address "
                   << parity->addr;
                containPu(parity->pu,
                          Status::make(StatusCode::ParityError, os.str()));
                activity = true;
            }
            while (auto overflow = outputCtrl_->takeOverflowEvent()) {
                std::ostringstream os;
                os << "PU " << pus_[overflow->pu].globalIndex
                   << ": output exceeds its " << overflow->regionBytes
                   << "-byte region (declare a larger maxOutputExpansion "
                      "or set SystemConfig::outputRegionBytes)";
                wakeLane(overflow->pu, cycles_ + 1);
                containPu(overflow->pu,
                          Status::make(StatusCode::OutputOverflow,
                                       os.str()));
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
                for (size_t l = 0; l < pus_.size(); ++l)
                    wakeLane(static_cast<int>(l), cycles_ + 1);
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
                settleSleepers(cycles_);
                state_ = ShardState::Idle;
                return state_;
            }
        }
        phase2_at = 0; // Every stepped cycle completed.
        settleSleepers(cycles_);
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
    } catch (const std::exception &error) {
        haltStatus_ =
            Status::make(StatusCode::InternalError, error.what());
        state_ = ShardState::Halted;
    }
    if (state_ == ShardState::Halted) {
        // A failure mid-cycle: lanes phase 2 passed count this cycle.
        for (size_t l = 0; l < pus_.size(); ++l)
            wakeLane(static_cast<int>(l),
                     cycles_ + (l < phase2_at ? 1 : 0));
    }
    return state_;
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
    if (!slot.finishedSeen && !slot.failed)
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
    wakeLane(local, cycles_);

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
    slot.finishedSeen = false;
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

    wakeLane(local, cycles_);
    inputCtrl_->rearmPu(local, stream_bits);
    outputCtrl_->rearmPu(local);
    slot.parked = false;
    slot.jobId = job_id;
    slot.armCycle = cycles_;
    slot.streamBits = stream_bits;
    slot.emittedBits = 0;
    slot.finishedSeen = false;
    slot.failed = false;
    slot.statsAtArm = slot.stats;
    slot.stats.finishedAtCycle = 0;
    slot.outcome = PuOutcome{};
    slot.lastIn = PuInputs{};
    slot.lastOut = PuOutputs{};
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
ChannelShard::stallReason(const PuSlot &slot) const
{
    if (slot.failed)
        return "contained";
    if (slot.parked)
        return "parked";
    if (slot.finishedSeen)
        return "finished";
    // Shared classification (trace/taxonomy.h) over the last cycle's
    // latched handshake — the same attribution the trace layer records.
    return trace::stallCauseName(trace::classifyStall(
        slot.lastOut.inputReady, slot.lastIn.inputValid,
        slot.lastIn.inputFinished, slot.lastOut.outputValid,
        slot.lastIn.outputReady));
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
           << "): " << stallReason(slot) << "; in-fifo "
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

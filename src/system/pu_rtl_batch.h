#ifndef FLEET_SYSTEM_PU_RTL_BATCH_H
#define FLEET_SYSTEM_PU_RTL_BATCH_H

/**
 * @file
 * Tape-compiled RTL processing-unit backends (see rtl/tape.h and
 * rtl/batch_sim.h):
 *
 *  - RtlTapeEngine: the program compiled once — circuit, optimizer run,
 *    tape — shared by every PU replica instead of re-deriving it per
 *    unit;
 *  - RtlBatch + RtlBatchLane: all PUs of a channel evaluated as lanes
 *    of one structure-of-arrays BatchSimulator. ChannelShard drives the
 *    whole group per cycle (setLaneInputs* -> evalAll -> laneOutputs*
 *    -> step). A lane also works standalone as a ProcessingUnit
 *    (single-PU testbenches) through the same two group calls, so a
 *    standalone lane clocks its whole batch.
 */

#include <memory>

#include "compile/compiler.h"
#include "rtl/batch_sim.h"
#include "rtl/tape.h"
#include "system/pu.h"

namespace fleet {
namespace system {

/** One program compiled to a tape, shared by every replica. */
class RtlTapeEngine
{
  public:
    explicit RtlTapeEngine(const lang::Program &program);

    const compile::CompiledUnit &unit() const { return unit_; }
    const std::shared_ptr<const rtl::TapeProgram> &tape() const
    {
        return tape_;
    }

    /** Trace counters shared by every tape-backed unit. */
    void appendCounters(trace::CounterSet &out, int batch_width) const;

  private:
    compile::CompiledUnit unit_;
    std::shared_ptr<const rtl::TapeProgram> tape_;
};

/**
 * A channel group of tape-compiled PUs evaluated together in SoA
 * layout. Lane l is the PU with local index l in its ChannelShard.
 */
class RtlBatch
{
  public:
    RtlBatch(std::shared_ptr<const RtlTapeEngine> engine, int lanes);

    int lanes() const { return sim_.lanes(); }
    const RtlTapeEngine &engine() const { return *engine_; }

    /** Attach a native kernel for this group (rtl/jit.h); see
     * rtl::BatchSimulator::attachJit for the matching contract. */
    void attachJit(std::shared_ptr<const rtl::JitProgram> jit)
    {
        sim_.attachJit(std::move(jit));
    }
    bool jitAttached() const { return sim_.jitAttached(); }

    void setLaneInputs(int lane, const PuInputs &in);
    /** Evaluate every lane (vectorized group path). */
    void evalAll();
    PuOutputs laneOutputs(int lane) const;
    /// @name One output port of one lane, as of the last evaluation
    /// (what the channel loop's lane masks gather each cycle).
    /// @{
    bool inputReady(int lane) const
    {
        return sim_.valueAtSlot(lane, inputReadySlot_) != 0;
    }
    bool outputValid(int lane) const
    {
        return sim_.valueAtSlot(lane, outputValidSlot_) != 0;
    }
    bool outputFinished(int lane) const
    {
        return sim_.valueAtSlot(lane, outputFinishedSlot_) != 0;
    }
    uint64_t outputToken(int lane) const
    {
        return sim_.valueAtSlot(lane, outputTokenSlot_);
    }
    /// @}
    /** Clock edge for every lane. */
    void step();
    void resetLane(int lane);

  private:
    std::shared_ptr<const RtlTapeEngine> engine_;
    rtl::BatchSimulator sim_;
    /** Tape slots of the four output ports. */
    int32_t inputReadySlot_;
    int32_t outputValidSlot_;
    int32_t outputFinishedSlot_;
    int32_t outputTokenSlot_;
};

/**
 * ProcessingUnit view of one batch lane. When its ChannelShard has the
 * batch attached, eval()/step() are bypassed in favour of the group
 * calls. Standalone (e.g. under the single-PU testbench) eval() sets
 * this lane's inputs and evaluates the whole batch, and step() clocks
 * the whole batch. Lanes never read each other, so the viewed lane is
 * bit-identical to an RtlPu; but every other lane of the batch moves
 * too, so drive one lane of a batch at a time.
 */
class RtlBatchLane : public ProcessingUnit
{
  public:
    RtlBatchLane(std::shared_ptr<RtlBatch> batch, int lane);

    /** Resets this lane only (RtlBatch::resetLane). */
    Status arm(const BitBuffer &stream) override;
    PuOutputs eval(const PuInputs &inputs) override;
    void step() override;
    int inputTokenWidth() const override
    {
        return batch_->engine().unit().inputTokenWidth;
    }
    int outputTokenWidth() const override
    {
        return batch_->engine().unit().outputTokenWidth;
    }
    void appendCounters(trace::CounterSet &out) const override;

    RtlBatch &batch() { return *batch_; }
    int lane() const { return lane_; }

  private:
    std::shared_ptr<RtlBatch> batch_;
    int lane_;
};

} // namespace system
} // namespace fleet

#endif // FLEET_SYSTEM_PU_RTL_BATCH_H

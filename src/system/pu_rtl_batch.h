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
 *    -> step); a lane still works standalone as a ProcessingUnit
 *    (single-PU testbenches), evaluating and stepping only itself.
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
    explicit RtlTapeEngine(compile::CompiledUnit unit);

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
    /** Evaluate one lane only (standalone-lane path). */
    void evalLane(int lane);
    PuOutputs laneOutputs(int lane) const;
    /** Clock edge for every lane. */
    void step();
    void stepLane(int lane);
    void resetLane(int lane);

  private:
    std::shared_ptr<const RtlTapeEngine> engine_;
    rtl::BatchSimulator sim_;
};

/**
 * ProcessingUnit view of one batch lane. When its ChannelShard has the
 * batch attached, eval()/step() are bypassed in favour of the group
 * calls; standalone (e.g. under the single-PU testbench) the lane
 * evaluates and steps only itself and is bit-identical to an RtlPu.
 */
class RtlBatchLane : public ProcessingUnit
{
  public:
    RtlBatchLane(std::shared_ptr<RtlBatch> batch, int lane);

    void reset() override;
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

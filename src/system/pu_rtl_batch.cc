#include "system/pu_rtl_batch.h"

namespace fleet {
namespace system {

RtlTapeEngine::RtlTapeEngine(const lang::Program &program)
    : unit_(compile::compileProgram(program)),
      tape_(std::make_shared<const rtl::TapeProgram>(
          rtl::TapeProgram::compile(unit_.circuit)))
{
}

void
RtlTapeEngine::appendCounters(trace::CounterSet &out, int batch_width) const
{
    out.set("backend_rtl_tape", 1);
    out.set("tape_ops", tape_->ops.size());
    out.set("nodes_eliminated", tape_->nodesEliminated);
    out.set("batch_width", uint64_t(batch_width));
}

RtlBatch::RtlBatch(std::shared_ptr<const RtlTapeEngine> engine, int lanes)
    : engine_(std::move(engine)), sim_(engine_->tape(), lanes),
      inputReadySlot_(sim_.tape().slotOf(engine_->unit().outInputReady)),
      outputValidSlot_(sim_.tape().slotOf(engine_->unit().outOutputValid)),
      outputFinishedSlot_(
          sim_.tape().slotOf(engine_->unit().outOutputFinished)),
      outputTokenSlot_(sim_.tape().slotOf(engine_->unit().outOutputToken))
{
}

void
RtlBatch::setLaneInputs(int lane, const PuInputs &in)
{
    const auto &unit = engine_->unit();
    sim_.setInput(lane, unit.inInputToken, in.inputToken);
    sim_.setInput(lane, unit.inInputValid, in.inputValid ? 1 : 0);
    sim_.setInput(lane, unit.inInputFinished, in.inputFinished ? 1 : 0);
    sim_.setInput(lane, unit.inOutputReady, in.outputReady ? 1 : 0);
}

void
RtlBatch::evalAll()
{
    sim_.evalAll();
}

PuOutputs
RtlBatch::laneOutputs(int lane) const
{
    PuOutputs out;
    out.inputReady = inputReady(lane);
    out.outputToken = outputToken(lane);
    out.outputValid = outputValid(lane);
    out.outputFinished = outputFinished(lane);
    return out;
}

void
RtlBatch::step()
{
    sim_.step();
}

void
RtlBatch::resetLane(int lane)
{
    sim_.resetLane(lane);
}

RtlBatchLane::RtlBatchLane(std::shared_ptr<RtlBatch> batch, int lane)
    : batch_(std::move(batch)), lane_(lane)
{
}

Status
RtlBatchLane::arm(const BitBuffer &)
{
    batch_->resetLane(lane_);
    return Status::make(StatusCode::Ok);
}

PuOutputs
RtlBatchLane::eval(const PuInputs &inputs)
{
    batch_->setLaneInputs(lane_, inputs);
    batch_->evalAll();
    return batch_->laneOutputs(lane_);
}

void
RtlBatchLane::step()
{
    batch_->step();
}

void
RtlBatchLane::appendCounters(trace::CounterSet &out) const
{
    batch_->engine().appendCounters(out, batch_->lanes());
    if (batch_->jitAttached())
        out.set("backend_rtl_jit", 1);
}

} // namespace system
} // namespace fleet

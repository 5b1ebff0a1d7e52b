#include "system/pu_rtl.h"

namespace fleet {
namespace system {

RtlPu::RtlPu(const lang::Program &program)
    : unit_(compile::compileProgram(program)),
      sim_(std::make_unique<rtl::Simulator>(unit_.circuit))
{
}

Status
RtlPu::arm(const BitBuffer &)
{
    sim_->reset();
    return Status::make(StatusCode::Ok);
}

PuOutputs
RtlPu::eval(const PuInputs &inputs)
{
    sim_->setInput(unit_.inInputToken, inputs.inputToken);
    sim_->setInput(unit_.inInputValid, inputs.inputValid ? 1 : 0);
    sim_->setInput(unit_.inInputFinished, inputs.inputFinished ? 1 : 0);
    sim_->setInput(unit_.inOutputReady, inputs.outputReady ? 1 : 0);
    sim_->evalComb();

    PuOutputs out;
    out.inputReady = sim_->value(unit_.outInputReady) != 0;
    out.outputToken = sim_->value(unit_.outOutputToken);
    out.outputValid = sim_->value(unit_.outOutputValid) != 0;
    out.outputFinished = sim_->value(unit_.outOutputFinished) != 0;
    return out;
}

void
RtlPu::step()
{
    sim_->step();
}

} // namespace system
} // namespace fleet

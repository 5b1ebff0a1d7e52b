#include "system/pu_fast.h"

#include "util/logging.h"

namespace fleet {
namespace system {

FastPu::FastPu(const lang::Program &program, const BitBuffer &stream,
               std::shared_ptr<const sim::EvalPlan> plan)
    : inputTokenWidth_(program.inputTokenWidth),
      outputTokenWidth_(program.outputTokenWidth),
      plan_(plan ? std::move(plan)
                 : std::make_shared<const sim::EvalPlan>(program))
{
    rearm(stream);
}

FastPu::FastPu(std::shared_ptr<const sim::EvalPlan> plan,
               sim::RunResult functional)
    : inputTokenWidth_(plan->program.inputTokenWidth),
      outputTokenWidth_(plan->program.outputTokenWidth),
      plan_(std::move(plan))
{
    replay(std::move(functional));
}

sim::RunResult
FastPu::prerun(std::shared_ptr<const sim::EvalPlan> plan,
               const BitBuffer &stream)
{
    sim::SimOptions options;
    options.recordTrace = true;
    return sim::FunctionalSimulator(std::move(plan), options).run(stream);
}

void
FastPu::rearm(const BitBuffer &stream)
{
    replay(prerun(plan_, stream));
}

void
FastPu::replay(sim::RunResult functional)
{
    result_ = std::move(functional);
    streamTokens_ = result_.tokens;
    reset();
}

void
FastPu::reset()
{
    v_ = false;
    f_ = false;
    traceIdx_ = 0;
    outBitPos_ = 0;
    tokensConsumed_ = 0;
}

PuOutputs
FastPu::eval(const PuInputs &inputs)
{
    bool emitting = false;
    bool consuming = false;
    if (v_) {
        if (traceIdx_ >= result_.trace.size())
            panic("FastPu: trace exhausted while active (environment fed "
                  "more tokens than the unit's stream?)");
        uint8_t flags = result_.trace[traceIdx_];
        emitting = flags & sim::kVcycleEmits;
        consuming = flags & sim::kVcycleConsumesToken;
    }

    PuOutputs out;
    out.outputValid = v_ && emitting;
    out.outputToken =
        out.outputValid ? result_.output.readBits(outBitPos_,
                                                  outputTokenWidth_)
                        : 0;
    bool output_ok = !out.outputValid || inputs.outputReady;
    bool v_done = v_ && output_ok;
    out.inputReady = !v_ || (consuming && output_ok);
    out.outputFinished = !v_ && f_;

    lastInputs_ = inputs;
    lastVdone_ = v_done;
    lastEmitting_ = emitting;
    lastInputReady_ = out.inputReady;
    return out;
}

void
FastPu::step()
{
    if (lastVdone_) {
        if (lastEmitting_)
            outBitPos_ += outputTokenWidth_;
        ++traceIdx_;
    }
    if (lastInputReady_) {
        if (lastInputs_.inputValid) {
            if (tokensConsumed_ >= streamTokens_)
                panic("FastPu: environment supplied a token beyond the "
                      "unit's stream");
            ++tokensConsumed_;
        }
        v_ = lastInputs_.inputValid ||
             (!f_ && lastInputs_.inputFinished);
        f_ = f_ || lastInputs_.inputFinished;
    }
}

bool
FastPu::quiet() const
{
    if (lastVdone_)
        return false; // A virtual cycle completes: the trace advances.
    if (!lastInputReady_)
        return true; // Output-blocked mid virtual cycle.
    // Ready for a token: quiet only when none is offered and the v/f
    // update below (v = !f && finished, f |= finished) changes neither.
    return !lastInputs_.inputValid && !v_ &&
           (f_ || !lastInputs_.inputFinished);
}

void
FastPu::appendCounters(trace::CounterSet &out) const
{
    out.set("backend_fast", 1);
    out.set("tokens_consumed", tokensConsumed_);
    out.set("stream_tokens", streamTokens_);
    out.set("output_tokens", result_.emits);
    out.set("virtual_cycles", result_.vcycles);
    out.set("emitted_bits_functional",
            result_.emits * uint64_t(outputTokenWidth_));
}

} // namespace system
} // namespace fleet

#include "system/pu_fast.h"

#include "util/logging.h"

namespace fleet {
namespace system {

FastPu::FastPu(const lang::Program &program,
               std::shared_ptr<const sim::EvalPlan> plan)
    : inputTokenWidth_(program.inputTokenWidth),
      outputTokenWidth_(program.outputTokenWidth),
      plan_(plan ? std::move(plan)
                 : std::make_shared<const sim::EvalPlan>(program))
{
}

static_assert((sim::kVcycleConsumesToken | sim::kVcycleEmits) < 4,
              "a virtual cycle's flags are kept in 2 bits");

Status
FastPu::arm(const BitBuffer &stream)
{
    v_ = false;
    f_ = false;
    vcycle_ = 0;
    outBitPos_ = 0;
    tokensConsumed_ = 0;
    flags_.clear();
    std::vector<uint8_t> flags;
    try {
        result_ = sim::FunctionalSimulator(plan_).run(stream, &flags);
    } catch (const FatalError &error) {
        result_ = sim::RunResult();
        return Status::make(StatusCode::InvalidArgument, error.what());
    }
    flags_.assign((flags.size() + 31) / 32, 0);
    for (size_t i = 0; i < flags.size(); ++i)
        flags_[i / 32] |= uint64_t(flags[i]) << 2 * (i % 32);
    return Status::make(StatusCode::Ok);
}

PuOutputs
FastPu::eval(const PuInputs &inputs)
{
    bool emitting = false;
    bool consuming = false;
    if (v_) {
        if (vcycle_ >= result_.vcycles)
            panic("FastPu: pre-run exhausted while active (unarmed, or fed "
                  "more tokens than the unit's stream?)");
        const uint64_t flags = flags_[vcycle_ / 32] >> 2 * (vcycle_ % 32);
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
        ++vcycle_;
    }
    if (lastInputReady_) {
        if (lastInputs_.inputValid) {
            if (tokensConsumed_ >= result_.tokens)
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
    out.set("stream_tokens", result_.tokens);
    out.set("output_tokens", result_.emits);
    out.set("virtual_cycles", result_.vcycles);
    out.set("emitted_bits_functional",
            result_.emits * uint64_t(outputTokenWidth_));
}

} // namespace system
} // namespace fleet

#ifndef FLEET_SYSTEM_PU_FAST_H
#define FLEET_SYSTEM_PU_FAST_H

/**
 * @file
 * Fast processing-unit timing model. The functional simulator pre-computes
 * the program's per-virtual-cycle trace for the unit's entire stream
 * (which is legal because output backpressure can only delay, never
 * change, a Fleet program's behaviour); FastPu then replays that trace
 * through the same ready-valid handshake state machine the compiled RTL
 * implements. Cycle counts and port activity are identical to RtlPu —
 * enforced by the cross-check test suite — at a fraction of the
 * simulation cost, enabling the full-system benchmark sweeps.
 *
 * Every unit of a program shares one immutable sim::EvalPlan, built once
 * per hosted program; each (re-)arm runs a fresh simulator from it, so
 * an arm's cost depends on its program and stream only, never on how
 * many units or arms came before it. Units that start on the same
 * stream can share one pre-run (see prerun()).
 */

#include <memory>

#include "lang/ast.h"
#include "sim/plan.h"
#include "sim/simulator.h"
#include "system/pu.h"
#include "util/bitbuf.h"

namespace fleet {
namespace system {

class FastPu : public ProcessingUnit
{
  public:
    /**
     * Pre-run the functional simulator on `stream` (the exact token
     * stream this unit will be fed) and build the replay model. `plan`
     * is the program's evaluation plan, shared by every unit of the
     * program and reused by every rearm(); null builds one here.
     */
    FastPu(const lang::Program &program, const BitBuffer &stream,
           std::shared_ptr<const sim::EvalPlan> plan = nullptr);

    /**
     * Replay `functional`, a prerun() of the plan's program: units that
     * start on the same stream (every session slot of a program starts
     * on the empty one) share one pre-run.
     */
    FastPu(std::shared_ptr<const sim::EvalPlan> plan,
           sim::RunResult functional);

    /** The functional run a unit replays: `stream` through `plan` with
     * the per-virtual-cycle trace recorded. */
    static sim::RunResult prerun(std::shared_ptr<const sim::EvalPlan> plan,
                                 const BitBuffer &stream);

    /**
     * Re-target the replay model at a new stream (job runtime re-arm):
     * re-runs the functional simulator over `stream` and resets the
     * handshake state machine, exactly as constructing a fresh
     * FastPu(program, stream) would — construction is just rearm() over
     * the first stream.
     */
    void rearm(const BitBuffer &stream);

    void reset() override;
    PuOutputs eval(const PuInputs &inputs) override;
    void step() override;
    /** Starved, output-blocked or finished: no virtual cycle completes
     * and the v/f registers are at a fixed point. */
    bool quiet() const override;
    int inputTokenWidth() const override { return inputTokenWidth_; }
    int outputTokenWidth() const override { return outputTokenWidth_; }
    void appendCounters(trace::CounterSet &out) const override;

    /** The functional run backing this replay (outputs, counts). */
    const sim::RunResult &functionalResult() const { return result_; }

  private:
    void replay(sim::RunResult functional);

    int inputTokenWidth_;
    int outputTokenWidth_;
    std::shared_ptr<const sim::EvalPlan> plan_;
    sim::RunResult result_;
    uint64_t streamTokens_;

    // Handshake state (mirrors the compiled RTL's v/f registers).
    bool v_ = false;
    bool f_ = false;
    uint64_t traceIdx_ = 0;
    uint64_t outBitPos_ = 0;
    uint64_t tokensConsumed_ = 0;

    // Latched from the last eval() for step().
    PuInputs lastInputs_;
    bool lastVdone_ = false;
    bool lastEmitting_ = false;
    bool lastInputReady_ = false;
};

} // namespace system
} // namespace fleet

#endif // FLEET_SYSTEM_PU_FAST_H

#ifndef FLEET_SYSTEM_PU_FAST_H
#define FLEET_SYSTEM_PU_FAST_H

/**
 * @file
 * Fast processing-unit timing model. arm() pre-runs the functional
 * simulator over the unit's entire stream and keeps each virtual cycle's
 * flags (which is legal because output backpressure can only delay,
 * never change, a Fleet program's behaviour); FastPu then replays those
 * flags through the same ready-valid handshake state machine the
 * compiled RTL implements. Cycle counts and port activity are identical
 * to RtlPu — enforced by the cross-check test suite — at a fraction of
 * the simulation cost, enabling the full-system benchmark sweeps.
 *
 * Every unit of a program shares one immutable sim::EvalPlan, built once
 * per hosted program; each arm runs a fresh simulator from it, so an
 * arm's cost depends on its program and stream only, never on how many
 * units or arms came before it.
 */

#include <memory>

#include "lang/ast.h"
#include "sim/plan.h"
#include "sim/simulator.h"
#include "system/pu.h"
#include "util/aligned.h"
#include "util/bitbuf.h"

namespace fleet {
namespace system {

/** Its handshake state is written every cycle by its channel's host
 * thread: the object sits on cache lines of its own (util/aligned.h). */
class alignas(kCacheLineBytes) FastPu : public ProcessingUnit
{
  public:
    /**
     * An unarmed unit of `program`. `plan` is the program's evaluation
     * plan, shared by every unit of the program and reused by every
     * arm(); null builds one here.
     */
    explicit FastPu(const lang::Program &program,
                    std::shared_ptr<const sim::EvalPlan> plan = nullptr);

    /**
     * Pre-run the functional simulator over `stream` and reset the
     * handshake state machine. A restriction violation or the per-token
     * loop bound returns InvalidArgument with the simulator's message
     * and leaves the unit unarmed.
     */
    Status arm(const BitBuffer &stream) override;
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
    int inputTokenWidth_;
    int outputTokenWidth_;
    std::shared_ptr<const sim::EvalPlan> plan_;
    sim::RunResult result_;
    /** Each virtual cycle's sim::VcycleFlags, in order, 2 bits each:
     * cycle i at bit 2 * (i % 32) of word i / 32. */
    std::vector<uint64_t> flags_;

    // Handshake state (mirrors the compiled RTL's v/f registers).
    bool v_ = false;
    bool f_ = false;
    uint64_t vcycle_ = 0;
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

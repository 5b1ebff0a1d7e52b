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
 */

#include <memory>

#include "lang/ast.h"
#include "lang/flatten.h"
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
     * stream this unit will be fed) and build the replay model. `flat`
     * is lang::flatten(program), shared by every unit of the program;
     * null flattens here. Every rearm() reuses it, so re-arms mint no
     * expression eval ids and the simulator memo stays bounded.
     */
    FastPu(const lang::Program &program, const BitBuffer &stream,
           std::shared_ptr<const lang::FlatProgram> flat = nullptr);

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
    int inputTokenWidth() const override { return inputTokenWidth_; }
    int outputTokenWidth() const override { return outputTokenWidth_; }
    void appendCounters(trace::CounterSet &out) const override;

    /** The functional run backing this replay (outputs, counts). */
    const sim::RunResult &functionalResult() const { return result_; }

  private:
    int inputTokenWidth_;
    int outputTokenWidth_;
    /** Not owned; must outlive the unit (rearm() re-simulates it). */
    const lang::Program *program_;
    std::shared_ptr<const lang::FlatProgram> flat_;
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

#ifndef FLEET_SYSTEM_PU_RTL_H
#define FLEET_SYSTEM_PU_RTL_H

/**
 * @file
 * Processing unit that interprets the compiled RTL circuit node by node,
 * cycle-accurately (rtl::Simulator). It is the test reference, not an
 * engine the system builds: the cross-check suites drive it through the
 * single-PU testbench and require the fast model (pu_fast.h) and the
 * batched tape and jit lanes (pu_rtl_batch.h) to match it cycle for
 * cycle.
 */

#include <memory>

#include "compile/compiler.h"
#include "rtl/sim.h"
#include "system/pu.h"

namespace fleet {
namespace system {

class RtlPu : public ProcessingUnit
{
  public:
    /** Compile and wrap a program. */
    explicit RtlPu(const lang::Program &program);

    /** Resets the simulator; the circuit does not depend on the
     * stream. */
    Status arm(const BitBuffer &stream) override;
    PuOutputs eval(const PuInputs &inputs) override;
    void step() override;
    int inputTokenWidth() const override { return unit_.inputTokenWidth; }
    int outputTokenWidth() const override { return unit_.outputTokenWidth; }

  private:
    compile::CompiledUnit unit_;
    std::unique_ptr<rtl::Simulator> sim_;
};

} // namespace system
} // namespace fleet

#endif // FLEET_SYSTEM_PU_RTL_H

#ifndef FLEET_SYSTEM_PU_H
#define FLEET_SYSTEM_PU_H

/**
 * @file
 * Cycle-level port interface of a Fleet processing unit — exactly the
 * ready-valid IO interface of Section 4 of the paper. Three
 * implementations exist and are cross-checked cycle-for-cycle, mirroring
 * the paper's "full-system RTL simulation vs. software simulator" testing
 * setup:
 *
 *  - RtlPu (pu_rtl.h): interprets the compiled RTL circuit;
 *  - RtlBatchLane (pu_rtl_batch.h): one lane of a channel's batched
 *    compiled-RTL engine (interpreted tape or jit kernel); and
 *  - FastPu (pu_fast.h): replays a functional-simulator virtual-cycle
 *    trace through the same handshake state machine (fast timing model
 *    for large full-system sweeps).
 *
 * Per simulated clock: call eval() with the cycle's input port values,
 * observe the output ports, let the environment act on the handshakes,
 * then call step() to advance to the next cycle.
 */

#include <cstdint>

#include "trace/trace.h"

namespace fleet {
namespace system {

struct PuInputs
{
    uint64_t inputToken = 0;
    bool inputValid = false;
    bool inputFinished = false;
    bool outputReady = false;
};

struct PuOutputs
{
    bool inputReady = false;
    uint64_t outputToken = 0;
    bool outputValid = false;
    bool outputFinished = false;
};

class ProcessingUnit
{
  public:
    virtual ~ProcessingUnit() = default;

    /** Reset all state to power-on values. */
    virtual void reset() = 0;

    /** Combinationally evaluate the cycle's outputs from the inputs. */
    virtual PuOutputs eval(const PuInputs &inputs) = 0;

    /** Clock edge; commits state using the inputs passed to eval(). */
    virtual void step() = 0;

    /**
     * Valid after eval(): true when step() under the evaluated inputs
     * would leave every piece of unit state unchanged, so the unit
     * repeats this cycle's outputs for as long as its inputs hold. The
     * channel loop puts such a unit to sleep until a controller touches
     * its buffers (channel_shard.h). A unit may always answer false
     * (the default); answering true wrongly breaks cycle exactness.
     */
    virtual bool quiet() const { return false; }

    virtual int inputTokenWidth() const = 0;
    virtual int outputTokenWidth() const = 0;

    /**
     * Append backend-specific counters to the unit's trace CounterSet
     * (values derived from state the backend already keeps — the trace
     * layer adds no per-cycle work to a unit). Default: nothing.
     */
    virtual void appendCounters(trace::CounterSet &) const {}
};

} // namespace system
} // namespace fleet

#endif // FLEET_SYSTEM_PU_H

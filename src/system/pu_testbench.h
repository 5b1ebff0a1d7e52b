#ifndef FLEET_SYSTEM_PU_TESTBENCH_H
#define FLEET_SYSTEM_PU_TESTBENCH_H

/**
 * @file
 * Single-PU testbench: drives one processing unit with an input token
 * stream and collects its output, with configurable input-underrun and
 * output-backpressure patterns. Used by the cross-check suites (RTL vs.
 * fast model vs. functional simulator) and by microbenchmarks.
 */

#include "system/pu.h"
#include "util/bitbuf.h"

namespace fleet {
namespace system {

struct TestbenchOptions
{
    /** Probability that input data is presented on a given cycle. */
    double inputValidProb = 1.0;
    /** Probability that the output sink is ready on a given cycle. */
    double outputReadyProb = 1.0;
    uint64_t seed = 1;
    /** Abort if the unit does not finish within this many cycles. */
    uint64_t maxCycles = 1ULL << 28;
};

struct TestbenchResult
{
    BitBuffer output;
    uint64_t cycles = 0;      ///< Cycles until output_finished asserted.
    uint64_t inputTokens = 0; ///< Handshaked input tokens.
    uint64_t outputTokens = 0;
};

/** Run a unit over a full stream; arms the unit with it first (a
 * stream the unit refuses throws FatalError). */
TestbenchResult runPu(ProcessingUnit &pu, const BitBuffer &input,
                      const TestbenchOptions &options = {});

} // namespace system
} // namespace fleet

#endif // FLEET_SYSTEM_PU_TESTBENCH_H

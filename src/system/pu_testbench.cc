#include "system/pu_testbench.h"

#include "util/logging.h"
#include "util/rng.h"

namespace fleet {
namespace system {

TestbenchResult
runPu(ProcessingUnit &pu, const BitBuffer &input,
      const TestbenchOptions &options)
{
    const int in_width = pu.inputTokenWidth();
    if (input.sizeBits() % in_width != 0)
        fatal("runPu: input stream is not a whole number of tokens");
    Status armed = pu.arm(input);
    if (!armed.ok())
        fatal("runPu: ", armed.toString());
    Rng rng(options.seed);
    TestbenchResult result;
    const uint64_t total_tokens = input.sizeBits() / in_width;
    uint64_t next_token = 0;

    for (uint64_t cycle = 0; cycle < options.maxCycles; ++cycle) {
        PuInputs in;
        bool have_data = next_token < total_tokens;
        bool present = have_data &&
                       (options.inputValidProb >= 1.0 ||
                        rng.nextDouble() < options.inputValidProb);
        in.inputValid = present;
        in.inputToken =
            present ? input.readBits(next_token * in_width, in_width) : 0;
        in.inputFinished = !have_data;
        in.outputReady = options.outputReadyProb >= 1.0 ||
                         rng.nextDouble() < options.outputReadyProb;

        PuOutputs out = pu.eval(in);

        if (out.outputFinished) {
            result.cycles = cycle;
            return result;
        }
        if (out.outputValid && in.outputReady) {
            result.output.appendBits(out.outputToken,
                                     pu.outputTokenWidth());
            ++result.outputTokens;
        }
        if (out.inputReady && in.inputValid) {
            ++next_token;
            ++result.inputTokens;
        }
        pu.step();
    }
    fatal("runPu: unit did not finish within ", options.maxCycles,
          " cycles");
}

} // namespace system
} // namespace fleet

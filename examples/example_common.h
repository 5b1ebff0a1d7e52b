#ifndef FLEET_EXAMPLES_EXAMPLE_COMMON_H
#define FLEET_EXAMPLES_EXAMPLE_COMMON_H

/**
 * @file
 * Shared observability flags for the runnable examples (ISSUE 3). Every
 * example accepts, in addition to its positional arguments:
 *
 *   --counters      collect and print per-component counters after the
 *                   run (bytes moved, DRAM beats, stall breakdown);
 *   --trace PATH    also record span events and write a Chrome
 *                   trace_event JSON to PATH (open in Perfetto);
 *   --backend B     PU backend (fast | rtl | rtlinterp | rtljit —
 *                   system/pu_backend.h). Every backend is
 *                   bit-identical; rtljit compiles the tape to native
 *                   code at session start and falls back to rtl (the
 *                   interpreted batch) when no host compiler is
 *                   available.
 *
 * stripTraceFlags() removes these from argv before the example's own
 * positional parsing, so `./quickstart 16 4096 --counters` works.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "system/fleet_system.h"
#include "system/pu_backend.h"

namespace fleet {
namespace examples {

struct TraceOptions
{
    bool counters = false;
    std::string tracePath;
    std::optional<system::PuBackend> backend;

    /** Enable collection on the system config (counters implies the
     * cheap counter mode; --trace additionally records events), and
     * apply the --backend override when one was given. */
    void apply(system::SystemConfig &config) const
    {
        config.trace.counters = counters || !tracePath.empty();
        config.trace.events = !tracePath.empty();
        if (backend)
            config.backend = *backend;
    }

    /** tracePath with `suffix` spliced in before the extension, for
     * examples that run several systems in one invocation. */
    std::string pathWithSuffix(const std::string &suffix) const
    {
        if (suffix.empty())
            return tracePath;
        auto dot = tracePath.rfind('.');
        if (dot == std::string::npos)
            return tracePath + "_" + suffix;
        return tracePath.substr(0, dot) + "_" + suffix +
               tracePath.substr(dot);
    }

    /**
     * Print the counter digest and/or export the Chrome trace for one
     * finished run. Returns 0, or 1 if the trace file could not be
     * written (usable as a main() exit code).
     */
    int report(const system::RunReport &run_report,
               const std::string &suffix = {}) const
    {
        if (counters && run_report.trace)
            std::printf("\n%s",
                        run_report.trace->countersSummary().c_str());
        if (!tracePath.empty()) {
            std::string path = pathWithSuffix(suffix);
            Status status = run_report.writeTrace(path);
            if (!status.ok()) {
                std::fprintf(stderr, "trace export failed: %s\n",
                             status.toString().c_str());
                return 1;
            }
            std::printf("wrote trace %s (open in Perfetto)\n",
                        path.c_str());
        }
        return 0;
    }
};

/** Remove --counters / --trace PATH / --backend B from argv (compacting
 * in place) and return the parsed options; positional arguments keep
 * their order. An unknown backend name exits with a usage message. */
inline TraceOptions
stripTraceFlags(int &argc, char **argv)
{
    TraceOptions opts;
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--counters") == 0) {
            opts.counters = true;
        } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
            opts.tracePath = argv[++i];
        } else if (std::strcmp(argv[i], "--backend") == 0 &&
                   i + 1 < argc) {
            auto parsed = system::parsePuBackend(argv[++i]);
            if (!parsed) {
                std::fprintf(stderr,
                             "unknown backend %s (choices: %s)\n",
                             argv[i], system::kPuBackendChoices);
                std::exit(2);
            }
            opts.backend = *parsed;
        } else {
            argv[kept++] = argv[i];
        }
    }
    argc = kept;
    return opts;
}

} // namespace examples
} // namespace fleet

#endif // FLEET_EXAMPLES_EXAMPLE_COMMON_H

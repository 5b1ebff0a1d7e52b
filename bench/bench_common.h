#ifndef FLEET_BENCH_BENCH_COMMON_H
#define FLEET_BENCH_BENCH_COMMON_H

/**
 * @file
 * Shared helpers for the benchmark harnesses that regenerate the paper's
 * tables and figures. Each harness prints both the measured/simulated
 * value and the paper's reported value where one exists, so shape
 * agreement (who wins, by roughly what factor) can be read directly.
 *
 * Simulation scaling: a full F1 design has hundreds of PUs consuming
 * 1 MB each; cycle-accurate simulation of that exact configuration is
 * needlessly slow, so harnesses simulate every PU of a single
 * representative channel (capped) with smaller equal streams and scale
 * by the channel count — valid because channels are fully independent
 * (Section 5: "no further coordination is needed among the separate
 * channels").
 */

#include <cstdio>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "system/fleet_system.h"
#include "util/rng.h"
#include "util/table.h"

namespace fleet {
namespace bench {

/** Paper reference values (Figure 7) for side-by-side printing. */
struct PaperRow
{
    const char *app;
    int pus;
    double fleetGBps;
    double fleetPerfWDram;
    double cpuGBps;
    double cpuPerfWDram;
    double gpuGBps;
    double gpuPerfWDram;
};

inline const std::vector<PaperRow> &
paperFigure7()
{
    static const std::vector<PaperRow> rows = {
        {"JsonParsing", 512, 21.39, 0.70, 6.11, 0.03, 25.23, 0.13},
        {"IntegerCoding", 192, 10.99, 0.40, 2.11, 0.01, 31.04, 0.15},
        {"DecisionTree", 384, 3.77, 0.13, 2.01, 0.01, 102.17, 0.38},
        {"SmithWaterman", 384, 24.62, 0.81, 0.68, 0.003, 29.41, 0.14},
        {"Regex", 704, 27.24, 0.89, 3.25, 0.02, 73.59, 0.34},
        {"BloomFilter", 320, 24.21, 0.72, 12.03, 0.05, 13.50, 0.11},
    };
    return rows;
}

inline const PaperRow &
paperRowFor(const std::string &app)
{
    for (const auto &row : paperFigure7())
        if (app == row.app)
            return row;
    throw std::runtime_error("no paper row for " + app);
}

/** Equal-size streams for one app. */
inline std::vector<BitBuffer>
makeStreams(const apps::Application &app, int count, uint64_t bytes_each,
            uint64_t seed)
{
    Rng rng(seed);
    std::vector<BitBuffer> streams;
    for (int i = 0; i < count; ++i)
        streams.push_back(app.generateStream(rng, bytes_each));
    return streams;
}

/** One full-system simulation's results, for tables and BENCH_PR.json. */
struct FleetRun
{
    double gbps = 0;           ///< Input GB/s (scaled if requested).
    double bytesPerCycle = 0;  ///< Input bytes per simulated cycle.
    double simWallSeconds = 0; ///< Host wall-clock spent simulating.
    int threads = 1;           ///< Host worker threads used.
    uint64_t cycles = 0;
    std::vector<system::ChannelStats> channels;
    system::RunReport report; ///< Per-channel / per-PU outcomes.
};

/** Run a system to completion and collect the bench-facing numbers. */
inline FleetRun
runFleet(const lang::Program &program,
         const std::vector<BitBuffer> &streams,
         const system::SystemConfig &config, double gbps_scale = 1.0)
{
    system::FleetSystem fleet_system(program, config, streams);
    FleetRun run;
    run.report = fleet_system.run();
    auto stats = fleet_system.stats();
    run.gbps = stats.inputGBps() * gbps_scale;
    run.bytesPerCycle = stats.bytesPerCycle();
    run.simWallSeconds = stats.wallSeconds;
    run.threads = stats.threadsUsed;
    run.cycles = stats.cycles;
    run.channels = std::move(stats.channels);
    return run;
}

/**
 * Simulate `pus_per_channel` units on a single channel and return the
 * aggregate GB/s scaled to `total_channels`.
 */
inline double
channelScaledGBps(const lang::Program &program,
                  const std::vector<BitBuffer> &streams, int total_channels,
                  system::SystemConfig config = {})
{
    config.numChannels = 1;
    return runFleet(program, streams, config, total_channels).gbps;
}

inline void
printHeader(const char *title, const char *what)
{
    std::printf("\n==== %s ====\n%s\n\n", title, what);
}

} // namespace bench
} // namespace fleet

#endif // FLEET_BENCH_BENCH_COMMON_H

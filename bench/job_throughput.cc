/**
 * @file
 * Job-runtime throughput (ISSUE 5): how well the incremental Session
 * keeps a fixed PU pool fed as the queue deepens. One-shot run() arms
 * each unit exactly once, so the pool drains as streams finish; the
 * Session re-arms a slot the moment its stream drains, so with a deep
 * enough queue the tail shrinks to one job's length and bytes/cycle
 * approaches the controller's steady-state feed rate.
 *
 * For each queue depth D the harness submits D jobs per slot
 * (heterogeneous lengths), serves them to completion, and reports:
 *
 *  - jobs/s      host-side serving rate (wall clock, simulation speed);
 *  - bytes/cycle simulated feed efficiency — the number that should
 *                rise with depth as re-arm amortizes the drain tail;
 *  - slot util   mean fraction of session cycles a slot held a job.
 *
 * A one-shot run() over the same streams at depth 1 anchors the
 * comparison: the session at depth 1 must be within noise of it.
 *
 * Flags:
 *  --smoke        short CI configuration (fewer slots, smaller jobs).
 *  --json PATH    write the per-depth results as JSON.
 *  --threads N    host worker threads (0 = one per hardware thread).
 */

#include <chrono>

#include "bench_common.h"
#include "harness.h"
#include "runtime/session.h"

using namespace fleet;

namespace {

struct DepthResult
{
    int depth = 0;
    uint64_t jobs = 0;
    uint64_t inputBytes = 0;
    uint64_t cycles = 0;
    double jobsPerSec = 0;
    double bytesPerCycle = 0;
    double slotUtilization = 0;
    double simWallS = 0;
};

/** Heterogeneous job streams: lengths spread ~4x around `bytes_mean`. */
std::vector<BitBuffer>
jobStreams(const apps::Application &app, uint64_t count,
           uint64_t bytes_mean, uint64_t seed)
{
    Rng rng(seed);
    std::vector<BitBuffer> streams;
    for (uint64_t j = 0; j < count; ++j) {
        uint64_t bytes =
            bytes_mean / 2 + rng.nextBelow(bytes_mean + bytes_mean / 2);
        streams.push_back(app.generateStream(rng, bytes));
    }
    return streams;
}

DepthResult
serveDepth(const apps::Application &app, const bench::CommonFlags &opts,
           int num_slots, int num_channels, uint64_t region_bytes,
           int depth)
{
    runtime::SessionConfig config;
    config.system.numChannels = num_channels;
    config.system.numThreads = opts.threads;
    config.system.inputRegionBytes = region_bytes;
    config.numSlots = num_slots;
    auto streams = jobStreams(app, uint64_t(depth) * num_slots,
                              region_bytes / 4, 0xD00 + depth);

    DepthResult result;
    result.depth = depth;
    result.jobs = streams.size();
    for (const auto &stream : streams)
        result.inputBytes += (stream.sizeBits() + 7) / 8;

    auto start = std::chrono::steady_clock::now();
    runtime::Session session(app.program(), config);
    for (auto &stream : streams)
        session.submit(std::move(stream));
    const system::RunReport &report = session.finish();
    result.simWallS = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();

    if (!report.allOk())
        std::fprintf(stderr, "warning: %s depth %d: %s\n",
                     app.name().c_str(), depth, report.summary().c_str());
    result.cycles = session.cycles();
    result.jobsPerSec =
        result.simWallS > 0 ? double(result.jobs) / result.simWallS : 0;
    result.bytesPerCycle =
        result.cycles > 0 ? double(result.inputBytes) / result.cycles : 0;
    uint64_t busy_cycles = 0;
    for (const auto &job : session.reports())
        busy_cycles += job.retireCycle - job.armCycle;
    result.slotUtilization =
        result.cycles > 0
            ? double(busy_cycles) / (double(result.cycles) * num_slots)
            : 0;
    return result;
}

/** The anchor: the same depth-1 streams through legacy one-shot run(). */
DepthResult
serveOneShot(const apps::Application &app, const bench::CommonFlags &opts,
             int num_slots, int num_channels, uint64_t region_bytes)
{
    system::SystemConfig config;
    config.numChannels = num_channels;
    config.numThreads = opts.threads;
    auto streams = jobStreams(app, uint64_t(num_slots), region_bytes / 4,
                              0xD00 + 1);

    DepthResult result;
    result.depth = 1;
    result.jobs = streams.size();
    for (const auto &stream : streams)
        result.inputBytes += (stream.sizeBits() + 7) / 8;

    auto run = bench::runFleet(app.program(), streams, config);
    result.simWallS = run.simWallSeconds;
    result.cycles = run.cycles;
    result.jobsPerSec =
        result.simWallS > 0 ? double(result.jobs) / result.simWallS : 0;
    result.bytesPerCycle =
        result.cycles > 0 ? double(result.inputBytes) / result.cycles : 0;
    result.slotUtilization = 0; // run() has no arm/retire cycle spans.
    return result;
}

std::string
resultsJson(const std::string &app, const DepthResult &oneshot,
            const std::vector<DepthResult> &results,
            const bench::CommonFlags &opts)
{
    json::Writer w;
    auto row = [&](const DepthResult &r, const char *mode) {
        w.object()
            .field("mode", mode)
            .field("queue_depth", r.depth)
            .field("jobs", r.jobs)
            .field("input_bytes", r.inputBytes)
            .field("cycles", r.cycles)
            .field("jobs_per_sec", r.jobsPerSec, 3)
            .field("bytes_per_cycle", r.bytesPerCycle, 6)
            .field("slot_utilization", r.slotUtilization, 4)
            .field("sim_wall_s", r.simWallS, 6)
            .end();
    };
    w.object();
    bench::runMetadata(w, "job_throughput", "fast", opts.threads);
    w.field("smoke", opts.smoke);
    w.field("app", app);
    w.array("rows");
    row(oneshot, "one-shot");
    for (const auto &r : results)
        row(r, "session");
    w.end().end();
    return w.str();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::CommonFlags opts;
    if (!bench::parseFlags(argc, argv,
                           {bench::smokeFlag(opts), bench::jsonFlag(opts),
                            bench::threadsFlag(opts)}))
        return 2;

    const int num_slots = opts.smoke ? 8 : 16;
    const int num_channels = opts.smoke ? 2 : 4;
    const uint64_t region_bytes = opts.smoke ? 4096 : 16384;
    const std::vector<int> depths =
        opts.smoke ? std::vector<int>{1, 4, 8}
                   : std::vector<int>{1, 2, 4, 8, 16};

    // One stream-shaped app is enough for the throughput curve; the
    // determinism suite already proves every app behaves identically
    // through the runtime.
    auto apps = apps::allApplications();
    const apps::Application &app = *apps.front();

    bench::printHeader(
        "Job runtime throughput vs queue depth",
        "Session re-arms each slot as its stream drains; depth D "
        "queues D jobs per slot.");
    std::printf("app=%s slots=%d channels=%d region=%llu bytes\n\n",
                app.name().c_str(), num_slots, num_channels,
                static_cast<unsigned long long>(region_bytes));

    DepthResult oneshot =
        serveOneShot(app, opts, num_slots, num_channels, region_bytes);
    std::vector<DepthResult> results;
    for (int depth : depths)
        results.push_back(serveDepth(app, opts, num_slots, num_channels,
                                     region_bytes, depth));

    Table table({"Mode", "Depth", "Jobs", "Jobs/s", "Bytes/cycle",
                 "Slot util", "Cycles", "Sim wall s"});
    auto add = [&](const DepthResult &r, const char *mode) {
        table.row()
            .cell(mode)
            .cell(r.depth)
            .cell(r.jobs)
            .cell(r.jobsPerSec, 1)
            .cell(r.bytesPerCycle, 4)
            .cell(r.slotUtilization, 3)
            .cell(r.cycles)
            .cell(r.simWallS, 3);
    };
    add(oneshot, "one-shot");
    for (const auto &r : results)
        add(r, "session");
    std::printf("%s\n", table.str().c_str());

    if (!opts.jsonPath.empty() &&
        !bench::writeFile(opts.jsonPath,
                          resultsJson(app.name(), oneshot, results, opts)))
        return 1;
    return 0;
}

/**
 * @file
 * Cluster scale-out and pipeline latency (ISSUE 10), in the spirit of
 * HPCC-FPGA's b_eff: characterize the multi-device layer end to end.
 *
 * Part A — scale-out: the identical job mix is replayed through 1-, 2-
 * and 4-device sessions (same per-device slot/channel shape), and the
 * headline is throughput in jobs per simulated megacycle. Devices are
 * independent except for placement, so throughput must scale:
 *
 *  - GATE: 2-device jobs/Mcycle >= 1.6x the 1-device run.
 *
 * Part B — pipeline latency: a two-stage pipeline (identity on device
 * 0 feeding streamSum on device 1) is swept across link bandwidths,
 * and the per-job end-to-end p50/p99 (submit -> final report, in
 * simulated cycles) is reported per point.
 *
 *  - GATE: the narrowest link's p99 must exceed the widest link's
 *    (the link model must actually cost something, or the sweep is
 *    meaningless).
 *
 * Determinism: placement is a pure function of simulated state, so in
 * --smoke mode the 2-device point is replayed across host thread
 * counts and a cycle-accurate backend and fenced bit-for-bit on
 * per-job (device, pu, channel, arm, retire, completed) tuples.
 *
 * Flags:
 *  --smoke         short CI configuration + determinism crosscheck.
 *  --json PATH     write results as JSON (BENCH_CLUSTER.json).
 *  --baseline PATH compare jobs/Mcycle per device count and pipeline
 *                  p99 latency per link bandwidth against a previous
 *                  JSON; exact match required.
 *  --threads N     host worker threads (0 = one per hardware thread).
 *  --backend B     fast | rtl | rtljit.
 */

#include <algorithm>
#include <array>
#include <chrono>

#include "bench_common.h"
#include "cluster/pipeline.h"
#include "harness.h"
#include "lang/builder.h"
#include "report_log.h"
#include "runtime/session.h"
#include "system/pu_backend.h"

using namespace fleet;

namespace {

/** The simulated fabric clock used to express link bandwidth in GB/s
 * (the paper's F1 designs close timing at 125 MHz). */
constexpr double kClockMhz = 125.0;

struct BenchShape
{
    int slotsPerDevice = 4;
    int channels = 2;
    uint64_t regionBytes = 4096;
    uint64_t jobs = 96;
    uint64_t minBytes = 64;
    uint64_t maxBytes = 512;
    uint64_t pipelineJobs = 48;
};

/** The identity unit from Section 3 (also the pipeline's pass stage). */
lang::Program
identityProgram()
{
    lang::ProgramBuilder b("Identity", 8, 8);
    b.if_(!b.streamFinished(), [&] { b.emit(b.input()); });
    return b.finish();
}

/** Sums all tokens, emits the 32-bit total in the cleanup cycle. */
lang::Program
streamSumProgram()
{
    using lang::Value;
    lang::ProgramBuilder b("StreamSum", 8, 32);
    Value sum = b.reg("sum", 32, 0);
    b.if_(b.streamFinished(), [&] { b.emit(sum); })
        .else_([&] { b.assign(sum, sum + b.input().resize(32)); });
    return b.finish();
}

std::vector<BitBuffer>
makeJobMix(const BenchShape &shape, uint64_t count, uint64_t seed)
{
    Rng rng(seed);
    std::vector<BitBuffer> streams;
    for (uint64_t j = 0; j < count; ++j) {
        uint64_t bytes =
            shape.minBytes +
            rng.nextBelow(shape.maxBytes - shape.minBytes + 1);
        BitBuffer s;
        for (uint64_t i = 0; i < bytes; ++i)
            s.appendBits(rng.next(), 8);
        streams.push_back(std::move(s));
    }
    return streams;
}

/** One scale-out point: the job mix through an N-device session. */
struct ScalePoint
{
    int devices = 1;
    uint64_t jobsServed = 0;
    uint64_t simCycles = 0;
    double jobsPerMcycle = 0;
    double simWallS = 0;
    std::vector<uint64_t> perDeviceJobs;
    /** Per-job simulated tuples in job-id order — the determinism
     * fence (host wall fields deliberately absent). */
    std::vector<std::array<uint64_t, 6>> signature;
};

ScalePoint
runScalePoint(const bench::CommonFlags &opts, const BenchShape &shape,
              int devices, const std::vector<BitBuffer> &streams)
{
    runtime::SessionConfig config;
    config.system.numChannels = shape.channels;
    config.system.numThreads = opts.threads;
    config.system.backend = opts.backend;
    config.system.inputRegionBytes = shape.regionBytes;
    config.numSlots = shape.slotsPerDevice;
    config.numDevices = devices;

    ScalePoint point;
    point.devices = devices;
    point.perDeviceJobs.assign(static_cast<size_t>(devices), 0);

    auto start = std::chrono::steady_clock::now();
    runtime::Session session(identityProgram(), config);
    bench::ReportLog log;
    for (const auto &stream : streams)
        session.submit(stream, log.sink());
    session.finish();
    point.simWallS = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();

    for (const auto &report : log.all()) {
        if (!report.ok() || report.device < 0)
            continue;
        ++point.jobsServed;
        ++point.perDeviceJobs[report.device];
        point.signature.push_back(
            {static_cast<uint64_t>(report.device),
             static_cast<uint64_t>(report.pu),
             static_cast<uint64_t>(report.channel), report.armCycle,
             report.retireCycle, report.completedCycle});
    }
    point.simCycles = session.cycles();
    point.jobsPerMcycle =
        point.simCycles
            ? double(point.jobsServed) * 1e6 / double(point.simCycles)
            : 0;
    return point;
}

/** One pipeline-latency point: two stages across two devices at a
 * given link bandwidth. */
struct PipelinePoint
{
    uint64_t bytesPerCycle = 0;
    double linkGBps = 0;
    uint64_t jobsServed = 0;
    uint64_t p50 = 0, p99 = 0;
    uint64_t linkBusyCycles = 0;
    uint64_t simCycles = 0;
    double simWallS = 0;
};

PipelinePoint
runPipelinePoint(const bench::CommonFlags &opts, const BenchShape &shape,
                 uint64_t bytes_per_cycle,
                 const std::vector<BitBuffer> &streams)
{
    cluster::PipelineConfig config;
    config.system.numChannels = 1;
    config.system.numThreads = opts.threads;
    config.system.backend = opts.backend;
    config.system.inputRegionBytes = shape.regionBytes;
    config.link.latencyCycles = 200;
    config.link.bytesPerCycle = bytes_per_cycle;
    config.link.windowBytes = 4096;
    config.chunkBytes = 256;
    config.stageQueueDepth = 2;
    std::vector<cluster::StageSpec> stages;
    stages.push_back({identityProgram(), 0, 2});
    stages.push_back({streamSumProgram(), 1, 2});

    PipelinePoint point;
    point.bytesPerCycle = bytes_per_cycle;
    point.linkGBps = config.link.gbps(kClockMhz);

    auto start = std::chrono::steady_clock::now();
    cluster::Pipeline pipeline(stages, config);
    for (const auto &stream : streams)
        pipeline.submit(stream);
    pipeline.run();
    point.simWallS = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();

    std::vector<uint64_t> totals;
    for (const auto &report : pipeline.reports()) {
        if (!report.ok())
            continue;
        ++point.jobsServed;
        totals.push_back(report.totalCycles());
    }
    std::sort(totals.begin(), totals.end());
    point.p50 = bench::percentile(totals, 0.50);
    point.p99 = bench::percentile(totals, 0.99);
    point.linkBusyCycles =
        pipeline.cluster().link(0, 1).counters().busyCycles;
    point.simCycles = pipeline.cycles();
    return point;
}

std::string
resultsJson(const bench::CommonFlags &opts, const BenchShape &shape,
            const std::vector<ScalePoint> &scale,
            const std::vector<PipelinePoint> &pipe)
{
    int max_devices = 1;
    for (const auto &p : scale)
        max_devices = std::max(max_devices, p.devices);
    json::Writer w;
    w.object();
    bench::runMetadata(w, "cluster_scaling", opts.backendName(),
                       opts.threads, max_devices, 200,
                       cluster::LinkParams{}.gbps(kClockMhz));
    w.field("smoke", opts.smoke);
    w.field("slots_per_device", shape.slotsPerDevice);
    w.field("channels", shape.channels);
    w.field("jobs", shape.jobs);
    w.array("scale_points");
    for (const ScalePoint &p : scale)
        w.object()
            .field("devices", p.devices)
            .field("jobs_served", p.jobsServed)
            .field("sim_cycles", p.simCycles)
            .field("jobs_per_mcycle", p.jobsPerMcycle, 6)
            .field("sim_wall_s", p.simWallS, 6)
            .end();
    w.end();
    w.array("pipeline_points");
    for (const PipelinePoint &p : pipe)
        w.object()
            .field("bytes_per_cycle", p.bytesPerCycle)
            .field("link_gbps", p.linkGBps, 3)
            .field("jobs_served", p.jobsServed)
            .field("p50_cycles", p.p50)
            .field("p99_cycles", p.p99)
            .field("link_busy_cycles", p.linkBusyCycles)
            .field("sim_wall_s", p.simWallS, 6)
            .end();
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
                            bench::baselineFlag(opts),
                            bench::threadsFlag(opts),
                            bench::backendFlag(opts)}))
        return 2;

    BenchShape shape;
    if (opts.smoke)
        shape = {4, 2, 4096, 48, 64, 384, 16};

    bench::printHeader(
        "Cluster scale-out and pipeline latency",
        "Part A: identical job mix through 1/2/4-device sessions "
        "(jobs per simulated megacycle must scale).\n"
        "Part B: two-stage cross-device pipeline latency vs link "
        "bandwidth.");
    std::printf("backend=%s slots/device=%d channels=%d jobs=%llu\n\n",
                opts.backendName(), shape.slotsPerDevice,
                shape.channels,
                static_cast<unsigned long long>(shape.jobs));

    const auto streams = makeJobMix(shape, shape.jobs, 0xc1a57e);
    std::vector<ScalePoint> scale;
    for (int devices : {1, 2, 4})
        scale.push_back(runScalePoint(opts, shape, devices, streams));

    Table scale_table({"Devices", "Jobs", "Sim cyc", "Jobs/Mcyc",
                       "Speedup", "Balance", "Wall s"});
    for (const auto &p : scale) {
        double speedup = scale[0].jobsPerMcycle
                             ? p.jobsPerMcycle / scale[0].jobsPerMcycle
                             : 0;
        uint64_t min_jobs = ~0ULL, max_jobs = 0;
        for (uint64_t d : p.perDeviceJobs) {
            min_jobs = std::min(min_jobs, d);
            max_jobs = std::max(max_jobs, d);
        }
        char balance[32];
        std::snprintf(balance, sizeof(balance), "%llu..%llu",
                      static_cast<unsigned long long>(min_jobs),
                      static_cast<unsigned long long>(max_jobs));
        scale_table.row()
            .cell(p.devices)
            .cell(p.jobsServed)
            .cell(p.simCycles)
            .cell(p.jobsPerMcycle, 3)
            .cell(speedup, 2)
            .cell(balance)
            .cell(p.simWallS, 3);
    }
    std::printf("%s\n", scale_table.str().c_str());

    const auto pipe_streams =
        makeJobMix(shape, shape.pipelineJobs, 0x9e77);
    std::vector<PipelinePoint> pipe;
    for (uint64_t bpc : {2ULL, 8ULL, 64ULL})
        pipe.push_back(runPipelinePoint(opts, shape, bpc, pipe_streams));

    Table pipe_table({"B/cyc", "GB/s", "Jobs", "p50 cyc", "p99 cyc",
                      "Link busy", "Wall s"});
    for (const auto &p : pipe)
        pipe_table.row()
            .cell(p.bytesPerCycle)
            .cell(p.linkGBps, 2)
            .cell(p.jobsServed)
            .cell(p.p50)
            .cell(p.p99)
            .cell(p.linkBusyCycles)
            .cell(p.simWallS, 3);
    std::printf("%s\n", pipe_table.str().c_str());

    bool ok = true;
    for (const auto &p : scale) {
        if (p.jobsServed != shape.jobs) {
            std::fprintf(
                stderr, "GATE: %d devices served %llu of %llu jobs\n",
                p.devices,
                static_cast<unsigned long long>(p.jobsServed),
                static_cast<unsigned long long>(shape.jobs));
            ok = false;
        }
    }
    for (const auto &p : pipe) {
        if (p.jobsServed != shape.pipelineJobs) {
            std::fprintf(
                stderr,
                "GATE: pipeline at %llu B/cyc served %llu of %llu "
                "jobs\n",
                static_cast<unsigned long long>(p.bytesPerCycle),
                static_cast<unsigned long long>(p.jobsServed),
                static_cast<unsigned long long>(shape.pipelineJobs));
            ok = false;
        }
    }
    if (scale.size() >= 2 && scale[0].jobsPerMcycle > 0) {
        double speedup = scale[1].jobsPerMcycle / scale[0].jobsPerMcycle;
        if (speedup < 1.6) {
            std::fprintf(stderr,
                         "GATE: 2-device speedup %.2fx below the 1.6x "
                         "scaling floor\n",
                         speedup);
            ok = false;
        } else {
            std::printf("gate: 2-device speedup %.2fx >= 1.6x floor\n",
                        speedup);
        }
    }
    if (pipe.size() >= 2 && pipe.front().p99 <= pipe.back().p99) {
        std::fprintf(stderr,
                     "GATE: narrowest link p99 %llu does not exceed the "
                     "widest link's %llu — the link model cost "
                     "nothing\n",
                     static_cast<unsigned long long>(pipe.front().p99),
                     static_cast<unsigned long long>(pipe.back().p99));
        ok = false;
    }

    // The 2-device point, against the batched compiled-RTL engine.
    if (opts.smoke &&
        !bench::crosscheckDeterminism(
            opts, system::PuBackend::Rtl, "2-device/",
            "per-job tuples", scale[1].signature,
            [&](const bench::CommonFlags &vopts) {
                return runScalePoint(vopts, shape, 2, streams).signature;
            }))
        ok = false;
    std::string doc = resultsJson(opts, shape, scale, pipe);
    if (!opts.jsonPath.empty() && !bench::writeFile(opts.jsonPath, doc))
        ok = false;
    // Exact: the simulated schedule is deterministic, for the sessions
    // and for the pipeline.
    if (!opts.baselinePath.empty() &&
        !bench::checkBaseline(opts.baselinePath, doc,
                              {"scale_points", "devices",
                               "jobs_per_mcycle"}))
        ok = false;
    if (!opts.baselinePath.empty() &&
        !bench::checkBaseline(opts.baselinePath, doc,
                              {"pipeline_points", "bytes_per_cycle",
                               "p99_cycles"}))
        ok = false;
    return ok ? 0 : 1;
}

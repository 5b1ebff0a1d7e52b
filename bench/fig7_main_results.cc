/**
 * @file
 * Regenerates Figure 7 of the paper: for each of the six applications,
 * Fleet's processing-unit count, throughput and performance-per-watt on
 * the modelled F1 platform, against the measured CPU baseline and the
 * modelled GPU (SIMT divergence) baseline. The paper's reported values
 * print alongside for shape comparison.
 *
 * Methodology notes (see DESIGN.md and EXPERIMENTS.md):
 *  - Fleet GB/s comes from cycle-accurate simulation of one memory
 *    channel populated with its share of the fitted PUs (capped for
 *    simulation time), scaled by the channel count; #PUs comes from the
 *    area model.
 *  - CPU GB/s is measured on this host and extrapolated linearly from
 *    the measured threads to the paper's 36 hyperthreads (streams are
 *    independent, so throughput scales with cores).
 *  - GPU GB/s comes from the V100-calibrated warp-divergence model.
 *  - Perf/W uses the power models of src/model/power.h (the paper itself
 *    models DRAM power as a constant 12.5 W).
 *
 * Modes:
 *  --smoke        short CI configuration: a 4-channel cycle-accurate run
 *                 per app (small streams, few PUs, no CPU/GPU baselines),
 *                 once single-threaded and once on the worker pool, so
 *                 the artifact tracks simulation wall-clock and speedup.
 *  --json PATH    write the per-app results as JSON (BENCH_PR.json).
 *  --threads N    worker threads for the parallel runs (0 = auto).
 *  --faults SEED  smoke only: re-run every app under the mixed fault
 *                 plan FaultPlan::fromSeed(SEED), print each app's
 *                 RunReport summary, and assert the serial and
 *                 worker-pool runs produce identical reports.
 *  --baseline P   smoke only: after the fault-free run, compare each
 *                 app's bytes/cycle against a previously written
 *                 BENCH_PR.json and fail if any value changed.
 *  --counters     smoke only: run with counter collection (ISSUE 3),
 *                 print each app's per-component digest, and embed the
 *                 counters in the --json output.
 *  --trace PREFIX smoke only: also record span events and write one
 *                 Chrome trace_event JSON per app (PREFIX_<app>.json,
 *                 openable in Perfetto). Implies counter collection.
 *  --backend B    PU backend: fast (default), rtl (batched tape engine)
 *                 or rtljit (native-compiled tape).
 *                 All are bit-identical, so every reported number except
 *                 wall-clock must match across backends — combine with
 *                 --baseline to prove it in CI.
 */

#include <algorithm>
#include <optional>
#include <thread>

#include "apps/intcode.h"
#include "baseline/cpu.h"
#include "baseline/simt.h"
#include "baseline/timing.h"
#include "bench_common.h"
#include "compile/compiler.h"
#include "fault/fault.h"
#include "harness.h"
#include "model/area.h"
#include "model/power.h"
#include "system/pu_backend.h"

using namespace fleet;

namespace {

struct RunOptions : bench::CommonFlags
{
    std::optional<uint64_t> faultSeed; ///< --faults: mixed fault plan.
    bool counters = false;
    std::string tracePrefix;
};

struct AppResult
{
    std::string name;
    int pus = 0;
    double fleetGBps = 0;
    double fleetPerfW = 0;
    double cpuGBps = 0;
    double cpuPerfW = 0;
    double gpuGBps = 0;
    double gpuPerfW = 0;
    // Simulation-engine telemetry (BENCH_PR.json trajectory).
    double bytesPerCycle = 0;
    uint64_t cycles = 0;
    double simWallS = 0;       ///< Wall-clock with the worker pool.
    double simWallSerialS = 0; ///< Wall-clock with numThreads = 1.
    int threadsUsed = 1;
    std::vector<system::ChannelStats> channels;
    // Fault-mode telemetry (--faults).
    int faultFailedPus = 0;
    int faultTruncatedPus = 0;
    std::string faultSummary;
    // Observability (--counters / --trace).
    std::shared_ptr<const trace::TraceReport> trace;
};

/** Short CI configuration: 4 channels, small streams, engine only. */
AppResult
evaluateAppSmoke(const apps::Application &app, const RunOptions &opts)
{
    AppResult result;
    result.name = app.name();
    const int channels = 4;
    const int pus_per_channel = 4;
    const uint64_t stream_bytes = 4096;

    auto streams = bench::makeStreams(app, channels * pus_per_channel,
                                      stream_bytes, 1015);
    result.pus = static_cast<int>(streams.size());

    system::SystemConfig config;
    config.numChannels = channels;
    config.backend = opts.backend;
    if (opts.faultSeed)
        config.faults = fault::FaultPlan::fromSeed(*opts.faultSeed);
    // Observability is purely observational: enabling it changes no
    // cycle count or output (the --baseline flow proves it each run).
    config.trace.counters = opts.counters || !opts.tracePrefix.empty();
    config.trace.events = !opts.tracePrefix.empty();

    config.numThreads = 1;
    auto serial = bench::runFleet(app.program(), streams, config);
    result.simWallSerialS = serial.simWallSeconds;

    config.numThreads = opts.threads;
    auto parallel = bench::runFleet(app.program(), streams, config);
    result.fleetGBps = parallel.gbps;
    result.bytesPerCycle = parallel.bytesPerCycle;
    result.cycles = parallel.cycles;
    result.simWallS = parallel.simWallSeconds;
    result.threadsUsed = parallel.threads;
    result.channels = parallel.channels;
    result.faultFailedPus = parallel.report.failedPuCount();
    result.faultTruncatedPus = parallel.report.truncatedPuCount();
    result.faultSummary = parallel.report.summary();
    result.trace = parallel.report.trace;

    if (serial.cycles != parallel.cycles)
        throw std::runtime_error(app.name() +
                                 ": thread-count determinism violated");
    if (!(serial.report == parallel.report))
        throw std::runtime_error(
            app.name() + ": RunReport differs between serial and "
                         "worker-pool runs");
    if (!opts.faultSeed && !parallel.report.allOk())
        throw std::runtime_error(app.name() + ": fault-free run failed: " +
                                 parallel.report.summary());
    return result;
}

AppResult
evaluateApp(const apps::Application &app, const model::Device &device,
            const model::PowerParams &power, int cpu_threads,
            system::PuBackend backend)
{
    AppResult result;
    result.name = app.name();
    lang::Program program = app.program();
    auto compiled = compile::compileProgram(program);
    memctl::ControllerParams ctrl;

    // --- Area model: how many PUs fit. -----------------------------------
    auto per_pu = model::estimatePuResources(compiled.circuit, ctrl);
    result.pus = model::maxProcessingUnits(device, per_pu, ctrl);

    // --- Fleet throughput: one channel, scaled. --------------------------
    // Integer coding averages five input ranges, as in the paper.
    std::vector<int> value_ranges = {15};
    if (app.name() == "IntegerCoding")
        value_ranges = {5, 10, 15, 20, 25};

    int per_channel = std::min(result.pus / device.memoryChannels, 96);
    per_channel = std::max(per_channel, 1);
    const uint64_t stream_bytes = 16384;

    double fleet_sum = 0;
    double gpu_sum = 0;
    double cpu_sum = 0;
    for (int range : value_ranges) {
        std::unique_ptr<apps::Application> variant;
        const apps::Application *use = &app;
        if (app.name() == "IntegerCoding") {
            variant = std::make_unique<apps::IntcodeApp>(
                apps::IntcodeParams{range});
            use = variant.get();
        }
        auto streams = bench::makeStreams(*use, per_channel, stream_bytes,
                                   1000 + range);
        system::SystemConfig config;
        config.numChannels = 1;
        config.backend = backend;
        auto run = bench::runFleet(use->program(), streams, config,
                                   device.memoryChannels);
        fleet_sum += run.gbps;
        result.bytesPerCycle += run.bytesPerCycle;
        result.cycles += run.cycles;
        result.simWallS += run.simWallSeconds;
        result.threadsUsed = run.threads;

        // --- GPU model: two warps of distinct streams. -------------------
        auto gpu_streams = bench::makeStreams(*use, 64, 8192, 2000 + range);
        baseline::SimtParams simt_params;
        auto simt = baseline::simulateWarps(use->program(), gpu_streams,
                                            simt_params);
        gpu_sum += simt.gbps(simt_params);

        // --- CPU baseline: measured then extrapolated to 36 HT. ----------
        auto kernel = baseline::makeCpuKernel(use->name());
        std::vector<std::vector<uint8_t>> cpu_streams;
        for (int i = 0; i < cpu_threads * 4; ++i) {
            Rng rng(3000 + range * 37 + i);
            cpu_streams.push_back(
                use->generateStream(rng, 1 << 20).toBytes());
        }
        baseline::MeasureOptions opts;
        opts.threads = cpu_threads;
        opts.repeats = 2;
        auto measured = baseline::measureCpu(*kernel, cpu_streams, opts);
        cpu_sum += measured.gbps() * 36.0 / cpu_threads;
    }
    result.fleetGBps = fleet_sum / value_ranges.size();
    result.gpuGBps = gpu_sum / value_ranges.size();
    result.cpuGBps = cpu_sum / value_ranges.size();
    result.bytesPerCycle /= value_ranges.size();

    // --- Power. -----------------------------------------------------------
    auto controllers = model::estimateControllerResources(ctrl);
    double fpga_w =
        model::fpgaPackagePower(power, per_pu, result.pus, controllers) +
        power.dramW;
    result.fleetPerfW = result.fleetGBps / fpga_w;
    result.cpuPerfW = result.cpuGBps / (power.cpuPackageW + power.dramW);
    result.gpuPerfW = result.gpuGBps / (power.gpuPackageW + power.dramW);
    return result;
}

/** The per-app results as BENCH_PR.json. */
std::string
resultsJson(const std::vector<AppResult> &results, const RunOptions &opts)
{
    double total_wall = 0;
    for (const auto &r : results)
        total_wall += r.simWallS;
    json::Writer w;
    w.object();
    bench::runMetadata(w, "fig7_main_results", opts.backendName(),
                       opts.threads);
    w.field("smoke", opts.smoke);
    w.field("total_sim_wall_s", total_wall, 6);
    w.array("apps");
    for (const AppResult &r : results) {
        w.object();
        w.field("app", r.name);
        w.field("pus", r.pus);
        w.field("fleet_gbps", r.fleetGBps, 6);
        w.field("bytes_per_cycle", r.bytesPerCycle, 6);
        w.field("cycles", r.cycles);
        w.field("sim_wall_s", r.simWallS, 6);
        if (opts.smoke) {
            w.field("sim_wall_serial_s", r.simWallSerialS, 6);
            w.field("parallel_speedup",
                    r.simWallS > 0 ? r.simWallSerialS / r.simWallS : 0.0,
                    3);
        }
        if (opts.faultSeed) {
            w.field("fault_seed", *opts.faultSeed);
            w.field("failed_pus", r.faultFailedPus);
            w.field("truncated_pus", r.faultTruncatedPus);
        }
        if (r.trace) {
            w.array("counters");
            for (const auto &channel : r.trace->channels)
                for (const auto &set : channel.counters) {
                    w.object(true).field("component", set.name);
                    for (const auto &[key, value] : set.values)
                        w.field(key, value);
                    w.end();
                }
            w.end();
        }
        w.field("threads", r.threadsUsed);
        if (!r.channels.empty()) {
            w.array("channels");
            for (const auto &ch : r.channels)
                w.object(true)
                    .field("cycles", ch.cycles)
                    .field("pus", ch.numPus)
                    .field("bus_utilization", ch.busUtilization(), 4)
                    .field("avg_read_queue", ch.avgReadQueueDepth(), 3)
                    .field("input_starved_cycles", ch.inputStarvedCycles)
                    .field("output_blocked_cycles", ch.outputBlockedCycles)
                    .end();
            w.end();
        }
        w.end();
    }
    w.end().end();
    return w.str();
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opts;
    if (!bench::parseFlags(
            argc, argv,
            {bench::smokeFlag(opts), bench::jsonFlag(opts),
             bench::threadsFlag(opts),
             bench::flag("--faults", "SEED", &opts.faultSeed),
             bench::baselineFlag(opts),
             bench::flag("--counters", &opts.counters),
             bench::flag("--trace", "PREFIX", &opts.tracePrefix),
             bench::backendFlag(opts)}))
        return 2;
    if ((opts.faultSeed || !opts.baselinePath.empty() || opts.counters ||
         !opts.tracePrefix.empty()) &&
        !opts.smoke) {
        std::fprintf(stderr, "--faults, --baseline, --counters and "
                             "--trace require --smoke\n");
        return 2;
    }
    if (opts.faultSeed && !opts.baselinePath.empty()) {
        std::fprintf(stderr,
                     "--baseline compares the fault-free run; combine "
                     "it with --smoke only, not --faults\n");
        return 2;
    }

    std::vector<AppResult> results;

    if (opts.smoke) {
        bench::printHeader(
            opts.faultSeed
                ? "Figure 7 (smoke, fault injection): 4-channel run per app"
                : "Figure 7 (smoke): 4-channel engine run per app",
            "Short CI configuration: cycle-accurate simulation only (no "
            "CPU/GPU\nbaselines), single-threaded vs worker-pool "
            "wall-clock.");
        if (opts.faultSeed)
            std::printf("fault plan: FaultPlan::fromSeed(%llu)\n\n",
                        static_cast<unsigned long long>(*opts.faultSeed));
        std::printf("PU backend: %s\n\n", opts.backendName());
        Table table({"App", "Streams", "GB/s", "B/cycle", "wall 1T (s)",
                     "wall NT (s)", "speedup", "threads"});
        for (auto &app : apps::allApplications()) {
            AppResult r = evaluateAppSmoke(*app, opts);
            char gbps[32], bpc[32], w1[32], wn[32], sp[32];
            std::snprintf(gbps, sizeof(gbps), "%.2f", r.fleetGBps);
            std::snprintf(bpc, sizeof(bpc), "%.2f", r.bytesPerCycle);
            std::snprintf(w1, sizeof(w1), "%.3f", r.simWallSerialS);
            std::snprintf(wn, sizeof(wn), "%.3f", r.simWallS);
            std::snprintf(sp, sizeof(sp), "%.2fx",
                          r.simWallS > 0 ? r.simWallSerialS / r.simWallS
                                         : 0.0);
            table.row()
                .cell(r.name)
                .cell(std::to_string(r.pus))
                .cell(gbps)
                .cell(bpc)
                .cell(w1)
                .cell(wn)
                .cell(sp)
                .cell(std::to_string(r.threadsUsed));
            std::fflush(stdout);
            results.push_back(std::move(r));
        }
        std::printf("%s\n", table.str().c_str());
        if (opts.counters) {
            for (const auto &r : results)
                std::printf("%s counters:\n%s\n", r.name.c_str(),
                            r.trace->countersSummary().c_str());
        }
        if (!opts.tracePrefix.empty()) {
            for (const auto &r : results) {
                std::string path =
                    opts.tracePrefix + "_" + r.name + ".json";
                Status st = r.trace->writeChromeTrace(path);
                if (!st.ok()) {
                    std::fprintf(stderr, "trace: %s\n",
                                 st.toString().c_str());
                    return 1;
                }
                std::printf("wrote %s\n", path.c_str());
            }
        }
        if (opts.faultSeed) {
            std::printf("Per-app fault outcomes (identical on serial and "
                        "worker-pool runs):\n");
            for (const auto &r : results)
                std::printf("  %-14s %s\n", r.name.c_str(),
                            r.faultSummary.c_str());
            std::printf("\n");
        }
        std::string doc = resultsJson(results, opts);
        if (!opts.jsonPath.empty() && !bench::writeFile(opts.jsonPath, doc))
            return 1;
        // Exact at the printed precision (%.6f): the simulator is
        // deterministic, so any drift is a real behaviour change.
        if (!opts.baselinePath.empty() &&
            !bench::checkBaseline(opts.baselinePath, doc,
                                  {"apps", "app", "bytes_per_cycle"}))
            return 1;
        return 0;
    }

    bench::printHeader(
        "Figure 7: Fleet on (modelled) Amazon F1 vs CPU/GPU",
        "Simulated/modelled values with the paper's reported numbers in "
        "parentheses.\nCPU measured on this host, extrapolated to the "
        "paper's 36 hyperthreads; see header comment.");

    model::Device device;
    model::PowerParams power;
    int cpu_threads =
        std::max(1u, std::thread::hardware_concurrency());

    auto fmt = [](double ours, double paper, int precision = 2) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.*f (%.*f)", precision, ours,
                      precision, paper);
        return std::string(buf);
    };

    Table table({"App", "#PUs", "Fleet GB/s", "Fleet Perf/W",
                 "CPU GB/s", "CPU Perf/W", "GPU GB/s", "GPU Perf/W",
                 "vs CPU", "vs GPU"});
    for (auto &app : apps::allApplications()) {
        AppResult r =
            evaluateApp(*app, device, power, cpu_threads, opts.backend);
        const auto &paper = bench::paperRowFor(r.name);
        table.row()
            .cell(r.name)
            .cell(fmt(r.pus, paper.pus, 0))
            .cell(fmt(r.fleetGBps, paper.fleetGBps))
            .cell(fmt(r.fleetPerfW, paper.fleetPerfWDram))
            .cell(fmt(r.cpuGBps, paper.cpuGBps))
            .cell(fmt(r.cpuPerfW, paper.cpuPerfWDram, 3))
            .cell(fmt(r.gpuGBps, paper.gpuGBps))
            .cell(fmt(r.gpuPerfW, paper.gpuPerfWDram))
            .cell(fmt(r.fleetPerfW / std::max(r.cpuPerfW, 1e-9),
                      paper.fleetPerfWDram / paper.cpuPerfWDram, 1))
            .cell(fmt(r.fleetPerfW / std::max(r.gpuPerfW, 1e-9),
                      paper.fleetPerfWDram / paper.gpuPerfWDram, 1));
        std::fflush(stdout);
        results.push_back(std::move(r));
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("Columns: ours (paper). Perf/W includes the paper's "
                "12.5 W DRAM assumption.\n");
    if (!opts.jsonPath.empty() &&
        !bench::writeFile(opts.jsonPath, resultsJson(results, opts)))
        return 1;
    return 0;
}

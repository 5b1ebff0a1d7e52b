/**
 * @file
 * Open-loop serving latency under offered load (ISSUE 6). The
 * closed-loop job_throughput bench cannot see queueing delay: it only
 * submits as fast as the system drains. This harness schedules arrivals
 * *in advance* on the simulated clock (deterministic seeded Poisson and
 * bursty processes, heterogeneous job sizes — serve/load_gen.h), drives
 * a paced FleetService, and reports the latency distribution the
 * serving layer actually delivers at each load point:
 *
 *  - p50/p95/p99 end-to-end job latency in simulated cycles, plus the
 *    mean queue-wait / service decomposition from JobReport;
 *  - jobs/s           host-side serving rate (simulation speed);
 *  - reject rate      fraction turned away by admission control
 *                     (bounded queue, Reject policy);
 *  - slot occupancy   fraction of slot-cycles holding a job.
 *
 * Offered load is calibrated: a closed warm-up batch measures the mean
 * per-job service time, and each point's mean interarrival gap is
 * meanService / (slots * rho) — so rho = 1.0 is the pool's saturation
 * point and the sweep brackets it from both sides.
 *
 * Idle gaps: the session clock only advances while jobs are in flight,
 * so the driver keeps a warp offset between the schedule's timeline and
 * the session clock — when the system goes idle it warps forward to the
 * next arrival (standard event-driven queue simulation). Within busy
 * periods arrival spacing is preserved exactly.
 *
 * Determinism: everything simulated is a pure function of the seeded
 * schedule, so in --smoke mode the harness replays one load point
 * across PU backends and host thread counts and fails (exit 1) unless
 * every per-job latency tuple is bit-identical — the serving-layer
 * extension of the runtime determinism fence. Host wall-time fields are
 * excluded (they are reported, not fenced).
 *
 * Flags:
 *  --smoke           short CI configuration + determinism crosscheck.
 *  --json PATH       write per-point results as JSON (BENCH_LAT.json).
 *  --baseline PATH   compare p99 per point against a previous JSON;
 *                    exact match required (the simulator is
 *                    deterministic), nonzero exit on drift.
 *  --threads N       host worker threads (0 = one per hardware thread).
 *  --backend B       fast | rtl | rtlinterp | rtljit
 *                    (system/pu_backend.h; rtl* are cycle-accurate).
 *  --faults SEED     run every load point under the FaultPlan storm
 *                    keyed by SEED with the recovery stack armed
 *                    (retry, quarantine, requeue — ISSUE 7): the
 *                    latency distribution then includes retry delay,
 *                    the price of self-healing under load. The
 *                    zero-failed gate is relaxed (contained failures
 *                    are expected); determinism gates still hold.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <optional>

#include "bench_common.h"
#include "harness.h"
#include "serve/load_gen.h"
#include "serve/service.h"
#include "system/pu_backend.h"

using namespace fleet;

namespace {

struct RunOptions : bench::CommonFlags
{
    std::optional<uint64_t> faultSeed; ///< --faults: storm + recovery.
};

struct PointResult
{
    std::string label;
    serve::ArrivalProcess process = serve::ArrivalProcess::Poisson;
    double rho = 0;
    double meanInterarrival = 0;
    uint64_t jobs = 0;
    uint64_t served = 0;
    uint64_t rejected = 0;
    uint64_t failed = 0; ///< Neither served nor rejected (stranded).
    uint64_t retries = 0; ///< Transient failures re-submitted (--faults).
    double rejectRate = 0;
    uint64_t p50 = 0, p95 = 0, p99 = 0; ///< Total latency, sim cycles.
    double meanQueueWait = 0;
    double meanService = 0;
    double slotOccupancy = 0;
    uint64_t simCycles = 0;
    double jobsPerSec = 0;
    double simWallS = 0;
    /** Per-job simulated-latency tuples in job-id order — the
     * determinism fence (host wall fields deliberately absent). */
    std::vector<std::array<uint64_t, 5>> signature;
};

struct BenchShape
{
    int slots = 8;
    int channels = 2;
    uint64_t regionBytes = 4096;
    uint64_t jobsPerPoint = 96;
    size_t maxQueueDepth = 32;
};

serve::ServiceConfig
serviceConfig(const RunOptions &opts, const BenchShape &shape)
{
    serve::ServiceConfig config;
    config.session.system.numChannels = shape.channels;
    config.session.system.numThreads = opts.threads;
    config.session.system.inputRegionBytes = shape.regionBytes;
    config.session.system.backend = opts.backend;
    config.session.numSlots = shape.slots;
    config.maxQueueDepth = shape.maxQueueDepth;
    config.policy = serve::AdmissionPolicy::Reject;
    config.backgroundThread = false; // paced: deterministic pacing
    if (opts.faultSeed) {
        // Fault storm with the full recovery stack armed (ISSUE 7):
        // the measured distribution then prices in retry delay.
        config.session.system.faults =
            fault::FaultPlan::fromSeed(*opts.faultSeed);
        config.retry.maxAttempts = 3;
        config.retry.backoffCycles = 64;
        config.session.quarantineAfterFaults = 3;
        config.session.requeueStranded = true;
    }
    return config;
}

/** Closed warm-up batch: mean service cycles per job at this shape. */
double
calibrateServiceCycles(const apps::Application &app,
                       const RunOptions &opts, const BenchShape &shape)
{
    // Calibrate fault-free even under --faults so rho keeps meaning
    // offered load / *healthy* pool capacity across both modes.
    RunOptions clean = opts;
    clean.faultSeed.reset();
    serve::ServiceConfig config = serviceConfig(clean, shape);
    serve::FleetService service(app.program(), config);
    uint64_t bytes =
        (shape.regionBytes / 8 + shape.regionBytes / 2) / 2;
    Rng rng(0xCA11B);
    uint64_t jobs = uint64_t(shape.slots) * 2;
    for (uint64_t j = 0; j < jobs; ++j)
        service.submitAt(app.generateStream(rng, bytes), 0);
    while (service.pump()) {
    }
    service.shutdown();
    uint64_t total = 0, count = 0;
    for (const auto &report : service.session().reports())
        if (report.ok()) {
            total += report.serviceCycles();
            ++count;
        }
    if (count == 0)
        throw std::runtime_error("calibration served no jobs");
    return double(total) / double(count);
}

PointResult
runPoint(const apps::Application &app, const RunOptions &opts,
         const BenchShape &shape, serve::ArrivalProcess process,
         double rho, double mean_service)
{
    serve::LoadSpec spec;
    spec.process = process;
    spec.jobs = shape.jobsPerPoint;
    spec.meanInterarrivalCycles =
        std::max(1.0, mean_service / (double(shape.slots) * rho));
    spec.minJobBytes = shape.regionBytes / 8;
    spec.maxJobBytes = shape.regionBytes / 2;
    spec.seed = 0xf1ee7 + uint64_t(rho * 100);

    PointResult result;
    char label[64];
    std::snprintf(label, sizeof(label), "%s-%.2f",
                  serve::arrivalProcessName(process), rho);
    result.label = label;
    result.process = process;
    result.rho = rho;
    result.meanInterarrival = spec.meanInterarrivalCycles;
    result.jobs = spec.jobs;

    auto arrivals = serve::makeArrivals(spec);
    Rng stream_rng(spec.seed ^ 0x5eed);
    std::vector<BitBuffer> streams;
    streams.reserve(arrivals.size());
    for (const auto &arrival : arrivals)
        streams.push_back(
            app.generateStream(stream_rng, arrival.streamBytes));

    serve::FleetService service(app.program(),
                                serviceConfig(opts, shape));

    auto start = std::chrono::steady_clock::now();
    // The session starts at the first arrival (see the file comment).
    std::vector<serve::JobTicket> tickets = bench::releaseOpenLoop(
        service, arrivals, std::move(streams),
        arrivals.empty() ? 0 : arrivals.front().cycle,
        [](size_t) { return serve::SubmitOptions{}; });
    service.shutdown();
    result.simWallS = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();

    std::vector<uint64_t> totals;
    uint64_t wait_sum = 0, service_sum = 0;
    for (const auto &ticket : tickets) {
        const runtime::JobReport &report = ticket.report();
        if (report.status.code == StatusCode::ResourceExhausted) {
            ++result.rejected;
            continue;
        }
        if (!report.ok()) {
            ++result.failed;
            continue;
        }
        ++result.served;
        totals.push_back(report.totalCycles());
        wait_sum += report.queueWaitCycles();
        service_sum += report.serviceCycles();
    }
    std::sort(totals.begin(), totals.end());
    result.rejectRate =
        result.jobs > 0 ? double(result.rejected) / double(result.jobs)
                        : 0;
    result.p50 = bench::percentile(totals, 0.50);
    result.p95 = bench::percentile(totals, 0.95);
    result.p99 = bench::percentile(totals, 0.99);
    result.meanQueueWait =
        result.served ? double(wait_sum) / double(result.served) : 0;
    result.meanService =
        result.served ? double(service_sum) / double(result.served) : 0;
    result.retries = service.stats().retries;
    result.simCycles = service.stats().simCycles;
    result.jobsPerSec = result.simWallS > 0
                            ? double(result.served) / result.simWallS
                            : 0;
    uint64_t busy = 0;
    for (const auto &report : service.session().reports()) {
        busy += report.serviceCycles();
        result.signature.push_back(
            {report.enqueueCycle, report.admittedCycle,
             report.completedCycle, report.armCycle,
             report.retireCycle});
    }
    result.slotOccupancy =
        result.simCycles > 0
            ? double(busy) / (double(result.simCycles) * shape.slots)
            : 0;
    return result;
}

std::string
resultsJson(const std::string &app, const RunOptions &opts,
            const BenchShape &shape, const std::vector<PointResult> &points)
{
    json::Writer w;
    w.object();
    bench::runMetadata(w, "serve_latency", opts.backendName(),
                       opts.threads);
    w.field("smoke", opts.smoke);
    w.field("app", app);
    w.field("slots", shape.slots);
    w.field("channels", shape.channels);
    w.field("max_queue_depth", shape.maxQueueDepth);
    w.field("policy", "reject");
    if (opts.faultSeed)
        w.field("fault_seed", *opts.faultSeed);
    w.array("points");
    for (const PointResult &p : points)
        w.object()
            .field("label", p.label)
            .field("process", serve::arrivalProcessName(p.process))
            .field("rho", p.rho, 3)
            .field("mean_interarrival_cycles", p.meanInterarrival, 3)
            .field("jobs", p.jobs)
            .field("served", p.served)
            .field("rejected", p.rejected)
            .field("failed", p.failed)
            .field("retries", p.retries)
            .field("reject_rate", p.rejectRate, 4)
            .field("p50_total_cycles", p.p50)
            .field("p95_total_cycles", p.p95)
            .field("p99_total_cycles", p.p99)
            .field("mean_queue_wait_cycles", p.meanQueueWait, 3)
            .field("mean_service_cycles", p.meanService, 3)
            .field("slot_occupancy", p.slotOccupancy, 4)
            .field("sim_cycles", p.simCycles)
            .field("jobs_per_sec", p.jobsPerSec, 3)
            .field("sim_wall_s", p.simWallS, 6)
            .end();
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
             bench::baselineFlag(opts), bench::threadsFlag(opts),
             bench::backendFlag(opts),
             bench::flag("--faults", "SEED", &opts.faultSeed)}))
        return 2;

    BenchShape shape;
    std::vector<std::pair<serve::ArrivalProcess, double>> sweep;
    if (opts.smoke) {
        shape = {8, 2, 4096, 96, 32};
        sweep = {{serve::ArrivalProcess::Poisson, 0.5},
                 {serve::ArrivalProcess::Poisson, 0.9},
                 {serve::ArrivalProcess::Poisson, 1.2},
                 {serve::ArrivalProcess::Bursty, 0.9}};
    } else {
        shape = {16, 4, 16384, 512, 64};
        sweep = {{serve::ArrivalProcess::Poisson, 0.3},
                 {serve::ArrivalProcess::Poisson, 0.5},
                 {serve::ArrivalProcess::Poisson, 0.7},
                 {serve::ArrivalProcess::Poisson, 0.9},
                 {serve::ArrivalProcess::Poisson, 1.05},
                 {serve::ArrivalProcess::Poisson, 1.3},
                 {serve::ArrivalProcess::Bursty, 0.5},
                 {serve::ArrivalProcess::Bursty, 0.9}};
    }

    auto apps = apps::allApplications();
    const apps::Application &app = *apps.front();

    bench::printHeader(
        "Serving latency vs offered load (open loop)",
        "Seeded arrivals released on the simulated clock; rho = offered "
        "load / pool capacity (calibrated).");
    std::printf("app=%s backend=%s slots=%d channels=%d queue=%zu "
                "jobs/point=%llu\n\n",
                app.name().c_str(), opts.backendName(),
                shape.slots, shape.channels, shape.maxQueueDepth,
                static_cast<unsigned long long>(shape.jobsPerPoint));

    double mean_service = calibrateServiceCycles(app, opts, shape);
    std::printf("calibrated mean service: %.1f cycles/job "
                "(capacity ~ %.5f jobs/cycle)\n\n",
                mean_service, shape.slots / mean_service);

    std::vector<PointResult> points;
    for (const auto &[process, rho] : sweep)
        points.push_back(
            runPoint(app, opts, shape, process, rho, mean_service));

    Table table({"Point", "Jobs", "Served", "Retry", "Rej rate",
                 "p50 cyc", "p95 cyc", "p99 cyc", "Wait cyc", "Occup",
                 "Jobs/s"});
    for (const auto &p : points)
        table.row()
            .cell(p.label)
            .cell(p.jobs)
            .cell(p.served)
            .cell(p.retries)
            .cell(p.rejectRate, 3)
            .cell(p.p50)
            .cell(p.p95)
            .cell(p.p99)
            .cell(p.meanQueueWait, 1)
            .cell(p.slotOccupancy, 3)
            .cell(p.jobsPerSec, 1);
    std::printf("%s\n", table.str().c_str());

    bool ok = true;

    // Sanity gates (always): the distribution must be non-degenerate
    // and ordered, and the overload point must exercise admission
    // control.
    for (const auto &p : points) {
        if (p.served == 0 || p.p50 == 0 || p.p99 < p.p95 ||
            p.p95 < p.p50) {
            std::fprintf(stderr,
                         "GATE: %s: degenerate latency distribution "
                         "(served=%llu p50=%llu p95=%llu p99=%llu)\n",
                         p.label.c_str(),
                         static_cast<unsigned long long>(p.served),
                         static_cast<unsigned long long>(p.p50),
                         static_cast<unsigned long long>(p.p95),
                         static_cast<unsigned long long>(p.p99));
            ok = false;
        }
        if (p.failed != 0 && !opts.faultSeed) {
            std::fprintf(stderr, "GATE: %s: %llu jobs failed\n",
                         p.label.c_str(),
                         static_cast<unsigned long long>(p.failed));
            ok = false;
        }
        if (p.rho > 1.0 && p.rejected == 0) {
            std::fprintf(stderr,
                         "GATE: %s: overload point never hit admission "
                         "control\n",
                         p.label.c_str());
            ok = false;
        }
    }

    if (opts.smoke && !points.empty()) {
        // Fence the rho=0.9 Poisson point (index 1) across backends
        // and host thread counts.
        const PointResult &reference =
            points.size() > 1 ? points[1] : points[0];
        auto other = opts.backend == system::PuBackend::Fast
                         ? system::PuBackend::Rtl
                         : system::PuBackend::Fast;
        if (!bench::crosscheckDeterminism(
                opts, other, "", "per-job latency tuples",
                reference.signature, [&](const RunOptions &vopts) {
                    return runPoint(app, vopts, shape, reference.process,
                                    reference.rho, mean_service)
                        .signature;
                }))
            ok = false;
    }

    std::string doc = resultsJson(app.name(), opts, shape, points);
    if (!opts.jsonPath.empty() && !bench::writeFile(opts.jsonPath, doc))
        ok = false;
    // Exact: the simulated distribution is deterministic.
    if (!opts.baselinePath.empty() &&
        !bench::checkBaseline(opts.baselinePath, doc,
                              {"points", "label", "p99_total_cycles"}))
        ok = false;
    return ok ? 0 : 1;
}

/**
 * @file
 * Tail-latency isolation across tenants (ISSUE 8). A flood tenant dumps
 * a deep backlog at cycle 0 while a victim tenant submits a light,
 * paced trickle of small jobs — the canonical noisy-neighbour shape.
 * The harness replays the *identical* admitted sequence under each
 * scheduling policy (FIFO, strict priority, SJF, WFQ) plus a victim-
 * only isolated baseline, and reports the victim's p50/p95/p99
 * end-to-end latency in simulated cycles.
 *
 * Headline: weighted fair queuing holds the victim's p99 within a
 * small factor of the isolated baseline while FIFO — which makes the
 * victim wait out the entire flood backlog — blows it up by orders of
 * magnitude. Both ends are gated:
 *
 *  - GATE: WFQ victim p99 <= 3x the isolated baseline p99.
 *  - GATE: FIFO victim p99 > WFQ victim p99 (the flood must actually
 *    hurt under FIFO, or the scenario is too easy to mean anything).
 *
 * Determinism: every policy is a pure function of simulated state, so
 * in --smoke mode the FIFO and WFQ points are replayed across host
 * thread counts and the RTL-batch backend and fenced bit-for-bit on
 * per-job (enqueue, admitted, completed, arm, retire, tenant) tuples.
 *
 * Flags:
 *  --smoke         short CI configuration + determinism crosscheck.
 *  --json PATH     write per-policy results as JSON (BENCH_TENANT.json).
 *  --baseline PATH compare victim p99 per policy against a previous
 *                  JSON; exact match required, nonzero exit on drift.
 *  --threads N     host worker threads (0 = one per hardware thread).
 *  --backend B     fast | rtl | rtljit
 *                  (system/pu_backend.h; rtl* are cycle-accurate).
 */

#include <algorithm>
#include <array>
#include <chrono>

#include "bench_common.h"
#include "harness.h"
#include "report_log.h"
#include "serve/load_gen.h"
#include "serve/service.h"
#include "system/pu_backend.h"

using namespace fleet;

namespace {

struct BenchShape
{
    int slots = 8;
    int channels = 2;
    uint64_t regionBytes = 4096;
    uint64_t victimJobs = 24;
    uint64_t floodJobs = 120;
    uint64_t victimBytes = 96;
    uint64_t floodBytes = 768;
    uint64_t victimInterarrival = 1500;
};

struct PolicyResult
{
    std::string label;
    bool isolated = false;
    uint64_t victimServed = 0;
    uint64_t floodServed = 0;
    uint64_t victimP50 = 0, victimP95 = 0, victimP99 = 0;
    double victimMeanWait = 0;
    uint64_t floodP99 = 0;
    uint64_t simCycles = 0;
    double simWallS = 0;
    /** Per-job simulated tuples in job-id order — the determinism
     * fence (host wall fields deliberately absent). */
    std::vector<std::array<uint64_t, 6>> signature;
};

serve::ServiceConfig
serviceConfig(const bench::CommonFlags &opts, const BenchShape &shape,
              runtime::SchedulerPolicy policy)
{
    serve::ServiceConfig config;
    config.session.system.numChannels = shape.channels;
    config.session.system.numThreads = opts.threads;
    config.session.system.inputRegionBytes = shape.regionBytes;
    config.session.system.backend = opts.backend;
    config.session.numSlots = shape.slots;
    // Small epochs: latency percentiles are quantized to the round
    // length, so finer rounds resolve the victim's tail.
    config.session.epochCycles = 256;
    config.session.scheduler.policy = policy;
    // Victim (tenant 1) outweighs the flood 4:1 under WFQ.
    config.session.scheduler.weights = {{0, 1}, {1, 4}};
    config.maxQueueDepth = 1u << 20; // nothing is turned away
    config.policy = serve::AdmissionPolicy::Reject;
    config.backgroundThread = false; // paced: deterministic pacing
    return config;
}

/** One policy point: the flood backlog lands at cycle 0, the victim
 * trickle is released on its seeded schedule; with `isolated` the
 * flood is withheld (the baseline the gates compare against). */
PolicyResult
runPolicy(const apps::Application &app, const bench::CommonFlags &opts,
          const BenchShape &shape, const char *label,
          runtime::SchedulerPolicy policy, bool isolated)
{
    PolicyResult result;
    result.label = label;
    result.isolated = isolated;

    // Identical streams and arrival schedules for every policy.
    Rng flood_rng(0xF100D);
    std::vector<BitBuffer> flood_streams;
    for (uint64_t j = 0; j < shape.floodJobs; ++j)
        flood_streams.push_back(
            app.generateStream(flood_rng, shape.floodBytes));
    serve::LoadSpec victim_spec;
    victim_spec.jobs = shape.victimJobs;
    victim_spec.meanInterarrivalCycles =
        double(shape.victimInterarrival);
    victim_spec.minJobBytes = shape.victimBytes;
    victim_spec.maxJobBytes = shape.victimBytes;
    victim_spec.seed = 0x71c7;
    auto victim_arrivals = serve::makeArrivals(victim_spec);
    Rng victim_rng(0x71c7 ^ 0x5eed);
    std::vector<BitBuffer> victim_streams;
    for (const auto &arrival : victim_arrivals)
        victim_streams.push_back(
            app.generateStream(victim_rng, arrival.streamBytes));

    serve::FleetService service(app.program(),
                                serviceConfig(opts, shape, policy));
    std::vector<serve::JobTicket> flood_tickets, victim_tickets;

    serve::SubmitOptions flood_opts;
    flood_opts.tag.tenant = 0;
    flood_opts.tag.priority = 1; // audit class: yields under Priority
    serve::SubmitOptions victim_opts;
    victim_opts.tag.tenant = 1;
    victim_opts.tag.priority = 0; // latency-critical class

    auto start = std::chrono::steady_clock::now();
    if (!isolated)
        for (auto &stream : flood_streams)
            flood_tickets.push_back(
                service.submitAt(std::move(stream), 0, flood_opts));

    // Victims arrive on the schedule's own origin; idle gaps warp to
    // the next victim arrival (the isolated baseline has real gaps; the
    // flooded runs rarely idle).
    victim_tickets = bench::releaseOpenLoop(
        service, victim_arrivals, std::move(victim_streams), 0,
        [&](size_t) { return victim_opts; });
    service.shutdown();
    result.simWallS = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();

    std::vector<uint64_t> victim_totals, flood_totals;
    uint64_t victim_wait = 0;
    for (const auto &ticket : victim_tickets) {
        const runtime::JobReport &report = ticket.report();
        if (!report.ok())
            continue;
        ++result.victimServed;
        victim_totals.push_back(report.totalCycles());
        victim_wait += report.queueWaitCycles();
    }
    for (const auto &ticket : flood_tickets) {
        const runtime::JobReport &report = ticket.report();
        if (!report.ok())
            continue;
        ++result.floodServed;
        flood_totals.push_back(report.totalCycles());
    }
    std::sort(victim_totals.begin(), victim_totals.end());
    std::sort(flood_totals.begin(), flood_totals.end());
    result.victimP50 = bench::percentile(victim_totals, 0.50);
    result.victimP95 = bench::percentile(victim_totals, 0.95);
    result.victimP99 = bench::percentile(victim_totals, 0.99);
    result.victimMeanWait =
        result.victimServed
            ? double(victim_wait) / double(result.victimServed)
            : 0;
    result.floodP99 = bench::percentile(flood_totals, 0.99);
    result.simCycles = service.stats().simCycles;
    std::vector<serve::JobTicket> tickets = std::move(flood_tickets);
    tickets.insert(tickets.end(), victim_tickets.begin(),
                   victim_tickets.end());
    for (const auto &report : bench::sessionReports(tickets))
        result.signature.push_back(
            {report.enqueueCycle, report.admittedCycle,
             report.completedCycle, report.armCycle,
             report.retireCycle, report.tenant});
    return result;
}

std::string
resultsJson(const std::string &app, const bench::CommonFlags &opts,
            const BenchShape &shape, const std::vector<PolicyResult> &points)
{
    json::Writer w;
    w.object();
    bench::runMetadata(w, "tenant_isolation", opts.backendName(),
                       opts.threads);
    w.field("smoke", opts.smoke);
    w.field("app", app);
    w.field("slots", shape.slots);
    w.field("channels", shape.channels);
    w.field("victim_jobs", shape.victimJobs);
    w.field("flood_jobs", shape.floodJobs);
    w.array("points");
    for (const PolicyResult &p : points)
        w.object()
            .field("label", p.label)
            .field("isolated", p.isolated)
            .field("victim_served", p.victimServed)
            .field("flood_served", p.floodServed)
            .field("victim_p50_cycles", p.victimP50)
            .field("victim_p95_cycles", p.victimP95)
            .field("victim_p99_cycles", p.victimP99)
            .field("victim_mean_wait_cycles", p.victimMeanWait, 3)
            .field("flood_p99_cycles", p.floodP99)
            .field("sim_cycles", p.simCycles)
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
        shape = {6, 2, 4096, 16, 64, 96, 640, 1200};
    else
        shape = {8, 2, 8192, 32, 192, 128, 1024, 1500};

    auto apps = apps::allApplications();
    const apps::Application &app = *apps.front();

    bench::printHeader(
        "Tenant tail-latency isolation (flood vs paced victim)",
        "Identical admitted sequence per scheduling policy; victim "
        "latency vs a victim-only isolated baseline.");
    std::printf("app=%s backend=%s slots=%d channels=%d victim=%llu "
                "flood=%llu\n\n",
                app.name().c_str(), opts.backendName(),
                shape.slots, shape.channels,
                static_cast<unsigned long long>(shape.victimJobs),
                static_cast<unsigned long long>(shape.floodJobs));

    struct PolicyPoint
    {
        const char *label;
        runtime::SchedulerPolicy policy;
        bool isolated;
    };
    const PolicyPoint sweep[] = {
        {"isolated", runtime::SchedulerPolicy::Fifo, true},
        {"fifo", runtime::SchedulerPolicy::Fifo, false},
        {"priority", runtime::SchedulerPolicy::Priority, false},
        {"sjf", runtime::SchedulerPolicy::Sjf, false},
        {"wfq", runtime::SchedulerPolicy::Wfq, false},
    };
    std::vector<PolicyResult> points;
    for (const PolicyPoint &point : sweep)
        points.push_back(runPolicy(app, opts, shape, point.label,
                                   point.policy, point.isolated));

    const PolicyResult &isolated = points[0];
    Table table({"Policy", "Victim", "Flood", "V p50", "V p95", "V p99",
                 "p99 vs isol", "V wait", "Sim cyc"});
    for (const auto &p : points) {
        double blowup =
            isolated.victimP99
                ? double(p.victimP99) / double(isolated.victimP99)
                : 0;
        table.row()
            .cell(p.label)
            .cell(p.victimServed)
            .cell(p.floodServed)
            .cell(p.victimP50)
            .cell(p.victimP95)
            .cell(p.victimP99)
            .cell(blowup, 2)
            .cell(p.victimMeanWait, 1)
            .cell(p.simCycles);
    }
    std::printf("%s\n", table.str().c_str());

    bool ok = true;
    for (const auto &p : points) {
        if (p.victimServed != shape.victimJobs) {
            std::fprintf(stderr,
                         "GATE: %s: victim served %llu of %llu jobs\n",
                         p.label.c_str(),
                         static_cast<unsigned long long>(p.victimServed),
                         static_cast<unsigned long long>(
                             shape.victimJobs));
            ok = false;
        }
        if (!p.isolated && p.floodServed != shape.floodJobs) {
            std::fprintf(stderr,
                         "GATE: %s: flood served %llu of %llu jobs "
                         "(no-starvation violated)\n",
                         p.label.c_str(),
                         static_cast<unsigned long long>(p.floodServed),
                         static_cast<unsigned long long>(
                             shape.floodJobs));
            ok = false;
        }
    }
    const PolicyResult *fifo = nullptr, *wfq = nullptr;
    for (const auto &p : points) {
        if (p.label == "fifo")
            fifo = &p;
        if (p.label == "wfq")
            wfq = &p;
    }
    if (fifo && wfq && isolated.victimP99 > 0) {
        // The headline gates.
        if (wfq->victimP99 > 3 * isolated.victimP99) {
            std::fprintf(stderr,
                         "GATE: wfq victim p99 %llu exceeds 3x the "
                         "isolated baseline %llu\n",
                         static_cast<unsigned long long>(wfq->victimP99),
                         static_cast<unsigned long long>(
                             isolated.victimP99));
            ok = false;
        }
        if (fifo->victimP99 <= wfq->victimP99) {
            std::fprintf(stderr,
                         "GATE: fifo victim p99 %llu does not exceed "
                         "wfq's %llu — the flood never hurt\n",
                         static_cast<unsigned long long>(
                             fifo->victimP99),
                         static_cast<unsigned long long>(
                             wfq->victimP99));
            ok = false;
        }
    }

    if (opts.smoke && fifo && wfq) {
        auto other = opts.backend == system::PuBackend::Fast
                         ? system::PuBackend::Rtl
                         : system::PuBackend::Fast;
        auto crosscheck = [&](const PolicyResult &reference,
                              runtime::SchedulerPolicy policy) {
            return bench::crosscheckDeterminism(
                opts, other, reference.label + "/", "per-job tuples",
                reference.signature, [&](const bench::CommonFlags &vopts) {
                    return runPolicy(app, vopts, shape,
                                     reference.label.c_str(), policy, false)
                        .signature;
                });
        };
        if (!crosscheck(*fifo, runtime::SchedulerPolicy::Fifo))
            ok = false;
        if (!crosscheck(*wfq, runtime::SchedulerPolicy::Wfq))
            ok = false;
    }

    std::string doc = resultsJson(app.name(), opts, shape, points);
    if (!opts.jsonPath.empty() && !bench::writeFile(opts.jsonPath, doc))
        ok = false;
    // Exact: the simulated schedule is deterministic.
    if (!opts.baselinePath.empty() &&
        !bench::checkBaseline(opts.baselinePath, doc,
                              {"points", "label", "victim_p99_cycles"}))
        ok = false;
    return ok ? 0 : 1;
}

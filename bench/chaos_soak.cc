/**
 * @file
 * Chaos soak for the self-healing serving layer (ISSUE 7). Open-loop
 * load (serve/load_gen.h) is driven through a paced FleetService while
 * a seeded FaultPlan storm (fault/fault.h: latency spikes, backpressure
 * windows, corrupted beats, truncated streams) batters the simulated
 * hardware, with the full recovery stack armed: deterministic retry,
 * per-job deadlines, slot quarantine, and halted-channel requeue.
 *
 * The soak is an *assertion harness*, not a measurement: it fails
 * (exit 1) unless, for every storm seed,
 *
 *  - every ticket reaches a terminal state (no hangs, no strands);
 *  - every Ok output is bit-identical to the fault-free functional
 *    golden for its stream — recovery never serves corrupted bytes;
 *  - the complete session history (attempts, requeues, timestamps,
 *    outputs) is bit-identical across PU backends and host thread
 *    counts — the recovery schedule is part of the determinism fence;
 *  - the storms actually exercised the retry path (total retries > 0
 *    summed over seeds — a soak that never retried proves nothing).
 *
 * A separate fault-free *halt drill* forces one channel into the
 * Halted state mid-soak (exactly a watchdog trip's landing) and
 * requires every in-flight job to be re-queued onto the surviving
 * channel and served Ok, with ServiceStats::liveSlots reflecting the
 * degraded capacity.
 *
 * Flags:
 *  --smoke       short CI configuration (fewer jobs, fewer variants).
 *  --json PATH   write per-seed results as JSON (BENCH_CHAOS.json).
 *  --seed S      add a storm seed (repeatable; default 2026 2027 2028).
 */

#include <string>
#include <vector>

#include "bench_common.h"
#include "harness.h"
#include "serve/load_gen.h"
#include "serve/service.h"
#include "sim/simulator.h"
#include "system/pu_backend.h"

using namespace fleet;

namespace {

struct SoakShape
{
    int slots = 8;
    int channels = 2;
    uint64_t regionBytes = 4096;
    uint64_t jobs = 120;
    uint64_t meanInterarrivalCycles = 600;
    /** Every deadlinedEvery-th job carries this deadline. */
    uint64_t deadlineEvery = 4;
    uint64_t deadlineCycles = 60000;
};

struct SoakResult
{
    uint64_t seed = 0;
    uint64_t jobs = 0;
    uint64_t okJobs = 0;
    uint64_t truncated = 0;      ///< Completed over injected short streams.
    uint64_t contained = 0;      ///< Parity/overflow containment.
    uint64_t deadlineKilled = 0;
    uint64_t retries = 0;
    uint64_t requeued = 0;
    int quarantinedSlots = 0;
    uint64_t nonTerminal = 0;    ///< Tickets never completed (gate: 0).
    uint64_t stranded = 0;       ///< InvalidState strands (gate: 0).
    uint64_t okMismatches = 0;   ///< Ok outputs != golden (gate: 0).
    uint64_t simCycles = 0;
    /** Full session history: the determinism signature (JobReport
     * operator== covers status, outputs, attempts, requeues, and every
     * simulated timestamp; host wall fields are excluded). */
    std::vector<runtime::JobReport> sessionReports;
};

serve::ServiceConfig
soakConfig(const SoakShape &shape, uint64_t storm_seed,
           system::PuBackend backend, int threads)
{
    serve::ServiceConfig config;
    config.session.system.numChannels = shape.channels;
    config.session.system.numThreads = threads;
    config.session.system.backend = backend;
    config.session.system.inputRegionBytes = shape.regionBytes;
    config.session.system.faults = fault::FaultPlan::fromSeed(storm_seed);
    config.session.numSlots = shape.slots;
    config.session.epochCycles = 512;
    config.session.quarantineAfterFaults = 3;
    config.session.requeueStranded = true;
    config.maxQueueDepth = 64;
    config.policy = serve::AdmissionPolicy::Block;
    config.backgroundThread = false; // paced: deterministic soak
    config.retry.maxAttempts = 3;
    config.retry.backoffCycles = 64;
    return config;
}

/** One storm: open-loop arrivals against the fault plan from `seed`. */
SoakResult
runSoak(const apps::Application &app, const SoakShape &shape,
        uint64_t seed, system::PuBackend backend, int threads)
{
    serve::LoadSpec spec;
    spec.jobs = shape.jobs;
    spec.meanInterarrivalCycles = double(shape.meanInterarrivalCycles);
    spec.minJobBytes = shape.regionBytes / 8;
    spec.maxJobBytes = shape.regionBytes / 2;
    spec.seed = seed ^ 0x50a4;
    auto arrivals = serve::makeArrivals(spec);

    Rng stream_rng(seed ^ 0x5eed);
    std::vector<BitBuffer> streams;
    streams.reserve(arrivals.size());
    for (const auto &arrival : arrivals)
        streams.push_back(
            app.generateStream(stream_rng, arrival.streamBytes));

    serve::FleetService service(
        app.program(), soakConfig(shape, seed, backend, threads));
    // Open-loop release starting at the first arrival; every
    // deadlineEvery-th job carries a deadline. The streams are copied:
    // the golden check below reads them again.
    std::vector<serve::JobTicket> tickets = bench::releaseOpenLoop(
        service, arrivals, streams,
        arrivals.empty() ? 0 : arrivals.front().cycle, [&](size_t j) {
            serve::SubmitOptions options;
            if (shape.deadlineEvery > 0 &&
                j % shape.deadlineEvery == shape.deadlineEvery - 1)
                options.deadlineCycles = shape.deadlineCycles;
            return options;
        });
    service.shutdown();

    SoakResult result;
    result.seed = seed;
    result.jobs = tickets.size();
    for (size_t j = 0; j < tickets.size(); ++j) {
        if (!tickets[j].ready()) {
            ++result.nonTerminal;
            continue;
        }
        const runtime::JobReport &report = tickets[j].report();
        switch (report.status.code) {
        case StatusCode::Ok: {
            ++result.okJobs;
            sim::FunctionalSimulator golden(app.program());
            if (!(report.output == golden.run(streams[j]).output))
                ++result.okMismatches;
            break;
        }
        case StatusCode::StreamTruncated:
            ++result.truncated;
            break;
        case StatusCode::ParityError:
        case StatusCode::OutputOverflow:
            ++result.contained;
            break;
        case StatusCode::DeadlineExceeded:
            ++result.deadlineKilled;
            break;
        case StatusCode::InvalidState:
            ++result.stranded;
            break;
        default:
            break; // watchdog/backpressure containment: terminal, fine
        }
    }
    serve::ServiceStats stats = service.stats();
    result.retries = stats.retries;
    result.requeued = stats.requeued;
    result.quarantinedSlots = stats.quarantinedSlots;
    result.simCycles = stats.simCycles;
    result.sessionReports = service.session().reports();
    return result;
}

/**
 * Fault-free halt drill: arm jobs on both channels, force channel 0
 * into the Halted state mid-flight, and require the survivors to serve
 * everything Ok (requeue, not strand) at degraded capacity.
 */
bool
runHaltDrill(const apps::Application &app)
{
    serve::ServiceConfig config;
    config.session.system.numChannels = 2;
    config.session.system.numThreads = 1;
    config.session.system.inputRegionBytes = 4096;
    config.session.numSlots = 2; // one per channel
    config.session.epochCycles = 256;
    config.session.requeueStranded = true;
    config.maxQueueDepth = 64;
    config.backgroundThread = false;
    serve::FleetService service(app.program(), config);

    Rng rng(0xd411);
    std::vector<BitBuffer> streams;
    std::vector<serve::JobTicket> tickets;
    for (int j = 0; j < 8; ++j)
        streams.push_back(app.generateStream(rng, 1024));
    for (const auto &stream : streams)
        tickets.push_back(service.submit(BitBuffer(stream)));

    service.pump(); // arms one job on each channel, both still running
    service.injectChannelHalt(0);
    while (service.pump()) {
    }
    service.shutdown();

    bool ok = true;
    for (size_t j = 0; j < tickets.size(); ++j) {
        const runtime::JobReport &report = tickets[j].report();
        if (!report.ok() || report.channel != 1) {
            std::fprintf(stderr,
                         "HALT DRILL: job %zu not served by the "
                         "survivor: channel=%d status=%s\n",
                         j, report.channel,
                         report.status.toString().c_str());
            ok = false;
            continue;
        }
        sim::FunctionalSimulator golden(app.program());
        if (!(report.output == golden.run(streams[j]).output)) {
            std::fprintf(stderr,
                         "HALT DRILL: job %zu output != golden after "
                         "requeue\n",
                         j);
            ok = false;
        }
    }
    serve::ServiceStats stats = service.stats();
    if (stats.requeued < 1) {
        std::fprintf(stderr,
                     "HALT DRILL: no job was requeued off the halted "
                     "channel\n");
        ok = false;
    }
    if (stats.liveSlots != 1) {
        std::fprintf(stderr,
                     "HALT DRILL: liveSlots=%d after losing one of two "
                     "channels (want 1)\n",
                     stats.liveSlots);
        ok = false;
    }
    if (ok)
        std::printf("halt drill: %zu jobs served Ok on the survivor "
                    "(requeued=%llu, liveSlots=%d)\n",
                    tickets.size(),
                    static_cast<unsigned long long>(stats.requeued),
                    stats.liveSlots);
    return ok;
}

std::string
resultsJson(const std::string &app, bool smoke, const SoakShape &shape,
            const std::vector<SoakResult> &results)
{
    json::Writer w;
    w.object();
    bench::runMetadata(w, "chaos_soak", "fast", 1);
    w.field("smoke", smoke);
    w.field("app", app);
    w.field("slots", shape.slots);
    w.field("channels", shape.channels);
    w.field("retry_max_attempts", 3);
    w.array("seeds");
    for (const SoakResult &r : results)
        w.object()
            .field("seed", r.seed)
            .field("jobs", r.jobs)
            .field("ok", r.okJobs)
            .field("truncated", r.truncated)
            .field("contained", r.contained)
            .field("deadline_killed", r.deadlineKilled)
            .field("retries", r.retries)
            .field("requeued", r.requeued)
            .field("quarantined_slots", r.quarantinedSlots)
            .field("stranded", r.stranded)
            .field("ok_mismatches", r.okMismatches)
            .field("sim_cycles", r.simCycles)
            .end();
    w.end().end();
    return w.str();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::CommonFlags opts;
    std::vector<uint64_t> seeds;
    if (!bench::parseFlags(argc, argv,
                           {bench::smokeFlag(opts), bench::jsonFlag(opts),
                            bench::flag("--seed", "S", &seeds)}))
        return 2;
    if (seeds.empty())
        seeds = {2026, 2027, 2028};

    SoakShape shape;
    if (opts.smoke)
        shape.jobs = 48;

    auto apps = apps::allApplications();
    const apps::Application &app = *apps.front();

    bench::printHeader(
        "Chaos soak: recovery under seeded fault storms",
        "Open-loop load + FaultPlan storms with retry, deadlines, "
        "quarantine, and requeue armed; every gate is an assertion.");
    std::printf("app=%s slots=%d channels=%d jobs/seed=%llu seeds=%zu "
                "%s\n\n",
                app.name().c_str(), shape.slots, shape.channels,
                static_cast<unsigned long long>(shape.jobs),
                seeds.size(), opts.smoke ? "(smoke)" : "");

    // Determinism variants replayed against the Fast/1 reference for
    // every seed. RtlInterp is the slow reference engine; the full run
    // covers it, smoke keeps CI latency down with the other four
    // (rtljit silently demotes to the interpreted batch when no host
    // compiler is available — the determinism fence holds either way).
    struct Variant
    {
        system::PuBackend backend;
        int threads;
        std::string label;
    };
    auto makeVariant = [](system::PuBackend backend, int threads) {
        return Variant{backend, threads,
                       std::string(system::puBackendName(backend)) +
                           "/" + std::to_string(threads)};
    };
    std::vector<Variant> variants = {
        makeVariant(system::PuBackend::Fast, 4),
        makeVariant(system::PuBackend::Rtl, 4),
        makeVariant(system::PuBackend::Rtl, 1),
        makeVariant(system::PuBackend::RtlJit, 2),
    };
    if (!opts.smoke)
        variants.push_back(makeVariant(system::PuBackend::RtlInterp, 2));

    bool ok = true;
    std::vector<SoakResult> results;
    uint64_t total_retries = 0;
    for (uint64_t seed : seeds) {
        SoakResult reference =
            runSoak(app, shape, seed, system::PuBackend::Fast, 1);
        total_retries += reference.retries;

        if (reference.nonTerminal != 0) {
            std::fprintf(stderr,
                         "GATE: seed %llu: %llu tickets never reached "
                         "a terminal state\n",
                         static_cast<unsigned long long>(seed),
                         static_cast<unsigned long long>(
                             reference.nonTerminal));
            ok = false;
        }
        if (reference.stranded != 0) {
            std::fprintf(stderr,
                         "GATE: seed %llu: %llu jobs stranded (zero-"
                         "strand gate)\n",
                         static_cast<unsigned long long>(seed),
                         static_cast<unsigned long long>(
                             reference.stranded));
            ok = false;
        }
        if (reference.okMismatches != 0) {
            std::fprintf(stderr,
                         "GATE: seed %llu: %llu Ok outputs differ from "
                         "the fault-free golden\n",
                         static_cast<unsigned long long>(seed),
                         static_cast<unsigned long long>(
                             reference.okMismatches));
            ok = false;
        }

        for (const Variant &variant : variants) {
            SoakResult replay = runSoak(app, shape, seed,
                                        variant.backend,
                                        variant.threads);
            bool same = replay.sessionReports.size() ==
                        reference.sessionReports.size();
            for (size_t j = 0; same && j < replay.sessionReports.size();
                 ++j)
                same = replay.sessionReports[j] ==
                       reference.sessionReports[j];
            if (!same) {
                std::fprintf(stderr,
                             "DETERMINISM VIOLATION: seed %llu: %s "
                             "diverged from the Fast/1 reference\n",
                             static_cast<unsigned long long>(seed),
                             variant.label.c_str());
                ok = false;
            }
        }
        std::printf("seed %llu: ok=%llu truncated=%llu contained=%llu "
                    "deadline=%llu retries=%llu requeued=%llu "
                    "quarantined=%d (%zu variants bit-identical)\n",
                    static_cast<unsigned long long>(seed),
                    static_cast<unsigned long long>(reference.okJobs),
                    static_cast<unsigned long long>(reference.truncated),
                    static_cast<unsigned long long>(reference.contained),
                    static_cast<unsigned long long>(
                        reference.deadlineKilled),
                    static_cast<unsigned long long>(reference.retries),
                    static_cast<unsigned long long>(reference.requeued),
                    reference.quarantinedSlots, variants.size());
        results.push_back(std::move(reference));
    }

    if (total_retries == 0) {
        std::fprintf(stderr,
                     "GATE: no storm triggered a retry — the soak never "
                     "exercised the recovery path\n");
        ok = false;
    }

    std::printf("\n");
    if (!runHaltDrill(app))
        ok = false;

    Table table({"Seed", "Jobs", "Ok", "Trunc", "Contain", "Deadline",
                 "Retries", "Requeue", "Quar", "Sim cycles"});
    for (const auto &r : results)
        table.row()
            .cell(r.seed)
            .cell(r.jobs)
            .cell(r.okJobs)
            .cell(r.truncated)
            .cell(r.contained)
            .cell(r.deadlineKilled)
            .cell(r.retries)
            .cell(r.requeued)
            .cell(r.quarantinedSlots)
            .cell(r.simCycles);
    std::printf("\n%s\n", table.str().c_str());

    if (!opts.jsonPath.empty() &&
        !bench::writeFile(opts.jsonPath, resultsJson(app.name(), opts.smoke,
                                                      shape, results)))
        ok = false;
    std::printf("%s\n", ok ? "CHAOS SOAK PASS" : "CHAOS SOAK FAIL");
    return ok ? 0 : 1;
}

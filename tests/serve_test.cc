/**
 * @file
 * Fleet-as-a-service admission and liveness (ISSUE 6). The serving
 * layer's promises are behavioural, not throughput numbers: every
 * ticket completes exactly once (reject, shed, strand, or serve — never
 * a hang), admission policies fire deterministically at the configured
 * depth, blocked submitters wake in FIFO order, and the simulated
 * latency decomposition is bit-identical across PU backends and host
 * thread counts (host wall-time fields excluded — they are observational).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "serve/load_gen.h"
#include "serve/service.h"
#include "sim/simulator.h"
#include "test_programs.h"
#include "util/rng.h"

namespace fleet {
namespace serve {
namespace {

BitBuffer
randomStream(Rng &rng, uint64_t bytes)
{
    BitBuffer stream;
    for (uint64_t i = 0; i < bytes; ++i)
        stream.appendBits(rng.next(), 8);
    return stream;
}

BitBuffer
goldenOutput(const lang::Program &program, const BitBuffer &stream)
{
    sim::FunctionalSimulator simulator(program);
    return simulator.run(stream).output;
}

ServiceConfig
smallConfig(system::PuBackend backend = system::PuBackend::Fast,
            int threads = 1)
{
    ServiceConfig config;
    config.session.system.numChannels = 2;
    config.session.system.numThreads = threads;
    config.session.system.backend = backend;
    config.session.system.inputRegionBytes = 4096;
    config.session.numSlots = 4;
    config.session.epochCycles = 512;
    return config;
}

/** Spin until the service's stats satisfy `done` (background mode). */
template <typename Pred>
void
awaitStats(FleetService &service, Pred done)
{
    for (int spin = 0; spin < 100000; ++spin) {
        if (done(service.stats()))
            return;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    FAIL() << "stats predicate never satisfied";
}

// ---------------------------------------------------------------------------
// Tickets and end-to-end serving
// ---------------------------------------------------------------------------

TEST(ServeTicket, InvalidAndUnreadyTicketsThrow)
{
    JobTicket invalid;
    EXPECT_FALSE(invalid.valid());
    EXPECT_FALSE(invalid.ready());
    EXPECT_THROW(invalid.report(), StatusError);
    EXPECT_THROW(invalid.wait(), StatusError);

    auto program = testprogs::blockFrequencies(32);
    ServiceConfig config = smallConfig();
    config.backgroundThread = false;
    FleetService service(program, config);
    Rng rng(7);
    JobTicket ticket = service.submit(randomStream(rng, 64));
    EXPECT_TRUE(ticket.valid());
    EXPECT_FALSE(ticket.ready());
    EXPECT_THROW(ticket.report(), StatusError); // not served yet
    while (service.pump()) {
    }
    EXPECT_TRUE(ticket.ready());
    EXPECT_TRUE(ticket.report().ok()) << ticket.report().status.toString();
    service.shutdown();
}

TEST(ServeService, BackgroundThreadServesConcurrentClients)
{
    // Four client threads, 10 jobs each, against the background service
    // thread — every ticket must complete with the functional
    // simulator's output for exactly its own stream.
    auto program = testprogs::blockFrequencies(32);
    FleetService service(program, smallConfig());

    constexpr int kClients = 4, kJobsPerClient = 10;
    std::vector<std::vector<BitBuffer>> streams(kClients);
    std::vector<std::vector<JobTicket>> tickets(kClients);
    for (int c = 0; c < kClients; ++c) {
        Rng rng(100 + c);
        for (int j = 0; j < kJobsPerClient; ++j)
            streams[c].push_back(randomStream(rng, 40 + rng.nextBelow(200)));
    }
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
        clients.emplace_back([&, c] {
            for (const auto &stream : streams[c])
                tickets[c].push_back(service.submit(stream));
        });
    for (auto &client : clients)
        client.join();

    for (int c = 0; c < kClients; ++c)
        for (int j = 0; j < kJobsPerClient; ++j) {
            const runtime::JobReport &report = tickets[c][j].wait();
            ASSERT_TRUE(report.ok())
                << "client " << c << " job " << j << ": "
                << report.status.toString();
            EXPECT_TRUE(report.output ==
                        goldenOutput(program, streams[c][j]))
                << "client " << c << " job " << j;
        }
    service.shutdown();
    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, uint64_t(kClients * kJobsPerClient));
    EXPECT_EQ(stats.completed, uint64_t(kClients * kJobsPerClient));
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_EQ(stats.queueDepth, 0u);
    EXPECT_TRUE(service.runReport().allOk())
        << service.runReport().summary();
}

// ---------------------------------------------------------------------------
// Admission edge cases
// ---------------------------------------------------------------------------

TEST(ServeAdmission, SubmitAfterShutdownReturnsCancelled)
{
    auto program = testprogs::blockFrequencies(32);
    FleetService service(program, smallConfig());
    Rng rng(3);
    JobTicket before = service.submit(randomStream(rng, 64));
    service.shutdown();
    EXPECT_TRUE(before.ready());
    EXPECT_TRUE(before.report().ok());

    JobTicket after = service.submit(randomStream(rng, 64));
    ASSERT_TRUE(after.valid());
    ASSERT_TRUE(after.ready()); // refused synchronously
    EXPECT_EQ(after.report().status.code, StatusCode::Cancelled);
    EXPECT_FALSE(statusCodeTransient(after.report().status.code));
    EXPECT_EQ(service.stats().submitted, 2u);
    EXPECT_EQ(service.stats().admitted, 1u);

    // shutdown is idempotent.
    service.shutdown();
}

TEST(ServeAdmission, RejectFiresDeterministicallyAtConfiguredDepth)
{
    // Paced mode, never pumped: the wait queue fills to exactly
    // maxQueueDepth and every further submit is refused with
    // ResourceExhausted — deterministically, no timing involved.
    auto program = testprogs::blockFrequencies(32);
    ServiceConfig config = smallConfig();
    config.backgroundThread = false;
    config.maxQueueDepth = 5;
    config.policy = AdmissionPolicy::Reject;
    FleetService service(program, config);

    Rng rng(9);
    std::vector<JobTicket> tickets;
    for (int j = 0; j < 9; ++j)
        tickets.push_back(service.submit(randomStream(rng, 64)));

    for (int j = 0; j < 9; ++j) {
        if (j < 5) {
            EXPECT_FALSE(tickets[j].ready()) << "job " << j;
        } else {
            ASSERT_TRUE(tickets[j].ready()) << "job " << j;
            EXPECT_EQ(tickets[j].report().status.code,
                      StatusCode::ResourceExhausted)
                << "job " << j;
        }
    }
    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, 9u);
    EXPECT_EQ(stats.admitted, 5u);
    EXPECT_EQ(stats.rejected, 4u);
    EXPECT_EQ(stats.queueDepth, 5u);
    EXPECT_TRUE(stats.saturated);

    // The admitted five still serve to completion.
    service.shutdown();
    for (int j = 0; j < 5; ++j)
        EXPECT_TRUE(tickets[j].report().ok()) << "job " << j;
    EXPECT_EQ(service.stats().completed, 5u);
}

TEST(ServeAdmission, ShedOldestDropsTheOldestWaitingJob)
{
    auto program = testprogs::blockFrequencies(32);
    ServiceConfig config = smallConfig();
    config.backgroundThread = false;
    config.maxQueueDepth = 2;
    config.policy = AdmissionPolicy::ShedOldest;
    FleetService service(program, config);

    Rng rng(21);
    JobTicket a = service.submit(randomStream(rng, 64));
    JobTicket b = service.submit(randomStream(rng, 64));
    JobTicket c = service.submit(randomStream(rng, 64)); // sheds a

    ASSERT_TRUE(a.ready());
    EXPECT_EQ(a.report().status.code, StatusCode::Shed);
    EXPECT_FALSE(statusCodeTransient(a.report().status.code));
    EXPECT_FALSE(b.ready());
    EXPECT_FALSE(c.ready());
    EXPECT_EQ(service.stats().shed, 1u);
    EXPECT_EQ(service.stats().queueDepth, 2u);

    service.shutdown();
    EXPECT_TRUE(b.report().ok());
    EXPECT_TRUE(c.report().ok());
}

TEST(ServeAdmission, BlockedSubmittersWakeInFifoOrder)
{
    // Paced mode with a depth-1 queue: stage three submitter threads
    // one at a time (waiting for blockedSubmitters to tick up), so the
    // park order is known exactly; FIFO wake then requires their jobs
    // to take strictly increasing session job ids.
    auto program = testprogs::blockFrequencies(32);
    ServiceConfig config = smallConfig();
    config.backgroundThread = false;
    config.maxQueueDepth = 1;
    config.policy = AdmissionPolicy::Block;
    FleetService service(program, config);

    Rng rng(31);
    JobTicket filler = service.submit(randomStream(rng, 64));
    EXPECT_EQ(service.stats().queueDepth, 1u);

    constexpr int kBlocked = 3;
    std::vector<JobTicket> tickets(kBlocked);
    std::vector<std::thread> submitters;
    std::vector<BitBuffer> streams;
    for (int t = 0; t < kBlocked; ++t)
        streams.push_back(randomStream(rng, 64 + 16 * t));
    for (int t = 0; t < kBlocked; ++t) {
        submitters.emplace_back(
            [&, t] { tickets[t] = service.submit(streams[t]); });
        awaitStats(service, [&](const ServiceStats &s) {
            return s.blockedSubmitters == uint64_t(t + 1);
        });
    }

    // Pump on this thread until everything drains; each round frees
    // queue space and must wake exactly the head-of-line submitter.
    while (service.pump() || service.stats().blockedSubmitters > 0) {
    }
    for (auto &submitter : submitters)
        submitter.join();
    service.shutdown();

    ASSERT_TRUE(filler.report().ok());
    std::vector<uint64_t> ids;
    for (int t = 0; t < kBlocked; ++t) {
        ASSERT_TRUE(tickets[t].valid());
        ASSERT_TRUE(tickets[t].ready());
        ASSERT_TRUE(tickets[t].report().ok())
            << tickets[t].report().status.toString();
        ids.push_back(tickets[t].report().jobId);
    }
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()))
        << "blocked submitters admitted out of FIFO order: " << ids[0]
        << ", " << ids[1] << ", " << ids[2];
    EXPECT_EQ(service.stats().blockedSubmitters, 0u);
}

TEST(ServeAdmission, ShutdownReleasesBlockedSubmitters)
{
    // A submitter parked on a full queue must not hang shutdown: it is
    // released with Cancelled and the queue drains normally.
    auto program = testprogs::blockFrequencies(32);
    ServiceConfig config = smallConfig();
    config.maxQueueDepth = 1;
    config.policy = AdmissionPolicy::Block;
    config.backgroundThread = false;
    FleetService service(program, config);

    Rng rng(41);
    JobTicket filler = service.submit(randomStream(rng, 64));
    JobTicket blocked;
    std::thread submitter(
        [&] { blocked = service.submit(randomStream(rng, 64)); });
    awaitStats(service, [](const ServiceStats &s) {
        return s.blockedSubmitters == 1;
    });

    service.shutdown();
    submitter.join();
    ASSERT_TRUE(blocked.valid());
    ASSERT_TRUE(blocked.ready());
    EXPECT_EQ(blocked.report().status.code, StatusCode::Cancelled);
    EXPECT_TRUE(filler.report().ok());
}

// ---------------------------------------------------------------------------
// Halted-channel liveness
// ---------------------------------------------------------------------------

namespace {

/** The deadlock recipe from the watchdog suite: a threshold filter
 * under blocking output addressing; divergent emit rates wedge the
 * channel. */
lang::Program
thresholdFilter()
{
    using lang::Value;
    lang::ProgramBuilder b("filter", 8, 8);
    Value threshold = b.reg("threshold", 8, 0);
    Value configured = b.reg("configured", 1, 0);
    b.if_(!b.streamFinished(), [&] {
        b.if_(configured == 0, [&] {
            b.assign(threshold, b.input());
            b.assign(configured, Value::lit(1, 1));
        }).elseIf(b.input() < threshold, [&] { b.emit(b.input()); });
    });
    return b.finish();
}

BitBuffer
filterStream(Rng &rng, uint8_t threshold, uint64_t tokens)
{
    BitBuffer stream;
    stream.appendBits(threshold, 8);
    for (uint64_t t = 0; t < tokens; ++t)
        stream.appendBits(rng.next(), 8);
    return stream;
}

} // namespace

TEST(ServeLiveness, HaltedChannelCompletesStrandedTicketsWithoutHang)
{
    // One channel, wedged by the watchdog recipe, with far more jobs
    // submitted than the service will ever feed the session: every
    // ticket — in flight, queued in the session, or still in the
    // service's wait queue — must complete with a containment status;
    // wait() must never hang. Background thread: this is the true
    // async-liveness test.
    ServiceConfig config;
    config.session.system.numChannels = 1;
    config.session.system.numThreads = 1;
    config.session.system.outputCtrl.blockingAddressing = true;
    config.session.system.watchdogCycles = 20000;
    config.session.system.inputRegionBytes = 64 * 1024;
    config.session.numSlots = 4;
    config.session.epochCycles = 2048;
    config.maxQueueDepth = 64;
    config.policy = AdmissionPolicy::Reject;
    FleetService service(thresholdFilter(), config);

    Rng rng(11);
    std::vector<JobTicket> tickets;
    // Divergent-rate mix wedges the channel under blocking addressing.
    for (int j = 0; j < 4; ++j)
        tickets.push_back(service.submit(
            filterStream(rng, j % 2 == 0 ? 2 : 250, 40000)));
    // Healthy work queued behind the wedge — it can never be served.
    for (int j = 0; j < 16; ++j)
        tickets.push_back(
            service.submit(filterStream(rng, 128, 1000)));

    int stranded = 0;
    for (size_t j = 0; j < tickets.size(); ++j) {
        const runtime::JobReport &report = tickets[j].wait(); // no hang
        EXPECT_FALSE(report.ok()) << "job " << j
                                  << " served on a wedged channel?";
        if (report.status.code == StatusCode::WatchdogStall ||
            report.status.code == StatusCode::InvalidState)
            ++stranded;
    }
    EXPECT_EQ(stranded, int(tickets.size()));
    service.shutdown();
    EXPECT_EQ(service.stats().completed + service.stats().rejected +
                  service.stats().shed,
              uint64_t(tickets.size()));
    EXPECT_EQ(service.stats().liveSlots, 0);
}

// ---------------------------------------------------------------------------
// Latency decomposition and its determinism fence
// ---------------------------------------------------------------------------

TEST(ServeLatency, DecompositionIsOrderedAndQueueWaitShowsUnderLoad)
{
    auto program = testprogs::blockFrequencies(32);
    ServiceConfig config = smallConfig();
    config.backgroundThread = false;
    config.maxQueueDepth = 64;
    FleetService service(program, config);

    Rng rng(55);
    std::vector<JobTicket> tickets;
    for (int j = 0; j < 24; ++j) // deep queue over 4 slots
        tickets.push_back(
            service.submit(randomStream(rng, 60 + rng.nextBelow(120))));
    while (service.pump()) {
    }
    service.shutdown();

    uint64_t total_wait = 0;
    for (size_t j = 0; j < tickets.size(); ++j) {
        const runtime::JobReport &report = tickets[j].report();
        ASSERT_TRUE(report.ok()) << "job " << j;
        EXPECT_LE(report.enqueueCycle, report.admittedCycle)
            << "job " << j;
        EXPECT_LE(report.admittedCycle, report.completedCycle)
            << "job " << j;
        EXPECT_GE(report.totalCycles(), report.queueWaitCycles())
            << "job " << j;
        EXPECT_GT(report.serviceCycles(), 0u) << "job " << j;
        EXPECT_GT(report.hostDoneNs, 0u) << "job " << j;
        EXPECT_GE(report.hostDoneNs, report.hostSubmitNs)
            << "job " << j;
        total_wait += report.queueWaitCycles();
    }
    // 24 jobs over 4 slots: the tail of the queue must actually wait.
    EXPECT_GT(total_wait, 0u);
}

TEST(ServeLatency, SimulatedLatenciesBitIdenticalAcrossBackendsAndThreads)
{
    // The serving-layer extension of the runtime determinism fence:
    // identical open-loop schedules must produce identical simulated
    // latency tuples on every backend and host thread count. Host
    // wall-time fields are excluded (JobReport::operator== omits them).
    auto program = testprogs::blockFrequencies(32);
    LoadSpec spec;
    spec.jobs = 20;
    spec.meanInterarrivalCycles = 400;
    spec.minJobBytes = 48;
    spec.maxJobBytes = 256;
    auto arrivals = makeArrivals(spec);

    auto runSchedule = [&](system::PuBackend backend, int threads) {
        ServiceConfig config = smallConfig(backend, threads);
        config.backgroundThread = false;
        config.maxQueueDepth = 64;
        FleetService service(program, config);
        Rng rng(77); // same streams every variant
        size_t next = 0;
        for (;;) {
            uint64_t now = service.stats().simCycles;
            while (next < arrivals.size() &&
                   arrivals[next].cycle <= now) {
                service.submitAt(
                    randomStream(rng, arrivals[next].streamBytes),
                    arrivals[next].cycle);
                ++next;
            }
            bool work = service.pump();
            if (!work) {
                if (next >= arrivals.size())
                    break;
                // Idle gap: release the next arrival when simulated
                // time cannot reach it (single deterministic warp).
                service.submitAt(
                    randomStream(rng, arrivals[next].streamBytes),
                    now);
                ++next;
            }
        }
        service.shutdown();
        return service.session().reports();
    };

    auto reference = runSchedule(system::PuBackend::Fast, 1);
    ASSERT_EQ(reference.size(), spec.jobs);
    for (const auto &report : reference)
        ASSERT_TRUE(report.ok()) << report.status.toString();

    struct Variant
    {
        system::PuBackend backend;
        int threads;
        const char *label;
    };
    const Variant variants[] = {
        {system::PuBackend::Fast, 4, "Fast/4"},
        {system::PuBackend::Rtl, 1, "RtlBatch/1"},
        {system::PuBackend::Rtl, 4, "RtlBatch/4"},
    };
    for (const Variant &variant : variants) {
        auto reports = runSchedule(variant.backend, variant.threads);
        ASSERT_EQ(reports.size(), reference.size()) << variant.label;
        for (size_t j = 0; j < reports.size(); ++j)
            ASSERT_TRUE(reports[j] == reference[j])
                << variant.label << ": job " << j
                << " diverges (simulated latency fence)";
    }
}

// ---------------------------------------------------------------------------
// Load generator
// ---------------------------------------------------------------------------

TEST(ServeLoadGen, SchedulesAreDeterministicSortedAndShaped)
{
    LoadSpec spec;
    spec.jobs = 500;
    spec.meanInterarrivalCycles = 200;
    auto a = makeArrivals(spec);
    auto b = makeArrivals(spec);
    ASSERT_EQ(a.size(), 500u);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(),
                           [](const Arrival &x, const Arrival &y) {
                               return x.cycle == y.cycle &&
                                      x.streamBytes == y.streamBytes;
                           }));
    for (size_t i = 1; i < a.size(); ++i)
        EXPECT_GE(a[i].cycle, a[i - 1].cycle);
    for (const auto &arrival : a) {
        EXPECT_GE(arrival.streamBytes, spec.minJobBytes);
        EXPECT_LE(arrival.streamBytes, spec.maxJobBytes);
    }
    // Mean interarrival within 15% of the configured mean.
    double mean = double(a.back().cycle) / double(a.size());
    EXPECT_NEAR(mean, spec.meanInterarrivalCycles,
                0.15 * spec.meanInterarrivalCycles);

    spec.seed ^= 1;
    auto c = makeArrivals(spec);
    EXPECT_FALSE(std::equal(c.begin(), c.end(), a.begin(),
                            [](const Arrival &x, const Arrival &y) {
                                return x.cycle == y.cycle;
                            }))
        << "different seeds produced an identical schedule";

    // Bursty keeps the window mean but with far burstier gaps: its
    // maximum gap should dwarf Poisson's minimum gap regime.
    LoadSpec bursty = spec;
    bursty.process = ArrivalProcess::Bursty;
    auto d = makeArrivals(bursty);
    ASSERT_EQ(d.size(), 500u);
    double bursty_mean = double(d.back().cycle) / double(d.size());
    EXPECT_NEAR(bursty_mean, spec.meanInterarrivalCycles,
                0.35 * spec.meanInterarrivalCycles);

    LoadSpec bad = spec;
    bad.process = ArrivalProcess::Bursty;
    bad.burstBoost = 8.0;
    bad.burstDuty = 0.25; // duty*boost = 2: infeasible
    EXPECT_THROW(makeArrivals(bad), PanicError);
}

// ---------------------------------------------------------------------------
// Multi-tenant serving (ISSUE 8): per-tenant conservation and the
// scheduler-choice determinism fence.
// ---------------------------------------------------------------------------

/** The TenantStats conservation law: every submit() sits in exactly
 * one terminal or live bucket at any instant. */
void
expectTenantConservation(const ServiceStats &stats, const char *where)
{
    for (const auto &entry : stats.tenants) {
        const TenantStats &t = entry.second;
        EXPECT_EQ(t.submitted, t.rejected + t.cancelled + t.shed +
                                   t.completed + t.waiting +
                                   t.retryBacklog + t.inSession)
            << where << ": tenant " << entry.first
            << " leaks jobs (submitted=" << t.submitted
            << " rejected=" << t.rejected << " cancelled=" << t.cancelled
            << " shed=" << t.shed << " completed=" << t.completed
            << " waiting=" << t.waiting
            << " retryBacklog=" << t.retryBacklog
            << " inSession=" << t.inSession << ")";
        EXPECT_LE(t.admitted, t.submitted);
    }
}

TEST(ServeTenants, ConservationHoldsAtEveryPumpUnderFaultStorm)
{
    // Three tenants share a deliberately hostile service: a seeded
    // fault storm (stream truncation => transient retries), tight
    // deadlines on one tenant, a shallow ShedOldest admission queue,
    // and WFQ scheduling. The per-tenant conservation law must hold
    // after every single submit and pump step, and close exactly at
    // shutdown.
    auto program = testprogs::blockFrequencies(32);
    ServiceConfig config = smallConfig(system::PuBackend::Fast, 2);
    config.backgroundThread = false;
    config.maxQueueDepth = 6;
    config.policy = AdmissionPolicy::ShedOldest;
    config.retry.maxAttempts = 3;
    config.retry.backoffCycles = 256;
    config.session.scheduler.policy = runtime::SchedulerPolicy::Wfq;
    config.session.scheduler.weights = {{0, 1}, {1, 4}, {2, 2}};
    config.session.system.faults.seed = 5;
    config.session.system.faults.truncatePermille = 250;
    FleetService service(program, config);

    Rng rng(606);
    const int waves = 10, per_wave = 6;
    for (int wave = 0; wave < waves; ++wave) {
        for (int j = 0; j < per_wave; ++j) {
            SubmitOptions options;
            options.tag.tenant = static_cast<uint32_t>(rng.nextBelow(3));
            options.tag.priority =
                static_cast<uint32_t>(rng.nextBelow(2));
            if (options.tag.tenant == 2)
                options.deadlineCycles = 4000 + rng.nextBelow(4000);
            service.submit(randomStream(rng, 40 + rng.nextBelow(160)),
                           options);
            expectTenantConservation(service.stats(), "after submit");
        }
        for (int round = 0; round < 3; ++round) {
            service.pump();
            expectTenantConservation(service.stats(), "after pump");
        }
    }
    while (service.pump())
        expectTenantConservation(service.stats(), "during drain");
    service.shutdown();

    // One late submit lands in the cancelled bucket, and the law still
    // closes with every live bucket empty.
    SubmitOptions late;
    late.tag.tenant = 1;
    JobTicket refused =
        service.submit(randomStream(rng, 32), late);
    EXPECT_EQ(refused.report().status.code, StatusCode::Cancelled);
    ServiceStats final_stats = service.stats();
    expectTenantConservation(final_stats, "after shutdown");
    uint64_t total_submitted = 0, total_retries = 0;
    for (const auto &entry : final_stats.tenants) {
        const TenantStats &t = entry.second;
        EXPECT_EQ(t.waiting, 0u);
        EXPECT_EQ(t.retryBacklog, 0u);
        EXPECT_EQ(t.inSession, 0u);
        total_submitted += t.submitted;
        total_retries += t.retries;
    }
    EXPECT_EQ(total_submitted,
              static_cast<uint64_t>(waves * per_wave) + 1);
    EXPECT_GT(total_retries, 0u)
        << "the fault storm should have provoked at least one retry";
    // Completed tenants carry the cycle breakdown.
    for (const auto &entry : final_stats.tenants) {
        if (entry.second.completed > 0) {
            EXPECT_GT(entry.second.serviceCycles, 0u)
                << "tenant " << entry.first;
        }
    }
}

TEST(ServeTenants, SchedulerChoiceIsDeterministicAcrossHosts)
{
    // The serve-layer extension of the scheduler fence: one tagged
    // admitted sequence, replayed per policy across backends and
    // thread counts, must yield identical per-job reports — and
    // distinct policies genuinely reorder service (FIFO vs WFQ differ
    // under a flood).
    auto program = testprogs::blockFrequencies(32);
    Rng streams_rng(88);
    std::vector<BitBuffer> streams;
    std::vector<runtime::JobTag> tags;
    for (int j = 0; j < 24; ++j) {
        streams.push_back(
            randomStream(streams_rng, 60 + streams_rng.nextBelow(120)));
        runtime::JobTag tag;
        tag.tenant = static_cast<uint32_t>(j < 18 ? 0 : 1);
        tags.push_back(tag);
    }

    auto runPolicy = [&](runtime::SchedulerPolicy policy,
                         system::PuBackend backend, int threads) {
        ServiceConfig config = smallConfig(backend, threads);
        config.backgroundThread = false;
        config.maxQueueDepth = 64;
        config.session.scheduler.policy = policy;
        config.session.scheduler.weights = {{0, 1}, {1, 4}};
        FleetService service(program, config);
        for (size_t j = 0; j < streams.size(); ++j) {
            SubmitOptions options;
            options.tag = tags[j];
            service.submitAt(streams[j], 0, options);
        }
        service.shutdown();
        return service.session().reports();
    };

    const runtime::SchedulerPolicy policies[] = {
        runtime::SchedulerPolicy::Fifo, runtime::SchedulerPolicy::Wfq};
    std::vector<std::vector<runtime::JobReport>> per_policy;
    for (runtime::SchedulerPolicy policy : policies) {
        auto base = runPolicy(policy, system::PuBackend::Fast, 1);
        ASSERT_EQ(base.size(), streams.size());
        for (const auto &report : base)
            ASSERT_TRUE(report.ok()) << report.status.toString();
        auto fast4 = runPolicy(policy, system::PuBackend::Fast, 4);
        auto rtl1 = runPolicy(policy, system::PuBackend::Rtl, 1);
        for (size_t j = 0; j < base.size(); ++j) {
            ASSERT_TRUE(fast4[j] == base[j])
                << runtime::schedulerPolicyName(policy) << " Fast/4 job "
                << j;
            ASSERT_TRUE(rtl1[j] == base[j])
                << runtime::schedulerPolicyName(policy)
                << " RtlBatch/1 job " << j;
        }
        per_policy.push_back(std::move(base));
    }
    // The crosscheck: FIFO and WFQ must *disagree* somewhere on this
    // flood-plus-minority mix, or the policy plumbing is inert.
    bool any_difference = false;
    for (size_t j = 0; j < streams.size(); ++j)
        any_difference |= !(per_policy[0][j] == per_policy[1][j]);
    EXPECT_TRUE(any_difference)
        << "FIFO and WFQ produced identical schedules on a mix that "
           "should separate them";
}

} // namespace
} // namespace serve
} // namespace fleet

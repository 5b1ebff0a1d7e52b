/**
 * @file
 * Self-healing serving (ISSUE 7): deterministic retry of transient
 * failures, per-job deadlines in simulated cycles, slot quarantine,
 * and halted-channel requeue. The recovery machinery's promises are
 * the same shape as the serving layer's: every ticket completes
 * exactly once with an honest terminal status, a retried job's Ok
 * output is bit-identical to the fault-free golden, and the entire
 * recovery schedule — retry cycles, deadline kills, requeues — is a
 * pure function of simulated state, fenced across PU backends and
 * host thread counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "report_log.h"
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

/** Paced single-slot config: one channel, one PU, deterministic. */
ServiceConfig
pacedConfig(int num_channels = 1, int num_slots = 1,
            uint64_t epoch_cycles = 512)
{
    ServiceConfig config;
    config.backgroundThread = false;
    config.maxQueueDepth = 64;
    config.session.system.numChannels = num_channels;
    config.session.system.numThreads = 1;
    config.session.system.inputRegionBytes = 4096;
    config.session.numSlots = num_slots;
    config.session.epochCycles = epoch_cycles;
    return config;
}

void
drain(FleetService &service)
{
    while (service.pump()) {
    }
    service.shutdown();
}

/**
 * Find a truncation-only plan whose per-job hash truncates session
 * job 0 but leaves session job 1 whole — the retry-succeeds recipe:
 * attempt 1 (job id 0) comes back StreamTruncated, the retry runs
 * under fresh id 1 and streams in full. Pure function of the seed, so
 * the scan is deterministic and the chosen plan reproducible.
 */
fault::FaultPlan
truncateFirstAttemptPlan(uint64_t tokens)
{
    for (uint64_t seed = 1; seed < 100000; ++seed) {
        fault::FaultPlan plan;
        plan.seed = seed;
        plan.truncatePermille = 400;
        if (fault::truncatedJobTokens(plan, 0, tokens) < tokens &&
            fault::truncatedJobTokens(plan, 1, tokens) == tokens)
            return plan;
    }
    ADD_FAILURE() << "no seed truncates job 0 but not job 1";
    return {};
}

// ---------------------------------------------------------------------------
// Deterministic retry
// ---------------------------------------------------------------------------

TEST(ServeRetry, TransientFailureRetriesAndMatchesFaultFreeGolden)
{
    constexpr uint64_t kTokens = 96;
    auto program = testprogs::identity();
    ServiceConfig config = pacedConfig();
    config.session.system.faults = truncateFirstAttemptPlan(kTokens);
    config.retry.maxAttempts = 3;
    config.retry.backoffCycles = 32;
    FleetService service(program, config);

    Rng rng(17);
    BitBuffer stream = randomStream(rng, kTokens);
    JobTicket ticket = service.submit(stream);
    drain(service);

    // The first attempt was truncated (transient), the retry ran the
    // stream whole: the final report is Ok, its output bit-identical
    // to the fault-free golden, and the attempt count is visible.
    const runtime::JobReport &report = ticket.report();
    ASSERT_EQ(report.status.code, StatusCode::Ok)
        << report.status.toString();
    EXPECT_TRUE(report.output == goldenOutput(program, stream));
    EXPECT_EQ(report.attempts, 2u);
    EXPECT_EQ(service.stats().retries, 1u);
    EXPECT_EQ(service.stats().completed, 1u);

    // The session saw two jobs: the truncated attempt and the retry.
    const auto reports = bench::sessionReports({ticket});
    ASSERT_EQ(reports.size(), 2u);
    EXPECT_EQ(reports[0].status.code, StatusCode::StreamTruncated);
    EXPECT_EQ(reports[1].status.code, StatusCode::Ok);
    ASSERT_EQ(ticket.retried().size(), 1u);
    EXPECT_EQ(ticket.retried()[0].jobId, 0u);
}

TEST(ServeRetry, ExhaustedAttemptsReportTheLastFailure)
{
    // Truncate *every* job: each retry rolls fresh dice and loses.
    // With maxAttempts = 2 the ticket completes with the second
    // attempt's StreamTruncated report and attempts == 2.
    constexpr uint64_t kTokens = 96;
    auto program = testprogs::identity();
    ServiceConfig config = pacedConfig();
    config.session.system.faults.seed = 9;
    config.session.system.faults.truncatePermille = 1000;
    config.retry.maxAttempts = 2;
    FleetService service(program, config);

    Rng rng(19);
    JobTicket ticket = service.submit(randomStream(rng, kTokens));
    drain(service);

    const runtime::JobReport &report = ticket.report();
    EXPECT_EQ(report.status.code, StatusCode::StreamTruncated);
    EXPECT_EQ(report.attempts, 2u);
    EXPECT_EQ(service.stats().retries, 1u);
    EXPECT_EQ(bench::sessionReports({ticket}).size(), 2u);
}

TEST(ServeRetry, RecoveryScheduleBitIdenticalAcrossBackendsAndThreads)
{
    // The recovery extension of the determinism fence: under a fault
    // storm with retries enabled, the *entire* session history —
    // failed attempts, retry re-submissions, timestamps, outputs — is
    // bit-identical across PU backends and host thread counts.
    auto program = testprogs::identity();
    auto runStorm = [&](system::PuBackend backend, int threads) {
        ServiceConfig config = pacedConfig(2, 4, 256);
        config.session.system.backend = backend;
        config.session.system.numThreads = threads;
        config.session.system.faults = fault::FaultPlan::fromSeed(2026);
        config.retry.maxAttempts = 3;
        config.retry.backoffCycles = 64;
        FleetService service(program, config);
        std::vector<JobTicket> tickets;
        Rng rng(23); // same streams every variant
        for (int j = 0; j < 12; ++j)
            tickets.push_back(service.submitAt(
                randomStream(rng, 48 + rng.nextBelow(160)), 0));
        drain(service);
        std::vector<runtime::JobReport> reports =
            bench::sessionReports(tickets);
        // The tickets hold every session job, each once.
        EXPECT_EQ(reports.size(), service.session().jobsSubmitted());
        for (size_t j = 0; j < reports.size(); ++j)
            EXPECT_EQ(reports[j].jobId, j);
        return reports;
    };

    auto reference = runStorm(system::PuBackend::Fast, 1);
    ASSERT_GE(reference.size(), 12u);
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
        auto reports = runStorm(variant.backend, variant.threads);
        ASSERT_EQ(reports.size(), reference.size()) << variant.label;
        for (size_t j = 0; j < reports.size(); ++j)
            ASSERT_TRUE(reports[j] == reference[j])
                << variant.label << ": session job " << j
                << " diverges (recovery determinism fence)";
    }
}

// ---------------------------------------------------------------------------
// Per-job deadlines
// ---------------------------------------------------------------------------

TEST(ServeDeadline, ExpiresJobStillWaitingInQueue)
{
    // One slot: a long job holds it while a short job with a 1-cycle
    // deadline waits behind it — the waiter must be cancelled in-queue
    // (never armed) with DeadlineExceeded.
    auto program = testprogs::identity();
    FleetService service(program, pacedConfig());

    Rng rng(29);
    JobTicket longJob = service.submit(randomStream(rng, 2048));
    SubmitOptions options;
    options.deadlineCycles = 1;
    JobTicket expired = service.submit(randomStream(rng, 64), options);
    drain(service);

    EXPECT_TRUE(longJob.report().ok());
    const runtime::JobReport &report = expired.report();
    EXPECT_EQ(report.status.code, StatusCode::DeadlineExceeded);
    EXPECT_EQ(report.pu, -1) << "expired in-queue, never armed";
    EXPECT_FALSE(statusCodeTransient(report.status.code))
        << "a deadline kill must never be retried";
    EXPECT_EQ(service.stats().deadlineKilled, 1u);
    EXPECT_EQ(service.stats().completed, 2u);
}

TEST(ServeDeadline, ReclaimsSlotFromJobExpiredMidFlight)
{
    // A job whose service time exceeds its deadline is abandoned
    // mid-flight through the containment path: its ticket completes
    // DeadlineExceeded and the slot serves the next job normally.
    auto program = testprogs::identity();
    FleetService service(program, pacedConfig());

    Rng rng(31);
    SubmitOptions options;
    options.deadlineCycles = 600; // < the ~3000-cycle service time
    JobTicket doomed =
        service.submit(randomStream(rng, 3000), options);
    BitBuffer healthyStream = randomStream(rng, 64);
    JobTicket healthy = service.submit(healthyStream);
    drain(service);

    const runtime::JobReport &report = doomed.report();
    EXPECT_EQ(report.status.code, StatusCode::DeadlineExceeded);
    EXPECT_EQ(report.pu, 0) << "the job was armed before it expired";
    ASSERT_TRUE(healthy.report().ok())
        << healthy.report().status.toString();
    EXPECT_TRUE(healthy.report().output ==
                goldenOutput(program, healthyStream))
        << "slot not cleanly reclaimed after the mid-flight kill";
    EXPECT_EQ(service.stats().deadlineKilled, 1u);
}

// ---------------------------------------------------------------------------
// Slot quarantine
// ---------------------------------------------------------------------------

TEST(ServeQuarantine, RepeatedParityFaultsPullTheSlotFromThePool)
{
    // Every delivered beat carries a parity error: the single slot
    // fails job after job until the health registry quarantines it at
    // the configured threshold; later jobs strand (no live capacity)
    // instead of burning through the flaky slot forever.
    auto program = testprogs::identity();
    ServiceConfig config = pacedConfig();
    config.session.system.faults.seed = 7;
    config.session.system.faults.corruptBeatPerMillion = 1000000;
    config.session.quarantineAfterFaults = 2;
    FleetService service(program, config);

    Rng rng(37);
    std::vector<JobTicket> tickets;
    for (int j = 0; j < 4; ++j)
        tickets.push_back(service.submit(randomStream(rng, 64)));
    drain(service);

    int parity = 0, stranded = 0;
    for (auto &ticket : tickets) {
        ASSERT_TRUE(ticket.ready());
        StatusCode code = ticket.report().status.code;
        if (code == StatusCode::ParityError)
            ++parity;
        else if (code == StatusCode::InvalidState)
            ++stranded;
    }
    EXPECT_EQ(parity, 2) << "exactly quarantineAfterFaults jobs fail "
                            "on the slot before it is pulled";
    EXPECT_EQ(stranded, 2);
    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.quarantinedSlots, 1);
    EXPECT_EQ(stats.liveSlots, 0)
        << "a quarantined slot is not live capacity";
    EXPECT_EQ(stats.completed, 4u);
}

// ---------------------------------------------------------------------------
// Halted-channel requeue
// ---------------------------------------------------------------------------

TEST(ServeRequeue, InjectedChannelHaltRequeuesInFlightJobsOntoSurvivors)
{
    // Two channels, one slot each, requeue enabled. Arm jobs on both,
    // then force channel 0 into the Halted state mid-flight (exactly a
    // watchdog trip's landing): its in-flight job must be re-queued at
    // the front of the FIFO and re-run on the surviving channel — every
    // ticket completes Ok with the golden output, none strand — and the
    // stats reflect the degraded capacity.
    auto program = testprogs::identity();
    ServiceConfig config = pacedConfig(2, 2, 256);
    config.session.requeueStranded = true;
    FleetService service(program, config);

    Rng rng(41);
    std::vector<BitBuffer> streams;
    std::vector<JobTicket> tickets;
    for (int j = 0; j < 6; ++j)
        streams.push_back(randomStream(rng, 700));
    for (const auto &stream : streams)
        tickets.push_back(service.submit(stream));

    // One round arms a job on each channel; 700 tokens over a
    // 256-cycle epoch leaves both still streaming.
    ASSERT_TRUE(service.pump());
    service.injectChannelHalt(0);
    drain(service);

    for (size_t j = 0; j < tickets.size(); ++j) {
        const runtime::JobReport &report = tickets[j].report();
        ASSERT_TRUE(report.ok())
            << "job " << j << " stranded by the halt: "
            << report.status.toString();
        EXPECT_TRUE(report.output == goldenOutput(program, streams[j]))
            << "job " << j;
        EXPECT_EQ(report.channel, 1)
            << "job " << j << " served on the dead channel?";
    }
    ServiceStats stats = service.stats();
    EXPECT_GE(stats.requeued, 1u);
    EXPECT_EQ(stats.liveSlots, 1)
        << "live capacity must reflect the lost channel";
    EXPECT_EQ(stats.completed, 6u);
    // The requeue is visible in the survivor's report.
    uint32_t max_requeues = 0;
    for (const auto &report : bench::sessionReports(tickets))
        max_requeues = std::max(max_requeues, report.requeues);
    EXPECT_GE(max_requeues, 1u);
}

// ---------------------------------------------------------------------------
// JobTicket edges
// ---------------------------------------------------------------------------

TEST(ServeTicketEdge, WaitForTimesOutThenCompletes)
{
    // Paced mode with nobody pumping: waitFor must time out (false)
    // without touching the simulated schedule, then succeed once the
    // caller pumps the job through.
    auto program = testprogs::identity();
    FleetService service(program, pacedConfig());
    Rng rng(43);
    JobTicket ticket = service.submit(randomStream(rng, 64));

    EXPECT_FALSE(ticket.waitFor(std::chrono::milliseconds(1)));
    EXPECT_FALSE(ticket.ready());
    while (service.pump()) {
    }
    EXPECT_TRUE(ticket.waitFor(std::chrono::milliseconds(1)));
    EXPECT_TRUE(ticket.report().ok());
    service.shutdown();

    JobTicket invalid;
    EXPECT_THROW(invalid.waitFor(std::chrono::milliseconds(1)),
                 StatusError);
}

TEST(ServeTicketEdge, ReportOutlivesShutdownAndDoubleWaitAgrees)
{
    // Two threads wait on the same ticket; both must see the same
    // final report, and the report stays readable after shutdown —
    // including a second wait(), which returns immediately.
    auto program = testprogs::identity();
    FleetService service(program, pacedConfig());
    Rng rng(47);
    BitBuffer stream = randomStream(rng, 128);
    JobTicket ticket = service.submit(stream);

    uint64_t seenA = 0, seenB = 0;
    std::thread waiterA([&] { seenA = ticket.wait().jobId; });
    std::thread waiterB([&] { seenB = ticket.wait().jobId; });
    drain(service); // paced: this thread serves the waiters
    waiterA.join();
    waiterB.join();
    EXPECT_EQ(seenA, seenB);

    // After shutdown the ticket's shared state is still alive.
    EXPECT_TRUE(ticket.ready());
    EXPECT_EQ(ticket.wait().jobId, seenA); // immediate
    EXPECT_TRUE(ticket.report().output ==
                goldenOutput(program, stream));
}

} // namespace
} // namespace serve
} // namespace fleet

/**
 * @file
 * The multi-stream job runtime (ISSUE 5): a Session must serve queues
 * far deeper than the PU pool, re-arming slots as jobs drain, with
 * per-job reports that are bit-identical across PU backends and host
 * thread counts — the same fences the one-shot path lives under, now
 * over an arbitrary job mix. Golden outputs come from the functional
 * simulator, so the whole re-arm path (controllers, backends, fault
 * plumbing) is checked end to end, not just for self-consistency.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

#include "apps/registry.h"
#include "report_log.h"
#include "runtime/session.h"
#include "sim/simulator.h"
#include "test_programs.h"
#include "util/rng.h"

namespace fleet {
namespace runtime {
namespace {

using bench::ReportLog;

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

// ---------------------------------------------------------------------------
// JobQueue
// ---------------------------------------------------------------------------

TEST(JobQueue, FifoWithSequentialIds)
{
    JobQueue queue;
    EXPECT_TRUE(queue.empty());
    BitBuffer a, b;
    a.appendBits(1, 8);
    b.appendBits(2, 8);
    EXPECT_EQ(queue.push(a), 0u);
    EXPECT_EQ(queue.push(b), 1u);
    EXPECT_EQ(queue.size(), 2u);
    EXPECT_EQ(queue.pushed(), 2u);
    EXPECT_EQ(queue.front().id, 0u);
    PendingJob first = queue.pop();
    EXPECT_EQ(first.id, 0u);
    EXPECT_TRUE(first.stream == a);
    EXPECT_EQ(queue.pop().id, 1u);
    EXPECT_TRUE(queue.empty());
    EXPECT_THROW(queue.pop(), PanicError);
    EXPECT_THROW(queue.front(), PanicError);
    EXPECT_EQ(queue.push(std::move(a)), 2u); // ids keep counting
}

TEST(JobQueue, TakeExpiredEdgeCases)
{
    JobQueue queue;
    // Empty queue: nothing to expire, no side effects.
    EXPECT_TRUE(queue.takeExpired(1000).empty());
    EXPECT_TRUE(queue.empty());

    // Mixed deadlines: 0 means "no deadline" and never expires, even
    // at a huge now; expiry is inclusive (deadline <= now).
    BitBuffer stream;
    stream.appendBits(0xAB, 8);
    queue.push(stream, nullptr, 10, 0, 0);   // id 0: no deadline
    queue.push(stream, nullptr, 11, 0, 500); // id 1: expires at 500
    queue.push(stream, nullptr, 12, 0, 200); // id 2: expires at 200
    queue.push(stream, nullptr, 13, 0, 900); // id 3: survives
    std::vector<PendingJob> expired = queue.takeExpired(500);
    ASSERT_EQ(expired.size(), 2u);
    // FIFO order among the expired, not deadline order.
    EXPECT_EQ(expired[0].id, 1u);
    EXPECT_EQ(expired[1].id, 2u);
    // Survivors keep their relative order.
    ASSERT_EQ(queue.size(), 2u);
    EXPECT_EQ(queue.at(0).id, 0u);
    EXPECT_EQ(queue.at(0).enqueueCycle, 10u);
    EXPECT_EQ(queue.at(1).id, 3u);

    // All-expired: the queue empties in one call.
    EXPECT_EQ(queue.takeExpired(0).size(), 0u); // now too early
    // Nothing expired: the sweep allocates nothing.
    EXPECT_EQ(queue.takeExpired(0).capacity(), 0u);
    EXPECT_EQ(queue.size(), 2u);
    std::vector<PendingJob> rest = queue.takeExpired(UINT64_MAX);
    ASSERT_EQ(rest.size(), 1u); // only id 3 carries a deadline
    EXPECT_EQ(rest[0].id, 3u);
    EXPECT_EQ(queue.size(), 1u); // id 0 (deadline 0) waits forever
}

TEST(JobQueue, RequeueFrontPreservesIdentityAndOrder)
{
    JobQueue queue;
    BitBuffer stream;
    stream.appendBits(0xCD, 8);
    queue.push(stream, nullptr, 5, 0, 0);
    queue.push(stream, nullptr, 6, 0, 0);

    // A popped job goes back to the *front* under its original id,
    // arrival cycle, and requeue count — and ids keep counting from
    // where push left off.
    PendingJob job = queue.pop();
    EXPECT_EQ(job.id, 0u);
    job.requeues = 3;
    job.tag.tenant = 7;
    queue.requeueFront(std::move(job));
    EXPECT_EQ(queue.size(), 2u);
    EXPECT_EQ(queue.front().id, 0u);
    EXPECT_EQ(queue.front().enqueueCycle, 5u);
    EXPECT_EQ(queue.front().requeues, 3u);
    EXPECT_EQ(queue.front().tag.tenant, 7u);
    EXPECT_EQ(queue.push(stream), 2u);

    // A foreign id (never assigned by this queue's push) panics.
    PendingJob foreign;
    foreign.id = 99;
    EXPECT_THROW(queue.requeueFront(std::move(foreign)), PanicError);
}

TEST(JobQueue, RequeueThenExpireStillHonoursDeadline)
{
    // The recovery path re-queues a stranded job at the front; if its
    // deadline has meanwhile passed, the next expiry sweep must still
    // claim it (position in the deque is irrelevant to expiry).
    JobQueue queue;
    BitBuffer stream;
    stream.appendBits(0xEF, 8);
    queue.push(stream, nullptr, 0, 0, 300); // id 0
    queue.push(stream, nullptr, 0, 0, 0);   // id 1: no deadline
    PendingJob job = queue.pop();
    job.requeues = 1;
    queue.requeueFront(std::move(job));
    std::vector<PendingJob> expired = queue.takeExpired(300);
    ASSERT_EQ(expired.size(), 1u);
    EXPECT_EQ(expired[0].id, 0u);
    EXPECT_EQ(expired[0].requeues, 1u);
    ASSERT_EQ(queue.size(), 1u);
    EXPECT_EQ(queue.front().id, 1u);
}

TEST(JobQueue, TakeByIndexMatchesSchedulerContract)
{
    // take(0) == pop(); take(i) removes exactly the i-th job and
    // preserves everyone else's order — what Session::armSweep relies
    // on when honouring a scheduler pick.
    JobQueue queue;
    BitBuffer stream;
    stream.appendBits(0x11, 8);
    for (int j = 0; j < 4; ++j)
        queue.push(stream, nullptr, static_cast<uint64_t>(j));
    PendingJob second = queue.take(1);
    EXPECT_EQ(second.id, 1u);
    ASSERT_EQ(queue.size(), 3u);
    EXPECT_EQ(queue.at(0).id, 0u);
    EXPECT_EQ(queue.at(1).id, 2u);
    EXPECT_EQ(queue.at(2).id, 3u);
    EXPECT_EQ(queue.take(0).id, 0u); // take(0) behaves like pop()
    EXPECT_THROW(queue.take(5), PanicError);
    EXPECT_THROW(queue.at(5), PanicError);
}

// ---------------------------------------------------------------------------
// Session basics: deep queues over a small pool.
// ---------------------------------------------------------------------------

SessionConfig
smallConfig(system::PuBackend backend, int threads)
{
    SessionConfig config;
    config.system.numChannels = 3; // uneven slot division
    config.system.numThreads = threads;
    config.system.backend = backend;
    config.system.inputRegionBytes = 4096;
    config.numSlots = 8;
    config.epochCycles = 512;
    return config;
}

TEST(RuntimeSession, SixtyFourJobsOverEightSlots)
{
    // 64 mixed-size jobs over 8 slots: every slot serves many jobs in
    // sequence, and each output must match the functional simulator
    // over exactly that job's stream (a stateful program, so any
    // leakage of a previous job's registers or BRAM contents through
    // the re-arm path shows up immediately).
    auto program = testprogs::blockFrequencies(32);
    Rng rng(1234);
    std::vector<BitBuffer> streams;
    for (int j = 0; j < 64; ++j)
        streams.push_back(randomStream(rng, 40 + rng.nextBelow(360)));

    Session session(program, smallConfig(system::PuBackend::Fast, 2));
    ReportLog log;
    for (auto &stream : streams)
        session.submit(stream, log.sink());
    EXPECT_EQ(session.jobsSubmitted(), 64u);
    const system::RunReport &report = session.finish();

    EXPECT_TRUE(report.allOk()) << report.summary();
    EXPECT_EQ(session.jobsFinished(), 64u);
    EXPECT_EQ(session.jobsPending(), 0u);
    std::vector<uint64_t> jobs_per_slot(8, 0);
    for (uint64_t j = 0; j < 64; ++j) {
        const JobReport &job = log[j];
        EXPECT_EQ(job.jobId, j);
        ASSERT_TRUE(job.ok()) << "job " << j << ": "
                              << job.status.toString();
        ASSERT_GE(job.pu, 0);
        ASSERT_LT(job.pu, 8);
        EXPECT_EQ(job.channel, job.pu % 3);
        EXPECT_EQ(job.streamBits, streams[j].sizeBits());
        EXPECT_GT(job.retireCycle, job.armCycle);
        EXPECT_TRUE(job.output == goldenOutput(program, streams[j]))
            << "job " << j << " output diverges from functional sim";
        EXPECT_EQ(job.outputBits, job.output.sizeBits());
        ++jobs_per_slot[job.pu];
    }
    // More jobs than slots forces re-arm on every slot.
    for (int p = 0; p < 8; ++p)
        EXPECT_GT(jobs_per_slot[p], 1u) << "slot " << p << " never reused";
}

TEST(RuntimeSession, BitIdenticalAcrossBackendsAndThreadCounts)
{
    // The acceptance fence: the same job mix must produce *identical*
    // JobReports — outputs, cycles, stall counters — on the fast
    // model, the scalar RTL tape, and the batched RTL engine, at 1 and
    // 4 host threads. Six full runs compared field by field.
    auto program = testprogs::blockFrequencies(32);
    Rng rng(77);
    std::vector<BitBuffer> streams;
    for (int j = 0; j < 24; ++j)
        streams.push_back(randomStream(rng, 30 + rng.nextBelow(150)));

    auto runAll = [&](system::PuBackend backend, int threads) {
        Session session(program, smallConfig(backend, threads));
        ReportLog log;
        for (auto &stream : streams)
            session.submit(stream, log.sink());
        system::RunReport report = session.finish();
        return std::make_pair(log.all(), std::move(report));
    };

    auto [fast1, fast1_report] = runAll(system::PuBackend::Fast, 1);
    ASSERT_TRUE(fast1_report.allOk()) << fast1_report.summary();
    for (uint64_t j = 0; j < streams.size(); ++j)
        ASSERT_TRUE(fast1[j].output == goldenOutput(program, streams[j]))
            << "job " << j;

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
        auto [reports, run_report] =
            runAll(variant.backend, variant.threads);
        ASSERT_EQ(reports.size(), fast1.size()) << variant.label;
        for (uint64_t j = 0; j < reports.size(); ++j)
            ASSERT_TRUE(reports[j] == fast1[j])
                << variant.label << ": job " << j
                << " diverges from Fast/1";
        ASSERT_TRUE(run_report == fast1_report)
            << variant.label << ": RunReport diverges from Fast/1";
    }
}

TEST(RuntimeSession, MixedAppsAcrossSessions)
{
    // Heterogeneous traffic across the six evaluation apps: one
    // Session per program (a session's circuit is fixed), 12 jobs
    // each, every output checked against the functional simulator.
    auto apps = apps::allApplications();
    Rng rng(5150);
    int total_jobs = 0;
    for (const auto &app : apps) {
        SessionConfig config = smallConfig(system::PuBackend::Fast, 2);
        config.numSlots = 4;
        config.system.inputRegionBytes = 8192;
        Session session(app->program(), config);
        ReportLog log;
        std::vector<BitBuffer> streams;
        for (int j = 0; j < 12; ++j) {
            streams.push_back(
                app->generateStream(rng, 100 + rng.nextBelow(500)));
            session.submit(streams.back(), log.sink());
        }
        const system::RunReport &report = session.finish();
        ASSERT_TRUE(report.allOk())
            << app->name() << ": " << report.summary();
        for (uint64_t j = 0; j < streams.size(); ++j) {
            const JobReport &job = log[j];
            ASSERT_TRUE(job.ok()) << app->name() << " job " << j;
            ASSERT_TRUE(job.output ==
                        goldenOutput(app->program(), streams[j]))
                << app->name() << " job " << j;
        }
        total_jobs += static_cast<int>(streams.size());
    }
    EXPECT_GE(total_jobs, 64); // mixed apps + sizes, more jobs than PUs
}

TEST(RuntimeSession, SubmitWhileServing)
{
    // Jobs arriving mid-serve (the server shape): the first wave is in
    // flight when the second wave lands; everything still completes
    // with golden outputs.
    auto program = testprogs::streamSum();
    Rng rng(9);
    std::vector<BitBuffer> streams;
    for (int j = 0; j < 30; ++j)
        streams.push_back(randomStream(rng, 20 + rng.nextBelow(200)));

    Session session(program, smallConfig(system::PuBackend::Fast, 2));
    ReportLog log;
    for (int j = 0; j < 10; ++j)
        session.submit(streams[j], log.sink());
    for (int round = 0; round < 3; ++round)
        session.step();
    for (int j = 10; j < 30; ++j)
        session.submit(streams[j], log.sink());
    session.finish();

    EXPECT_EQ(session.jobsFinished(), 30u);
    for (uint64_t j = 0; j < 30; ++j) {
        const JobReport &job = log[j];
        ASSERT_TRUE(job.ok()) << "job " << j;
        ASSERT_TRUE(job.output == goldenOutput(program, streams[j]))
            << "job " << j;
    }
}

TEST(RuntimeSession, CallbacksFireWithFinalReports)
{
    auto program = testprogs::identity();
    Rng rng(3);
    Session session(program, smallConfig(system::PuBackend::Fast, 1));
    std::vector<uint64_t> seen;
    for (int j = 0; j < 12; ++j) {
        BitBuffer stream = randomStream(rng, 50);
        session.submit(stream, [&seen](JobReport job) {
            seen.push_back(job.jobId);
            EXPECT_TRUE(job.ok());
        });
    }
    session.finish();
    ASSERT_EQ(seen.size(), 12u);
    EXPECT_EQ(session.jobsFinished(), 12u);
    // Each callback fired exactly once, with its own job's report.
    std::vector<uint64_t> sorted = seen;
    std::sort(sorted.begin(), sorted.end());
    for (uint64_t j = 0; j < 12; ++j)
        EXPECT_EQ(sorted[j], j);
}

// ---------------------------------------------------------------------------
// Error paths.
// ---------------------------------------------------------------------------

TEST(RuntimeSession, BadJobsFailAloneQueueContinues)
{
    auto program = testprogs::identity();
    Rng rng(8);
    SessionConfig config = smallConfig(system::PuBackend::Fast, 1);
    config.system.inputRegionBytes = 1024;
    Session session(program, config);
    ReportLog log;

    BitBuffer good_a = randomStream(rng, 100);
    BitBuffer misaligned;
    misaligned.appendBits(3, 5); // not a whole 8-bit token
    BitBuffer oversized = randomStream(rng, 5000); // > 1 KiB region
    BitBuffer good_b = randomStream(rng, 200);

    uint64_t id_a = session.submit(good_a, log.sink());
    uint64_t id_bad = session.submit(std::move(misaligned), log.sink());
    uint64_t id_big = session.submit(std::move(oversized), log.sink());
    uint64_t id_b = session.submit(good_b, log.sink());
    session.finish();

    EXPECT_EQ(log[id_bad].status.code, StatusCode::InvalidArgument);
    EXPECT_EQ(log[id_big].status.code, StatusCode::InvalidArgument);
    EXPECT_NE(log[id_big].status.message.find("inputRegionBytes"),
              std::string::npos);
    // The good jobs around them are untouched.
    EXPECT_TRUE(log[id_a].ok());
    EXPECT_TRUE(log[id_a].output == good_a);
    EXPECT_TRUE(log[id_b].ok());
    EXPECT_TRUE(log[id_b].output == good_b);
}

TEST(RuntimeSession, ProtocolMisuse)
{
    auto program = testprogs::identity();
    Session session(program, smallConfig(system::PuBackend::Fast, 1));
    Rng rng(4);
    session.submit(randomStream(rng, 40));
    session.finish();
    EXPECT_EQ(session.jobsFinished(), 1u);
    EXPECT_THROW(session.submit(randomStream(rng, 8)), StatusError);
    EXPECT_THROW(session.step(), StatusError);
}

TEST(RuntimeSession, SlotStateRejectsASlotOutOfRange)
{
    Session session(testprogs::identity(),
                    smallConfig(system::PuBackend::Fast, 1));
    EXPECT_FALSE(session.slotState(7).busy);
    for (int pu : {-1, 8}) {
        try {
            session.slotState(pu);
            ADD_FAILURE() << "slotState(" << pu << "): no StatusError";
        } catch (const StatusError &error) {
            EXPECT_EQ(error.status().code, StatusCode::InvalidArgument);
        }
    }
}

// ---------------------------------------------------------------------------
// Failure containment: a halted channel strands only its own jobs.
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

/** A filter stream: first byte is the threshold, then random tokens. */
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

TEST(RuntimeSession, HaltedChannelStrandsItsJobsOthersKeepServing)
{
    auto program = thresholdFilter();

    auto runScenario = [&](int threads) {
        SessionConfig config;
        config.system.numChannels = 2;
        config.system.numThreads = threads;
        config.system.outputCtrl.blockingAddressing = true;
        config.system.watchdogCycles = 20000;
        config.system.inputRegionBytes = 64 * 1024;
        config.numSlots = 8;
        config.epochCycles = 2048;
        Session session(program, config);
        ReportLog log;

        // Slots alternate channels (slot p → channel p % 2). Jobs
        // 0..7 land on slots 0..7: give channel 0's slots (even jobs)
        // the divergent-rate mix that deadlocks under blocking
        // addressing, channel 1's slots (odd jobs) healthy mid-rate
        // filters; then queue more healthy work behind them.
        Rng rng(11);
        for (int j = 0; j < 8; ++j) {
            uint8_t threshold = j % 2 == 0
                                    ? (j % 4 == 0 ? 2 : 250) // channel 0
                                    : 128;                   // channel 1
            uint64_t tokens = j % 2 == 0 ? 40000 : 2000;
            session.submit(filterStream(rng, threshold, tokens),
                           log.sink());
        }
        for (int j = 8; j < 20; ++j)
            session.submit(filterStream(rng, 128, 1500), log.sink());
        system::RunReport report = session.finish();
        return std::make_pair(log.all(), std::move(report));
    };

    auto [reports, report] = runScenario(1);
    // Channel 0 tripped its watchdog; channel 1 finished clean.
    ASSERT_EQ(report.channels.size(), 2u);
    EXPECT_EQ(report.channels[0].status.code, StatusCode::WatchdogStall);
    EXPECT_TRUE(report.channels[1].status.ok())
        << report.channels[1].status.toString();

    ASSERT_EQ(reports.size(), 20u);
    int stranded = 0, completed = 0;
    for (const JobReport &job : reports) {
        if (job.status.code == StatusCode::WatchdogStall) {
            ++stranded;
            EXPECT_EQ(job.channel, 0) << "job " << job.jobId;
            EXPECT_NE(job.status.message.find("stranded"),
                      std::string::npos);
        } else {
            ++completed;
            ASSERT_TRUE(job.ok())
                << "job " << job.jobId << ": " << job.status.toString();
            EXPECT_EQ(job.channel, 1) << "job " << job.jobId;
        }
    }
    // The four channel-0 jobs strand; every other job completes on
    // channel 1 (the queue drains around the dead channel).
    EXPECT_EQ(stranded, 4);
    EXPECT_EQ(completed, 16);

    // The whole failure scenario is thread-count invariant too.
    auto [reports4, report4] = runScenario(4);
    ASSERT_EQ(reports4.size(), reports.size());
    for (size_t j = 0; j < reports.size(); ++j)
        ASSERT_TRUE(reports4[j] == reports[j])
            << "job " << j << " diverges at 4 threads";
    ASSERT_TRUE(report4 == report);
}

// ---------------------------------------------------------------------------
// Halted-channel requeue: a job keeps its identity across the move.
// ---------------------------------------------------------------------------

namespace {

uint64_t
steadyNowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Two channels with one slot each (slot p on channel p), both slots
 * running program 1 of two, with halted-channel requeue on. */
Session
requeueSession()
{
    SessionConfig config;
    config.system.numChannels = 2;
    config.system.numThreads = 1;
    config.system.inputRegionBytes = 64 * 1024;
    config.numSlots = 2;
    config.epochCycles = 512;
    config.requeueStranded = true;
    return Session({testprogs::blockFrequencies(32), testprogs::identity()},
                   config, {1, 1});
}

JobTag
tenantSevenTag()
{
    JobTag tag;
    tag.tenant = 7;
    tag.programIndex = 1;
    tag.priority = 2;
    return tag;
}

} // namespace

TEST(RuntimeSession, RequeuedJobKeepsItsIdentity)
{
    Session session = requeueSession();
    ReportLog log;
    Rng rng(27);
    const JobTag tag = tenantSevenTag();
    // A warm-up job moves the session clock and the id counter off 0.
    session.submitJob(randomStream(rng, 64), tag, 0, log.sink());
    session.drain();

    const uint64_t enqueue = session.cycles();
    ASSERT_GT(enqueue, 0u);
    const BitBuffer stream = randomStream(rng, 2000);
    const uint64_t before = steadyNowNs();
    const uint64_t id = session.submitJob(stream, tag, enqueue,
                                          log.sink(), enqueue + 1000000);
    const uint64_t after = steadyNowNs();
    ASSERT_TRUE(session.step());
    ASSERT_TRUE(session.slotState(0).busy);
    ASSERT_EQ(session.slotState(0).jobId, id);
    session.forceHaltChannel(
        0, Status::make(StatusCode::InternalError, "test halt"));
    session.drain();

    EXPECT_EQ(session.jobRequeues(), 1u);
    const JobReport &report = log[id];
    EXPECT_TRUE(report.ok()) << report.status.toString();
    EXPECT_EQ(report.jobId, id);
    EXPECT_EQ(report.tenant, 7u);
    EXPECT_EQ(report.programIndex, 1u);
    EXPECT_EQ(report.requeues, 1u);
    EXPECT_EQ(report.pu, 1);
    EXPECT_EQ(report.channel, 1);
    EXPECT_EQ(report.enqueueCycle, enqueue);
    EXPECT_GT(report.admittedCycle, enqueue);
    EXPECT_GE(report.hostSubmitNs, before);
    EXPECT_LE(report.hostSubmitNs, after);
    EXPECT_TRUE(report.output == stream); // the identity program
    session.finish();
}

TEST(RuntimeSession, RequeuedJobExpiresWhileQueued)
{
    Session session = requeueSession();
    ReportLog log;
    Rng rng(28);
    const JobTag tag = tenantSevenTag();
    // The target arms on slot 0 and the blocker on slot 1. Once
    // channel 0 halts, the target waits at the queue front until its
    // deadline passes, because the blocker holds the only survivor.
    const uint64_t deadline = 1536;
    const uint64_t target = session.submitJob(
        randomStream(rng, 2000), tag, 0, log.sink(), deadline);
    const uint64_t blocker =
        session.submitJob(randomStream(rng, 16000), tag, 0, log.sink());
    ASSERT_TRUE(session.step());
    ASSERT_EQ(session.slotState(0).jobId, target);
    ASSERT_EQ(session.slotState(1).jobId, blocker);
    ASSERT_LT(session.cycles(), deadline);
    session.forceHaltChannel(
        0, Status::make(StatusCode::InternalError, "test halt"));
    session.drain();

    const JobReport &report = log[target];
    EXPECT_EQ(report.status.code, StatusCode::DeadlineExceeded)
        << report.status.toString();
    EXPECT_NE(report.status.message.find("while queued"),
              std::string::npos)
        << report.status.message;
    EXPECT_EQ(report.jobId, target);
    EXPECT_EQ(report.requeues, 1u);
    EXPECT_EQ(report.pu, -1);
    EXPECT_EQ(report.tenant, 7u);
    EXPECT_EQ(report.programIndex, 1u);
    EXPECT_GE(report.completedCycle, deadline);
    EXPECT_EQ(session.deadlineKills(), 1u);
    EXPECT_TRUE(log[blocker].ok()) << log[blocker].status.toString();
    EXPECT_GT(log[blocker].completedCycle, report.completedCycle);
    session.finish();
}

TEST(Session, FastRearmStateSizedByPlan)
{
    // Every Fast arm pre-runs a functional simulator. Its per-cycle
    // state must be sized by its program's plan alone, not by how many
    // simulators the process built before it (other programs here, and
    // earlier arms below): otherwise each arm would cost more than the
    // last for the life of the process.
    Rng rng(0xe7a1);
    lang::Program program = testprogs::blockFrequencies(16);
    const size_t fresh_nodes = sim::EvalPlan(program).size();
    for (int block = 1; block <= 40; ++block) {
        sim::FunctionalSimulator other(testprogs::blockFrequencies(block));
        other.run(randomStream(rng, 8));
    }
    auto plan = std::make_shared<const sim::EvalPlan>(program);
    EXPECT_EQ(plan->size(), fresh_nodes);
    EXPECT_EQ(sim::FunctionalSimulator(plan).evalStateSize(), plan->size());

    SessionConfig config;
    config.system.numChannels = 1;
    config.system.numThreads = 1;
    config.system.inputRegionBytes = 256;
    config.numSlots = 1;
    Session session(program, config);
    ReportLog log;
    std::vector<BitBuffer> streams;
    for (int j = 0; j < 201; ++j)
        streams.push_back(randomStream(rng, 64));
    for (const BitBuffer &stream : streams)
        session.submit(stream, log.sink());
    session.drain();
    const system::RunReport &report = session.finish();
    EXPECT_TRUE(report.allOk()) << report.summary();
    ASSERT_EQ(log.all().size(), 201u);
    for (int j : {0, 200})
        EXPECT_TRUE(log[j].output ==
                    goldenOutput(program, streams[j]))
            << "job " << j;
    EXPECT_EQ(sim::FunctionalSimulator(plan).evalStateSize(), fresh_nodes);
}

} // namespace
} // namespace runtime
} // namespace fleet

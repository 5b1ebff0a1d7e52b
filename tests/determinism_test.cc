/**
 * @file
 * The channel-parallel engine's central guarantee: because channels share
 * nothing (Section 5), stepping the shards on a worker pool must be
 * bit-for-bit identical to the single-threaded run — same output bytes,
 * same cycle count, same per-PU stall stats — for every application and
 * both PU backends.
 */

#include <gtest/gtest.h>

#include "apps/registry.h"
#include "fault/fault.h"
#include "report_log.h"
#include "runtime/session.h"
#include "system/fleet_system.h"
#include "test_programs.h"
#include "util/rng.h"

namespace fleet {
namespace system {
namespace {

std::vector<BitBuffer>
appStreams(const apps::Application &app, int count, uint64_t bytes,
           uint64_t seed)
{
    Rng rng(seed);
    std::vector<BitBuffer> streams;
    for (int p = 0; p < count; ++p)
        streams.push_back(app.generateStream(rng, bytes));
    return streams;
}

SystemConfig
configFor(PuBackend backend, int threads)
{
    SystemConfig config;
    config.numChannels = 3; // Uneven PU division across channels.
    config.numThreads = threads;
    config.backend = backend;
    config.dram.readLatency = 20;
    return config;
}

void
expectIdenticalRuns(const lang::Program &program,
                    const std::vector<BitBuffer> &streams,
                    PuBackend backend, const std::string &label)
{
    FleetSystem serial(program, configFor(backend, 1), streams);
    serial.run();
    FleetSystem parallel(program, configFor(backend, 4), streams);
    parallel.run();

    ASSERT_EQ(serial.stats().cycles, parallel.stats().cycles)
        << label << ": cycle counts diverge across thread counts";
    ASSERT_EQ(serial.stats().outputBytes, parallel.stats().outputBytes)
        << label << ": output sizes diverge across thread counts";
    for (int p = 0; p < serial.numPus(); ++p) {
        ASSERT_TRUE(serial.output(p) == parallel.output(p))
            << label << " PU " << p
            << ": output bytes diverge across thread counts";
        const PuStats &a = serial.puStats(p);
        const PuStats &b = parallel.puStats(p);
        ASSERT_EQ(a.finishedAtCycle, b.finishedAtCycle)
            << label << " PU " << p;
        ASSERT_EQ(a.inputStarvedCycles, b.inputStarvedCycles)
            << label << " PU " << p;
        ASSERT_EQ(a.outputBlockedCycles, b.outputBlockedCycles)
            << label << " PU " << p;
    }
    // Per-shard stats must merge identically too.
    auto serial_stats = serial.stats();
    auto parallel_stats = parallel.stats();
    ASSERT_EQ(serial_stats.channels.size(), parallel_stats.channels.size());
    for (size_t c = 0; c < serial_stats.channels.size(); ++c) {
        const ChannelStats &a = serial_stats.channels[c];
        const ChannelStats &b = parallel_stats.channels[c];
        EXPECT_EQ(a.cycles, b.cycles) << label << " channel " << c;
        EXPECT_EQ(a.beatsDelivered, b.beatsDelivered)
            << label << " channel " << c;
        EXPECT_EQ(a.beatsWritten, b.beatsWritten)
            << label << " channel " << c;
        EXPECT_EQ(a.readQueueOccupancySum, b.readQueueOccupancySum)
            << label << " channel " << c;
    }
}

class AllAppsDeterminism : public ::testing::TestWithParam<int>
{
};

TEST_P(AllAppsDeterminism, FastBackendThreadCountInvariant)
{
    auto apps = apps::allApplications();
    auto &app = *apps[GetParam()];
    auto streams = appStreams(app, 5, 1800, 42);
    expectIdenticalRuns(app.program(), streams, PuBackend::Fast,
                        app.name() + "/Fast");
}

TEST_P(AllAppsDeterminism, RtlBackendThreadCountInvariant)
{
    auto apps = apps::allApplications();
    auto &app = *apps[GetParam()];
    // RTL interpretation is ~two orders slower; keep streams small.
    auto streams = appStreams(app, 4, 700, 43);
    expectIdenticalRuns(app.program(), streams, PuBackend::Rtl,
                        app.name() + "/Rtl");
}

INSTANTIATE_TEST_SUITE_P(Suite, AllAppsDeterminism, ::testing::Range(0, 6),
                         [](const auto &info) {
                             auto apps = apps::allApplications();
                             return apps[info.param]->name();
                         });

TEST(Determinism, ManyPusAcrossManyThreads)
{
    // More PUs than channels and more threads than cores exercises the
    // work-queue scheduling paths of the pool.
    auto program = testprogs::blockFrequencies(32);
    std::vector<BitBuffer> streams;
    Rng rng(99);
    for (int p = 0; p < 13; ++p) {
        BitBuffer s;
        int blocks = 1 + static_cast<int>(rng.nextBelow(3));
        for (int t = 0; t < 32 * blocks; ++t)
            s.appendBits(rng.nextBelow(16), 8);
        streams.push_back(std::move(s));
    }
    expectIdenticalRuns(program, streams, PuBackend::Fast, "histogram");
}

TEST(Determinism, AutoThreadCountMatchesSerial)
{
    // numThreads = 0 (one per hardware thread) must also be identical.
    auto program = testprogs::streamSum();
    std::vector<BitBuffer> streams;
    Rng rng(7);
    for (int p = 0; p < 6; ++p) {
        BitBuffer s;
        for (int t = 0; t < 200; ++t)
            s.appendBits(rng.next(), 8);
        streams.push_back(std::move(s));
    }
    SystemConfig serial_config;
    serial_config.numChannels = 4;
    serial_config.numThreads = 1;
    FleetSystem serial(program, serial_config, streams);
    serial.run();

    SystemConfig auto_config;
    auto_config.numChannels = 4;
    auto_config.numThreads = 0;
    FleetSystem automatic(program, auto_config, streams);
    automatic.run();

    EXPECT_EQ(serial.stats().cycles, automatic.stats().cycles);
    for (int p = 0; p < serial.numPus(); ++p)
        EXPECT_TRUE(serial.output(p) == automatic.output(p)) << "PU " << p;
}

TEST(Determinism, ShardStatsAggregateConsistently)
{
    auto program = testprogs::identity();
    std::vector<BitBuffer> streams;
    Rng rng(17);
    for (int p = 0; p < 9; ++p) {
        BitBuffer s;
        for (int t = 0; t < 300 + int(rng.nextBelow(300)); ++t)
            s.appendBits(rng.next(), 8);
        streams.push_back(std::move(s));
    }
    SystemConfig config;
    config.numChannels = 4;
    config.numThreads = 2;
    FleetSystem system(program, config, streams);
    system.run();
    auto stats = system.stats();

    ASSERT_EQ(stats.channels.size(), 4u);
    uint64_t in_bytes = 0, out_bytes = 0, max_cycles = 0;
    int pus = 0;
    for (const auto &ch : stats.channels) {
        in_bytes += ch.inputBytes;
        out_bytes += ch.outputBytes;
        max_cycles = std::max(max_cycles, ch.cycles);
        pus += ch.numPus;
        EXPECT_GT(ch.cycles, 0u);
        EXPECT_GE(ch.busUtilization(), 0.0);
        EXPECT_LE(ch.busUtilization(), 1.0);
    }
    EXPECT_EQ(in_bytes, stats.inputBytes);
    EXPECT_EQ(out_bytes, stats.outputBytes);
    EXPECT_EQ(max_cycles, stats.cycles);
    EXPECT_EQ(pus, system.numPus());
    EXPECT_EQ(stats.threadsUsed, 2);
    EXPECT_GT(stats.wallSeconds, 0.0);
}

TEST(Determinism, SessionJobMixTracedThreadCountInvariant)
{
    // ISSUE 5 extension of the fence: a multi-job mix served through
    // the incremental runtime — mixed stream lengths, more jobs than
    // slots, tracing enabled, with and without a fault plan — must
    // produce identical JobReports and an identical RunReport (trace
    // included, job spans and all) at 1 and 4 host threads.
    auto program = testprogs::blockFrequencies(32);
    Rng stream_rng(21);
    std::vector<BitBuffer> streams;
    for (int j = 0; j < 20; ++j) {
        BitBuffer s;
        uint64_t bytes = 40 + stream_rng.nextBelow(400);
        for (uint64_t i = 0; i < bytes; ++i)
            s.appendBits(stream_rng.next(), 8);
        streams.push_back(std::move(s));
    }

    for (bool faulty : {false, true}) {
        auto runSession = [&](int threads) {
            runtime::SessionConfig config;
            config.system.numChannels = 3;
            config.system.numThreads = threads;
            config.system.trace.counters = true;
            config.system.trace.events = true;
            config.system.inputRegionBytes = 4096;
            if (faulty)
                config.system.faults =
                    fault::FaultPlan::fromSeed(0xf1ee7);
            config.numSlots = 6;
            config.epochCycles = 512;
            runtime::Session session(program, config);
            bench::ReportLog log;
            for (const auto &stream : streams)
                session.submit(stream, log.sink());
            RunReport report = session.finish();
            return std::make_pair(log.all(), std::move(report));
        };
        const std::string label = faulty ? "faulty" : "clean";
        auto [serial_jobs, serial_report] = runSession(1);
        auto [parallel_jobs, parallel_report] = runSession(4);
        ASSERT_TRUE(serial_report == parallel_report)
            << label << ": session RunReport (with trace) diverges "
                        "across thread counts";
        ASSERT_EQ(serial_jobs.size(), parallel_jobs.size());
        for (size_t j = 0; j < serial_jobs.size(); ++j)
            ASSERT_TRUE(serial_jobs[j] == parallel_jobs[j])
                << label << ": job " << j
                << " diverges across thread counts";
        ASSERT_NE(serial_report.trace, nullptr);
    }
}

TEST(Determinism, TwoDeviceClusterSessionThreadCountInvariant)
{
    // ISSUE 10 extension of the session fence: the same job mix
    // scheduled across a 2-device cluster — tracing on, fault plan on,
    // more jobs than the doubled slot pool — must produce identical
    // JobReports (device placement included) and an identical
    // ClusterReport (every device's RunReport, the link counters, and
    // the link tracks) at 1 and 4 host threads.
    auto program = testprogs::blockFrequencies(32);
    Rng stream_rng(77);
    std::vector<BitBuffer> streams;
    for (int j = 0; j < 24; ++j) {
        BitBuffer s;
        uint64_t bytes = 40 + stream_rng.nextBelow(400);
        for (uint64_t i = 0; i < bytes; ++i)
            s.appendBits(stream_rng.next(), 8);
        streams.push_back(std::move(s));
    }

    for (bool faulty : {false, true}) {
        auto runSession = [&](int threads) {
            runtime::SessionConfig config;
            config.system.numChannels = 3;
            config.system.numThreads = threads;
            config.system.trace.counters = true;
            config.system.trace.events = true;
            config.system.inputRegionBytes = 4096;
            if (faulty)
                config.system.faults =
                    fault::FaultPlan::fromSeed(0xc1a57e);
            config.numSlots = 4;
            config.numDevices = 2;
            config.epochCycles = 512;
            runtime::Session session(program, config);
            bench::ReportLog log;
            for (const auto &stream : streams)
                session.submit(stream, log.sink());
            cluster::ClusterReport report = session.finishCluster();
            return std::make_pair(log.all(), std::move(report));
        };
        const std::string label = faulty ? "faulty" : "clean";
        auto [serial_jobs, serial_report] = runSession(1);
        auto [parallel_jobs, parallel_report] = runSession(4);
        ASSERT_TRUE(serial_report == parallel_report)
            << label << ": 2-device ClusterReport diverges across "
                        "thread counts";
        ASSERT_EQ(serial_jobs.size(), parallel_jobs.size());
        bool used_second_device = false;
        for (size_t j = 0; j < serial_jobs.size(); ++j) {
            ASSERT_TRUE(serial_jobs[j] == parallel_jobs[j])
                << label << ": job " << j
                << " (device placement included) diverges across "
                   "thread counts";
            used_second_device |= serial_jobs[j].device == 1;
        }
        ASSERT_TRUE(used_second_device)
            << label << ": the fence never exercised device 1";
        ASSERT_EQ(serial_report.devices.size(), 2u);
        for (const auto &device : serial_report.devices)
            ASSERT_NE(device.trace, nullptr);
    }
}

TEST(Determinism, TwoDeviceClusterSessionBackendInvariantSchedule)
{
    // The placement schedule (job -> device/slot and all simulated
    // timestamps) must survive a PU backend swap: Fast and Rtl
    // differ in how a unit computes, never in when the scheduler acts.
    auto program = testprogs::identity();
    Rng stream_rng(91);
    std::vector<BitBuffer> streams;
    for (int j = 0; j < 12; ++j) {
        BitBuffer s;
        uint64_t bytes = 30 + stream_rng.nextBelow(120);
        for (uint64_t i = 0; i < bytes; ++i)
            s.appendBits(stream_rng.next(), 8);
        streams.push_back(std::move(s));
    }
    auto runSession = [&](PuBackend backend) {
        runtime::SessionConfig config;
        config.system.numChannels = 2;
        config.system.numThreads = 2;
        config.system.backend = backend;
        config.system.inputRegionBytes = 2048;
        config.numSlots = 3;
        config.numDevices = 2;
        runtime::Session session(program, config);
        bench::ReportLog log;
        for (const auto &stream : streams)
            session.submit(stream, log.sink());
        session.finish();
        return log.all();
    };
    auto fast = runSession(PuBackend::Fast);
    auto rtl = runSession(PuBackend::Rtl);
    ASSERT_EQ(fast.size(), rtl.size());
    for (size_t j = 0; j < fast.size(); ++j)
        ASSERT_TRUE(fast[j] == rtl[j])
            << "job " << j
            << ": 2-device schedule diverges across PU backends";
}

} // namespace
} // namespace system
} // namespace fleet

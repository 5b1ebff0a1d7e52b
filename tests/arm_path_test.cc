/**
 * @file
 * One arm path: a one-shot FleetSystem arms each slot exactly as a
 * session arms a job (upload, ProcessingUnit::arm, ChannelShard::rearmPu).
 * Two consequences are fenced here. A stream a unit refuses — a Fast
 * restriction violation found by its pre-run — comes back as an
 * InvalidArgument Status from every layer (one-shot run, Session,
 * FleetService), never as an exception. And a one-shot run equals a
 * session that arms the same equal-size streams once, into equal-size
 * regions, observable for observable.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "apps/registry.h"
#include "fault/fault.h"
#include "lang/builder.h"
#include "report_log.h"
#include "runtime/session.h"
#include "serve/service.h"
#include "sim/simulator.h"
#include "system/fleet_system.h"
#include "system/pu_fast.h"
#include "util/rng.h"

namespace fleet {
namespace {

using system::FleetSystem;
using system::PuBackend;
using system::RunReport;
using system::SystemConfig;

/** Echoes each token, and emits it a second time when it is 255: a
 * restriction violation on exactly those tokens. */
lang::Program
twiceOn255()
{
    lang::ProgramBuilder b("twice", 8, 8);
    lang::Value in = b.input();
    b.emit(in);
    b.if_(in == 255, [&] { b.emit(in); });
    return b.finish();
}

const char *const kViolation =
    "twice: restriction violation at token 0: multiple emits in one "
    "virtual cycle";

BitBuffer
tokens(std::initializer_list<uint64_t> values)
{
    BitBuffer stream;
    for (uint64_t v : values)
        stream.appendBits(v, 8);
    return stream;
}

/** Random bytes below 255: streams the program runs cleanly. */
BitBuffer
cleanStream(Rng &rng, uint64_t bytes)
{
    BitBuffer stream;
    for (uint64_t i = 0; i < bytes; ++i)
        stream.appendBits(rng.nextBelow(255), 8);
    return stream;
}

BitBuffer
golden(const lang::Program &program, const BitBuffer &stream)
{
    return sim::FunctionalSimulator(program).run(stream).output;
}

TEST(ArmViolation, FastPuArmReturnsViolationsAsStatus)
{
    system::FastPu unit(twiceOn255());
    Status armed = unit.arm(tokens({1, 255}));
    EXPECT_EQ(armed.code, StatusCode::InvalidArgument);
    EXPECT_EQ(armed.message,
              "twice: restriction violation at token 1: multiple emits "
              "in one virtual cycle");
    // The unit is left unarmed, and arms cleanly on the next stream.
    EXPECT_EQ(unit.functionalResult().vcycles, 0u);
    ASSERT_TRUE(unit.arm(tokens({1, 2})).ok());
    EXPECT_EQ(unit.functionalResult().tokens, 2u);

    // The per-token loop bound: a while that never exits.
    lang::ProgramBuilder b("spin", 8, 8);
    lang::Value stuck = b.reg("stuck", 1, 0);
    b.while_(stuck == 0,
             [&] { b.assign(stuck, lang::Value::lit(0, 1)); });
    system::FastPu spin(b.finish());
    armed = spin.arm(tokens({1}));
    EXPECT_EQ(armed.code, StatusCode::InvalidArgument);
    EXPECT_NE(armed.message.find("while loop exceeded"), std::string::npos)
        << armed.message;
}

TEST(ArmViolation, SessionJobFailsAndItsSlotServesTheNextJob)
{
    const lang::Program program = twiceOn255();
    runtime::SessionConfig config;
    config.system.numChannels = 1;
    config.system.numThreads = 1;
    config.system.backend = PuBackend::Fast;
    config.system.inputRegionBytes = 4096;
    config.numSlots = 1;
    config.epochCycles = 256;
    runtime::Session session(program, config);
    bench::ReportLog log;
    Rng rng(3);
    const BitBuffer good = cleanStream(rng, 300);
    const uint64_t bad_id = session.submit(tokens({255}), log.sink());
    const uint64_t good_id = session.submit(good, log.sink());
    ASSERT_NO_THROW(session.drain());

    const runtime::JobReport &bad = log[bad_id];
    EXPECT_EQ(bad.status.code, StatusCode::InvalidArgument);
    EXPECT_EQ(bad.status.message, kViolation);
    const runtime::JobReport &next = log[good_id];
    ASSERT_TRUE(next.ok()) << next.status.toString();
    EXPECT_EQ(next.pu, 0);
    EXPECT_TRUE(next.output == golden(program, good));
    EXPECT_TRUE(session.finish().allOk());
}

TEST(ArmViolation, ServiceCompletesTheTicketAndKeepsServing)
{
    const lang::Program program = twiceOn255();
    serve::ServiceConfig config;
    config.session.system.numChannels = 2;
    config.session.system.numThreads = 1;
    config.session.system.backend = PuBackend::Fast;
    config.session.system.inputRegionBytes = 4096;
    config.session.numSlots = 2;
    config.session.epochCycles = 256;
    ASSERT_TRUE(config.backgroundThread);
    serve::FleetService service(program, config);

    serve::JobTicket bad = service.submit(tokens({255}));
    const runtime::JobReport &bad_report = bad.wait();
    EXPECT_EQ(bad_report.status.code, StatusCode::InvalidArgument);
    EXPECT_EQ(bad_report.status.message, kViolation);

    Rng rng(4);
    std::vector<BitBuffer> streams;
    std::vector<serve::JobTicket> tickets;
    for (int j = 0; j < 6; ++j) {
        streams.push_back(cleanStream(rng, 50 + rng.nextBelow(200)));
        tickets.push_back(service.submit(streams.back()));
    }
    for (size_t j = 0; j < tickets.size(); ++j) {
        const runtime::JobReport &report = tickets[j].wait();
        ASSERT_TRUE(report.ok()) << j << ": " << report.status.toString();
        EXPECT_TRUE(report.output == golden(program, streams[j])) << j;
    }
    service.shutdown();
    const serve::ServiceStats stats = service.stats();
    EXPECT_EQ(stats.completed, 7u);
    EXPECT_EQ(stats.queueDepth, 0u);
    EXPECT_EQ(stats.jobsInFlight, 0);
}

TEST(ArmViolation, OneShotContainsTheUnitWhileChannelMatesRun)
{
    const lang::Program program = twiceOn255();
    Rng rng(5);
    std::vector<BitBuffer> streams;
    for (int p = 0; p < 6; ++p)
        streams.push_back(cleanStream(rng, 200 + 37 * p));
    const int bad = 2;
    streams[bad] = tokens({7, 255, 9});

    std::vector<RunReport> reports;
    for (int threads : {1, 4}) {
        SystemConfig config;
        config.numChannels = 2;
        config.numThreads = threads;
        config.backend = PuBackend::Fast;
        std::unique_ptr<FleetSystem> fleet;
        ASSERT_NO_THROW(fleet = std::make_unique<FleetSystem>(
                            program, config, streams));
        const RunReport &report = fleet->run();
        for (const auto &channel : report.channels)
            EXPECT_TRUE(channel.ok()) << channel.status.toString();
        const system::PuOutcome &contained = report.pus[bad];
        EXPECT_EQ(contained.status.code, StatusCode::InvalidArgument);
        EXPECT_EQ(contained.status.message,
                  "twice: restriction violation at token 1: multiple "
                  "emits in one virtual cycle");
        EXPECT_EQ(contained.atCycle, 0u);
        EXPECT_EQ(contained.outputBits, 0u);
        EXPECT_EQ(report.failedPuCount(), 1);
        for (int p = 0; p < fleet->numPus(); ++p) {
            if (p == bad)
                continue;
            ASSERT_TRUE(report.pus[p].ok()) << p;
            EXPECT_TRUE(fleet->output(p) == golden(program, streams[p]))
                << p;
        }
        reports.push_back(report);
    }
    EXPECT_TRUE(reports[0] == reports[1]);
}

TEST(ArmPath, OneShotStatsAreTheChannelStatsSummed)
{
    const lang::Program program = twiceOn255();
    Rng rng(6);
    std::vector<BitBuffer> streams;
    for (int p = 0; p < 6; ++p)
        streams.push_back(cleanStream(rng, 300 + 41 * p));
    const int bad = 1;
    streams[bad] = tokens({7, 255, 9});
    // The first plan that cuts exactly one stream, not the refused one.
    fault::FaultPlan plan;
    plan.truncatePermille = 200;
    auto kept = [&](int p) {
        const uint64_t n = streams[p].sizeBits() / 8;
        return fault::truncatedJobTokens(plan, uint64_t(p), n);
    };
    auto cuts = [&] {
        int count = 0;
        for (int p = 0; p < 6; ++p)
            count += kept(p) * 8 != streams[p].sizeBits();
        return count;
    };
    while (cuts() != 1 || kept(bad) * 8 != streams[bad].sizeBits())
        ++plan.seed;

    for (PuBackend backend : {PuBackend::Fast, PuBackend::Rtl}) {
        const char *label = backend == PuBackend::Fast ? "fast" : "rtl";
        SystemConfig config;
        config.numChannels = 2;
        config.numThreads = 1;
        config.backend = backend;
        config.faults = plan;
        FleetSystem fleet(program, config, streams);
        const RunReport &report = fleet.run();
        EXPECT_EQ(report.truncatedPuCount(), 1) << label;
        if (backend == PuBackend::Fast) {
            EXPECT_EQ(report.pus[bad].status.code,
                      StatusCode::InvalidArgument);
        }

        const system::SystemStats stats = fleet.stats();
        ASSERT_EQ(stats.channels.size(), 2u) << label;
        uint64_t channel_in = 0, channel_out = 0;
        for (const system::ChannelStats &channel : stats.channels) {
            channel_in += channel.inputBytes;
            channel_out += channel.outputBytes;
        }
        EXPECT_EQ(stats.inputBytes, channel_in) << label;
        EXPECT_EQ(stats.outputBytes, channel_out) << label;
        // And both count what the units were fed and flushed: the kept
        // tokens (one byte each) and every output stream.
        uint64_t in_bytes = 0, out_bytes = 0;
        for (int p = 0; p < fleet.numPus(); ++p) {
            in_bytes += kept(p);
            out_bytes += (fleet.output(p).sizeBits() + 7) / 8;
        }
        EXPECT_EQ(stats.inputBytes, in_bytes) << label;
        EXPECT_EQ(stats.outputBytes, out_bytes) << label;
    }
}

TEST(ArmPath, SessionFinishReportsEachSlotsTruncatedLastJob)
{
    // Every job's stream is cut. Each JobReport says so, and so must
    // the session's final RunReport for each slot's last job, as a
    // one-shot run() reports its truncated units.
    auto app = apps::makeApplication("JsonParsing");
    runtime::SessionConfig config;
    config.system.numChannels = 2;
    config.system.numThreads = 1;
    config.system.faults.truncatePermille = 1000;
    config.numSlots = 4;
    runtime::Session session(app->program(), config);
    bench::ReportLog log;
    Rng rng(41);
    for (int j = 0; j < 4; ++j)
        session.submit(app->generateStream(rng, 2000), log.sink());
    session.drain();
    const RunReport report = session.finish();
    EXPECT_EQ(report.truncatedPuCount(), 4) << report.summary();
    ASSERT_EQ(report.pus.size(), 4u);
    for (const system::PuOutcome &pu : report.pus) {
        const runtime::JobReport &job = log[pu.jobId];
        EXPECT_EQ(job.status.code, StatusCode::StreamTruncated);
        EXPECT_TRUE(pu.status == job.status) << pu.status.toString();
    }
}

/** `count` streams of `app`, cut to one whole-token length. */
std::vector<BitBuffer>
equalStreams(const apps::Application &app, int count, uint64_t bytes)
{
    Rng rng(11 + app.name().size());
    std::vector<BitBuffer> streams;
    uint64_t bits = UINT64_MAX;
    for (int p = 0; p < count; ++p) {
        streams.push_back(app.generateStream(rng, bytes));
        bits = std::min(bits, streams.back().sizeBits());
    }
    const int width = app.program().inputTokenWidth;
    for (BitBuffer &stream : streams)
        stream.resizeBits(bits / width * width);
    return streams;
}

TEST(ArmPath, OneShotEqualsASessionArmingTheSameStreamsOnce)
{
    for (PuBackend backend : {PuBackend::Fast, PuBackend::Rtl}) {
        for (const auto &app : apps::allApplications()) {
            const std::string label =
                app->name() + (backend == PuBackend::Fast ? " fast"
                                                          : " rtl");
            const int pus = 8;
            const std::vector<BitBuffer> streams =
                equalStreams(*app, pus, 1500);
            SystemConfig config;
            config.numChannels = 3;
            config.numThreads = 1;
            config.backend = backend;
            config.inputRegionBytes = (streams[0].sizeBits() + 7) / 8;

            FleetSystem oneshot(app->program(), config, streams);
            const RunReport &expected = oneshot.run();
            ASSERT_TRUE(expected.allOk()) << label;

            runtime::SessionConfig session_config;
            session_config.system = config;
            session_config.numSlots = pus;
            session_config.epochCycles = 512;
            runtime::Session session(app->program(), session_config);
            bench::ReportLog log;
            std::vector<uint64_t> ids;
            for (const BitBuffer &stream : streams)
                ids.push_back(session.submit(stream, log.sink()));
            session.drain();
            const FleetSystem &device = session.system();
            for (int p = 0; p < pus; ++p) {
                // A one-shot slot's job id is its PU index.
                ASSERT_EQ(ids[p], uint64_t(p)) << label;
                const runtime::JobReport &job = log[ids[p]];
                ASSERT_TRUE(job.ok()) << label << " job " << p;
                ASSERT_EQ(job.pu, p) << label;
                EXPECT_EQ(job.armCycle, 0u) << label;
                EXPECT_TRUE(job.output == oneshot.output(p))
                    << label << " PU " << p;
                const system::PuStats &want = oneshot.puStats(p);
                const system::PuStats &got = device.puStats(p);
                EXPECT_EQ(got.inputStarvedCycles, want.inputStarvedCycles)
                    << label << " PU " << p;
                EXPECT_EQ(got.outputBlockedCycles,
                          want.outputBlockedCycles)
                    << label << " PU " << p;
                EXPECT_EQ(got.finishedAtCycle, want.finishedAtCycle)
                    << label << " PU " << p;
                EXPECT_EQ(job.inputStarvedCycles, want.inputStarvedCycles)
                    << label << " PU " << p;
                EXPECT_EQ(job.outputBlockedCycles,
                          want.outputBlockedCycles)
                    << label << " PU " << p;
            }
            // Channel and PU outcomes (cycles, finish cycles, flushed
            // bits, job ids) and the total cycle count.
            EXPECT_TRUE(session.finish() == expected) << label;
            EXPECT_EQ(device.stats().cycles, oneshot.stats().cycles)
                << label;
        }
    }
}

} // namespace
} // namespace fleet

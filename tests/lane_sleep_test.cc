/**
 * @file
 * Sleeping lanes in the channel loop: an untraced shard skips a quiet
 * unit (starved, output-blocked or finished) until a controller touches
 * its buffers, and credits its stall cycles in bulk. A traced shard
 * keeps the per-cycle path for every lane, so each fence here runs a
 * workload traced and untraced and requires identical simulated
 * results — one-shot runs of every app, a session with retire, re-arm
 * and deadline cancels, parity containment, a watchdog trip, and an
 * internal error halting a channel mid-cycle. The
 * FastPu::quiet() contract itself is checked against random handshakes.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "apps/registry.h"
#include "fault/fault.h"
#include "lang/builder.h"
#include "run_fences.h"
#include "runtime/session.h"
#include "system/channel_shard.h"
#include "system/fleet_system.h"
#include "system/pu_fast.h"
#include "test_programs.h"
#include "util/rng.h"

namespace fleet {
namespace system {
namespace {

using testfence::expectSameRun;
using testfence::withoutTrace;

SystemConfig
withTrace(SystemConfig config)
{
    config.trace.counters = true;
    return config;
}

std::vector<BitBuffer>
randomStreams(int count, int bytes, uint64_t seed)
{
    Rng rng(seed);
    std::vector<BitBuffer> streams;
    for (int p = 0; p < count; ++p) {
        BitBuffer s;
        for (int i = 0; i < bytes; ++i)
            s.appendBits(rng.next(), 8);
        streams.push_back(std::move(s));
    }
    return streams;
}

class AllAppsLaneSleep : public ::testing::TestWithParam<int>
{
};

TEST_P(AllAppsLaneSleep, TracedAndUntracedRunsAgree)
{
    // Twelve units on two channels contend for the bus, so units
    // starve, block and finish at different times; at 1 and 4 host
    // threads the sleeping run must match the per-cycle one exactly.
    auto apps = apps::allApplications();
    const apps::Application &app = *apps[GetParam()];
    Rng rng(73);
    std::vector<BitBuffer> streams;
    for (int p = 0; p < 12; ++p)
        streams.push_back(app.generateStream(rng, 600 + 150 * (p % 4)));

    for (int threads : {1, 4}) {
        SystemConfig config;
        config.numChannels = 2;
        config.numThreads = threads;
        FleetSystem traced(app.program(), withTrace(config), streams);
        traced.run();
        FleetSystem untraced(app.program(), config, streams);
        untraced.run();
        ASSERT_NE(traced.report().trace, nullptr);
        EXPECT_TRUE(untraced.report().allOk())
            << untraced.report().summary();
        expectSameRun(traced, untraced,
                      app.name() + " at " + std::to_string(threads) +
                          " threads");
    }
}

INSTANTIATE_TEST_SUITE_P(Suite, AllAppsLaneSleep, ::testing::Range(0, 6),
                         [](const auto &info) {
                             auto apps = apps::allApplications();
                             return apps[info.param]->name();
                         });

TEST(LaneSleep, SessionRetireRearmAndDeadlineCancelAgree)
{
    // Jobs outnumber slots, so slots retire and re-arm while their
    // channel-mates sleep; every other job carries a deadline shorter
    // than its service time, so some are cancelled in flight. A long
    // read latency keeps units starved, so cancels land on sleeping
    // lanes. Per-job stall slices (JobReport) must match the per-cycle
    // path.
    auto program = testprogs::blockFrequencies(32);
    Rng stream_rng(91);
    std::vector<BitBuffer> streams;
    for (int j = 0; j < 24; ++j) {
        BitBuffer s;
        uint64_t bytes = 64 + stream_rng.nextBelow(1500);
        for (uint64_t i = 0; i < bytes; ++i)
            s.appendBits(stream_rng.next(), 8);
        streams.push_back(std::move(s));
    }

    auto runSession = [&](bool traced) {
        runtime::SessionConfig config;
        config.system.numChannels = 1;
        config.system.numThreads = 1;
        config.system.inputRegionBytes = 4096;
        config.system.dram.readLatency = 600;
        if (traced)
            config.system = withTrace(config.system);
        config.numSlots = 8;
        config.epochCycles = 256;
        runtime::Session session(program, config);
        for (size_t j = 0; j < streams.size(); ++j) {
            uint64_t deadline = j % 2 == 1 ? 700 + 60 * j : 0;
            session.submitAt(streams[j], 0, nullptr, deadline);
        }
        RunReport report = session.finish();
        uint64_t kills = session.deadlineKills();
        return std::make_tuple(session.reports(), withoutTrace(report),
                               kills, session.system().stats());
    };
    auto [traced_jobs, traced_report, traced_kills, traced_stats] =
        runSession(true);
    auto [jobs, report, kills, stats] = runSession(false);

    EXPECT_EQ(traced_kills, kills);
    EXPECT_TRUE(traced_report == report);
    ASSERT_EQ(traced_jobs.size(), jobs.size());
    int cancelled_in_flight = 0;
    for (size_t j = 0; j < jobs.size(); ++j) {
        // JobReport == covers the stall slice (starved, blocked).
        EXPECT_TRUE(traced_jobs[j] == jobs[j]) << "job " << j;
        if (jobs[j].status.code == StatusCode::DeadlineExceeded &&
            jobs[j].pu >= 0)
            ++cancelled_in_flight;
    }
    EXPECT_GT(cancelled_in_flight, 0) << "lengthen the jobs";
    ASSERT_EQ(traced_stats.channels.size(), stats.channels.size());
    for (size_t c = 0; c < stats.channels.size(); ++c)
        testfence::expectSameChannelStats(traced_stats.channels[c],
                                          stats.channels[c],
                                          "channel " + std::to_string(c));
}

TEST(LaneSleep, ParityContainmentOfSleepingLanesAgrees)
{
    // Corrupted beats contain their unit when the beat reaches a burst
    // register — typically while the unit sleeps, starved for that very
    // burst. The containment must credit its stall cycles up to the
    // same cycle as the per-cycle path.
    fault::FaultPlan plan;
    plan.seed = 4242;
    plan.corruptBeatPerMillion = 20000;

    auto program = testprogs::identity();
    auto streams = randomStreams(16, 2048, 17);
    SystemConfig config;
    config.numChannels = 2;
    config.faults = plan;

    FleetSystem traced(program, withTrace(config), streams);
    traced.run();
    FleetSystem untraced(program, config, streams);
    const RunReport &report = untraced.run();

    int contained = 0;
    for (const PuOutcome &pu : report.pus)
        contained += pu.status.code == StatusCode::ParityError;
    EXPECT_GT(contained, 0) << "re-pick the seed, not the rate";
    EXPECT_LT(contained, untraced.numPus());
    expectSameRun(traced, untraced, "parity");
}

/** The divergent-rate filter of Section 5's output-addressing study:
 * the first token sets a threshold, later tokens below it pass. */
lang::Program
filterUnit()
{
    lang::ProgramBuilder b("Filter", 8, 8);
    lang::Value threshold = b.reg("threshold", 8, 0);
    lang::Value configured = b.reg("configured", 1, 0);
    b.if_(!b.streamFinished(), [&] {
        b.if_(configured == 0, [&] {
            b.assign(threshold, b.input());
            b.assign(configured, lang::Value::lit(1, 1));
        }).elseIf(b.input() < threshold, [&] { b.emit(b.input()); });
    });
    return b.finish();
}

TEST(LaneSleep, WatchdogDumpAgrees)
{
    // Blocking output addressing with near-0% and near-100% selective
    // filters deadlocks (the pathology behind the non-blocking
    // default). The stall-class watchdog dump lists every unit's
    // starved and blocked cycles: sleeping lanes must be credited
    // before it is written.
    Rng rng(23);
    std::vector<BitBuffer> streams;
    for (int p = 0; p < 16; ++p) {
        BitBuffer stream;
        stream.appendBits(p % 2 == 0 ? 4 : 252, 8);
        for (int i = 0; i < 4096; ++i)
            stream.appendBits(rng.next(), 8);
        streams.push_back(std::move(stream));
    }
    SystemConfig config;
    config.numChannels = 1;
    config.outputCtrl.blockingAddressing = true;
    config.watchdogCycles = 3000;

    FleetSystem traced(filterUnit(), withTrace(config), streams);
    traced.run();
    FleetSystem untraced(filterUnit(), config, streams);
    const RunReport &report = untraced.run();

    ASSERT_EQ(report.channels.size(), 1u);
    ASSERT_EQ(report.channels[0].status.code, StatusCode::WatchdogStall)
        << report.summary();
    EXPECT_EQ(traced.report().channels[0].status.message,
              report.channels[0].status.message);
    expectSameRun(traced, untraced, "watchdog");
}

/** A FastPu that is never quiet and throws from eval() on a chosen
 * cycle, as an internal failure escaping a unit would. */
class FailingPu : public ProcessingUnit
{
  public:
    FailingPu(const lang::Program &program, const BitBuffer &stream,
              int fail_at)
        : inner_(program, stream), failAt_(fail_at)
    {
    }
    void reset() override { inner_.reset(); }
    PuOutputs eval(const PuInputs &inputs) override
    {
        if (evals_++ == failAt_)
            throw std::runtime_error("unit failed");
        return inner_.eval(inputs);
    }
    void step() override { inner_.step(); }
    int inputTokenWidth() const override
    {
        return inner_.inputTokenWidth();
    }
    int outputTokenWidth() const override
    {
        return inner_.outputTokenWidth();
    }

  private:
    FastPu inner_;
    int failAt_;
    int evals_ = 0;
};

TEST(LaneSleep, InternalErrorCreditsSleepersThroughTheFailedCycle)
{
    // An exception in phase 2 halts the channel mid-cycle: lanes phase
    // 2 already passed have counted that cycle, later ones have not.
    // Sleeping lanes on both sides of the failing unit must be credited
    // exactly so. Failing at many cycles puts sleepers on both sides.
    auto program = testprogs::identity();
    auto streams = randomStreams(5, 2048, 29);
    const int failing = 2;
    auto runShard = [&](bool traced, int fail_at) {
        memctl::ControllerParams in_params, out_params;
        out_params.blockingAddressing = false;
        std::vector<memctl::StreamRegion> inputs, outputs;
        uint64_t base = 0;
        for (const BitBuffer &stream : streams) {
            inputs.push_back({base, 4096, stream.sizeBits()});
            outputs.push_back({base + 4096, 4096, 0});
            base += 8192;
        }
        trace::TraceConfig trace_config;
        trace_config.counters = traced;
        ChannelShard shard(0, dram::DramParams{}, in_params, out_params,
                           inputs, outputs, base, fault::FaultPlan{},
                           trace_config);
        for (size_t l = 0; l < streams.size(); ++l) {
            auto bytes = streams[l].toBytes();
            std::copy(bytes.begin(), bytes.end(),
                      shard.channel().memory().begin() +
                          inputs[l].baseAddr);
            std::unique_ptr<ProcessingUnit> pu;
            if (int(l) == failing)
                pu = std::make_unique<FailingPu>(program, streams[l],
                                                 fail_at);
            else
                pu = std::make_unique<FastPu>(program, streams[l]);
            shard.addPu(std::move(pu), int(l), streams[l].sizeBits());
        }
        ChannelOutcome outcome = shard.run(8, 8, 1 << 20, 100000);
        std::vector<PuStats> stats;
        for (size_t l = 0; l < streams.size(); ++l)
            stats.push_back(shard.puStats(int(l)));
        return std::make_pair(outcome, stats);
    };
    for (int fail_at = 100; fail_at <= 1500; fail_at += 50) {
        auto [traced_outcome, traced_stats] = runShard(true, fail_at);
        auto [outcome, stats] = runShard(false, fail_at);
        EXPECT_EQ(outcome.status.code, StatusCode::InternalError);
        EXPECT_EQ(outcome.cycles, uint64_t(fail_at));
        EXPECT_TRUE(traced_outcome == outcome);
        for (size_t l = 0; l < stats.size(); ++l)
            testfence::expectSamePuStats(
                traced_stats[l], stats[l],
                "fail at " + std::to_string(fail_at) + ", PU " +
                    std::to_string(l));
    }
}

/** Every counter the unit reports, by name. */
trace::CounterSet
countersOf(const FastPu &pu)
{
    trace::CounterSet set;
    pu.appendCounters(set);
    return set;
}

TEST(FastPuQuiet, QuietMeansStepChangesNothing)
{
    // Contract of ProcessingUnit::quiet(): whenever it holds after
    // eval(), step() followed by eval() on the same inputs repeats the
    // outputs and leaves every counter unchanged. Random handshakes
    // (token offers, backpressure, end of stream) drive every app's
    // unit through starved, blocked, active and finished cycles.
    auto apps = apps::allApplications();
    for (const auto &app : apps) {
        Rng rng(5 + app->name().size());
        BitBuffer stream = app->generateStream(rng, 300);
        FastPu pu(app->program(), stream);
        const int width = pu.inputTokenWidth();
        const uint64_t tokens = stream.sizeBits() / uint64_t(width);

        uint64_t fed = 0;
        bool finished_offered = false;
        int quiet_cycles = 0, busy_cycles = 0, finished_cycles = 0;
        for (int cycle = 0; cycle < 20000 && finished_cycles < 20;
             ++cycle) {
            PuInputs in;
            in.inputValid = fed < tokens && rng.nextChance(1, 3);
            in.inputToken =
                in.inputValid ? stream.readBits(fed * width, width) : 0;
            finished_offered = finished_offered ||
                               (fed == tokens && rng.nextChance(1, 4));
            in.inputFinished = finished_offered;
            in.outputReady = rng.nextChance(1, 2);

            PuOutputs out = pu.eval(in);
            if (pu.quiet()) {
                ++quiet_cycles;
                trace::CounterSet before = countersOf(pu);
                pu.step();
                PuOutputs again = pu.eval(in);
                ASSERT_EQ(again.inputReady, out.inputReady)
                    << app->name() << " cycle " << cycle;
                ASSERT_EQ(again.outputValid, out.outputValid)
                    << app->name() << " cycle " << cycle;
                ASSERT_EQ(again.outputToken, out.outputToken)
                    << app->name() << " cycle " << cycle;
                ASSERT_EQ(again.outputFinished, out.outputFinished)
                    << app->name() << " cycle " << cycle;
                ASSERT_TRUE(countersOf(pu) == before)
                    << app->name() << " cycle " << cycle;
                ASSERT_TRUE(pu.quiet())
                    << app->name() << " cycle " << cycle;
            } else {
                ++busy_cycles;
            }
            if (out.inputReady && in.inputValid)
                ++fed;
            pu.step();
            finished_cycles += out.outputFinished;
        }
        EXPECT_EQ(finished_cycles, 20) << app->name();
        EXPECT_GT(quiet_cycles, 0) << app->name();
        EXPECT_GT(busy_cycles, 0) << app->name();
    }
}

} // namespace
} // namespace system
} // namespace fleet

/**
 * @file
 * Lane masks in the channel loop: a cycle's work follows the lanes
 * whose handshake can change. A quiet unbatched unit (starved,
 * output-blocked or finished) sleeps until its inputs change, a
 * batched lane costs per-lane work only when it acts or changes stall
 * class, and stall cycles are credited in bulk. Each fence here runs a
 * workload traced (every lane's phase recorded every cycle) and
 * untraced on every engine — Fast lanes take the unbatched path, Rtl
 * and RtlJit lanes the batched one — at 1 and 4 host threads, and
 * requires identical simulated results across all of them: one-shot
 * runs of every app, a non-power-of-two token width with one-burst
 * buffers, a session with retire, re-arm and deadline cancels, parity
 * containment, a watchdog trip, and an internal error halting a
 * channel. The FastPu::quiet() contract itself is checked against
 * random handshakes.
 */

#include <gtest/gtest.h>

#include <climits>
#include <stdexcept>
#include <string>

#include "apps/registry.h"
#include "fault/fault.h"
#include "lang/builder.h"
#include "report_log.h"
#include "run_fences.h"
#include "runtime/session.h"
#include "system/channel_shard.h"
#include "system/fleet_system.h"
#include "system/pu_backend.h"
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

/** Fast lanes run unbatched and sleep; Rtl and RtlJit lanes are
 * batched. */
constexpr PuBackend kEngines[] = {PuBackend::Fast, PuBackend::Rtl,
                                  PuBackend::RtlJit};

std::string
label(PuBackend engine, int threads)
{
    return std::string(puBackendName(engine)) + " at " +
           std::to_string(threads) + " threads";
}

/**
 * Run `program` over `streams` traced and untraced on every engine at
 * 1 and 4 host threads: every run must equal the untraced Fast one.
 * Returns that run's report for workload-specific checks.
 */
RunReport
expectSameOnEveryEngine(const lang::Program &program,
                        const SystemConfig &base,
                        const std::vector<BitBuffer> &streams,
                        const std::string &what)
{
    SystemConfig fast_config = base;
    fast_config.backend = PuBackend::Fast;
    fast_config.numThreads = 1;
    FleetSystem reference(program, fast_config, streams);
    reference.run();
    for (PuBackend engine : kEngines) {
        for (int threads : {1, 4}) {
            SystemConfig config = base;
            config.backend = engine;
            config.numThreads = threads;
            const std::string name = what + ", " + label(engine, threads);
            FleetSystem traced(program, withTrace(config), streams);
            traced.run();
            FleetSystem untraced(program, config, streams);
            untraced.run();
            EXPECT_NE(traced.report().trace, nullptr) << name;
            expectSameRun(traced, untraced, name);
            expectSameRun(reference, untraced, name + " vs fast");
        }
    }
    return reference.report();
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
    // starve, block and finish at different times; on every engine and
    // at 1 and 4 host threads the masked loop must decide alike.
    auto apps = apps::allApplications();
    const apps::Application &app = *apps[GetParam()];
    Rng rng(73);
    std::vector<BitBuffer> streams;
    for (int p = 0; p < 12; ++p)
        streams.push_back(app.generateStream(rng, 600 + 150 * (p % 4)));

    SystemConfig config;
    config.numChannels = 2;
    RunReport report =
        expectSameOnEveryEngine(app.program(), config, streams, app.name());
    EXPECT_TRUE(report.allOk()) << report.summary();
}

INSTANTIATE_TEST_SUITE_P(Suite, AllAppsLaneSleep, ::testing::Range(0, 6),
                         [](const auto &info) {
                             auto apps = apps::allApplications();
                             return apps[info.param]->name();
                         });

TEST(LaneSleep, OddTokenWidthWithOneBurstBuffersAgrees)
{
    // A 7-bit token does not divide the burst or the port width, and
    // one-burst buffers keep them nearly full: sub-token residues, the
    // one-token skid and the output wedge guard make the handshake
    // inputs toggle on most cycles.
    const int width = 7;
    Rng rng(37);
    std::vector<BitBuffer> streams;
    for (int p = 0; p < 12; ++p) {
        BitBuffer s;
        for (int i = 0; i < 300 + 53 * p; ++i)
            s.appendBits(rng.next(), width);
        streams.push_back(std::move(s));
    }
    SystemConfig config;
    config.numChannels = 2;
    config.inputCtrl.bufferBursts = 1;
    config.outputCtrl.bufferBursts = 1;
    RunReport report = expectSameOnEveryEngine(
        testprogs::identity(width), config, streams, "7-bit identity");
    EXPECT_TRUE(report.allOk()) << report.summary();
}

TEST(LaneSleep, SessionRetireRearmAndDeadlineCancelAgree)
{
    // Jobs outnumber slots, so slots retire and re-arm while their
    // channel-mates sleep; every other job carries a deadline shorter
    // than its service time, so some are cancelled in flight. A long
    // read latency keeps units starved, so cancels land on sleeping
    // lanes. Per-job stall slices (JobReport) must match on every
    // engine, traced or not.
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

    auto runSession = [&](bool traced, PuBackend engine, int threads) {
        runtime::SessionConfig config;
        config.system.numChannels = 2;
        config.system.numThreads = threads;
        config.system.backend = engine;
        config.system.inputRegionBytes = 4096;
        config.system.dram.readLatency = 600;
        if (traced)
            config.system = withTrace(config.system);
        config.numSlots = 8;
        config.epochCycles = 256;
        runtime::Session session(program, config);
        bench::ReportLog log;
        for (size_t j = 0; j < streams.size(); ++j) {
            uint64_t deadline = j % 2 == 1 ? 700 + 60 * j : 0;
            session.submitAt(streams[j], 0, log.sink(), deadline);
        }
        RunReport report = session.finish();
        uint64_t kills = session.deadlineKills();
        return std::make_tuple(log.all(), withoutTrace(report),
                               kills, session.system().stats());
    };
    auto expectSameSession = [](const auto &a, const auto &b,
                                const std::string &name) {
        const auto &[a_jobs, a_report, a_kills, a_stats] = a;
        const auto &[jobs, report, kills, stats] = b;
        EXPECT_EQ(a_kills, kills) << name;
        EXPECT_TRUE(a_report == report) << name;
        ASSERT_EQ(a_jobs.size(), jobs.size()) << name;
        for (size_t j = 0; j < jobs.size(); ++j) {
            // JobReport == covers the stall slice (starved, blocked).
            EXPECT_TRUE(a_jobs[j] == jobs[j]) << name << " job " << j;
        }
        ASSERT_EQ(a_stats.channels.size(), stats.channels.size()) << name;
        for (size_t c = 0; c < stats.channels.size(); ++c)
            testfence::expectSameChannelStats(
                a_stats.channels[c], stats.channels[c],
                name + " channel " + std::to_string(c));
    };

    const auto reference = runSession(false, PuBackend::Fast, 1);
    int cancelled_in_flight = 0;
    for (const runtime::JobReport &job : std::get<0>(reference)) {
        if (job.status.code == StatusCode::DeadlineExceeded && job.pu >= 0)
            ++cancelled_in_flight;
    }
    EXPECT_GT(cancelled_in_flight, 0) << "lengthen the jobs";
    for (PuBackend engine : kEngines) {
        for (int threads : {1, 4}) {
            const std::string name = label(engine, threads);
            const auto untraced = runSession(false, engine, threads);
            expectSameSession(runSession(true, engine, threads), untraced,
                              name + " traced");
            expectSameSession(reference, untraced, name + " vs fast");
        }
    }
}

TEST(LaneSleep, ParityContainmentOfSleepingLanesAgrees)
{
    // Corrupted beats contain their unit when the beat reaches a burst
    // register — typically while the unit sleeps, starved for that very
    // burst. The containment must credit its stall cycles up to the
    // same cycle on every engine.
    fault::FaultPlan plan;
    plan.seed = 4242;
    plan.corruptBeatPerMillion = 20000;

    auto program = testprogs::identity();
    auto streams = randomStreams(16, 2048, 17);
    SystemConfig config;
    config.numChannels = 2;
    config.faults = plan;

    RunReport report =
        expectSameOnEveryEngine(program, config, streams, "parity");
    int contained = 0;
    for (const PuOutcome &pu : report.pus)
        contained += pu.status.code == StatusCode::ParityError;
    EXPECT_GT(contained, 0) << "re-pick the seed, not the rate";
    EXPECT_LT(contained, static_cast<int>(report.pus.size()));
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
    // starved and blocked cycles: every lane must be credited before it
    // is written, and the dump (part of the report) must agree.
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

    RunReport report =
        expectSameOnEveryEngine(filterUnit(), config, streams, "watchdog");
    ASSERT_EQ(report.channels.size(), 1u);
    ASSERT_EQ(report.channels[0].status.code, StatusCode::WatchdogStall)
        << report.summary();
}

/** A FastPu that is never quiet and throws from eval() on a chosen
 * cycle, as an internal failure escaping a unit would. */
class FailingPu : public ProcessingUnit
{
  public:
    FailingPu(const lang::Program &program, int fail_at)
        : inner_(program), failAt_(fail_at)
    {
    }
    Status arm(const BitBuffer &stream) override
    {
        return inner_.arm(stream);
    }
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
    // A unit that throws from eval() halts the channel. Phase 2
    // evaluates every awake unit before any handshake acts, so the
    // failure abandons the whole cycle: no lane counts it, sleeping or
    // not, on either side of the failing unit — exactly as if the run
    // had stopped at the cycle limit there. Failing at many cycles
    // puts sleepers on both sides.
    auto program = testprogs::identity();
    auto streams = randomStreams(5, 2048, 29);
    const int failing = 2;
    auto runShard = [&](bool traced, int fail_at,
                        uint64_t max_cycles = 1 << 20) {
        memctl::ControllerParams in_params, out_params;
        out_params.blockingAddressing = false;
        std::vector<memctl::StreamRegion> inputs, outputs;
        uint64_t base = 0;
        for (size_t l = 0; l < streams.size(); ++l) {
            inputs.push_back({base, 4096, 0});
            outputs.push_back({base + 4096, 4096, 0});
            base += 8192;
        }
        trace::TraceConfig trace_config;
        trace_config.counters = traced;
        ChannelShard shard(0, dram::DramParams{}, in_params, out_params,
                           inputs, outputs, base, fault::FaultPlan{},
                           trace_config);
        for (size_t l = 0; l < streams.size(); ++l) {
            std::unique_ptr<ProcessingUnit> pu;
            if (int(l) == failing)
                pu = std::make_unique<FailingPu>(program, fail_at);
            else
                pu = std::make_unique<FastPu>(program);
            shard.addPu(std::move(pu), int(l));
        }
        // Arm every lane as FleetSystem does: upload, arm the unit,
        // re-arm the lane.
        shard.beginRun(8, 8, max_cycles, 100000);
        for (size_t l = 0; l < streams.size(); ++l) {
            auto bytes = streams[l].toBytes();
            std::copy(bytes.begin(), bytes.end(),
                      shard.channel().memory().begin() +
                          inputs[l].baseAddr);
            EXPECT_TRUE(shard.armUnit(int(l), streams[l]).ok());
            shard.rearmPu(int(l), streams[l].sizeBits(), l);
        }
        shard.step(UINT64_MAX);
        ChannelOutcome outcome = shard.finishRun();
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
        auto [limit_outcome, limit_stats] =
            runShard(false, INT_MAX, uint64_t(fail_at));
        EXPECT_EQ(limit_outcome.status.code,
                  StatusCode::CycleLimitExceeded);
        for (size_t l = 0; l < stats.size(); ++l) {
            const std::string name = "fail at " + std::to_string(fail_at) +
                                     ", PU " + std::to_string(l);
            testfence::expectSamePuStats(traced_stats[l], stats[l], name);
            testfence::expectSamePuStats(limit_stats[l], stats[l],
                                         name + " vs cycle limit");
        }
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
        FastPu pu(app->program());
        ASSERT_TRUE(pu.arm(stream).ok()) << app->name();
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

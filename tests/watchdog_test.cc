/**
 * @file
 * Forward-progress watchdog (ISSUE 2): a processing unit that spins
 * forever inside a `while` must trip the per-channel watchdog and
 * produce a diagnostic dump naming the stuck unit and its stall
 * reason — while fault-free applications never trip it, and the cycle
 * limit is likewise a contained outcome rather than an exception.
 */

#include <gtest/gtest.h>

#include <string>

#include "apps/registry.h"
#include "lang/builder.h"
#include "system/fleet_system.h"
#include "test_programs.h"
#include "trace/taxonomy.h"
#include "util/rng.h"

namespace fleet {
namespace system {
namespace {

using lang::ProgramBuilder;
using lang::Value;

/** Spins forever in a while loop on the first token: the loop body
 * never changes the (false) exit condition. */
lang::Program
infiniteWhileUnit()
{
    ProgramBuilder b("spin", 8, 8);
    Value stuck = b.reg("stuck", 1, 0);
    b.while_(stuck == 0, [&] { b.assign(stuck, Value::lit(0, 1)); });
    return b.finish();
}

TEST(Watchdog, InfiniteWhileProgramTripsWatchdog)
{
    // Rtl backend: the fast model's pre-run would stop at the per-token
    // loop bound and refuse the stream at arm time; the RTL unit spins,
    // the class of hang the watchdog exists to catch at the system
    // level.
    SystemConfig config;
    config.numChannels = 1;
    config.backend = PuBackend::Rtl;
    config.watchdogCycles = 2000;

    std::vector<BitBuffer> streams(1);
    for (int i = 0; i < 8; ++i)
        streams[0].appendBits(i, 8);

    FleetSystem fleet(infiniteWhileUnit(), config, streams);
    const RunReport &report = fleet.run();

    EXPECT_FALSE(report.allOk());
    ASSERT_EQ(report.channels.size(), 1u);
    const Status &status = report.channels[0].status;
    EXPECT_EQ(status.code, StatusCode::WatchdogStall);
    // The dump names the stuck unit and classifies its stall with the
    // shared taxonomy (trace/taxonomy.h): the unit neither consumes
    // nor produces, i.e. it spins internally.
    EXPECT_NE(status.message.find("PU 0"), std::string::npos)
        << status.message;
    EXPECT_NE(status.message.find(std::string(trace::stallCauseName(
                  trace::StallCause::InternalSpin))),
              std::string::npos)
        << status.message;
    EXPECT_NE(status.message.find("no forward progress"),
              std::string::npos)
        << status.message;
    ASSERT_EQ(report.pus.size(), 1u);
    EXPECT_EQ(report.pus[0].status.code, StatusCode::WatchdogStall);
    // The hang was contained: cycles reflect an early stop, not the
    // 2^40-cycle default limit.
    EXPECT_LT(report.channels[0].cycles, uint64_t(100000));
}

TEST(Watchdog, HealthyChannelUnaffectedByStuckChannel)
{
    // Two channels: PUs on channel 0 spin forever, PUs on channel 1 run
    // identity. The stuck channel reports WatchdogStall; the healthy
    // channel completes with correct output — per-channel containment.
    SystemConfig config;
    config.numChannels = 2;
    config.backend = PuBackend::Rtl;
    config.watchdogCycles = 2000;

    // PU 0 -> channel 0, PU 1 -> channel 1 (round-robin assignment).
    // A single program runs on all PUs, so make the spin data-dependent:
    // token 0xff enters an infinite loop, anything else is echoed.
    ProgramBuilder b("spin_on_ff", 8, 8);
    Value stuck = b.reg("stuck", 1, 0);
    b.if_(!b.streamFinished(), [&] {
        b.while_((stuck == 0) && (b.input() == 0xff),
                 [&] { b.assign(stuck, Value::lit(0, 1)); });
        b.emit(b.input());
    });
    auto program = b.finish();

    std::vector<BitBuffer> streams(2);
    streams[0].appendBits(0xff, 8); // Spins forever.
    for (int i = 0; i < 16; ++i)
        streams[1].appendBits(i + 1, 8); // Healthy echo.

    FleetSystem fleet(program, config, streams);
    const RunReport &report = fleet.run();

    ASSERT_EQ(report.channels.size(), 2u);
    EXPECT_EQ(report.channels[0].status.code, StatusCode::WatchdogStall);
    EXPECT_TRUE(report.channels[1].ok());
    EXPECT_EQ(report.pus[0].status.code, StatusCode::WatchdogStall);
    EXPECT_EQ(report.pus[1].status.code, StatusCode::Ok);
    EXPECT_TRUE(fleet.output(1) == streams[1]);
}

TEST(Watchdog, FaultFreeAppsNeverTrip)
{
    // Every registry application under the default watchdog completes
    // without tripping it, on both thread modes.
    auto apps = apps::allApplications();
    for (const auto &app : apps) {
        Rng rng(61);
        std::vector<BitBuffer> streams;
        for (int p = 0; p < 4; ++p)
            streams.push_back(app->generateStream(rng, 1200));
        SystemConfig config;
        config.numChannels = 2;
        FleetSystem fleet(app->program(), config, streams);
        const RunReport &report = fleet.run();
        EXPECT_TRUE(report.allOk()) << app->name() << ": "
                                    << report.summary();
    }
}

TEST(Watchdog, ThresholdScalesWithArmedJobSize)
{
    // ISSUE 7 regression: a fixed watchdog threshold that is sane for
    // small jobs false-trips on a large job whose DRAM reads are hit
    // by injected latency spikes — each spike stalls the channel
    // longer than the fixed threshold even though the unit is making
    // forward progress between spikes. watchdogStreamFactor scales
    // the effective threshold with the largest armed stream, so the
    // same storm completes; factor 0 keeps the legacy fixed budget.
    SystemConfig config;
    config.numChannels = 1;
    config.watchdogCycles = 150;
    config.inputRegionBytes = 8192;
    config.faults.seed = 5;
    config.faults.latencySpikePermille = 1000; // every read spiked
    config.faults.latencySpikeCycles = 400;

    std::vector<BitBuffer> streams(1);
    Rng rng(67);
    for (int i = 0; i < 2048; ++i)
        streams[0].appendBits(rng.next(), 8);

    {
        FleetSystem fixed(testprogs::identity(), config, streams);
        const RunReport &report = fixed.run();
        ASSERT_EQ(report.channels.size(), 1u);
        EXPECT_EQ(report.channels[0].status.code,
                  StatusCode::WatchdogStall)
            << "fixed threshold should false-trip under the spikes: "
            << report.summary();
    }
    {
        SystemConfig scaled = config;
        scaled.watchdogStreamFactor = 1.0; // budget >= 2048 cycles
        FleetSystem fleet(testprogs::identity(), scaled, streams);
        const RunReport &report = fleet.run();
        EXPECT_TRUE(report.allOk()) << report.summary();
        EXPECT_TRUE(fleet.output(0) == streams[0]);
    }
}

TEST(Watchdog, CycleLimitIsContainedOutcome)
{
    // An impossibly small maxCycles ends the run with a
    // CycleLimitExceeded outcome instead of an exception.
    SystemConfig config;
    config.numChannels = 1;
    config.maxCycles = 50;

    std::vector<BitBuffer> streams(1);
    for (int i = 0; i < 512; ++i)
        streams[0].appendBits(i, 8);

    FleetSystem fleet(testprogs::identity(), config, streams);
    const RunReport &report = fleet.run();
    EXPECT_FALSE(report.allOk());
    EXPECT_EQ(report.channels[0].status.code,
              StatusCode::CycleLimitExceeded);
    EXPECT_EQ(report.channels[0].cycles, 50u);
}

} // namespace
} // namespace system
} // namespace fleet

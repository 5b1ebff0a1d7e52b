#include <gtest/gtest.h>

#include <fstream>

#include "lang/builder.h"
#include "lang/stdlib.h"
#include "sim/simulator.h"
#include "system/fleet_system.h"
#include "system/pu_fast.h"
#include "system/pu_rtl.h"
#include "system/pu_testbench.h"
#include "test_programs.h"
#include "util/loc.h"
#include "util/rng.h"

namespace fleet {
namespace {

using lang::Bram;
using lang::ProgramBuilder;
using lang::Value;

// ---------------------------------------------------------------------------
// BitPacker library component.
// ---------------------------------------------------------------------------

TEST(BitPacker, PacksVariableWidthFields)
{
    // Pack each input token at a data-dependent width (its low 3 bits
    // select 1..8 bits), then flush at end of stream: a miniature of the
    // integer coder's emission loop.
    ProgramBuilder b("pack", 8, 8);
    lang::lib::BitPacker packer(b, "pk", 8, 64);
    Value flushed = b.reg("flushed", 1, 0);
    // Drain whole output bytes in loop virtual cycles, then append the
    // current token's field in the consuming cycle.
    b.while_(packer.hasToken(), [&] { packer.emitToken(); });
    b.if_(!b.streamFinished(), [&] {
        Value bits = (b.input().slice(2, 0).resize(4) + 1).resize(4);
        Value masked =
            b.input() & ~((Value::lit(0xff, 8) << bits).resize(8));
        packer.push(masked, bits);
    }).elseIf(packer.pending() && flushed == 0, [&] {
        packer.emitPadded();
        b.assign(flushed, Value::lit(1, 1));
    });
    auto program = b.finish();

    // Reference packing.
    Rng rng(9);
    BitBuffer input, expected_bits;
    for (int i = 0; i < 200; ++i) {
        uint64_t v = rng.nextBelow(256);
        input.appendBits(v, 8);
        int bits = int(v & 7) + 1;
        expected_bits.appendBits(v & mask64(bits), bits);
    }
    expected_bits.padToMultipleOf(8);

    sim::FunctionalSimulator simulator(program);
    auto result = simulator.run(input);
    // The packer only flushes during stream_finished; tokens still in
    // flight when the cleanup cycle ends are expected to have been
    // drained by the while-free structure... here emission is gated on
    // hasToken during the stream, so at most 7 bits remain and one
    // padded byte covers them.
    EXPECT_TRUE(result.output == expected_bits)
        << result.output.sizeBits() << " vs " << expected_bits.sizeBits();
}

TEST(BitPacker, BadTokenWidthRejected)
{
    ProgramBuilder b("bad", 8, 8);
    EXPECT_THROW(lang::lib::BitPacker(b, "pk", 0, 64), FatalError);
    EXPECT_THROW(lang::lib::BitPacker(b, "pk2", 65, 64), FatalError);
}

// ---------------------------------------------------------------------------
// Relaxed dependent-read rule: BRAM read in a while condition
// (single-address BRAM) must agree across all three backends.
// ---------------------------------------------------------------------------

TEST(RelaxedReads, WhileConditionBramReadCrossCheck)
{
    // Linked-list walk: each token selects a list head; the while loop
    // follows next-pointers stored in a BRAM until it hits zero,
    // counting steps. The while condition reads the BRAM.
    ProgramBuilder b("chase", 8, 8);
    Bram next = b.bram("next", 16, 4);
    Value cursor = b.reg("cursor", 4, 0);
    Value steps = b.reg("steps", 8, 0);
    Value init = b.reg("init", 5, 0);

    b.if_(init < 16, [&] {
        // Config: first 16 tokens fill the next-pointer table.
        b.assign(next[init.resize(4)], b.input().slice(3, 0));
        b.assign(init, init + 1);
    }).else_([&] {
        b.while_(next[cursor] != 0, [&] {
            b.assign(cursor, next[cursor]);
            b.assign(steps, (steps + 1).resize(8));
        });
        b.if_(!b.streamFinished(), [&] {
            b.emit(steps);
            b.assign(steps, Value::lit(0, 8));
            b.assign(cursor, b.input().slice(3, 0));
        });
    });
    auto program = b.finish();

    // Acyclic pointer table (entry i points to something < i, or 0).
    Rng rng(10);
    BitBuffer input;
    input.appendBits(0, 8);
    for (int i = 1; i < 16; ++i)
        input.appendBits(rng.nextBelow(i), 8);
    for (int i = 0; i < 120; ++i)
        input.appendBits(rng.nextBelow(16), 8);

    sim::FunctionalSimulator functional(program);
    auto golden = functional.run(input);
    EXPECT_GT(golden.emits, 0u);

    system::RtlPu rtl_pu(program);
    system::FastPu fast_pu(program);
    for (double ready : {1.0, 0.6}) {
        system::TestbenchOptions options{1.0, ready, 5};
        auto rtl_result = system::runPu(rtl_pu, input, options);
        auto fast_result = system::runPu(fast_pu, input, options);
        ASSERT_TRUE(rtl_result.output == golden.output);
        ASSERT_EQ(rtl_result.cycles, fast_result.cycles);
    }
}

// ---------------------------------------------------------------------------
// FleetSystem robustness.
// ---------------------------------------------------------------------------

TEST(FleetSystemRobustness, WatchdogDetectsDeadlock)
{
    // Blocking output addressing + divergent output rates deadlocks (see
    // bench/ablation_memctl.cc); the watchdog must report it — as a
    // contained WatchdogStall outcome with a diagnostic dump, not an
    // exception — instead of spinning forever.
    ProgramBuilder b("filter", 8, 8);
    Value threshold = b.reg("threshold", 8, 0);
    Value configured = b.reg("configured", 1, 0);
    b.if_(!b.streamFinished(), [&] {
        b.if_(configured == 0, [&] {
            b.assign(threshold, b.input());
            b.assign(configured, Value::lit(1, 1));
        }).elseIf(b.input() < threshold, [&] { b.emit(b.input()); });
    });
    auto program = b.finish();

    system::SystemConfig config;
    config.numChannels = 1;
    config.outputCtrl.blockingAddressing = true;
    config.watchdogCycles = 20000;
    Rng rng(11);
    std::vector<BitBuffer> streams;
    for (int p = 0; p < 8; ++p) {
        BitBuffer stream;
        stream.appendBits(p % 2 == 0 ? 2 : 250, 8);
        for (int i = 0; i < 20000; ++i)
            stream.appendBits(rng.next(), 8);
        streams.push_back(std::move(stream));
    }
    system::FleetSystem fleet_system(program, config, streams);
    const auto &report = fleet_system.run();
    EXPECT_FALSE(report.allOk());
    ASSERT_EQ(report.channels.size(), 1u);
    EXPECT_EQ(report.channels[0].status.code, StatusCode::WatchdogStall);
    // The dump classifies the stuck units: the heavy filters wedge on a
    // full output buffer behind the blocked addressing unit.
    EXPECT_NE(report.channels[0].status.message.find("output-blocked"),
              std::string::npos);
    // Stranded PUs inherit the channel status; partial outputs are
    // still readable.
    for (int p = 0; p < 8; ++p) {
        EXPECT_EQ(report.pus[p].status.code, StatusCode::WatchdogStall);
        EXPECT_NO_THROW(fleet_system.output(p));
    }
}

TEST(FleetSystemRobustness, OutputBeforeRunRejected)
{
    std::vector<BitBuffer> streams(1);
    streams[0].appendBits(1, 8);
    system::FleetSystem fleet_system(testprogs::identity(),
                                     system::SystemConfig{}, streams);
    // Stale-access misuse is a structured InvalidState error (ISSUE 5),
    // not a process abort.
    try {
        fleet_system.output(0);
        FAIL() << "output() before run() should throw";
    } catch (const StatusError &error) {
        EXPECT_EQ(error.status().code, StatusCode::InvalidState);
    }
    try {
        fleet_system.report();
        FAIL() << "report() before run() should throw";
    } catch (const StatusError &error) {
        EXPECT_EQ(error.status().code, StatusCode::InvalidState);
    }
}

TEST(FleetSystemRobustness, DoubleRunRejected)
{
    std::vector<BitBuffer> streams(1);
    streams[0].appendBits(1, 8);
    system::FleetSystem fleet_system(testprogs::identity(),
                                     system::SystemConfig{}, streams);
    ASSERT_TRUE(fleet_system.run().allOk());
    BitBuffer first = fleet_system.output(0);
    // A second run() is refused with InvalidState — re-running in place
    // would clobber the first run's report and output regions.
    try {
        fleet_system.run();
        FAIL() << "run() called twice should throw";
    } catch (const StatusError &error) {
        EXPECT_EQ(error.status().code, StatusCode::InvalidState);
    }
    // The first run's results survive the refused re-run.
    EXPECT_TRUE(fleet_system.report().allOk());
    EXPECT_EQ(fleet_system.output(0), first);
}

TEST(FleetSystemRobustness, SessionApiOnOneShotSystemRejected)
{
    std::vector<BitBuffer> streams(1);
    streams[0].appendBits(1, 8);
    system::FleetSystem fleet_system(testprogs::identity(),
                                     system::SystemConfig{}, streams);
    BitBuffer job;
    job.appendBits(2, 8);
    Status armed = fleet_system.armJob(0, job, 0);
    EXPECT_EQ(armed.code, StatusCode::InvalidState);
    EXPECT_THROW(fleet_system.finishSession(), StatusError);
}

TEST(FleetSystemRobustness, MisalignedStreamRejected)
{
    std::vector<BitBuffer> streams(1);
    streams[0].appendBits(1, 5); // not a whole 8-bit token
    EXPECT_THROW(system::FleetSystem(testprogs::identity(),
                                     system::SystemConfig{}, streams),
                 FatalError);
}

TEST(FastPuRobustness, OverfeedPanics)
{
    BitBuffer stream;
    stream.appendBits(0xab, 8);
    system::FastPu pu(testprogs::identity());
    ASSERT_TRUE(pu.arm(stream).ok());
    auto feed = [&] {
        system::PuInputs in;
        in.inputValid = true;
        in.inputToken = 0xab;
        in.outputReady = true;
        for (int cycle = 0; cycle < 10; ++cycle) {
            pu.eval(in);
            pu.step();
        }
    };
    EXPECT_THROW(feed(), PanicError);
}

// ---------------------------------------------------------------------------
// Utility coverage.
// ---------------------------------------------------------------------------

TEST(LocRegion, CountsFunctionBody)
{
    std::string path = std::string("/tmp/fleet_loc_region_test.cc");
    std::ofstream out(path);
    out << "// header comment\n"
           "int before() { return 1; }\n"
           "int\n"
           "target_function(int x)\n"
           "{\n"
           "    // inner comment\n"
           "    const char *s = \"} not a close\";\n"
           "    if (x) {\n"
           "        return 2;\n"
           "    }\n"
           "    return 3;\n"
           "}\n"
           "int after() { return 4; }\n";
    out.close();
    // Body braces: {, string line, if {, return, }, return, } = code
    // lines excluding the comment.
    EXPECT_EQ(countRegionLines(path, "target_function"), 7);
    EXPECT_THROW(countRegionLines(path, "missing_marker"), FatalError);
}

TEST(LocRegion, UnbalancedBracesRejected)
{
    std::string path = "/tmp/fleet_loc_region_bad.cc";
    std::ofstream out(path);
    out << "void f() { int x = 1;\n"; // never closed
    out.close();
    EXPECT_THROW(countRegionLines(path, "f()"), FatalError);
}

} // namespace
} // namespace fleet

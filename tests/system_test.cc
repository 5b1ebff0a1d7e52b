#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "system/fleet_system.h"
#include "system/pu_backend.h"
#include "run_fences.h"
#include "test_programs.h"
#include "util/rng.h"

namespace fleet {
namespace system {
namespace {

std::vector<BitBuffer>
randomStreams(int count, int token_width, int min_tokens, int max_tokens,
              uint64_t seed)
{
    Rng rng(seed);
    std::vector<BitBuffer> streams;
    for (int p = 0; p < count; ++p) {
        int tokens = min_tokens +
                     static_cast<int>(rng.nextBelow(
                         uint64_t(max_tokens - min_tokens + 1)));
        BitBuffer stream;
        for (int t = 0; t < tokens; ++t)
            stream.appendBits(rng.next(), token_width);
        streams.push_back(std::move(stream));
    }
    return streams;
}

SystemConfig
smallConfig()
{
    SystemConfig config;
    config.numChannels = 2;
    config.dram.readLatency = 20;
    return config;
}

void
expectOutputsMatchFunctional(const lang::Program &program,
                             const std::vector<BitBuffer> &streams,
                             FleetSystem &system)
{
    sim::FunctionalSimulator functional(program);
    for (size_t p = 0; p < streams.size(); ++p) {
        sim::RunResult golden = functional.run(streams[p]);
        ASSERT_TRUE(system.output(p) == golden.output)
            << "PU " << p << " output mismatch";
    }
}

TEST(FleetSystem, IdentityEndToEnd)
{
    auto program = testprogs::identity();
    auto streams = randomStreams(7, 8, 100, 900, 21);
    FleetSystem system(program, smallConfig(), streams);
    system.run();
    expectOutputsMatchFunctional(program, streams, system);
    auto stats = system.stats();
    EXPECT_GT(stats.cycles, 0u);
    EXPECT_EQ(stats.inputBytes, stats.outputBytes);
}

TEST(FleetSystem, HistogramEndToEnd)
{
    auto program = testprogs::blockFrequencies(64);
    // Streams a multiple of the block size.
    std::vector<BitBuffer> streams;
    Rng rng(22);
    for (int p = 0; p < 5; ++p) {
        BitBuffer s;
        int blocks = 1 + static_cast<int>(rng.nextBelow(4));
        for (int t = 0; t < 64 * blocks; ++t)
            s.appendBits(rng.nextBelow(32), 8);
        streams.push_back(std::move(s));
    }
    FleetSystem system(program, smallConfig(), streams);
    system.run();
    expectOutputsMatchFunctional(program, streams, system);
}

TEST(FleetSystem, StreamSumManyPus)
{
    auto program = testprogs::streamSum();
    auto streams = randomStreams(33, 8, 10, 400, 23);
    FleetSystem system(program, smallConfig(), streams);
    system.run();
    expectOutputsMatchFunctional(program, streams, system);
    // Each PU emits exactly one 32-bit sum.
    for (int p = 0; p < system.numPus(); ++p)
        EXPECT_EQ(system.output(p).sizeBits(), 32u);
}

TEST(FleetSystem, EmptyAndTinyStreams)
{
    auto program = testprogs::identity();
    std::vector<BitBuffer> streams(4);
    streams[1].appendBits(0xab, 8);
    // streams[0], [2] empty; [3] has a few tokens.
    for (int t = 0; t < 5; ++t)
        streams[3].appendBits(t, 8);
    FleetSystem system(program, smallConfig(), streams);
    system.run();
    expectOutputsMatchFunctional(program, streams, system);
    EXPECT_EQ(system.output(0).sizeBits(), 0u);
    EXPECT_EQ(system.output(1).sizeBits(), 8u);
}

TEST(FleetSystem, SkewedStreamSizes)
{
    // The paper notes streams should be similar in size since there is no
    // load balancing; completion time tracks the largest stream. Verify
    // correctness under skew.
    auto program = testprogs::identity();
    std::vector<BitBuffer> streams;
    Rng rng(25);
    for (int p = 0; p < 4; ++p) {
        BitBuffer s;
        int tokens = p == 0 ? 4000 : 50;
        for (int t = 0; t < tokens; ++t)
            s.appendBits(rng.next(), 8);
        streams.push_back(std::move(s));
    }
    FleetSystem system(program, smallConfig(), streams);
    system.run();
    expectOutputsMatchFunctional(program, streams, system);
}

TEST(FleetSystem, RtlAndFastBackendsAgreeExactly)
{
    auto program = testprogs::blockFrequencies(32);
    std::vector<BitBuffer> streams;
    Rng rng(26);
    for (int p = 0; p < 4; ++p) {
        BitBuffer s;
        for (int t = 0; t < 32 * 3; ++t)
            s.appendBits(rng.nextBelow(16), 8);
        streams.push_back(std::move(s));
    }

    SystemConfig fast_config = smallConfig();
    fast_config.backend = PuBackend::Fast;
    FleetSystem fast_system(program, fast_config, streams);
    fast_system.run();

    SystemConfig rtl_config = smallConfig();
    rtl_config.backend = PuBackend::Rtl;
    FleetSystem rtl_system(program, rtl_config, streams);
    rtl_system.run();

    // The fast model must be cycle-exact against interpreted RTL at the
    // full-system level, not just in isolation. Fast lanes sleep while
    // quiet and credit their stall cycles in bulk; the batched RTL
    // lanes never sleep, so the stall counters, channel stats and
    // report must agree too.
    EXPECT_EQ(fast_system.stats().cycles, rtl_system.stats().cycles);
    testfence::expectSameRun(fast_system, rtl_system, "Fast vs Rtl");
    expectOutputsMatchFunctional(program, streams, fast_system);
}

TEST(PuBackendNames, ParseRoundTripsEveryBackend)
{
    const PuBackend all[] = {PuBackend::Fast, PuBackend::Rtl,
                             PuBackend::RtlJit, PuBackend::RtlInterp};
    for (PuBackend b : all) {
        std::optional<PuBackend> parsed = parsePuBackend(puBackendName(b));
        ASSERT_TRUE(parsed.has_value()) << puBackendName(b);
        EXPECT_EQ(*parsed, b) << puBackendName(b);
    }
    EXPECT_EQ(std::string(kPuBackendChoices), "fast|rtl|rtlinterp|rtljit");
    // Spellings are case- and separator-insensitive.
    EXPECT_EQ(parsePuBackend("RTL-Interp"), PuBackend::RtlInterp);
    EXPECT_EQ(parsePuBackend("rtl_jit"), PuBackend::RtlJit);
    // Names of no backend are rejected, not mapped to a neighbour.
    EXPECT_FALSE(parsePuBackend("rtltape").has_value());
    EXPECT_FALSE(parsePuBackend("tape").has_value());
    EXPECT_FALSE(parsePuBackend("rtl-tape").has_value());
}

TEST(FleetSystem, WideTokensEndToEnd)
{
    // 32-bit tokens exercise portWidth == tokenWidth paths.
    auto program = testprogs::streamSum(32, 64);
    auto streams = randomStreams(6, 32, 64, 256, 27);
    FleetSystem system(program, smallConfig(), streams);
    system.run();
    expectOutputsMatchFunctional(program, streams, system);
}

TEST(FleetSystem, SingleChannelSinglePu)
{
    SystemConfig config = smallConfig();
    config.numChannels = 1;
    auto program = testprogs::identity();
    auto streams = randomStreams(1, 8, 2000, 2000, 28);
    FleetSystem system(program, config, streams);
    system.run();
    expectOutputsMatchFunctional(program, streams, system);
}

TEST(FleetSystem, ThroughputScalesWithPus)
{
    // More PUs per channel should increase aggregate throughput until the
    // memory system saturates.
    auto program = testprogs::dropAll();
    auto run_gbps = [&](int pus) {
        auto streams = randomStreams(pus, 32, 4096, 4096, 29);
        SystemConfig config;
        config.numChannels = 1;
        FleetSystem system(program, config, streams);
        system.run();
        return system.stats().inputGBps();
    };
    double one = run_gbps(1);
    double four = run_gbps(4);
    double sixteen = run_gbps(16);
    EXPECT_GT(four, 1.9 * one);
    EXPECT_GT(sixteen, 1.9 * four);
}

} // namespace
} // namespace system
} // namespace fleet

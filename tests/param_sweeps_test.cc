#include <gtest/gtest.h>

#include <type_traits>

#include "apps/bloom.h"
#include "apps/dtree.h"
#include "apps/intcode.h"
#include "apps/regex.h"
#include "apps/sw.h"
#include "sim/simulator.h"
#include "system/fleet_system.h"
#include "test_programs.h"
#include "util/rng.h"

namespace fleet {
namespace {

// ---------------------------------------------------------------------------
// Full-system configuration grid: every (channels, burst registers,
// backend, blocking-mode) combination must deliver bit-correct outputs.
// ---------------------------------------------------------------------------

struct SystemGridParam
{
    int channels;
    int burstRegs;
    system::PuBackend backend;
    /** Nonzero: blocking output addressing. An int, not a bool, so the
     * struct has no padding: ctest lists each instance with a dump of
     * the parameter's bytes, and padding bytes differ between builds. */
    int blockingOutput;
    int bufferBursts = 1;
};
static_assert(std::has_unique_object_representations_v<SystemGridParam>,
              "padding would make the listed test names build-dependent");

class SystemGrid : public ::testing::TestWithParam<SystemGridParam>
{
};

TEST_P(SystemGrid, HistogramCorrectEverywhere)
{
    auto param = GetParam();
    auto program = testprogs::blockFrequencies(32);
    Rng rng(31);
    std::vector<BitBuffer> streams;
    for (int p = 0; p < param.channels * 3; ++p) {
        BitBuffer stream;
        for (int t = 0; t < 32 * 4; ++t)
            stream.appendBits(rng.nextBelow(64), 8);
        streams.push_back(std::move(stream));
    }

    system::SystemConfig config;
    config.numChannels = param.channels;
    config.inputCtrl.numBurstRegs = param.burstRegs;
    config.outputCtrl.numBurstRegs = param.burstRegs;
    config.outputCtrl.blockingAddressing = param.blockingOutput;
    config.inputCtrl.bufferBursts = param.bufferBursts;
    config.outputCtrl.bufferBursts = param.bufferBursts;
    config.backend = param.backend;
    config.dram.readLatency = 25;

    system::FleetSystem fleet_system(program, config, streams);
    fleet_system.run();

    sim::FunctionalSimulator functional(program);
    for (size_t p = 0; p < streams.size(); ++p) {
        ASSERT_TRUE(fleet_system.output(p) ==
                    functional.run(streams[p]).output)
            << "PU " << p;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SystemGrid,
    ::testing::Values(
        SystemGridParam{1, 1, system::PuBackend::Fast, false},
        SystemGridParam{1, 16, system::PuBackend::Fast, false},
        SystemGridParam{2, 4, system::PuBackend::Fast, false},
        SystemGridParam{4, 16, system::PuBackend::Fast, false},
        SystemGridParam{2, 16, system::PuBackend::Fast, true},
        SystemGridParam{1, 2, system::PuBackend::Rtl, false},
        SystemGridParam{2, 16, system::PuBackend::Rtl, true},
        SystemGridParam{2, 8, system::PuBackend::Fast, false, 2},
        SystemGridParam{1, 16, system::PuBackend::Fast, false, 4}),
    [](const auto &info) {
        const auto &p = info.param;
        return "ch" + std::to_string(p.channels) + "_r" +
               std::to_string(p.burstRegs) + "_" +
               (p.backend == system::PuBackend::Rtl ? "rtl" : "fast") +
               (p.blockingOutput ? "_blocking" : "_nonblocking") + "_buf" +
               std::to_string(p.bufferBursts);
    });

// ---------------------------------------------------------------------------
// Application parameter sweeps: the units are generators, so parameter
// variants must stay golden-correct.
// ---------------------------------------------------------------------------

class SwLengths : public ::testing::TestWithParam<int>
{
};

TEST_P(SwLengths, GoldenAcrossTargetLengths)
{
    apps::SwParams params;
    params.targetLen = GetParam();
    apps::SwApp app(params);
    Rng rng(41);
    BitBuffer stream = app.generateStream(rng, 3000);
    sim::FunctionalSimulator simulator(app.program());
    EXPECT_TRUE(simulator.run(stream).output == app.golden(stream));
}

INSTANTIATE_TEST_SUITE_P(Lengths, SwLengths,
                         ::testing::Values(4, 8, 16, 24));

class BloomShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(BloomShapes, GoldenAcrossFilterShapes)
{
    auto [block, bits, hashes] = GetParam();
    apps::BloomParams params;
    params.blockItems = block;
    params.filterBits = bits;
    params.numHashes = hashes;
    apps::BloomApp app(params);
    Rng rng(43);
    BitBuffer stream = app.generateStream(rng, uint64_t(block) * 4 * 2);
    sim::FunctionalSimulator simulator(app.program());
    EXPECT_TRUE(simulator.run(stream).output == app.golden(stream));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BloomShapes,
    ::testing::Values(std::make_tuple(64, 1024, 4),
                      std::make_tuple(512, 4096, 8),
                      std::make_tuple(128, 8192, 12),
                      std::make_tuple(256, 2048, 2)));

class IntcodeRanges : public ::testing::TestWithParam<int>
{
};

TEST_P(IntcodeRanges, GoldenAndRoundTripAcrossRanges)
{
    apps::IntcodeApp app(apps::IntcodeParams{GetParam()});
    Rng rng(47);
    BitBuffer stream = app.generateStream(rng, 2048);
    sim::FunctionalSimulator simulator(app.program());
    BitBuffer encoded = simulator.run(stream).output;
    ASSERT_TRUE(encoded == app.golden(stream));
    auto decoded = apps::IntcodeApp::decode(encoded);
    uint64_t count = stream.sizeBits() / 32;
    ASSERT_EQ(decoded.size(), count);
    for (uint64_t i = 0; i < count; ++i)
        ASSERT_EQ(decoded[i], stream.readBits(i * 32, 32));
}

INSTANTIATE_TEST_SUITE_P(Ranges, IntcodeRanges,
                         ::testing::Values(1, 5, 10, 15, 20, 25, 31, 32));

class DtreeShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(DtreeShapes, GoldenAcrossEnsembleShapes)
{
    auto [trees, depth, features] = GetParam();
    apps::DtreeParams params;
    params.genTrees = trees;
    params.genDepth = depth;
    params.genFeatures = features;
    apps::DtreeApp app(params);
    Rng rng(53);
    BitBuffer stream = app.generateStream(rng, 4000);
    sim::FunctionalSimulator simulator(app.program());
    EXPECT_TRUE(simulator.run(stream).output == app.golden(stream));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DtreeShapes,
    ::testing::Values(std::make_tuple(1, 1, 1),
                      std::make_tuple(2, 8, 4),
                      std::make_tuple(16, 5, 12),
                      std::make_tuple(8, 3, 64)));

class RegexPatterns : public ::testing::TestWithParam<const char *>
{
};

TEST_P(RegexPatterns, GoldenAcrossPatterns)
{
    apps::RegexApp app(apps::RegexParams{GetParam()});
    Rng rng(59);
    BitBuffer stream = app.generateStream(rng, 2500);
    sim::FunctionalSimulator simulator(app.program());
    EXPECT_TRUE(simulator.run(stream).output == app.golden(stream));
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, RegexPatterns,
    ::testing::Values("[\\w.+-]+@[\\w.-]+\\.[\\w.-]+", "warning",
                      "(for|from) user", "fail(ed)?", "[a-z]+@[a-z]+",
                      "a(b|c)*d?e"));

} // namespace
} // namespace fleet

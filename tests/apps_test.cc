#include <gtest/gtest.h>

#include <regex>

#include "apps/bloom.h"
#include "apps/dtree.h"
#include "apps/intcode.h"
#include "apps/json.h"
#include "apps/regex.h"
#include "apps/registry.h"
#include "apps/sw.h"
#include "sim/simulator.h"
#include "system/fleet_system.h"
#include "system/pu_fast.h"
#include "system/pu_rtl.h"
#include "system/pu_testbench.h"
#include "util/rng.h"

namespace fleet {
namespace apps {
namespace {

/** Functional simulator output must equal the golden reference. */
void
checkFunctionalMatchesGolden(const Application &app, uint64_t seed,
                             uint64_t bytes)
{
    Rng rng(seed);
    BitBuffer stream = app.generateStream(rng, bytes);
    BitBuffer expected = app.golden(stream);
    sim::FunctionalSimulator simulator(app.program());
    sim::RunResult result = simulator.run(stream);
    ASSERT_TRUE(result.output == expected)
        << app.name() << " seed " << seed << ": functional output ("
        << result.output.sizeBits() << " bits) != golden ("
        << expected.sizeBits() << " bits)";
}

/** Compiled RTL and the fast replay model must agree with the golden. */
void
checkBackendsMatchGolden(const Application &app, uint64_t seed,
                         uint64_t bytes)
{
    Rng rng(seed);
    BitBuffer stream = app.generateStream(rng, bytes);
    BitBuffer expected = app.golden(stream);

    system::RtlPu rtl_pu(app.program());
    system::FastPu fast_pu(app.program());
    system::TestbenchOptions stalls{0.8, 0.8, seed + 1};

    auto rtl_result = system::runPu(rtl_pu, stream, stalls);
    auto fast_result = system::runPu(fast_pu, stream, stalls);
    ASSERT_TRUE(rtl_result.output == expected)
        << app.name() << ": RTL output mismatch";
    ASSERT_EQ(rtl_result.cycles, fast_result.cycles)
        << app.name() << ": RTL and fast model cycle counts differ";
}

class AllApps : public ::testing::TestWithParam<int>
{
  protected:
    std::unique_ptr<Application>
    app() const
    {
        auto apps = allApplications();
        return std::move(apps[GetParam()]);
    }
};

TEST_P(AllApps, FunctionalMatchesGolden)
{
    auto application = app();
    for (uint64_t seed : {101u, 202u, 303u})
        checkFunctionalMatchesGolden(*application, seed, 6000);
}

TEST_P(AllApps, RtlAndFastMatchGoldenUnderStalls)
{
    auto application = app();
    checkBackendsMatchGolden(*application, 404, 1500);
}

TEST_P(AllApps, FullSystemEndToEnd)
{
    auto application = app();
    Rng rng(505);
    std::vector<BitBuffer> streams;
    for (int p = 0; p < 5; ++p)
        streams.push_back(application->generateStream(rng, 2500));

    system::SystemConfig config;
    config.numChannels = 2;
    system::FleetSystem fleet_system(application->program(), config,
                                     streams);
    fleet_system.run();
    for (int p = 0; p < 5; ++p) {
        ASSERT_TRUE(fleet_system.output(p) ==
                    application->golden(streams[p]))
            << application->name() << " PU " << p;
    }
}

TEST_P(AllApps, ProgramCompiles)
{
    auto application = app();
    EXPECT_NO_THROW(compile::compileProgram(application->program()));
}

INSTANTIATE_TEST_SUITE_P(Suite, AllApps, ::testing::Range(0, 6),
                         [](const auto &info) {
                             auto apps = allApplications();
                             return apps[info.param]->name();
                         });

// ---------------------------------------------------------------------------
// Application-specific behaviour
// ---------------------------------------------------------------------------

TEST(IntcodeApp, RoundTripThroughDecoder)
{
    IntcodeApp app;
    for (uint64_t seed : {1u, 2u, 3u}) {
        Rng rng(seed);
        BitBuffer stream = app.generateStream(rng, 4096);
        BitBuffer encoded = app.golden(stream);
        auto decoded = IntcodeApp::decode(encoded);
        uint64_t count = stream.sizeBits() / 32;
        ASSERT_EQ(decoded.size(), count);
        for (uint64_t i = 0; i < count; ++i)
            ASSERT_EQ(decoded[i], stream.readBits(i * 32, 32))
                << "int " << i;
    }
}

TEST(IntcodeApp, CompressesSmallValues)
{
    IntcodeApp app(IntcodeParams{5});
    Rng rng(7);
    BitBuffer stream = app.generateStream(rng, 8192);
    BitBuffer encoded = app.golden(stream);
    // 5-bit values in 4-int blocks: ~1 header + 4x6-bit fields per 16
    // input bytes => at least 2.5x compression.
    EXPECT_LT(encoded.sizeBits() * 5, stream.sizeBits() * 2);
}

TEST(IntcodeApp, IncompressibleValuesExpandOnlySlightly)
{
    IntcodeApp app(IntcodeParams{32});
    Rng rng(8);
    BitBuffer stream = app.generateStream(rng, 8192);
    BitBuffer encoded = app.golden(stream);
    EXPECT_LT(encoded.sizeBits(), stream.sizeBits() * 11 / 10);
}

TEST(IntcodeApp, VarByteBits)
{
    EXPECT_EQ(IntcodeApp::varByteBits(0), 8);
    EXPECT_EQ(IntcodeApp::varByteBits(127), 8);
    EXPECT_EQ(IntcodeApp::varByteBits(128), 16);
    EXPECT_EQ(IntcodeApp::varByteBits((1u << 14) - 1), 16);
    EXPECT_EQ(IntcodeApp::varByteBits(1u << 14), 24);
    EXPECT_EQ(IntcodeApp::varByteBits(0xffffffffu), 40);
}

TEST(RegexApp, GoldenAgreesWithStdRegex)
{
    RegexApp app;
    std::regex std_pattern("[\\w.+-]+@[\\w.-]+\\.[\\w.-]+");
    Rng rng(11);
    BitBuffer stream = app.generateStream(rng, 3000);
    std::string text = stream.toString();

    // Collect match-end positions from our NFA.
    BitBuffer ours = app.golden(stream);
    std::set<uint64_t> end_positions;
    for (uint64_t i = 0; i < ours.sizeBits() / 32; ++i)
        end_positions.insert(ours.readBits(i * 32, 32));

    // Every std::regex match's end-1 must be reported by the NFA (the
    // NFA reports all match ends, std::regex reports leftmost-longest
    // non-overlapping ones).
    auto begin = std::sregex_iterator(text.begin(), text.end(),
                                      std_pattern);
    int matches = 0;
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
        uint64_t end = it->position() + it->length() - 1;
        EXPECT_TRUE(end_positions.count(end))
            << "std::regex match ending at " << end << " missed";
        ++matches;
    }
    EXPECT_GT(matches, 3);
}

TEST(RegexApp, SimplePatterns)
{
    struct Case
    {
        const char *pattern;
        const char *text;
        std::vector<uint64_t> ends;
    };
    const Case cases[] = {
        {"abc", "xxabcxabc", {4, 8}},
        {"a+b", "aab ab b", {2, 5}},
        {"a|bb", "abba", {0, 2, 3}},
        {"x[0-9]*y", "xy x1y x12z", {1, 5}},
        {"(ab)+c", "ababc abc", {4, 8}},
        {"a.c", "abc a\nc axc", {2, 10}},
    };
    for (const auto &c : cases) {
        RegexApp app(RegexParams{c.pattern});
        BitBuffer stream = BitBuffer::fromString(c.text);
        BitBuffer out = app.golden(stream);
        std::vector<uint64_t> got;
        for (uint64_t i = 0; i < out.sizeBits() / 32; ++i)
            got.push_back(out.readBits(i * 32, 32));
        EXPECT_EQ(got, c.ends) << "pattern " << c.pattern;
    }
}

TEST(RegexApp, NullablePatternRejected)
{
    EXPECT_THROW(RegexApp(RegexParams{"a*"}), FatalError);
}

TEST(RegexApp, MalformedPatternsRejected)
{
    EXPECT_THROW(buildRegexNfa("a("), FatalError);
    EXPECT_THROW(buildRegexNfa("[a"), FatalError);
    EXPECT_THROW(buildRegexNfa("*a"), FatalError);
    EXPECT_THROW(buildRegexNfa("a\\"), FatalError);
}

TEST(RegexApp, ClassIntervals)
{
    std::bitset<256> cls;
    cls.set('a');
    cls.set('b');
    cls.set('c');
    cls.set('x');
    auto intervals = classIntervals(cls);
    ASSERT_EQ(intervals.size(), 2u);
    EXPECT_EQ(intervals[0], std::make_pair(int('a'), int('c')));
    EXPECT_EQ(intervals[1], std::make_pair(int('x'), int('x')));
}

TEST(SwApp, FindsPlantedMatches)
{
    SwApp app;
    Rng rng(13);
    BitBuffer stream = app.generateStream(rng, 20000);
    BitBuffer out = app.golden(stream);
    // The generator plants near-matches with probability 1/500 per char,
    // so a 20 kB text should produce hits.
    EXPECT_GT(out.sizeBits(), 0u);
}

TEST(SwApp, ExactMatchScoresFullLength)
{
    SwParams params;
    params.targetLen = 4;
    SwApp app(params);
    BitBuffer stream;
    for (char c : std::string("ACGT"))
        stream.appendBits(uint8_t(c), 8);
    stream.appendBits(8, 8); // threshold = 4 matches x 2
    for (char c : std::string("xxACGTxx"))
        stream.appendBits(uint8_t(c), 8);
    BitBuffer out = app.golden(stream);
    ASSERT_EQ(out.sizeBits(), 32u);
    EXPECT_EQ(out.readBits(0, 32), 5u); // match ends at text index 5
}

TEST(SwApp, GappedMatchStillScores)
{
    // One deletion: threshold reachable via the gap penalty.
    SwParams params;
    params.targetLen = 6;
    SwApp app(params);
    BitBuffer stream;
    for (char c : std::string("AACCGG"))
        stream.appendBits(uint8_t(c), 8);
    stream.appendBits(8, 8); // score 10 - gap 1 - ... comfortably > 8
    for (char c : std::string("ttAACGGtt")) // 'C' deleted
        stream.appendBits(uint8_t(c), 8);
    BitBuffer out = app.golden(stream);
    EXPECT_GT(out.sizeBits(), 0u);
}

TEST(BloomApp, NoFalseNegatives)
{
    BloomApp app;
    Rng rng(17);
    BitBuffer stream = app.generateStream(rng, 3 * 512 * 4);
    BitBuffer filters = app.golden(stream);
    const auto &params = app.params();
    int words = params.filterBits / params.wordBits;
    ASSERT_EQ(filters.sizeBits(),
              uint64_t(3) * words * params.wordBits);
    int index_bits = bitsToRepresent(uint64_t(params.filterBits) - 1);
    for (int block = 0; block < 3; ++block) {
        for (int i = 0; i < params.blockItems; ++i) {
            uint32_t item = uint32_t(stream.readBits(
                (uint64_t(block) * params.blockItems + i) * 32, 32));
            for (int h = 0; h < params.numHashes; ++h) {
                uint32_t bit =
                    uint32_t(item * BloomApp::hashConstant(h)) >>
                    (32 - index_bits);
                uint64_t word = filters.readBits(
                    (uint64_t(block) * words + bit / params.wordBits) *
                        params.wordBits,
                    params.wordBits);
                ASSERT_TRUE(word & (uint64_t(1) << (bit % params.wordBits)))
                    << "block " << block << " item " << i;
            }
        }
    }
}

TEST(DtreeApp, MatchesDirectEvaluation)
{
    DtreeApp app;
    Rng rng(19);
    BitBuffer stream = app.generateStream(rng, 4000);
    BitBuffer out = app.golden(stream);
    EXPECT_GT(out.sizeBits(), 0u);
    EXPECT_EQ(out.sizeBits() % 32, 0u);
}

TEST(JsonApp, ExtractsExpectedFields)
{
    JsonApp app;
    std::string text =
        "{\"user\":{\"name\":\"ada\",\"geo\":{\"city\":\"zurich\"}},"
        "\"id\":\"42\",\"status\":\"ok\"}\n"
        "{\"meta\":{\"tag\":\"x1\"},\"namex\":\"no\",\"na\":\"no\"}\n";
    BitBuffer stream;
    for (uint8_t byte : app.trieConfig())
        stream.appendBits(byte, 8);
    stream.appendBuffer(BitBuffer::fromString(text));

    BitBuffer expected = app.golden(stream);
    EXPECT_EQ(expected.toString(), "ada\nzurich\n42\nx1\n");

    sim::FunctionalSimulator simulator(app.program());
    EXPECT_EQ(simulator.run(stream).output.toString(),
              "ada\nzurich\n42\nx1\n");
}

TEST(JsonApp, DecoyKeysDoNotMatch)
{
    JsonApp app(JsonParams{{"ab"}, 256, 64});
    std::string text =
        "{\"a\":\"no\",\"abc\":\"no\",\"ab\":\"yes\","
        "\"ab\":{\"x\":\"no\"}}\n";
    BitBuffer stream;
    for (uint8_t byte : app.trieConfig())
        stream.appendBits(byte, 8);
    stream.appendBuffer(BitBuffer::fromString(text));
    sim::FunctionalSimulator simulator(app.program());
    EXPECT_EQ(simulator.run(stream).output.toString(), "yes\n");
}

TEST(JsonApp, SiblingGroupsWalkCorrectly)
{
    // Paths sharing a level exercise the consecutive-sibling walk.
    JsonApp app(JsonParams{{"aa", "ab", "b"}, 256, 64});
    std::string text = "{\"ab\":\"1\",\"b\":\"2\",\"aa\":\"3\","
                       "\"ba\":\"no\",\"a\":\"no\"}\n";
    BitBuffer stream;
    for (uint8_t byte : app.trieConfig())
        stream.appendBits(byte, 8);
    stream.appendBuffer(BitBuffer::fromString(text));
    sim::FunctionalSimulator simulator(app.program());
    EXPECT_EQ(simulator.run(stream).output.toString(), "1\n2\n3\n");
}

TEST(Registry, MakeByName)
{
    EXPECT_EQ(makeApplication("Regex")->name(), "Regex");
    EXPECT_THROW(makeApplication("NoSuchApp"), FatalError);
}

} // namespace
} // namespace apps
} // namespace fleet

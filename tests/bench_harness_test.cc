/**
 * @file
 * The shared bench harness (bench/harness.h, bench/json.h): flag
 * parsing, the JSON writer/reader round trip, the exact --baseline
 * replay, and the determinism crosscheck loop.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "harness.h"

namespace fleet {
namespace bench {
namespace {

/** Run parseFlags over `args` (argv[0] is added). */
bool
parse(std::vector<std::string> args, const std::vector<Flag> &table)
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (auto &a : args)
        argv.push_back(a.data());
    return parseFlags(static_cast<int>(argv.size()), argv.data(), table);
}

struct Options : CommonFlags
{
    int lanes = 64;
    int cycles = 0;
    std::optional<uint64_t> faultSeed;
    std::vector<uint64_t> seeds;
    bool counters = false;

    std::vector<Flag> table()
    {
        return {smokeFlag(*this),
                jsonFlag(*this),
                baselineFlag(*this),
                threadsFlag(*this),
                backendFlag(*this),
                flag("--lanes", "N", &lanes, 1),
                flag("--cycles", "N", &cycles, 1),
                flag("--faults", "SEED", &faultSeed),
                flag("--seed", "S", &seeds),
                flag("--counters", &counters)};
    }
};

TEST(BenchFlags, SharedFlagsParse)
{
    Options o;
    ASSERT_TRUE(parse({"--smoke", "--json", "out.json", "--baseline",
                       "base.json", "--threads", "3", "--backend", "rtljit"},
                      o.table()));
    EXPECT_TRUE(o.smoke);
    EXPECT_EQ(o.jsonPath, "out.json");
    EXPECT_EQ(o.baselinePath, "base.json");
    EXPECT_EQ(o.threads, 3);
    EXPECT_EQ(o.backend, system::PuBackend::RtlJit);
    EXPECT_STREQ(o.backendName(), "rtljit");
}

TEST(BenchFlags, DefaultsWhenAbsent)
{
    Options o;
    ASSERT_TRUE(parse({}, o.table()));
    EXPECT_FALSE(o.smoke);
    EXPECT_TRUE(o.jsonPath.empty());
    EXPECT_EQ(o.threads, 0);
    EXPECT_EQ(o.backend, system::PuBackend::Fast);
    EXPECT_FALSE(o.faultSeed.has_value());
    EXPECT_TRUE(o.seeds.empty());
    EXPECT_EQ(o.cycles, 0);
}

TEST(BenchFlags, PerBenchAndRepeatableFlags)
{
    Options o;
    ASSERT_TRUE(parse({"--lanes", "8", "--cycles", "100", "--faults", "7",
                       "--seed", "2026", "--seed", "0x10", "--counters"},
                      o.table()));
    EXPECT_EQ(o.lanes, 8);
    EXPECT_EQ(o.cycles, 100);
    ASSERT_TRUE(o.faultSeed.has_value());
    EXPECT_EQ(*o.faultSeed, 7u);
    EXPECT_EQ(o.seeds, (std::vector<uint64_t>{2026, 16}));
    EXPECT_TRUE(o.counters);
}

TEST(BenchFlags, ThreadsZeroMeansAuto)
{
    Options o;
    o.threads = 5;
    ASSERT_TRUE(parse({"--threads", "0"}, o.table()));
    EXPECT_EQ(o.threads, 0);
}

TEST(BenchFlags, UnknownFlagRejected)
{
    Options o;
    EXPECT_FALSE(parse({"--smoke", "--frobnicate"}, o.table()));
    EXPECT_FALSE(parse({"smoke"}, o.table()));
}

TEST(BenchFlags, MissingValueRejected)
{
    for (const char *name : {"--json", "--baseline", "--threads",
                             "--backend", "--lanes", "--seed"}) {
        Options o;
        EXPECT_FALSE(parse({"--smoke", name}, o.table())) << name;
    }
}

TEST(BenchFlags, MalformedOrOutOfRangeNumbersRejected)
{
    const std::vector<std::vector<std::string>> bad = {
        {"--cycles", "-5"},     {"--cycles", "0"},
        {"--lanes", "4x"},      {"--lanes", "0"},
        {"--lanes", ""},        {"--lanes", " 4"},
        {"--threads", "abc"},   {"--threads", "-1"},
        {"--threads", "1.5"},   {"--threads", "99999999999"},
        {"--seed", "foo"},      {"--seed", "-1"},
        {"--seed", "+3"},       {"--seed", "12abc"},
        {"--faults", ""},       {"--faults", "99999999999999999999999"},
        {"--backend", "gpu"},
    };
    for (const auto &args : bad) {
        Options o;
        EXPECT_FALSE(parse(args, o.table())) << args[0] << " '" << args[1]
                                             << "'";
    }
}

TEST(BenchFlags, IntegerLimitsAccepted)
{
    Options o;
    ASSERT_TRUE(parse({"--lanes", "2147483647", "--seed",
                       "18446744073709551615"},
                      o.table()));
    EXPECT_EQ(o.lanes, std::numeric_limits<int>::max());
    EXPECT_EQ(o.seeds.back(), std::numeric_limits<uint64_t>::max());
}

TEST(BenchFlags, UsageListsTheTableInOrder)
{
    Options o;
    EXPECT_EQ(usage("prog", {smokeFlag(o), jsonFlag(o),
                             flag("--seed", "S", &o.seeds)}),
              "usage: prog [--smoke] [--json PATH] [--seed S]...");
    EXPECT_EQ(usage("prog", {backendFlag(o)}),
              std::string("usage: prog [--backend ") +
                  system::kPuBackendChoices + "]");
}

// ---------------------------------------------------------------------------

TEST(BenchJson, WriterLayoutIsStable)
{
    json::Writer w;
    w.object();
    w.field("a", 1);
    w.array("rows");
    w.object().field("x", 0.5, 3).end();
    w.end();
    w.array("inline", true).element("p").element("q").end();
    w.array("empty").end();
    w.end();
    EXPECT_EQ(w.str(), "{\n"
                       "  \"a\": 1,\n"
                       "  \"rows\": [\n"
                       "    {\n"
                       "      \"x\": 0.500\n"
                       "    }\n"
                       "  ],\n"
                       "  \"inline\": [\"p\", \"q\"],\n"
                       "  \"empty\": []\n"
                       "}\n");
}

TEST(BenchJson, WriterReaderRoundTrip)
{
    const std::string tricky = "quote\" back\\slash\nnew\ttab\x01 \xc3\xa9";
    json::Writer w;
    w.object();
    w.field("name", tricky);
    w.field("u64", std::numeric_limits<uint64_t>::max());
    w.field("neg", -42);
    w.field("third", 1.0 / 3.0, 6);
    w.field("rounded", 2.5, 0);
    w.field("yes", true);
    w.field("no", false);
    w.array("rows");
    for (int i = 0; i < 2; ++i)
        w.object()
            .field("id", i)
            .object("nested", true)
            .field("k", "v")
            .array("list")
            .element("e")
            .end()
            .end()
            .end();
    w.end();
    w.end();

    json::Value root;
    std::string error;
    ASSERT_TRUE(json::parse(w.str(), root, &error)) << error << "\n"
                                                      << w.str();
    ASSERT_TRUE(root.isObject());
    // Members come back in written order.
    std::vector<std::string> keys;
    for (const auto &[k, v] : root.object)
        keys.push_back(k);
    EXPECT_EQ(keys, (std::vector<std::string>{"name", "u64", "neg",
                                              "third", "rounded", "yes",
                                              "no", "rows"}));
    EXPECT_EQ(root.getString("name"), tricky);
    // Numbers keep their printed text exactly.
    EXPECT_EQ(root.find("u64")->text, "18446744073709551615");
    EXPECT_EQ(root.find("neg")->text, "-42");
    EXPECT_EQ(root.find("third")->text, "0.333333");
    EXPECT_EQ(root.find("rounded")->text, "2");
    EXPECT_TRUE(root.find("yes")->boolean);
    EXPECT_FALSE(root.find("no")->boolean);
    const json::Value *rows = root.find("rows");
    ASSERT_TRUE(rows && rows->isArray());
    ASSERT_EQ(rows->array.size(), 2u);
    EXPECT_EQ(rows->array[1].getInt("id"), 1);
    const json::Value *nested = rows->array[1].find("nested");
    ASSERT_TRUE(nested && nested->isObject());
    EXPECT_EQ(nested->getString("k"), "v");
    EXPECT_EQ(nested->find("list")->array.at(0).str, "e");
}

TEST(BenchJson, ReaderRejectsMalformedInput)
{
    json::Value v;
    for (const char *bad : {"", "{", "{\"a\" 1}", "[1,]", "{\"a\": 1} x",
                            "\"open", "{\"a\": 1.2.3}", "tru"}) {
        std::string error;
        EXPECT_FALSE(json::parse(bad, v, &error)) << bad;
        EXPECT_NE(error.find("at byte"), std::string::npos) << bad;
    }
}

// ---------------------------------------------------------------------------

/** A BENCH-style document: rows of (app, bytes_per_cycle). */
std::string
benchDoc(const std::vector<std::pair<std::string, double>> &rows)
{
    json::Writer w;
    w.object();
    runMetadata(w, "test", "fast", 1);
    w.array("apps");
    for (const auto &[app, bpc] : rows)
        w.object().field("app", app).field("bytes_per_cycle", bpc, 6).end();
    w.end().end();
    return w.str();
}

std::string
writeTemp(const std::string &name, const std::string &text)
{
    std::string path = ::testing::TempDir() + name;
    std::ofstream(path) << text;
    return path;
}

const ReplaySpec kSpec{"apps", "app", "bytes_per_cycle"};

bool
mentions(const std::vector<std::string> &problems, const std::string &what)
{
    for (const auto &p : problems)
        if (p.find(what) != std::string::npos)
            return true;
    return false;
}

TEST(BenchReplay, IdenticalInputPasses)
{
    std::string doc = benchDoc({{"A", 1.5}, {"B", 2.25}});
    std::string path = writeTemp("replay_same.json", doc);
    EXPECT_TRUE(replayBaseline(path, doc, kSpec).empty());
    EXPECT_TRUE(checkBaseline(path, doc, kSpec));
}

TEST(BenchReplay, ExtraBaselineRowsAreIgnored)
{
    std::string path = writeTemp(
        "replay_extra.json", benchDoc({{"A", 1.5}, {"B", 2.25}, {"C", 3}}));
    EXPECT_TRUE(
        replayBaseline(path, benchDoc({{"B", 2.25}}), kSpec).empty());
}

TEST(BenchReplay, ChangedValueFailsNamingTheRow)
{
    std::string path =
        writeTemp("replay_changed.json", benchDoc({{"A", 1.5}, {"B", 2.25}}));
    auto problems =
        replayBaseline(path, benchDoc({{"A", 1.5}, {"B", 2.250001}}), kSpec);
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_TRUE(mentions(problems, "app=B")) << problems[0];
    EXPECT_TRUE(mentions(problems, "2.250000 -> 2.250001")) << problems[0];
    EXPECT_FALSE(checkBaseline(path, benchDoc({{"B", 2.5}}), kSpec));
}

TEST(BenchReplay, ValueBelowPrintedPrecisionStillMatches)
{
    // Replay is a text comparison at the printed precision.
    std::string path = writeTemp("replay_precision.json",
                                 benchDoc({{"A", 1.0000001}}));
    EXPECT_TRUE(
        replayBaseline(path, benchDoc({{"A", 1.0000004}}), kSpec).empty());
}

TEST(BenchReplay, MissingRowFailsNamingTheRow)
{
    std::string path = writeTemp("replay_missing.json", benchDoc({{"A", 1}}));
    auto problems =
        replayBaseline(path, benchDoc({{"A", 1}, {"B", 2}}), kSpec);
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_TRUE(mentions(problems, "app=B: missing")) << problems[0];
}

TEST(BenchReplay, RowWithoutTheMetricFails)
{
    std::string path = writeTemp(
        "replay_nometric.json",
        "{\"apps\": [{\"app\": \"A\", \"bytes_per_cycle\": \"1.0\"}]}");
    auto problems = replayBaseline(path, benchDoc({{"A", 1}}), kSpec);
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_TRUE(mentions(problems, "app=A: no bytes_per_cycle"))
        << problems[0];
}

TEST(BenchReplay, UnreadableFileFailsNamingTheRows)
{
    auto problems =
        replayBaseline(::testing::TempDir() + "no_such_baseline.json",
                       benchDoc({{"A", 1}, {"B", 2}}), kSpec);
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_TRUE(mentions(problems, "cannot read")) << problems[0];
    EXPECT_TRUE(mentions(problems, "app=A, app=B")) << problems[0];
}

TEST(BenchReplay, MalformedFileFailsNamingTheRows)
{
    for (const char *text : {"{\"apps\": [", "", "{\"rows\": []}"}) {
        std::string path = writeTemp("replay_malformed.json", text);
        auto problems = replayBaseline(path, benchDoc({{"A", 1}}), kSpec);
        ASSERT_EQ(problems.size(), 1u) << text;
        EXPECT_TRUE(mentions(problems, "rows not replayed: app=A"))
            << problems[0];
    }
}

TEST(BenchReplay, NumericRowKeysMatchByText)
{
    json::Writer w;
    w.object().array("scale_points");
    for (int devices : {1, 2})
        w.object()
            .field("devices", devices)
            .field("jobs_per_mcycle", 10.0 * devices, 6)
            .end();
    w.end().end();
    std::string path = writeTemp("replay_numeric.json", w.str());
    EXPECT_TRUE(replayBaseline(path, w.str(),
                               {"scale_points", "devices",
                                "jobs_per_mcycle"})
                    .empty());
}

// ---------------------------------------------------------------------------

TEST(BenchDeterminism, ReplaysThreeVariantsAndFlagsDivergence)
{
    Options opts;
    opts.threads = 4;
    std::vector<std::pair<system::PuBackend, int>> seen;
    auto record = [&](const Options &v) {
        seen.emplace_back(v.backend, v.threads);
        return std::vector<int>{1, 2, 3};
    };
    EXPECT_TRUE(crosscheckDeterminism(opts, system::PuBackend::Rtl, "",
                                      "tuples", std::vector<int>{1, 2, 3},
                                      record));
    using B = system::PuBackend;
    EXPECT_EQ(seen, (std::vector<std::pair<B, int>>{
                        {B::Fast, 1}, {B::Fast, 2}, {B::Rtl, 4}}));

    // One variant diverging fails the whole check.
    auto diverge = [](const Options &v) {
        return std::vector<int>{v.threads == 2 ? 9 : 1};
    };
    EXPECT_FALSE(crosscheckDeterminism(opts, system::PuBackend::Rtl, "x/",
                                       "tuples", std::vector<int>{1},
                                       diverge));
}

TEST(BenchStats, PercentileIsNearestRank)
{
    EXPECT_EQ(percentile({}, 0.99), 0u);
    const std::vector<uint64_t> sorted = {10, 20, 30, 40};
    EXPECT_EQ(percentile(sorted, 0.0), 10u);
    EXPECT_EQ(percentile(sorted, 0.50), 30u);
    EXPECT_EQ(percentile(sorted, 0.74), 30u);
    EXPECT_EQ(percentile(sorted, 0.99), 40u);
    EXPECT_EQ(percentile(sorted, 1.0), 40u);
}

} // namespace
} // namespace bench
} // namespace fleet

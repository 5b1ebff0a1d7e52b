/**
 * @file
 * Golden-schema test for the Chrome trace_event export (ISSUE 3): write
 * a real traced run with RunReport::writeTrace, parse the file back
 * with the shared bench JSON reader (bench/json.h), and validate the schema Perfetto /
 * chrome://tracing relies on — event phases, pid/tid mapping to
 * channels and PU lanes, metadata naming, and monotonically
 * non-decreasing timestamps within every (pid, tid) lane. The event
 * counts are also cross-checked against the in-memory TraceReport so
 * the export is known to be lossless.
 *
 * Labelled trace-golden (not tier1): exercises filesystem round-trips
 * that the sanitizer CI jobs don't need to repeat.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "apps/registry.h"
#include "json.h"
#include "system/fleet_system.h"
#include "util/rng.h"

namespace fleet {
namespace system {
namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Run one app traced with events and export the Chrome JSON. */
class TraceSchemaTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        auto apps = apps::allApplications();
        const apps::Application &app = *apps[0];
        Rng rng(23);
        std::vector<BitBuffer> streams;
        for (int p = 0; p < 5; ++p)
            streams.push_back(app.generateStream(rng, 1500));

        SystemConfig config;
        config.numChannels = 3;
        config.numThreads = 1;
        config.trace.counters = true;
        config.trace.events = true;
        fleet_ = std::make_unique<FleetSystem>(app.program(), config,
                                               streams);
        report_ = &fleet_->run();
        ASSERT_TRUE(report_->allOk()) << report_->summary();

        // Unique per test case: ctest runs the cases as concurrent
        // processes, and a shared path races (corrupt reads).
        path_ = ::testing::TempDir() + "fleet_trace_schema_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                ".json";
        Status written = report_->writeTrace(path_);
        ASSERT_TRUE(written.ok()) << written.message;

        std::string text = readFile(path_);
        ASSERT_FALSE(text.empty());
        std::string error;
        ASSERT_TRUE(json::parse(text, root_, &error)) << error;
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::unique_ptr<FleetSystem> fleet_;
    const RunReport *report_ = nullptr;
    std::string path_;
    json::Value root_;
};

TEST_F(TraceSchemaTest, TopLevelEnvelope)
{
    ASSERT_TRUE(root_.isObject());
    EXPECT_EQ(root_.getString("displayTimeUnit"), "ms");

    const json::Value *events = root_.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    EXPECT_FALSE(events->array.empty());

    const json::Value *other = root_.find("otherData");
    ASSERT_NE(other, nullptr);
    ASSERT_TRUE(other->isObject());
    EXPECT_EQ(other->getInt("cycles_per_us"), 1);
    EXPECT_EQ(other->getInt("dropped_spans"), 0);
    const json::Value *mhz = other->find("clock_mhz");
    ASSERT_NE(mhz, nullptr);
    EXPECT_DOUBLE_EQ(mhz->number, report_->trace->clockMHz);
}

TEST_F(TraceSchemaTest, EveryEventIsWellFormed)
{
    static const std::set<std::string> known_phases = {"M", "X", "i", "C"};
    for (const json::Value &event : root_.find("traceEvents")->array) {
        ASSERT_TRUE(event.isObject());
        std::string ph = event.getString("ph");
        EXPECT_TRUE(known_phases.count(ph)) << "unknown ph " << ph;
        EXPECT_GE(event.getInt("pid"), 0);
        EXPECT_GE(event.getInt("tid"), 0);
        EXPECT_FALSE(event.getString("name").empty());
        if (ph == "M")
            continue;
        EXPECT_GE(event.getInt("ts"), 0) << "ph " << ph;
        if (ph == "X") {
            EXPECT_GT(event.getInt("dur"), 0);
        }
        if (ph == "i") {
            EXPECT_EQ(event.getString("s"), "t");
        }
        if (ph == "C") {
            const json::Value *args = event.find("args");
            ASSERT_NE(args, nullptr);
            EXPECT_GE(args->getInt("depth"), 0);
        }
    }
}

TEST_F(TraceSchemaTest, MetadataNamesChannelsAndLanes)
{
    std::map<int64_t, std::string> process_names;
    std::map<std::pair<int64_t, int64_t>, std::string> thread_names;
    for (const json::Value &event : root_.find("traceEvents")->array) {
        if (event.getString("ph") != "M")
            continue;
        std::string name = event.find("args")->getString("name");
        if (event.getString("name") == "process_name")
            process_names[event.getInt("pid")] = name;
        else if (event.getString("name") == "thread_name")
            thread_names[{event.getInt("pid"), event.getInt("tid")}] =
                name;
    }

    const trace::TraceReport &tr = *report_->trace;
    ASSERT_EQ(process_names.size(), tr.channels.size());
    for (const trace::ChannelTrace &ch : tr.channels) {
        EXPECT_EQ(process_names[ch.channel],
                  "channel " + std::to_string(ch.channel));
        // tid 0 is the channel's DRAM counter track.
        EXPECT_EQ((thread_names[{ch.channel, 0}]), "dram");
        for (size_t l = 0; l < ch.lanes.size(); ++l)
            EXPECT_EQ((thread_names[{ch.channel, int64_t(l) + 1}]),
                      "PU " + std::to_string(ch.lanes[l].globalPu));
    }
}

TEST_F(TraceSchemaTest, TimestampsMonotonicPerLane)
{
    std::map<std::pair<int64_t, int64_t>, int64_t> last_ts;
    for (const json::Value &event : root_.find("traceEvents")->array) {
        std::string ph = event.getString("ph");
        if (ph == "M")
            continue;
        auto lane = std::make_pair(event.getInt("pid"), event.getInt("tid"));
        int64_t ts = event.getInt("ts");
        auto it = last_ts.find(lane);
        if (it != last_ts.end()) {
            EXPECT_GE(ts, it->second)
                << "ts regressed on pid " << lane.first << " tid "
                << lane.second;
        }
        last_ts[lane] = ts;
    }
}

TEST_F(TraceSchemaTest, ExportIsLossless)
{
    // Count exported events per kind and compare against the in-memory
    // TraceReport: every span, marker, and counter sample made it out.
    uint64_t spans = 0, markers = 0, samples = 0;
    std::set<std::string> span_names;
    for (const json::Value &event : root_.find("traceEvents")->array) {
        std::string ph = event.getString("ph");
        if (ph == "X") {
            ++spans;
            span_names.insert(event.getString("name"));
        } else if (ph == "i") {
            ++markers;
        } else if (ph == "C") {
            ++samples;
        }
    }

    uint64_t want_spans = 0, want_markers = 0, want_samples = 0;
    for (const trace::ChannelTrace &ch : report_->trace->channels) {
        for (const trace::Lane &lane : ch.lanes) {
            want_spans += lane.spans.size() + lane.jobs.size();
            want_markers += lane.markers.size();
        }
        for (const trace::CounterTrack &track : ch.tracks)
            want_samples += track.samples.size();
    }
    EXPECT_EQ(spans, want_spans);
    EXPECT_EQ(markers, want_markers);
    EXPECT_EQ(samples, want_samples);

    // Span names are exactly the non-Done taxonomy phase names, beside
    // one "job <id>" span per unit (a one-shot unit runs one job whose
    // id is its PU index).
    for (int p = 0; p < fleet_->numPus(); ++p)
        EXPECT_EQ(span_names.count("job " + std::to_string(p)), 1u) << p;
    for (const std::string &name : span_names) {
        if (name.rfind("job ", 0) == 0)
            continue;
        bool known = false;
        for (int p = 0; p < trace::kNumPuPhases; ++p)
            if (name ==
                trace::puPhaseName(static_cast<trace::PuPhase>(p)))
                known = true;
        EXPECT_TRUE(known) << "unknown span phase name " << name;
        EXPECT_NE(name, trace::puPhaseName(trace::PuPhase::Done));
    }
}

TEST(TraceSchemaErrors, UnwritablePathReportsIoError)
{
    auto apps = apps::allApplications();
    Rng rng(5);
    std::vector<BitBuffer> streams;
    for (int p = 0; p < 2; ++p)
        streams.push_back(apps[0]->generateStream(rng, 400));
    SystemConfig config;
    config.numChannels = 2;
    config.numThreads = 1;
    config.trace.events = true;
    FleetSystem fleet(apps[0]->program(), config, streams);
    const RunReport &report = fleet.run();
    Status status = report.writeTrace("/nonexistent-dir/trace.json");
    EXPECT_EQ(status.code, StatusCode::IoError);
}

} // namespace
} // namespace system
} // namespace fleet

/**
 * @file
 * Counter-conservation harness for the observability layer (ISSUE 3).
 * The trace counters are not independent gauges — they are different
 * views of the same physical events, so they must agree exactly across
 * layer boundaries:
 *
 *   - bits: sum of per-PU delivered bits == input-controller total ==
 *     sum of stream bits; DRAM beats x bus width == bursts x burst
 *     size on both the read and write paths; output-controller
 *     collected bits == sum of what the units emitted == what was
 *     flushed to memory.
 *   - cycles: every (PU, cycle) lands in exactly one taxonomy phase,
 *     so the five phase counters sum to the channel cycle count; the
 *     DRAM occupancy histograms hold exactly one sample per cycle and
 *     their weighted sum equals the legacy occupancy integrals.
 *   - determinism: serial and worker-pool runs produce equal
 *     TraceReports, and tracing itself is purely observational —
 *     traced and untraced runs have bit-identical outputs and cycle
 *     counts.
 *
 * All invariants are checked for every application on both PU backends
 * at one and several host threads.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "apps/registry.h"
#include "system/fleet_system.h"
#include "util/rng.h"

namespace fleet {
namespace system {
namespace {

std::vector<BitBuffer>
appStreams(const apps::Application &app, int count, uint64_t bytes,
           uint64_t seed)
{
    Rng rng(seed);
    std::vector<BitBuffer> streams;
    for (int p = 0; p < count; ++p)
        streams.push_back(app.generateStream(rng, bytes));
    return streams;
}

SystemConfig
configFor(PuBackend backend, int threads, bool counters, bool events)
{
    SystemConfig config;
    config.numChannels = 3; // Uneven PU division across channels.
    config.numThreads = threads;
    config.backend = backend;
    config.dram.readLatency = 20;
    config.trace.counters = counters;
    config.trace.events = events;
    return config;
}

/** "ch2/pu7" -> 7, or -1 for non-PU components. */
int
globalPuOf(const std::string &component)
{
    size_t slash = component.find('/');
    if (slash == std::string::npos ||
        component.compare(slash + 1, 2, "pu") != 0)
        return -1;
    return std::atoi(component.c_str() + slash + 3);
}

uint64_t
phaseCycleSum(const trace::CounterSet &pu)
{
    uint64_t sum = 0;
    for (int p = 0; p < trace::kNumPuPhases; ++p) {
        auto phase = static_cast<trace::PuPhase>(p);
        std::string key =
            std::string(trace::puPhaseName(phase)) + "_cycles";
        EXPECT_TRUE(pu.has(key)) << pu.name << " missing " << key;
        sum += pu.get(key);
    }
    return sum;
}

/**
 * Check every cross-layer conservation law on a completed, fault-free
 * traced run.
 */
void
verifyConservation(FleetSystem &fleet, const RunReport &report,
                   const std::string &label)
{
    ASSERT_TRUE(report.allOk()) << label << ": " << report.summary();
    ASSERT_NE(report.trace, nullptr) << label;
    const trace::TraceReport &tr = *report.trace;
    SystemStats stats = fleet.stats();
    ASSERT_EQ(tr.channels.size(), stats.channels.size()) << label;

    uint64_t seen_pus = 0;
    for (const trace::ChannelTrace &ch : tr.channels) {
        SCOPED_TRACE(label + " channel " + std::to_string(ch.channel));
        const ChannelStats &legacy = stats.channels[ch.channel];
        ASSERT_EQ(ch.cycles, legacy.cycles);

        const trace::CounterSet *dram = nullptr;
        const trace::CounterSet *input = nullptr;
        const trace::CounterSet *output = nullptr;
        uint64_t pu_stream_bits = 0, pu_delivered_bits = 0;
        uint64_t pu_emitted_bits = 0, pu_flushed_bits = 0;
        int channel_pus = 0;
        for (const trace::CounterSet &set : ch.counters) {
            if (set.name.ends_with("/dram"))
                dram = &set;
            else if (set.name.ends_with("/input_ctrl"))
                input = &set;
            else if (set.name.ends_with("/output_ctrl"))
                output = &set;
            int g = globalPuOf(set.name);
            if (g < 0)
                continue;
            ++channel_pus;
            ++seen_pus;
            SCOPED_TRACE(set.name);

            // Every cycle of this PU's life is in exactly one phase.
            EXPECT_EQ(phaseCycleSum(set), ch.cycles);

            // The taxonomy phases are exclusive; the legacy stall
            // counters are not (a cycle can be both starved and
            // blocked), so the phase counts are lower bounds.
            const PuStats &ps = fleet.puStats(g);
            EXPECT_LE(set.get("input-starved_cycles"),
                      ps.inputStarvedCycles);
            EXPECT_LE(set.get("output-blocked_cycles"),
                      ps.outputBlockedCycles);
            EXPECT_EQ(set.get("finished_at_cycle"), ps.finishedAtCycle);
            EXPECT_EQ(set.get("contained"), 0u);

            // A completed unit consumed its whole stream and had its
            // whole emission flushed to channel memory.
            EXPECT_EQ(set.get("delivered_bits"), set.get("stream_bits"));
            EXPECT_EQ(set.get("flushed_payload_bits"),
                      set.get("emitted_bits"));
            EXPECT_EQ(set.get("flushed_payload_bits"),
                      report.pus[g].outputBits);
            EXPECT_EQ(set.get("flushed_payload_bits"),
                      fleet.output(g).sizeBits());

            pu_stream_bits += set.get("stream_bits");
            pu_delivered_bits += set.get("delivered_bits");
            pu_emitted_bits += set.get("emitted_bits");
            pu_flushed_bits += set.get("flushed_payload_bits");
        }
        ASSERT_NE(dram, nullptr);
        ASSERT_NE(input, nullptr);
        ASSERT_NE(output, nullptr);
        ASSERT_GT(channel_pus, 0);

        // Read path: PU bits == controller bits == stream bits, and the
        // DRAM moved whole bursts covering them (the only slack is
        // burst-tail padding, strictly under one burst per PU).
        EXPECT_EQ(input->get("bits_delivered"), pu_delivered_bits);
        EXPECT_EQ(input->get("stream_bits_total"), pu_stream_bits);
        EXPECT_EQ(input->get("pus_contained"), 0u);
        EXPECT_EQ(input->get("inflight_bursts"), 0u);
        uint64_t read_bits = dram->get("beats_delivered") *
                             dram->get("bus_width_bits");
        EXPECT_EQ(read_bits, dram->get("read_bursts_accepted") *
                                 input->get("burst_bits"));
        EXPECT_EQ(dram->get("read_bursts_accepted"),
                  input->get("read_bursts_issued"));
        EXPECT_GE(read_bits, pu_delivered_bits);
        EXPECT_LT(read_bits - pu_delivered_bits,
                  uint64_t(channel_pus) * input->get("burst_bits"));
        EXPECT_EQ(dram->get("bytes_read") * 8, read_bits);

        // Write path: everything the units emitted was collected and
        // committed, and the DRAM wrote whole bursts covering it.
        EXPECT_EQ(output->get("bits_accepted"), pu_emitted_bits);
        EXPECT_EQ(output->get("bits_collected"), pu_flushed_bits);
        EXPECT_EQ(output->get("pus_contained"), 0u);
        EXPECT_EQ(output->get("pending_bursts"), 0u);
        uint64_t written_bits = dram->get("beats_written") *
                                dram->get("bus_width_bits");
        EXPECT_EQ(written_bits, dram->get("write_bursts_accepted") *
                                    output->get("burst_bits"));
        EXPECT_EQ(dram->get("write_bursts_accepted"),
                  output->get("write_bursts_issued"));
        EXPECT_GE(written_bits, pu_flushed_bits);

        // Legacy ChannelStats and the trace describe the same run.
        EXPECT_EQ(dram->get("beats_delivered"), legacy.beatsDelivered);
        EXPECT_EQ(dram->get("beats_written"), legacy.beatsWritten);
        EXPECT_EQ(input->get("bits_delivered"), legacy.inputBytes * 8);
        EXPECT_EQ(dram->get("cycles"), legacy.cycles);

        // Occupancy histograms: one sample per cycle, and the mass
        // integral matches the legacy occupancy sums exactly.
        ASSERT_EQ(ch.histograms.size(), 2u);
        for (const trace::Histogram &h : ch.histograms)
            EXPECT_EQ(h.samples(), ch.cycles) << h.name;
        EXPECT_EQ(ch.histograms[0].name, "dram_read_queue_depth");
        EXPECT_EQ(ch.histograms[0].weightedSum(),
                  legacy.readQueueOccupancySum);
        EXPECT_EQ(ch.histograms[1].weightedSum(),
                  legacy.writeQueueOccupancySum);

        // TraceReport::find resolves the hierarchical names.
        EXPECT_EQ(tr.find(dram->name), dram);
        EXPECT_EQ(tr.find("no/such"), nullptr);
    }
    EXPECT_EQ(seen_pus, uint64_t(fleet.numPus())) << label;
}

void
runAllInvariants(const lang::Program &program,
                 const std::vector<BitBuffer> &streams, PuBackend backend,
                 const std::string &label)
{
    // Counters-mode runs at one and several host threads: all
    // conservation laws hold and the collected traces are equal.
    FleetSystem serial(program,
                       configFor(backend, 1, /*counters=*/true,
                                 /*events=*/false),
                       streams);
    const RunReport &serial_report = serial.run();
    verifyConservation(serial, serial_report, label + "/serial");

    FleetSystem parallel(program,
                         configFor(backend, 4, true, false), streams);
    const RunReport &parallel_report = parallel.run();
    verifyConservation(parallel, parallel_report, label + "/parallel");

    ASSERT_TRUE(serial_report == parallel_report)
        << label << ": traced reports diverge across thread counts";

    // Tracing is purely observational: an untraced run is bit- and
    // cycle-identical to the traced ones.
    FleetSystem plain(program, configFor(backend, 1, false, false),
                      streams);
    plain.run();
    EXPECT_EQ(plain.report().trace, nullptr) << label;
    EXPECT_EQ(plain.stats().cycles, serial.stats().cycles) << label;
    EXPECT_EQ(plain.stats().outputBytes, serial.stats().outputBytes)
        << label;
    for (int p = 0; p < plain.numPus(); ++p)
        EXPECT_TRUE(plain.output(p) == serial.output(p))
            << label << " PU " << p
            << ": tracing changed the output bytes";
}

class AllAppsConservation : public ::testing::TestWithParam<int>
{
};

TEST_P(AllAppsConservation, FastBackend)
{
    auto apps = apps::allApplications();
    auto &app = *apps[GetParam()];
    auto streams = appStreams(app, 5, 1800, 42);
    runAllInvariants(app.program(), streams, PuBackend::Fast,
                     app.name() + "/Fast");
}

TEST_P(AllAppsConservation, RtlBackend)
{
    auto apps = apps::allApplications();
    auto &app = *apps[GetParam()];
    // RTL interpretation is ~two orders slower; keep streams small.
    auto streams = appStreams(app, 4, 700, 43);
    runAllInvariants(app.program(), streams, PuBackend::Rtl,
                     app.name() + "/Rtl");
}

INSTANTIATE_TEST_SUITE_P(Suite, AllAppsConservation, ::testing::Range(0, 6),
                         [](const auto &info) {
                             auto apps = apps::allApplications();
                             return apps[info.param]->name();
                         });

TEST(TraceModes, CountersOnlyCollectsNoEvents)
{
    auto apps = apps::allApplications();
    auto streams = appStreams(*apps[0], 4, 900, 7);
    FleetSystem fleet(apps[0]->program(),
                      configFor(PuBackend::Fast, 1, true, false), streams);
    const RunReport &report = fleet.run();
    ASSERT_NE(report.trace, nullptr);
    for (const trace::ChannelTrace &ch : report.trace->channels) {
        EXPECT_FALSE(ch.counters.empty());
        EXPECT_FALSE(ch.histograms.empty());
        EXPECT_TRUE(ch.lanes.empty());
        EXPECT_TRUE(ch.tracks.empty());
    }
    // No events recorded -> Chrome export is refused, not garbage.
    EXPECT_EQ(report.writeTrace("/nonexistent-dir/t.json").code,
              StatusCode::InvalidArgument);
}

TEST(TraceModes, EventsLanesCoverTheRunExactly)
{
    auto apps = apps::allApplications();
    auto streams = appStreams(*apps[0], 5, 1200, 11);
    FleetSystem fleet(apps[0]->program(),
                      configFor(PuBackend::Fast, 1, true, true), streams);
    const RunReport &report = fleet.run();
    ASSERT_NE(report.trace, nullptr);
    for (const trace::ChannelTrace &ch : report.trace->channels) {
        ASSERT_FALSE(ch.lanes.empty());
        for (const trace::Lane &lane : ch.lanes) {
            SCOPED_TRACE("PU " + std::to_string(lane.globalPu));
            ASSERT_FALSE(lane.spans.empty());
            EXPECT_EQ(lane.droppedSpans, 0u);
            // Spans are sorted, non-overlapping, and start at cycle 0.
            // Gaps are allowed only where the unit was Done.
            EXPECT_EQ(lane.spans.front().beginCycle, 0u);
            uint64_t prev_end = 0;
            uint64_t span_cycles = 0;
            for (const trace::Span &span : lane.spans) {
                EXPECT_GE(span.beginCycle, prev_end);
                EXPECT_GT(span.endCycle, span.beginCycle);
                EXPECT_NE(span.phase, trace::PuPhase::Done);
                prev_end = span.endCycle;
                span_cycles += span.endCycle - span.beginCycle;
            }
            EXPECT_LE(prev_end, ch.cycles);

            // The span timeline is the counter view minus Done time.
            const trace::CounterSet *pu = report.trace->find(
                "ch" + std::to_string(ch.channel) + "/pu" +
                std::to_string(lane.globalPu));
            ASSERT_NE(pu, nullptr);
            EXPECT_EQ(span_cycles, ch.cycles - pu->get("done_cycles"));
        }
        // DRAM queue-depth tracks sample on the configured quantum.
        ASSERT_EQ(ch.tracks.size(), 2u);
        for (const trace::CounterTrack &track : ch.tracks) {
            uint64_t prev = 0;
            bool first = true;
            for (const auto &[cycle, value] : track.samples) {
                if (!first) {
                    EXPECT_GT(cycle, prev) << track.name;
                }
                prev = cycle;
                first = false;
            }
        }
    }
}

TEST(TraceModes, SpanCapCountsDroppedSpansInsteadOfGrowing)
{
    auto apps = apps::allApplications();
    auto streams = appStreams(*apps[0], 3, 1500, 13);
    SystemConfig config = configFor(PuBackend::Fast, 1, true, true);
    config.trace.maxSpansPerLane = 4;
    FleetSystem fleet(apps[0]->program(), config, streams);
    const RunReport &report = fleet.run();
    ASSERT_NE(report.trace, nullptr);
    uint64_t dropped = 0;
    for (const trace::ChannelTrace &ch : report.trace->channels)
        for (const trace::Lane &lane : ch.lanes) {
            EXPECT_LE(lane.spans.size(), 4u);
            dropped += lane.droppedSpans;
        }
    EXPECT_GT(dropped, 0u);
}

} // namespace
} // namespace system
} // namespace fleet

/**
 * @file
 * Fault-injection layer (ISSUE 2): determinism across host thread
 * counts, timing-only fault classes leaving outputs untouched, stream
 * truncation surfacing as StreamTruncated with whole-token partial
 * coverage, parity errors containing to the affected PU, and disabled
 * plans being bit-identical to fault-free runs.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "apps/registry.h"
#include "fault/fault.h"
#include "report_log.h"
#include "runtime/session.h"
#include "sim/simulator.h"
#include "system/fleet_system.h"
#include "test_programs.h"
#include "trace/taxonomy.h"
#include "util/rng.h"

namespace fleet {
namespace system {
namespace {

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

SystemConfig
faultConfig(const fault::FaultPlan &plan, int threads)
{
    SystemConfig config;
    config.numChannels = 3; // Uneven PU division across channels.
    config.numThreads = threads;
    config.faults = plan;
    return config;
}

TEST(FaultInjection, ReportDeterministicAcrossThreadCounts)
{
    // The same seed and fault plan must produce the same RunReport —
    // and the same outputs and cycle counts — at every host thread
    // count. Every fault decision is a pure hash, so this holds by
    // construction; this test is the regression fence.
    auto plan = fault::FaultPlan::fromSeed(0xf1ee7);
    auto program = testprogs::blockFrequencies(32);
    auto streams = randomStreams(7, 1024, 11);

    FleetSystem serial(program, faultConfig(plan, 1), streams);
    const RunReport serial_report = serial.run();
    FleetSystem dual(program, faultConfig(plan, 2), streams);
    const RunReport dual_report = dual.run();
    FleetSystem automatic(program, faultConfig(plan, 0), streams);
    const RunReport auto_report = automatic.run();

    EXPECT_TRUE(serial_report == dual_report);
    EXPECT_TRUE(serial_report == auto_report);
    EXPECT_EQ(serial.stats().cycles, dual.stats().cycles);
    EXPECT_EQ(serial.stats().cycles, automatic.stats().cycles);
    for (int p = 0; p < serial.numPus(); ++p) {
        EXPECT_TRUE(serial.output(p) == dual.output(p)) << "PU " << p;
        EXPECT_TRUE(serial.output(p) == automatic.output(p)) << "PU " << p;
    }
}

TEST(FaultInjection, TimingFaultsChangeCyclesNotOutputs)
{
    // Latency spikes and backpressure windows perturb *when* data
    // moves, never *what* moves: outputs stay bit-identical to the
    // fault-free run and the run still completes cleanly.
    fault::FaultPlan plan;
    plan.seed = 77;
    plan.latencySpikePermille = 200; // 20% of reads +400 cycles.
    plan.backpressurePermille = 300; // 30% of windows stall.
    plan.backpressureWindow = 512;
    plan.backpressureDuration = 128;

    auto program = testprogs::blockFrequencies(32);
    auto streams = randomStreams(6, 2048, 12);

    SystemConfig clean_config;
    clean_config.numChannels = 3;
    FleetSystem clean(program, clean_config, streams);
    const RunReport &clean_report = clean.run();
    ASSERT_TRUE(clean_report.allOk());

    FleetSystem faulty(program, faultConfig(plan, 0), streams);
    const RunReport &faulty_report = faulty.run();
    EXPECT_TRUE(faulty_report.allOk());
    EXPECT_EQ(faulty_report.truncatedPuCount(), 0);
    EXPECT_GT(faulty.stats().cycles, clean.stats().cycles)
        << "injected stalls should cost cycles";
    for (int p = 0; p < clean.numPus(); ++p)
        EXPECT_TRUE(clean.output(p) == faulty.output(p)) << "PU " << p;
}

TEST(FaultInjection, TruncatedStreamsReportedWithPartialOutputs)
{
    // Force truncation on every PU: each completes with a
    // StreamTruncated outcome, and its output equals the functional
    // simulation of exactly the kept whole-token prefix.
    fault::FaultPlan plan;
    plan.seed = 31337;
    plan.truncatePermille = 1000;

    auto program = testprogs::streamSum(8, 32);
    auto streams = randomStreams(5, 600, 13);

    FleetSystem fleet(program, faultConfig(plan, 0), streams);
    const RunReport &report = fleet.run();
    EXPECT_TRUE(report.allOk());
    EXPECT_EQ(report.truncatedPuCount(), fleet.numPus());

    sim::FunctionalSimulator functional(program);
    for (int p = 0; p < fleet.numPus(); ++p) {
        ASSERT_EQ(report.pus[p].status.code, StatusCode::StreamTruncated)
            << "PU " << p;
        uint64_t tokens = streams[p].sizeBits() / 8;
        uint64_t kept = fault::truncatedJobTokens(plan, p, tokens);
        ASSERT_LT(kept, tokens) << "PU " << p;
        ASSERT_GE(kept, 1u) << "PU " << p;
        BitBuffer prefix = streams[p];
        prefix.resizeBits(kept * 8);
        auto golden = functional.run(prefix);
        EXPECT_TRUE(fleet.output(p) == golden.output) << "PU " << p;
    }
}

TEST(FaultInjection, ParityErrorContainsToAffectedPu)
{
    // Corrupted read beats are caught by the input controller's parity
    // check; the affected PU is quarantined while its channel-mates
    // complete with correct, fault-free-identical outputs.
    fault::FaultPlan plan;
    plan.seed = 4242;
    plan.corruptBeatPerMillion = 60000; // 6% of delivered beats.

    auto program = testprogs::identity();
    auto streams = randomStreams(8, 4096, 14);

    SystemConfig clean_config;
    clean_config.numChannels = 2;
    FleetSystem clean(program, clean_config, streams);
    clean.run();

    SystemConfig faulty_config = clean_config;
    faulty_config.faults = plan;
    FleetSystem faulty(program, faulty_config, streams);
    const RunReport &report = faulty.run();

    int parity_failures = 0;
    for (int p = 0; p < faulty.numPus(); ++p) {
        if (report.pus[p].status.code == StatusCode::ParityError) {
            ++parity_failures;
            // Partial output is readable and, for the identity unit, a
            // prefix of the fault-free output.
            BitBuffer partial = faulty.output(p);
            BitBuffer full = clean.output(p);
            ASSERT_LE(partial.sizeBits(), full.sizeBits());
            for (uint64_t bit = 0; bit < partial.sizeBits(); bit += 8) {
                int chunk = static_cast<int>(
                    std::min<uint64_t>(8, partial.sizeBits() - bit));
                ASSERT_EQ(partial.readBits(bit, chunk),
                          full.readBits(bit, chunk))
                    << "PU " << p << " bit " << bit;
            }
        } else {
            ASSERT_EQ(report.pus[p].status.code, StatusCode::Ok)
                << "PU " << p;
            EXPECT_TRUE(faulty.output(p) == clean.output(p)) << "PU " << p;
        }
    }
    // At this rate the chosen seed corrupts at least one beat; if the
    // hash mix ever changes, re-pick the seed rather than the rate.
    EXPECT_GT(parity_failures, 0);
    EXPECT_EQ(report.failedPuCount(), parity_failures);
    EXPECT_FALSE(report.allOk());
    for (const auto &channel : report.channels)
        EXPECT_TRUE(channel.ok()) << "channel-level status stays Ok; only "
                                     "PUs are contained";
}

TEST(FaultInjection, DisabledPlanBitIdenticalToFaultFree)
{
    // A plan with a seed but all rates zero is disabled: the injector
    // is never constructed and the run is bit-identical to the default
    // configuration.
    fault::FaultPlan plan;
    plan.seed = 999; // Seed alone does not enable anything.
    ASSERT_FALSE(plan.enabled());

    auto program = testprogs::blockFrequencies(32);
    auto streams = randomStreams(6, 1500, 15);

    SystemConfig clean_config;
    clean_config.numChannels = 3;
    FleetSystem clean(program, clean_config, streams);
    const RunReport &clean_report = clean.run();

    FleetSystem gated(program, faultConfig(plan, 0), streams);
    const RunReport &gated_report = gated.run();

    EXPECT_TRUE(clean_report == gated_report);
    EXPECT_TRUE(clean_report.allOk());
    EXPECT_EQ(clean.stats().cycles, gated.stats().cycles);
    for (int p = 0; p < clean.numPus(); ++p)
        EXPECT_TRUE(clean.output(p) == gated.output(p)) << "PU " << p;
}

TEST(FaultInjection, TracedRunRecordsContainmentInSharedTaxonomy)
{
    // Tracing a faulty run (ISSUE 3): tracing stays purely
    // observational under containment, and the trace records the
    // containment in the shared taxonomy — the quarantined unit's
    // remaining cycles land in the Done phase (so the phase counters
    // still sum to the channel cycle count), its counter set flags
    // `contained`, and its lane carries a marker naming the status.
    fault::FaultPlan plan;
    plan.seed = 4242;
    plan.corruptBeatPerMillion = 60000; // Same plan as the parity test.

    auto program = testprogs::identity();
    auto streams = randomStreams(8, 4096, 14);

    SystemConfig plain_config;
    plain_config.numChannels = 2;
    plain_config.faults = plan;
    FleetSystem plain(program, plain_config, streams);
    const RunReport &plain_report = plain.run();
    ASSERT_GT(plain_report.failedPuCount(), 0);

    SystemConfig traced_config = plain_config;
    traced_config.trace.counters = true;
    traced_config.trace.events = true;
    FleetSystem traced(program, traced_config, streams);
    const RunReport &traced_report = traced.run();

    // Purity under faults: same outcomes, cycles, and outputs.
    EXPECT_EQ(plain.stats().cycles, traced.stats().cycles);
    ASSERT_EQ(plain_report.pus.size(), traced_report.pus.size());
    for (int p = 0; p < plain.numPus(); ++p) {
        EXPECT_TRUE(plain_report.pus[p] == traced_report.pus[p])
            << "PU " << p;
        EXPECT_TRUE(plain.output(p) == traced.output(p)) << "PU " << p;
    }

    ASSERT_NE(traced_report.trace, nullptr);
    int contained_seen = 0;
    for (const trace::ChannelTrace &ch : traced_report.trace->channels) {
        for (const trace::CounterSet &set : ch.counters) {
            size_t pu_pos = set.name.find("/pu");
            if (pu_pos == std::string::npos)
                continue;
            int g = std::atoi(set.name.c_str() + pu_pos + 3);
            bool failed = !traced_report.pus[g].ok();
            EXPECT_EQ(set.get("contained"), failed ? 1u : 0u)
                << set.name;

            uint64_t phase_sum = 0;
            for (int ph = 0; ph < trace::kNumPuPhases; ++ph)
                phase_sum += set.get(
                    std::string(trace::puPhaseName(
                        static_cast<trace::PuPhase>(ph))) +
                    "_cycles");
            EXPECT_EQ(phase_sum, ch.cycles) << set.name;
            if (!failed)
                continue;
            ++contained_seen;
            EXPECT_GT(set.get(std::string(trace::puPhaseName(
                          trace::PuPhase::Done)) +
                          "_cycles"),
                      0u)
                << set.name << ": quarantined cycles must count as Done";

            // The unit's lane carries the containment marker, labelled
            // with the status name the report carries.
            std::string want =
                std::string("contained: ") +
                statusCodeName(traced_report.pus[g].status.code);
            bool found = false;
            for (const trace::Lane &lane : ch.lanes) {
                if (lane.globalPu != g)
                    continue;
                for (const trace::Marker &marker : lane.markers)
                    found = found || marker.label == want;
            }
            EXPECT_TRUE(found)
                << set.name << ": missing marker \"" << want << "\"";
        }
    }
    EXPECT_EQ(contained_seen, traced_report.failedPuCount());
}

TEST(FaultInjection, RegistryAppsDeterministicUnderMixedPlan)
{
    // The CI fault smoke: every registry application, mixed plan,
    // serial vs parallel — identical reports and outputs.
    auto plan = fault::FaultPlan::fromSeed(2026);
    auto apps = apps::allApplications();
    for (const auto &app : apps) {
        Rng rng(51);
        std::vector<BitBuffer> streams;
        for (int p = 0; p < 5; ++p)
            streams.push_back(app->generateStream(rng, 900));

        FleetSystem serial(app->program(), faultConfig(plan, 1), streams);
        const RunReport serial_report = serial.run();
        FleetSystem parallel(app->program(), faultConfig(plan, 4),
                             streams);
        const RunReport parallel_report = parallel.run();
        EXPECT_TRUE(serial_report == parallel_report) << app->name();
        for (int p = 0; p < serial.numPus(); ++p)
            EXPECT_TRUE(serial.output(p) == parallel.output(p))
                << app->name() << " PU " << p;
    }
}

// ---------------------------------------------------------------------------
// Faults under the multi-stream job runtime (ISSUE 5).
// ---------------------------------------------------------------------------

TEST(FaultInjection, SessionJobTruncationKeyedByJobId)
{
    // Per-job stream truncation is keyed by job id (not by the slot the
    // job happens to land on): each truncated job completes with a
    // StreamTruncated report, keptTokens matching the plan's hash, and
    // output equal to the functional simulation of exactly the kept
    // prefix — while untruncated jobs in the same queue run whole.
    fault::FaultPlan plan;
    plan.seed = 31337;
    plan.truncatePermille = 600;

    auto program = testprogs::streamSum(8, 32);
    auto streams = randomStreams(16, 500, 23);

    runtime::SessionConfig config;
    config.system.numChannels = 2;
    config.system.faults = plan;
    config.system.inputRegionBytes = 1024;
    config.numSlots = 4;
    config.epochCycles = 512;
    runtime::Session session(program, config);
    bench::ReportLog log;
    for (const auto &stream : streams)
        session.submit(stream, log.sink());
    const RunReport &report = session.finish();
    ASSERT_TRUE(report.allOk()) << report.summary();

    sim::FunctionalSimulator functional(program);
    int truncated = 0, whole = 0;
    for (uint64_t j = 0; j < streams.size(); ++j) {
        const runtime::JobReport &job = log[j];
        uint64_t tokens = streams[j].sizeBits() / 8;
        uint64_t kept = fault::truncatedJobTokens(plan, j, tokens);
        ASSERT_EQ(job.originalTokens, tokens) << "job " << j;
        ASSERT_EQ(job.keptTokens, kept) << "job " << j;
        BitBuffer prefix = streams[j];
        prefix.resizeBits(kept * 8);
        EXPECT_TRUE(job.output == functional.run(prefix).output)
            << "job " << j;
        if (kept < tokens) {
            ++truncated;
            EXPECT_EQ(job.status.code, StatusCode::StreamTruncated)
                << "job " << j;
        } else {
            ++whole;
            EXPECT_EQ(job.status.code, StatusCode::Ok) << "job " << j;
        }
    }
    // The seed must exercise both fates; re-pick it if the hash mix
    // ever changes.
    EXPECT_GT(truncated, 0);
    EXPECT_GT(whole, 0);
}

TEST(FaultInjection, SessionParityContainmentThenSlotReuse)
{
    // A parity-contained job is quarantined alone: its report carries
    // ParityError with a clean prefix of the fault-free output, the
    // slot is re-armed, and later jobs on the *same slot* complete
    // with golden outputs — containment does not leak across jobs.
    fault::FaultPlan plan;
    plan.seed = 4242;
    plan.corruptBeatPerMillion = 8000; // ~0.8% of delivered beats.

    auto program = testprogs::identity();
    auto streams = randomStreams(12, 4096, 14);

    auto makeConfig = [&](bool faulty) {
        runtime::SessionConfig config;
        config.system.numChannels = 2;
        config.system.inputRegionBytes = 8192;
        if (faulty)
            config.system.faults = plan;
        config.numSlots = 4;
        config.epochCycles = 1024;
        return config;
    };

    runtime::Session faulty(program, makeConfig(true));
    bench::ReportLog log;
    for (const auto &stream : streams)
        faulty.submit(stream, log.sink());
    faulty.finish();

    sim::FunctionalSimulator functional(program);
    int failures = 0;
    std::vector<uint64_t> last_failed_arm(4, 0);
    std::vector<bool> slot_failed(4, false), reused_after_fail(4, false);
    for (uint64_t j = 0; j < streams.size(); ++j) {
        const runtime::JobReport &job = log[j];
        BitBuffer golden = functional.run(streams[j]).output;
        ASSERT_GE(job.pu, 0);
        if (job.status.code == StatusCode::ParityError) {
            ++failures;
            slot_failed[job.pu] = true;
            last_failed_arm[job.pu] = job.armCycle;
            // Partial output is a clean prefix of the golden stream.
            ASSERT_LE(job.output.sizeBits(), golden.sizeBits());
            for (uint64_t bit = 0; bit < job.output.sizeBits();
                 bit += 8) {
                int chunk = static_cast<int>(
                    std::min<uint64_t>(8, job.output.sizeBits() - bit));
                ASSERT_EQ(job.output.readBits(bit, chunk),
                          golden.readBits(bit, chunk))
                    << "job " << j << " bit " << bit;
            }
        } else {
            ASSERT_EQ(job.status.code, StatusCode::Ok) << "job " << j;
            EXPECT_TRUE(job.output == golden) << "job " << j;
            if (slot_failed[job.pu] &&
                job.armCycle > last_failed_arm[job.pu])
                reused_after_fail[job.pu] = true;
        }
    }
    // The chosen seed corrupts at least one job's stream AND leaves a
    // later job on that same slot healthy; if the hash mix changes,
    // re-pick the seed rather than the rate.
    EXPECT_GT(failures, 0);
    bool any_reuse = false;
    for (int p = 0; p < 4; ++p)
        any_reuse = any_reuse || reused_after_fail[p];
    EXPECT_TRUE(any_reuse)
        << "no slot served a healthy job after a contained one";
}

} // namespace
} // namespace system
} // namespace fleet

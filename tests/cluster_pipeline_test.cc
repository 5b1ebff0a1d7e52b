/**
 * @file
 * Cluster + pipeline suite (ISSUE 10). Pins the acceptance criteria:
 * a 1-device cluster is cycle-exact with driving FleetSystem directly;
 * a two-stage pipeline across two devices produces exactly the
 * sequential composition of its stages; the conservation law (bits out
 * of stage k == bits onto the edge == bits off the edge == bits into
 * stage k+1) holds on every edge, cross-device and local; a slow link
 * backpressures the upstream stage end to end; and the whole thing is
 * bit-identical across host thread counts and PU backends.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "cluster/cluster.h"
#include "cluster/pipeline.h"
#include "runtime/session.h"
#include "sim/simulator.h"
#include "test_programs.h"
#include "util/rng.h"

namespace fleet {
namespace cluster {
namespace {

std::vector<BitBuffer>
byteStreams(int count, uint64_t max_bytes, uint64_t seed)
{
    Rng rng(seed);
    std::vector<BitBuffer> streams;
    for (int j = 0; j < count; ++j) {
        BitBuffer s;
        uint64_t bytes = 16 + rng.nextBelow(max_bytes);
        for (uint64_t i = 0; i < bytes; ++i)
            s.appendBits(rng.next(), 8);
        streams.push_back(std::move(s));
    }
    return streams;
}

uint32_t
byteSum(const BitBuffer &stream)
{
    uint32_t sum = 0;
    for (uint64_t off = 0; off < stream.sizeBits(); off += 8)
        sum += static_cast<uint32_t>(stream.readBits(off, 8));
    return sum;
}

/** Run `stream` through `programs` in order on the functional
 * simulator: the output a pipeline of those stages must produce. */
BitBuffer
composition(const std::vector<lang::Program> &programs, BitBuffer stream)
{
    for (const lang::Program &program : programs)
        stream = sim::FunctionalSimulator(program).run(stream).output;
    return stream;
}

/** Max over the device session clocks: the cluster clock without the
 * time a pipeline spent waiting on the wire. */
uint64_t
deviceClock(const Cluster &cluster)
{
    uint64_t clock = 0;
    for (int d = 0; d < cluster.numDevices(); ++d)
        clock = std::max(clock, cluster.deviceSystem(d).sessionCycles());
    return clock;
}

TEST(Cluster, OneDeviceClusterIsCycleExactWithTheSystem)
{
    // The refactor's contract: wrapping a FleetSystem in a 1-device
    // cluster adds indexing, not behaviour — same outputs, same cycle
    // counts, same RunReport (trace included).
    auto program = testprogs::blockFrequencies(32);
    auto streams = byteStreams(6, 300, 7);

    system::SystemConfig config;
    config.numChannels = 3;
    config.numThreads = 2;
    config.trace.counters = true;
    config.trace.events = true;
    config.inputRegionBytes = 4096;

    // Direct session-mode FleetSystem drive.
    system::FleetSystem direct(
        std::vector<lang::Program>(1, program), config, 6, {});
    direct.beginSession();
    for (size_t j = 0; j < streams.size(); ++j)
        ASSERT_TRUE(
            direct.armJob(static_cast<int>(j), streams[j], j).ok());
    while (true) {
        bool all = true;
        for (size_t j = 0; j < streams.size(); ++j)
            all &= direct.puDrained(static_cast<int>(j));
        if (all)
            break;
        direct.stepEpoch(512);
    }
    std::vector<BitBuffer> direct_outputs;
    for (size_t j = 0; j < streams.size(); ++j) {
        direct_outputs.push_back(direct.jobOutput(static_cast<int>(j)));
        direct.retireJob(static_cast<int>(j));
    }
    const system::RunReport &direct_report = direct.finishSession();

    // The same drive through a 1-device cluster, global indices.
    Cluster cluster({program}, {DeviceSpec{{0}, 6, {}}}, config,
                    LinkParams{});
    cluster.beginSession();
    for (size_t j = 0; j < streams.size(); ++j)
        ASSERT_TRUE(
            cluster.armJob(static_cast<int>(j), streams[j], j).ok());
    while (true) {
        bool all = true;
        for (size_t j = 0; j < streams.size(); ++j)
            all &= cluster.puDrained(static_cast<int>(j));
        if (all)
            break;
        cluster.stepEpoch(512);
    }
    for (size_t j = 0; j < streams.size(); ++j) {
        EXPECT_TRUE(cluster.jobOutput(static_cast<int>(j)) ==
                    direct_outputs[j])
            << "job " << j << ": outputs diverge through the cluster";
        cluster.retireJob(static_cast<int>(j));
    }
    const ClusterReport &report = cluster.finishSession();
    ASSERT_EQ(report.devices.size(), 1u);
    EXPECT_TRUE(report.devices[0] == direct_report)
        << "1-device ClusterReport is not cycle-exact with the "
           "direct FleetSystem drive";
    EXPECT_TRUE(report.allOk());
}

TEST(Cluster, TwoDeviceSessionSchedulesAcrossDevices)
{
    // A 2-device session doubles the slot pool; with more jobs than
    // one device's slots, both devices must take work, and every
    // report's (device, channel, pu) triple must be consistent under
    // the global device-major indexing.
    auto program = testprogs::identity();
    auto streams = byteStreams(24, 400, 11);

    runtime::SessionConfig config;
    config.system.numChannels = 2;
    config.system.numThreads = 2;
    config.system.inputRegionBytes = 4096;
    config.numSlots = 4;
    config.numDevices = 2;
    runtime::Session session(program, config);
    ASSERT_EQ(session.numDevices(), 2);
    ASSERT_EQ(session.cluster().numSlots(), 8);
    for (const auto &stream : streams)
        session.submit(stream);
    session.finish();

    std::vector<uint64_t> per_device(2, 0);
    for (const auto &report : session.reports()) {
        ASSERT_TRUE(report.ok()) << report.status.toString();
        ASSERT_GE(report.device, 0);
        ASSERT_LT(report.device, 2);
        ++per_device[report.device];
        EXPECT_EQ(report.device,
                  session.cluster().slotDevice(report.pu));
        EXPECT_EQ(report.channel,
                  session.cluster().slotChannel(report.pu));
        EXPECT_TRUE(report.output == streams[report.jobId])
            << "identity output mismatch for job " << report.jobId;
    }
    EXPECT_GT(per_device[0], 0u) << "device 0 took no jobs";
    EXPECT_GT(per_device[1], 0u) << "device 1 took no jobs";

    const ClusterReport &report = session.clusterReport();
    ASSERT_EQ(report.devices.size(), 2u);
    EXPECT_TRUE(report.allOk());
}

TEST(Cluster, PreferredDeviceHintSteersPlacement)
{
    auto program = testprogs::identity();
    runtime::SessionConfig config;
    config.system.numChannels = 2;
    config.system.numThreads = 1;
    config.system.inputRegionBytes = 4096;
    config.numSlots = 4;
    config.numDevices = 2;
    runtime::Session session(program, config);
    auto streams = byteStreams(8, 100, 3);
    for (size_t j = 0; j < streams.size(); ++j) {
        runtime::JobTag tag;
        tag.preferredDevice = static_cast<int>(j % 2);
        session.submitJob(streams[j], tag, session.cycles());
    }
    session.finish();
    for (const auto &report : session.reports()) {
        ASSERT_TRUE(report.ok());
        // 8 jobs, 8 slots, hints honoured in sweep one: every job
        // lands on its preferred device.
        EXPECT_EQ(report.device, static_cast<int>(report.jobId % 2))
            << "job " << report.jobId << " ignored its device hint";
    }
}

TEST(Pipeline, TwoStageAcrossTwoDevicesComputesTheComposition)
{
    // identity (device 0) -> streamSum (device 1): the pipeline's
    // output must equal running the stages sequentially, i.e. the
    // byte-sum of each input stream.
    auto streams = byteStreams(10, 500, 23);

    PipelineConfig config;
    config.system.numChannels = 2;
    config.system.numThreads = 2;
    config.system.inputRegionBytes = 4096;
    config.link.latencyCycles = 200;
    config.link.bytesPerCycle = 8;
    std::vector<StageSpec> stages;
    stages.push_back({testprogs::identity(), 0, 2});
    stages.push_back({testprogs::streamSum(), 1, 2});
    Pipeline pipeline(stages, config);
    for (const auto &stream : streams)
        pipeline.submit(stream);
    const ClusterReport &report = pipeline.finish();
    ASSERT_EQ(report.devices.size(), 2u);

    for (size_t j = 0; j < streams.size(); ++j) {
        const PipelineJobReport &job = pipeline.report(j);
        ASSERT_TRUE(job.ok()) << "job " << j << ": "
                              << job.status.toString();
        ASSERT_EQ(job.output.sizeBits(), 32u);
        EXPECT_EQ(static_cast<uint32_t>(job.output.readBits(0, 32)),
                  byteSum(streams[j]))
            << "job " << j << " pipeline result != composition";
        EXPECT_GT(job.linkBits, 0u) << "job crossed no link?";
        EXPECT_GT(job.doneCycle, job.submitCycle);
    }
}

TEST(Pipeline, ConservationLawHoldsOnEveryEdge)
{
    auto streams = byteStreams(8, 600, 31);
    PipelineConfig config;
    config.system.numChannels = 2;
    config.system.numThreads = 2;
    config.system.inputRegionBytes = 4096;
    config.link.latencyCycles = 100;
    config.link.bytesPerCycle = 4;
    config.chunkBytes = 64; // Many chunks per stream.
    // Three identity stages so every byte flows through whole: edge 0
    // crosses devices, edge 1 is device-local (stages sharing device 1
    // must share token widths, so both of its stages are identity).
    std::vector<StageSpec> stages;
    stages.push_back({testprogs::identity(), 0, 2});
    stages.push_back({testprogs::identity(), 1, 2});
    stages.push_back({testprogs::identity(), 1, 2});
    Pipeline pipeline(stages, config);
    uint64_t total_bits = 0;
    for (const auto &stream : streams) {
        total_bits += stream.sizeBits();
        pipeline.submit(stream);
    }
    pipeline.run();
    for (size_t j = 0; j < streams.size(); ++j)
        ASSERT_TRUE(pipeline.report(j).ok());

    // Edge 0 crosses devices; edge 1 is device-local. The law holds on
    // both, and the cross-device edge's accounting must agree with the
    // cluster link's own counters.
    for (int e = 0; e < 2; ++e) {
        auto law = pipeline.edgeConservation(e);
        EXPECT_EQ(law.stageOutBits, law.linkBitsAccepted) << "edge " << e;
        EXPECT_EQ(law.linkBitsAccepted, law.linkBitsDelivered)
            << "edge " << e;
        EXPECT_EQ(law.linkBitsDelivered, law.stageInBits) << "edge " << e;
        // identity stages: everything submitted flows through whole.
        EXPECT_EQ(law.stageOutBits, total_bits) << "edge " << e;
    }
    EXPECT_TRUE(pipeline.edgeConservation(0).crossDevice);
    EXPECT_FALSE(pipeline.edgeConservation(1).crossDevice);
    const Link &link = pipeline.cluster().link(0, 1);
    EXPECT_EQ(link.counters().bitsAccepted, total_bits);
    EXPECT_EQ(link.counters().bitsDelivered, total_bits);
    EXPECT_EQ(link.counters().messagesAccepted,
              link.counters().messagesDelivered);
}

TEST(Pipeline, SlowLinkBackpressuresTheUpstreamStage)
{
    // The same job mix through a wide and a narrow link: the narrow
    // link must (a) keep its serializer busy far longer, and (b) delay
    // later jobs' *stage-0 arms* — upstream slots stay busy holding
    // output the edge cannot take yet, which is exactly end-to-end
    // backpressure through the bounded queues.
    auto streams = byteStreams(12, 800, 47);
    auto run = [&](uint64_t bytes_per_cycle) {
        PipelineConfig config;
        config.system.numChannels = 1;
        config.system.numThreads = 1;
        config.system.inputRegionBytes = 4096;
        config.link.latencyCycles = 50;
        config.link.bytesPerCycle = bytes_per_cycle;
        config.link.windowBytes = 1024;
        config.chunkBytes = 256;
        config.stageQueueDepth = 1; // Tight credits: stalls bite fast.
        std::vector<StageSpec> stages;
        stages.push_back({testprogs::identity(), 0, 1});
        stages.push_back({testprogs::streamSum(), 1, 1});
        Pipeline pipeline(stages, config);
        for (const auto &stream : streams)
            pipeline.submit(stream);
        pipeline.run();
        uint64_t last_arm = 0, done = 0;
        for (size_t j = 0; j < streams.size(); ++j) {
            const PipelineJobReport &job = pipeline.report(j);
            EXPECT_TRUE(job.ok()) << job.status.toString();
            last_arm = std::max(last_arm, job.stageArmCycle[0]);
            done = std::max(done, job.doneCycle);
        }
        return std::make_tuple(
            last_arm, done,
            pipeline.cluster().link(0, 1).counters().busyCycles);
    };
    auto [wide_arm, wide_done, wide_busy] = run(64);
    auto [narrow_arm, narrow_done, narrow_busy] = run(1);
    EXPECT_GT(narrow_busy, wide_busy);
    EXPECT_GT(narrow_done, wide_done)
        << "a 64x narrower link did not stretch completion";
    EXPECT_GT(narrow_arm, wide_arm)
        << "backpressure never reached stage 0's arm schedule";
}

TEST(Pipeline, DeterministicAcrossThreadCountsAndBackends)
{
    // The full fence: PipelineJobReports and the settled ClusterReport
    // (traces, link counters, link tracks) are bit-identical across
    // host thread counts; and the schedule-defining fields survive a
    // backend swap (Fast vs RtlInterp run the same placement).
    auto streams = byteStreams(9, 350, 59);
    auto run = [&](int threads, system::PuBackend backend) {
        PipelineConfig config;
        config.system.numChannels = 2;
        config.system.numThreads = threads;
        config.system.backend = backend;
        config.system.trace.counters = true;
        config.system.trace.events = true;
        config.system.inputRegionBytes = 4096;
        config.link.latencyCycles = 150;
        config.link.bytesPerCycle = 8;
        config.link.seed = 9;
        config.link.spikePermille = 200;
        config.link.spikeCycles = 500;
        config.chunkBytes = 128;
        std::vector<StageSpec> stages;
        stages.push_back({testprogs::identity(), 0, 2});
        stages.push_back({testprogs::streamSum(), 1, 2});
        Pipeline pipeline(stages, config);
        for (const auto &stream : streams)
            pipeline.submit(stream);
        ClusterReport report = pipeline.finish();
        return std::make_pair(pipeline.reports(), std::move(report));
    };
    auto [serial_jobs, serial_report] =
        run(1, system::PuBackend::Fast);
    auto [parallel_jobs, parallel_report] =
        run(4, system::PuBackend::Fast);
    ASSERT_TRUE(serial_report == parallel_report)
        << "pipeline ClusterReport diverges across thread counts";
    ASSERT_EQ(serial_jobs.size(), parallel_jobs.size());
    for (size_t j = 0; j < serial_jobs.size(); ++j)
        EXPECT_TRUE(serial_jobs[j] == parallel_jobs[j]) << "job " << j;
    // Backend swap: identical outputs and identical link traffic (the
    // placement/transfer schedule is backend-independent).
    auto [rtl_jobs, rtl_report] =
        run(2, system::PuBackend::RtlInterp);
    ASSERT_EQ(rtl_jobs.size(), serial_jobs.size());
    for (size_t j = 0; j < serial_jobs.size(); ++j) {
        EXPECT_TRUE(rtl_jobs[j].output == serial_jobs[j].output)
            << "job " << j << " output diverges across backends";
        EXPECT_EQ(rtl_jobs[j].linkBits, serial_jobs[j].linkBits)
            << "job " << j;
    }
    ASSERT_EQ(rtl_report.linkCounters.size(),
              serial_report.linkCounters.size());
    for (size_t l = 0; l < serial_report.linkCounters.size(); ++l)
        EXPECT_TRUE(rtl_report.linkCounters[l] ==
                    serial_report.linkCounters[l])
            << "link " << l << " counters diverge across backends";
}

TEST(Pipeline, LinkFaultSpikesDelayButNeverCorrupt)
{
    auto streams = byteStreams(6, 400, 71);
    auto run = [&](uint32_t spike_permille) {
        PipelineConfig config;
        config.system.numChannels = 1;
        config.system.numThreads = 2;
        config.system.inputRegionBytes = 4096;
        config.link.latencyCycles = 100;
        config.link.bytesPerCycle = 8;
        config.link.seed = 1234;
        config.link.spikePermille = spike_permille;
        config.link.spikeCycles = 5000;
        config.chunkBytes = 64;
        std::vector<StageSpec> stages;
        stages.push_back({testprogs::identity(), 0, 1});
        stages.push_back({testprogs::streamSum(), 1, 1});
        Pipeline pipeline(stages, config);
        for (const auto &stream : streams)
            pipeline.submit(stream);
        pipeline.run();
        uint64_t done = 0;
        for (size_t j = 0; j < streams.size(); ++j) {
            const PipelineJobReport &job = pipeline.report(j);
            EXPECT_TRUE(job.ok());
            EXPECT_EQ(static_cast<uint32_t>(job.output.readBits(0, 32)),
                      byteSum(streams[j]))
                << "spikes corrupted job " << j;
            done = std::max(done, job.doneCycle);
        }
        return std::make_pair(
            done, pipeline.cluster().link(0, 1).counters().spikes);
    };
    auto [clean_done, clean_spikes] = run(0);
    auto [spiked_done, spiked_spikes] = run(800);
    EXPECT_EQ(clean_spikes, 0u);
    EXPECT_GT(spiked_spikes, 0u);
    EXPECT_GT(spiked_done, clean_done)
        << "latency spikes did not slow the pipeline";
}

TEST(Pipeline, TokenWidthMismatchIsRejectedAtConstruction)
{
    PipelineConfig config;
    config.system.numChannels = 1;
    std::vector<StageSpec> stages;
    stages.push_back({testprogs::streamSum(), 0, 1}); // Emits 32-bit.
    stages.push_back({testprogs::identity(), 1, 1});  // Consumes 8-bit.
    try {
        Pipeline pipeline(stages, config);
        FAIL() << "mismatched stage widths must throw";
    } catch (const StatusError &error) {
        EXPECT_EQ(error.status().code, StatusCode::InvalidArgument);
    }
}

TEST(Pipeline, MergedTraceCarriesDeviceRowsAndLinkTracks)
{
    auto streams = byteStreams(4, 200, 83);
    PipelineConfig config;
    config.system.numChannels = 2;
    config.system.numThreads = 1;
    config.system.trace.counters = true;
    config.system.trace.events = true;
    config.system.inputRegionBytes = 4096;
    config.link.latencyCycles = 50;
    config.link.bytesPerCycle = 8;
    std::vector<StageSpec> stages;
    stages.push_back({testprogs::identity(), 0, 1});
    stages.push_back({testprogs::streamSum(), 1, 1});
    Pipeline pipeline(stages, config);
    for (const auto &stream : streams)
        pipeline.submit(stream);
    const ClusterReport &report = pipeline.finish();
    ASSERT_EQ(report.devices.size(), 2u);
    for (const auto &device : report.devices)
        ASSERT_NE(device.trace, nullptr);
    // Link-utilization tracks exist (events mode) and the link between
    // the stage devices saw traffic.
    ASSERT_FALSE(report.linkTracks.empty());
    bool saw_link_track = false;
    for (const auto &track : report.linkTracks)
        saw_link_track |=
            track.name == "link/d0->d1/inflight_bytes" &&
            !track.samples.empty();
    EXPECT_TRUE(saw_link_track);
    bool saw_link_counters = false;
    for (const auto &set : report.linkCounters)
        saw_link_counters |= set.name == "link/d0->d1" &&
                             set.get("payload_bits_delivered") > 0;
    EXPECT_TRUE(saw_link_counters);
}

TEST(Pipeline, ThreeStageScheduleIsPinned)
{
    // The exact schedule of a 3-stage pipeline on devices 0 -> 1 -> 0:
    // edge 0 crosses to device 1 and edge 1 crosses back, and device
    // 0's slots (stages 0 and 2) come before stage 1's in the
    // device-major slot order. The link is narrow and every stage has
    // one credit. The stage-1 histogram grows each stream about 8x, so
    // edge 1 is the bottleneck: drained slots are held by backpressure,
    // and the pipeline clock runs ahead of every device while the last
    // streams cross the wire. Both are asserted from the public API.
    struct Golden
    {
        StatusCode code;
        uint64_t arm[3];
        uint64_t retire[3];
        uint64_t done;
        uint64_t linkBits;
        uint64_t outputBits;
    };
    // Job j: status, stage arm and retire cycles, done cycle, link
    // bits, output bits.
    const StatusCode kOk = StatusCode::Ok;
    const Golden kGolden[] = {
        {kOk, {0, 648, 1930}, {256, 1025, 3161}, 3161, 7088, 6144},
        {kOk, {0, 8429, 11924}, {6696, 10255, 13752}, 13752, 13824, 12288},
        {kOk, {256, 1025, 3161}, {431, 1930, 4328}, 4328, 7080, 6144},
        {kOk, {431, 1930, 4328}, {648, 2905, 5254}, 5254, 7088, 6144},
        {kOk, {648, 2905, 5254}, {1219, 3304, 5510}, 5510, 2384, 2048},
        {kOk, {1219, 3304, 6696}, {2186, 4842, 7178}, 7178, 11704, 10240},
        {kOk, {2186, 4842, 7178}, {3161, 5254, 7468}, 7468, 2424, 2048},
        {kOk, {3161, 5254, 7946}, {3560, 6696, 8941}, 8941, 4640, 4096},
        {kOk, {3560, 6696, 9197}, {5098, 7306, 10255}, 10255, 9384, 8192},
        {kOk, {5098, 7306, 10255}, {5510, 8429, 11412}, 11412, 9224, 8192},
    };
    const uint64_t kCycles = 13752;

    PipelineConfig config;
    config.system.numChannels = 2;
    config.system.numThreads = 1;
    config.system.inputRegionBytes = 4096;
    config.epochCycles = 256;
    config.link.latencyCycles = 120;
    config.link.bytesPerCycle = 2;
    config.link.windowBytes = 256;
    config.chunkBytes = 64;
    config.stageQueueDepth = 1;
    const std::vector<lang::Program> programs = {
        testprogs::identity(), testprogs::blockFrequencies(32),
        testprogs::identity()};
    std::vector<StageSpec> stages;
    stages.push_back({programs[0], 0, 2});
    stages.push_back({programs[1], 1, 1});
    stages.push_back({programs[2], 0, 1});
    Pipeline pipeline(stages, config);
    auto streams = byteStreams(10, 200, 89);
    for (const auto &stream : streams)
        pipeline.submit(stream);

    // Stage 0 runs on global slots 0 and 1. Every stage-0 slot that is
    // drained when a round starts is either retired in that round or
    // held; a held slot shows as a retire count short of it.
    auto stage0Retired = [&] {
        int retired = 0;
        for (const PipelineJobReport &job : pipeline.reports())
            retired += job.stageRetireCycle[0] != 0 ? 1 : 0;
        return retired;
    };
    bool held = false, wire_ahead = false;
    for (bool more = true; more;) {
        int drained = 0;
        for (int slot = 0; slot < 2; ++slot)
            drained += pipeline.cluster().puDrained(slot) ? 1 : 0;
        const int before = stage0Retired();
        more = pipeline.step();
        held |= stage0Retired() - before < drained;
        wire_ahead |= pipeline.cycles() > deviceClock(pipeline.cluster());
    }
    EXPECT_TRUE(held) << "no drained slot was held by backpressure";
    EXPECT_TRUE(wire_ahead) << "the wire clock never ran ahead";

    ASSERT_EQ(pipeline.reports().size(), std::size(kGolden));
    for (size_t j = 0; j < streams.size(); ++j) {
        const PipelineJobReport &job = pipeline.report(j);
        const Golden &want = kGolden[j];
        EXPECT_EQ(job.status.code, want.code) << "job " << j;
        EXPECT_EQ(job.failedStage, -1) << "job " << j;
        EXPECT_EQ(job.submitCycle, 0u) << "job " << j;
        for (int s = 0; s < 3; ++s) {
            EXPECT_EQ(job.stageArmCycle[s], want.arm[s])
                << "job " << j << " stage " << s;
            EXPECT_EQ(job.stageRetireCycle[s], want.retire[s])
                << "job " << j << " stage " << s;
        }
        EXPECT_EQ(job.doneCycle, want.done) << "job " << j;
        EXPECT_EQ(job.linkBits, want.linkBits) << "job " << j;
        EXPECT_EQ(job.output.sizeBits(), want.outputBits) << "job " << j;
        EXPECT_TRUE(job.output == composition(programs, streams[j]))
            << "job " << j << " output != composition";
    }
    EXPECT_EQ(pipeline.cycles(), kCycles);
    EXPECT_TRUE(pipeline.finish().allOk());
}

TEST(Pipeline, OversizedStageOutputFailsAtTheNextStage)
{
    // The stage-0 histogram emits 256 bytes per 16 input bytes, so a
    // 320-byte stream leaves stage 0 larger than stage 1's 4 KiB input
    // region: that job fails at stage 1's arm, and the rest complete.
    PipelineConfig config;
    config.system.numChannels = 1;
    config.system.numThreads = 1;
    config.system.inputRegionBytes = 4096;
    config.link.latencyCycles = 50;
    config.link.bytesPerCycle = 16;
    const std::vector<lang::Program> programs = {
        testprogs::blockFrequencies(16), testprogs::identity()};
    std::vector<StageSpec> stages;
    stages.push_back({programs[0], 0, 1});
    stages.push_back({programs[1], 1, 1});
    Pipeline pipeline(stages, config);
    auto streams = byteStreams(4, 100, 97);
    streams.insert(streams.begin() + 2, byteStreams(1, 1, 5)[0]);
    while (streams[2].sizeBits() < 320 * 8)
        streams[2].appendBits(0x5a, 8);
    const uint64_t region_bits = 4096 * 8;
    ASSERT_GT(composition(programs, streams[2]).sizeBits(), region_bits);
    for (const auto &stream : streams)
        pipeline.submit(stream);
    pipeline.run();
    for (size_t j = 0; j < streams.size(); ++j) {
        const PipelineJobReport &job = pipeline.report(j);
        if (j == 2) {
            EXPECT_EQ(job.status.code, StatusCode::InvalidArgument)
                << job.status.toString();
            EXPECT_EQ(job.failedStage, 1);
            EXPECT_EQ(job.output.sizeBits(), 0u);
            continue;
        }
        ASSERT_TRUE(job.ok()) << "job " << j << ": "
                              << job.status.toString();
        EXPECT_EQ(job.failedStage, -1);
        EXPECT_TRUE(job.output == composition(programs, streams[j]))
            << "job " << j << " output != composition";
    }
}

TEST(Pipeline, HaltedStageChannelStrandsItsInFlightJob)
{
    // Job 0 runs alone until stage 1 arms it; then the channel under
    // its slot halts mid-run. The job is stranded with the channel's
    // status at stage 1, and the jobs after it complete on the other
    // stage-1 slot.
    PipelineConfig config;
    config.system.numChannels = 2;
    config.system.numThreads = 1;
    config.system.inputRegionBytes = 4096;
    config.epochCycles = 128;
    config.link.latencyCycles = 50;
    config.link.bytesPerCycle = 64;
    std::vector<StageSpec> stages;
    stages.push_back({testprogs::identity(), 0, 2});
    stages.push_back({testprogs::streamSum(), 1, 2});
    Pipeline pipeline(stages, config);
    auto streams = byteStreams(5, 300, 101);
    streams[0] = BitBuffer{};
    for (int i = 0; i < 3000; ++i)
        streams[0].appendBits(static_cast<uint64_t>(i * 7), 8);

    pipeline.submit(streams[0]);
    while (pipeline.reports()[0].stageArmCycle[1] == 0)
        ASSERT_TRUE(pipeline.step());
    // Stage 1's first slot follows stage 0's two on device 0.
    const int slot = 2;
    ASSERT_EQ(pipeline.cluster().slotDevice(slot), 1);
    ASSERT_FALSE(pipeline.cluster().puDrained(slot));
    pipeline.cluster().forceHaltChannel(
        pipeline.cluster().slotChannel(slot),
        Status::make(StatusCode::WatchdogStall, "halt drill"));
    for (size_t j = 1; j < streams.size(); ++j)
        pipeline.submit(streams[j]);
    pipeline.run();

    const PipelineJobReport &stranded = pipeline.report(0);
    EXPECT_EQ(stranded.status.code, StatusCode::WatchdogStall)
        << stranded.status.toString();
    EXPECT_EQ(stranded.failedStage, 1);
    EXPECT_EQ(stranded.output.sizeBits(), 0u);
    for (size_t j = 1; j < streams.size(); ++j) {
        const PipelineJobReport &job = pipeline.report(j);
        ASSERT_TRUE(job.ok()) << "job " << j << ": "
                              << job.status.toString();
        ASSERT_EQ(job.output.sizeBits(), 32u);
        EXPECT_EQ(static_cast<uint32_t>(job.output.readBits(0, 32)),
                  byteSum(streams[j]))
            << "job " << j;
    }
}

TEST(Pipeline, StageWithEveryChannelHaltedFailsItsQueuedJobs)
{
    // Job 0 completes; then every channel of stage 1's device halts.
    // Later jobs still run stage 0, but stage 1 has no live slot left,
    // so each fails there with InvalidState.
    PipelineConfig config;
    config.system.numChannels = 2;
    config.system.numThreads = 1;
    config.system.inputRegionBytes = 4096;
    config.link.latencyCycles = 50;
    config.link.bytesPerCycle = 16;
    std::vector<StageSpec> stages;
    stages.push_back({testprogs::identity(), 0, 1});
    stages.push_back({testprogs::streamSum(), 1, 2});
    Pipeline pipeline(stages, config);
    auto streams = byteStreams(4, 200, 103);
    pipeline.submit(streams[0]);
    pipeline.run();
    const PipelineJobReport &first = pipeline.report(0);
    ASSERT_TRUE(first.ok()) << first.status.toString();
    EXPECT_EQ(static_cast<uint32_t>(first.output.readBits(0, 32)),
              byteSum(streams[0]));

    Cluster &cluster = pipeline.cluster();
    for (int c = 0; c < cluster.numChannels(); ++c)
        if (cluster.channelDevice(c) == 1)
            cluster.forceHaltChannel(
                c, Status::make(StatusCode::WatchdogStall, "halt drill"));
    for (size_t j = 1; j < streams.size(); ++j)
        pipeline.submit(streams[j]);
    pipeline.run();
    for (size_t j = 1; j < streams.size(); ++j) {
        const PipelineJobReport &job = pipeline.report(j);
        EXPECT_EQ(job.status.code, StatusCode::InvalidState)
            << "job " << j << ": " << job.status.toString();
        EXPECT_EQ(job.failedStage, 1) << "job " << j;
        EXPECT_EQ(job.stageRetireCycle[1], 0u) << "job " << j;
        EXPECT_NE(job.stageRetireCycle[0], 0u) << "job " << j;
    }
}

} // namespace
} // namespace cluster
} // namespace fleet

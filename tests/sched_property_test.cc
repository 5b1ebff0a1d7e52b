/**
 * @file
 * Scheduler property harness (ISSUE 8). Three families of properties
 * over seeded random tenant mixes:
 *
 *  1. *Schedule determinism*: for every policy, the job→slot schedule,
 *     the JobReports, and the settled RunReport (traces included) are
 *     bit-identical across PU backends ({Fast, Rtl}) and host
 *     thread counts ({1, N}).
 *  2. *Work conservation*: after any scheduler round, no parked live
 *     slot coexists with a queued job of its program.
 *  3. *WFQ no-starvation*: a paced victim tenant sharing the pool with
 *     a flood tenant drains within a bounded horizon, and its worst
 *     job latency under WFQ beats FIFO's (which serves the entire
 *     flood backlog first).
 *
 * Plus direct unit fuzz of the pure policies (valid, deterministic,
 * compatible picks), multi-program routing on every PU engine, and the
 * multi-program area/width checks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "model/area.h"
#include "report_log.h"
#include "runtime/scheduler.h"
#include "runtime/session.h"
#include "sim/simulator.h"
#include "system/pu_backend.h"
#include "test_programs.h"
#include "util/rng.h"

namespace fleet {
namespace runtime {
namespace {

using bench::ReportLog;

BitBuffer
randomStream(Rng &rng, uint64_t bytes)
{
    BitBuffer stream;
    for (uint64_t i = 0; i < bytes; ++i)
        stream.appendBits(rng.next(), 8);
    return stream;
}

BitBuffer
goldenOutput(const lang::Program &program, const BitBuffer &stream)
{
    sim::FunctionalSimulator simulator(program);
    return simulator.run(stream).output;
}

// ---------------------------------------------------------------------------
// Unit fuzz: every policy picks a valid, compatible candidate, and two
// schedulers replaying the same history agree on every pick.
// ---------------------------------------------------------------------------

/** Queue a job of `bits` stream bits: the pure policies read only a
 * queued job's tag and stream size. */
void
pushJob(JobQueue &queue, uint64_t bits, const JobTag &tag,
        uint64_t enqueue_cycle = 0)
{
    BitBuffer stream;
    stream.resizeBits(bits);
    queue.push(std::move(stream), nullptr, enqueue_cycle, 0, 0, tag);
}

void
pushRandomJob(Rng &rng, JobQueue &queue, uint32_t num_programs)
{
    const uint64_t enqueue_cycle = rng.nextBelow(10000);
    const uint64_t bits = 8 * (1 + rng.nextBelow(4096));
    JobTag tag;
    tag.tenant = static_cast<uint32_t>(rng.nextBelow(4));
    tag.programIndex = static_cast<uint32_t>(rng.nextBelow(num_programs));
    tag.priority = static_cast<uint32_t>(rng.nextBelow(3));
    pushJob(queue, bits, tag, enqueue_cycle);
}

TEST(SchedulerFuzz, PicksAreValidCompatibleAndDeterministic)
{
    const SchedulerPolicy policies[] = {
        SchedulerPolicy::Fifo, SchedulerPolicy::Priority,
        SchedulerPolicy::Sjf, SchedulerPolicy::Wfq};
    for (SchedulerPolicy policy : policies) {
        for (uint64_t seed = 1; seed <= 5; ++seed) {
            SchedulerConfig config;
            config.policy = policy;
            config.weights = {{0, 4}, {1, 1}, {2, 2}};
            auto a = makeScheduler(config);
            auto b = makeScheduler(config);
            ASSERT_NE(a, nullptr);
            EXPECT_STREQ(a->name(), b->name());

            Rng rng(seed * 71);
            for (int round = 0; round < 40; ++round) {
                JobQueue queue;
                size_t depth = 1 + rng.nextBelow(12);
                for (size_t i = 0; i < depth; ++i)
                    pushRandomJob(rng, queue, 2);
                SlotView slot;
                slot.pu = static_cast<int>(rng.nextBelow(8));
                slot.programIndex =
                    static_cast<uint32_t>(rng.nextBelow(2));
                uint64_t now = rng.nextBelow(100000);

                int pick_a = a->pick(slot, queue, now);
                int pick_b = b->pick(slot, queue, now);
                ASSERT_EQ(pick_a, pick_b)
                    << schedulerPolicyName(policy) << " seed " << seed
                    << " round " << round << ": twin schedulers with "
                       "identical histories disagree";
                if (pick_a < 0) {
                    // -1 only when no queued job is compatible.
                    for (size_t i = 0; i < queue.size(); ++i)
                        EXPECT_NE(queue.at(i).tag.programIndex,
                                  slot.programIndex)
                            << schedulerPolicyName(policy)
                            << ": refused a compatible job";
                    continue;
                }
                ASSERT_LT(static_cast<size_t>(pick_a), queue.size());
                const PendingJob &picked = queue.at(pick_a);
                EXPECT_EQ(picked.tag.programIndex, slot.programIndex);
                a->onArm(picked, now);
                b->onArm(picked, now);
            }
        }
    }
}

TEST(SchedulerFuzz, PolicyOrderings)
{
    // Priority: the lowest priority value wins regardless of position;
    // SJF: fewest stream bits; FIFO: always index 0; ties to arrival.
    JobQueue queue;
    const uint32_t priorities[] = {2, 0, 0};
    const uint64_t bits[] = {64, 512, 64};
    for (int i = 0; i < 3; ++i) {
        JobTag tag;
        tag.priority = priorities[i];
        pushJob(queue, bits[i], tag);
    }
    SlotView slot;

    SchedulerConfig config;
    config.policy = SchedulerPolicy::Fifo;
    EXPECT_EQ(makeScheduler(config)->pick(slot, queue, 0), 0);
    config.policy = SchedulerPolicy::Priority;
    EXPECT_EQ(makeScheduler(config)->pick(slot, queue, 0), 1);
    config.policy = SchedulerPolicy::Sjf;
    EXPECT_EQ(makeScheduler(config)->pick(slot, queue, 0), 0);
}

TEST(SchedulerFuzz, WfqWeightsBiasService)
{
    // Two tenants with 4:1 weights and equal-cost jobs: over a long
    // alternating-arm history, the heavy tenant must be armed roughly
    // four times as often.
    SchedulerConfig config;
    config.policy = SchedulerPolicy::Wfq;
    config.weights = {{0, 4}, {1, 1}};
    auto scheduler = makeScheduler(config);
    SlotView slot;
    std::map<uint32_t, int> armed;
    for (int round = 0; round < 100; ++round) {
        // Both tenants always have a head-of-line job waiting.
        JobQueue queue;
        for (uint32_t tenant : {0u, 1u}) {
            JobTag tag;
            tag.tenant = tenant;
            pushJob(queue, 1024, tag);
        }
        int pick = scheduler->pick(slot, queue, round);
        ASSERT_GE(pick, 0);
        scheduler->onArm(queue.at(pick), round);
        ++armed[queue.at(pick).tag.tenant];
    }
    ASSERT_GT(armed[0], 0);
    ASSERT_GT(armed[1], 0);
    double ratio = static_cast<double>(armed[0]) / armed[1];
    EXPECT_GT(ratio, 3.0) << "weight-4 tenant served " << armed[0]
                          << " vs " << armed[1];
    EXPECT_LT(ratio, 5.0);
}

// ---------------------------------------------------------------------------
// Session properties over seeded random tenant mixes.
// ---------------------------------------------------------------------------

SessionConfig
poolConfig(system::PuBackend backend, int threads)
{
    SessionConfig config;
    config.system.numChannels = 3;
    config.system.numThreads = threads;
    config.system.backend = backend;
    config.system.inputRegionBytes = 4096;
    config.numSlots = 6;
    config.epochCycles = 512;
    return config;
}

struct TaggedJob
{
    BitBuffer stream;
    JobTag tag;
};

std::vector<TaggedJob>
randomTenantMix(uint64_t seed, int jobs)
{
    Rng rng(seed);
    std::vector<TaggedJob> mix;
    for (int j = 0; j < jobs; ++j) {
        TaggedJob job;
        job.stream = randomStream(rng, 30 + rng.nextBelow(150));
        job.tag.tenant = static_cast<uint32_t>(rng.nextBelow(3));
        job.tag.priority = static_cast<uint32_t>(rng.nextBelow(3));
        mix.push_back(std::move(job));
    }
    return mix;
}

TEST(SchedProperty, ScheduleBitIdenticalAcrossBackendsAndThreads)
{
    // The tentpole fence: for every policy, the same tagged mix must
    // produce identical JobReports (schedule, cycles, outputs, tenant
    // stamps) and an identical settled RunReport on the fast model and
    // the scalar RTL tape, at 1 and 4 host threads.
    auto program = testprogs::blockFrequencies(32);
    const SchedulerPolicy policies[] = {
        SchedulerPolicy::Fifo, SchedulerPolicy::Priority,
        SchedulerPolicy::Sjf, SchedulerPolicy::Wfq};
    std::vector<TaggedJob> mix = randomTenantMix(2024, 24);

    for (SchedulerPolicy policy : policies) {
        auto runAll = [&](system::PuBackend backend, int threads) {
            SessionConfig config = poolConfig(backend, threads);
            config.scheduler.policy = policy;
            config.scheduler.weights = {{0, 4}, {1, 1}, {2, 2}};
            config.system.trace.events = true;
            Session session(program, config);
            ReportLog log;
            for (const TaggedJob &job : mix)
                session.submitJob(job.stream, job.tag, session.cycles(),
                                  log.sink());
            system::RunReport report = session.finish();
            return std::make_pair(log.all(), std::move(report));
        };

        auto [base, base_report] =
            runAll(system::PuBackend::Fast, 1);
        for (uint64_t j = 0; j < mix.size(); ++j) {
            ASSERT_TRUE(base[j].ok())
                << schedulerPolicyName(policy) << " job " << j << ": "
                << base[j].status.toString();
            ASSERT_EQ(base[j].tenant, mix[j].tag.tenant);
            ASSERT_TRUE(base[j].output ==
                        goldenOutput(program, mix[j].stream))
                << schedulerPolicyName(policy) << " job " << j;
        }

        struct Variant
        {
            system::PuBackend backend;
            int threads;
            const char *label;
        };
        const Variant variants[] = {
            {system::PuBackend::Fast, 4, "Fast/4"},
            {system::PuBackend::Rtl, 1, "RtlBatch/1"},
            {system::PuBackend::Rtl, 4, "RtlBatch/4"},
        };
        for (const Variant &variant : variants) {
            auto [reports, run_report] =
                runAll(variant.backend, variant.threads);
            ASSERT_EQ(reports.size(), base.size());
            for (uint64_t j = 0; j < reports.size(); ++j)
                ASSERT_TRUE(reports[j] == base[j])
                    << schedulerPolicyName(policy) << " "
                    << variant.label << ": job " << j
                    << " diverges from Fast/1";
            ASSERT_TRUE(run_report == base_report)
                << schedulerPolicyName(policy) << " " << variant.label
                << ": RunReport (traces included) diverges";
        }
    }
}

TEST(SchedProperty, WorkConservationUnderEveryPolicy)
{
    // After any round's arm phase, a parked live slot and a queued job
    // of its program may not coexist: the arm pass must have matched
    // them. Checked at every step of a drain under every policy.
    auto program = testprogs::blockFrequencies(32);
    const SchedulerPolicy policies[] = {
        SchedulerPolicy::Fifo, SchedulerPolicy::Priority,
        SchedulerPolicy::Sjf, SchedulerPolicy::Wfq};
    for (SchedulerPolicy policy : policies) {
        SessionConfig config = poolConfig(system::PuBackend::Fast, 2);
        config.scheduler.policy = policy;
        Session session(program, config);
        std::vector<TaggedJob> mix = randomTenantMix(99, 40);
        for (const TaggedJob &job : mix)
            session.submitJob(job.stream, job.tag, session.cycles());

        int rounds = 0;
        while (session.step()) {
            ++rounds;
            for (int pu = 0; pu < config.numSlots; ++pu) {
                Session::SlotStateView slot = session.slotState(pu);
                if (slot.busy || slot.dead || slot.quarantined)
                    continue;
                for (size_t i = 0; i < session.queue().size(); ++i) {
                    const PendingJob &job = session.queue().at(i);
                    EXPECT_NE(job.tag.programIndex, slot.programIndex)
                        << schedulerPolicyName(policy) << " round "
                        << rounds << ": slot " << pu
                        << " idles while job " << job.id
                        << " (same program) waits";
                }
            }
        }
        session.finish();
        EXPECT_EQ(session.jobsFinished(), mix.size());
    }
}

TEST(SchedProperty, WfqBoundsVictimLatencyUnderFlood)
{
    // No-starvation: tenant 1 (victim) submits a handful of small jobs
    // behind tenant 0's flood. Under FIFO the victim waits out the
    // whole backlog; under WFQ its jobs interleave, so its worst-case
    // completion is strictly earlier — and the drain horizon is
    // bounded (finish() terminates with every job reported).
    auto program = testprogs::blockFrequencies(32);
    Rng rng(4242);
    std::vector<BitBuffer> flood, victim;
    for (int j = 0; j < 36; ++j)
        flood.push_back(randomStream(rng, 200 + rng.nextBelow(100)));
    for (int j = 0; j < 6; ++j)
        victim.push_back(randomStream(rng, 40 + rng.nextBelow(40)));

    auto worstVictimCompletion = [&](SchedulerPolicy policy) {
        SessionConfig config = poolConfig(system::PuBackend::Fast, 2);
        config.scheduler.policy = policy;
        config.scheduler.weights = {{0, 1}, {1, 4}};
        Session session(program, config);
        ReportLog log;
        JobTag flood_tag, victim_tag;
        flood_tag.tenant = 0;
        victim_tag.tenant = 1;
        std::vector<uint64_t> victim_ids;
        for (const BitBuffer &stream : flood)
            session.submitJob(stream, flood_tag, 0, log.sink());
        for (const BitBuffer &stream : victim)
            victim_ids.push_back(
                session.submitJob(stream, victim_tag, 0, log.sink()));
        session.finish();
        uint64_t worst = 0;
        for (uint64_t id : victim_ids) {
            const JobReport &report = log[id];
            EXPECT_TRUE(report.ok()) << report.status.toString();
            EXPECT_EQ(report.tenant, 1u);
            worst = std::max(worst, report.completedCycle);
        }
        EXPECT_EQ(session.jobsFinished(),
                  flood.size() + victim.size());
        auto stats = session.tenantStats();
        EXPECT_EQ(stats.at(0).completed, flood.size());
        EXPECT_EQ(stats.at(1).completed, victim.size());
        return worst;
    };

    uint64_t fifo_worst = worstVictimCompletion(SchedulerPolicy::Fifo);
    uint64_t wfq_worst = worstVictimCompletion(SchedulerPolicy::Wfq);
    EXPECT_LT(wfq_worst, fifo_worst)
        << "WFQ should complete the victim before FIFO drains the "
           "flood backlog (wfq=" << wfq_worst
        << " fifo=" << fifo_worst << ")";
}

// ---------------------------------------------------------------------------
// Multi-program sessions: per-slot programs on every engine, and the
// configure-time mix checks.
// ---------------------------------------------------------------------------

TEST(MultiProgram, SlotBindingRoutesJobsToTheirProgram)
{
    // identity on slots 0..2, blockFrequencies on slots 3..5, over two
    // channels: each channel hosts both programs, so the batched
    // engines run two batch groups per channel. Jobs tagged per
    // program must land only on their program's slots and match that
    // program's golden output, and every engine at 1 and 4 threads
    // must reproduce the Fast 1-thread schedule exactly.
    auto ident = testprogs::identity(8);
    auto histo = testprogs::blockFrequencies(8);
    const std::vector<uint32_t> slot_programs = {0, 0, 0, 1, 1, 1};

    Rng rng(31);
    std::vector<TaggedJob> mix;
    for (int j = 0; j < 20; ++j) {
        TaggedJob job;
        job.tag.programIndex = static_cast<uint32_t>(j % 2);
        job.stream = randomStream(rng, 24 + 8 * rng.nextBelow(10));
        mix.push_back(std::move(job));
    }
    auto runAll = [&](system::PuBackend backend, int threads) {
        SessionConfig config = poolConfig(backend, threads);
        config.system.numChannels = 2;
        Session session({ident, histo}, config, slot_programs);
        ReportLog log;
        for (const TaggedJob &job : mix)
            session.submitJob(job.stream, job.tag, session.cycles(),
                              log.sink());
        session.finish();
        return log.all();
    };

    const std::vector<JobReport> base =
        runAll(system::PuBackend::Fast, 1);
    ASSERT_EQ(base.size(), mix.size());
    for (uint64_t j = 0; j < mix.size(); ++j) {
        const JobReport &report = base[j];
        ASSERT_TRUE(report.ok())
            << "job " << j << ": " << report.status.toString();
        EXPECT_EQ(report.programIndex, mix[j].tag.programIndex);
        const lang::Program &program =
            mix[j].tag.programIndex == 0 ? ident : histo;
        if (mix[j].tag.programIndex == 0) {
            EXPECT_GE(report.pu, 0);
            EXPECT_LT(report.pu, 3);
        } else {
            EXPECT_GE(report.pu, 3);
            EXPECT_LT(report.pu, 6);
        }
        EXPECT_TRUE(report.output ==
                    goldenOutput(program, mix[j].stream))
            << "job " << j;
    }

    const system::PuBackend engines[] = {system::PuBackend::Fast,
                                         system::PuBackend::Rtl,
                                         system::PuBackend::RtlJit};
    for (system::PuBackend engine : engines) {
        for (int threads : {1, 4}) {
            if (engine == system::PuBackend::Fast && threads == 1)
                continue;
            std::vector<JobReport> reports = runAll(engine, threads);
            ASSERT_EQ(reports.size(), base.size());
            for (uint64_t j = 0; j < reports.size(); ++j)
                ASSERT_TRUE(reports[j] == base[j])
                    << system::puBackendName(engine) << "/" << threads
                    << ": job " << j << " diverges from Fast/1";
        }
    }
}

TEST(MultiProgram, OrphanedJobsReportInsteadOfWaitingForever)
{
    auto ident = testprogs::identity(8);
    auto histo = testprogs::blockFrequencies(8);
    SessionConfig config = poolConfig(system::PuBackend::Fast, 1);
    Session session({ident, histo}, config, {0, 0, 0, 1, 1, 1});
    ReportLog log;

    Rng rng(12);
    JobTag unknown;
    unknown.programIndex = 9;
    uint64_t bad = session.submitJob(randomStream(rng, 32), unknown,
                                     session.cycles(), log.sink());
    uint64_t good = session.submitJob(randomStream(rng, 32), JobTag{},
                                      session.cycles(), log.sink());
    session.finish();
    EXPECT_EQ(log[bad].status.code, StatusCode::InvalidArgument);
    EXPECT_NE(log[bad].status.message.find("unknown program index"),
              std::string::npos);
    EXPECT_TRUE(log[good].ok());
}

TEST(MultiProgram, MismatchedTokenWidthsRejectedAtConstruction)
{
    // identity is 8->8, streamSum is 8->32: a session's programs must
    // share both token widths (one splitter geometry per channel).
    auto ident = testprogs::identity(8);
    auto sum = testprogs::streamSum(8, 32);
    SessionConfig config = poolConfig(system::PuBackend::Fast, 1);
    try {
        Session session({ident, sum}, config,
                        std::vector<uint32_t>(6, 0));
        FAIL() << "mismatched output widths should throw";
    } catch (const StatusError &error) {
        EXPECT_EQ(error.status().code, StatusCode::InvalidArgument);
        EXPECT_NE(error.status().message.find("share"),
                  std::string::npos);
    }
}

TEST(MultiProgram, ContradictorySlotListsRejectedAtConstruction)
{
    // A slot list must hold one entry per slot and name only hosted
    // programs.
    auto ident = testprogs::identity(8);
    auto histo = testprogs::blockFrequencies(8);
    SessionConfig config = poolConfig(system::PuBackend::Fast, 1);
    const std::vector<std::vector<uint32_t>> lists = {
        {0, 1, 0, 1},         // 4 entries for 6 slots
        {0, 1, 0, 1, 0, 2}}; // program 2 is not hosted
    for (const std::vector<uint32_t> &list : lists) {
        try {
            Session session({ident, histo}, config, list);
            FAIL() << list.size() << "-entry slot list accepted";
        } catch (const StatusError &error) {
            EXPECT_EQ(error.status().code, StatusCode::InvalidArgument)
                << error.status().toString();
        }
    }
}

TEST(MultiProgram, AreaModelRejectsOvercommittedMix)
{
    // The vu9p fits this mix easily; a toy device with a few thousand
    // LUTs does not. checkProgramMix is the configure-time gate.
    auto ident = testprogs::identity(8);
    auto histo = testprogs::blockFrequencies(8);
    const std::vector<uint32_t> slot_programs = {0, 1, 0, 1, 0, 1};
    system::SystemConfig config;
    config.numChannels = 3;

    Status fits = system::FleetSystem::checkProgramMix(
        {ident, histo}, slot_programs, config, model::Device{});
    EXPECT_TRUE(fits.ok()) << fits.toString();

    model::Device tiny;
    tiny.name = "toy";
    tiny.luts = 3000;
    tiny.ffs = 6000;
    tiny.bram36 = 8;
    tiny.dsps = 16;
    Status rejected = system::FleetSystem::checkProgramMix(
        {ident, histo}, slot_programs, config, tiny);
    EXPECT_EQ(rejected.code, StatusCode::ResourceExhausted);
    EXPECT_NE(rejected.message.find("does not fit"),
              std::string::npos);
}

} // namespace
} // namespace runtime
} // namespace fleet

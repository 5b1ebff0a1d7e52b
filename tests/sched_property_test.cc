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
 *     slot coexists with a queued job its program binding could run —
 *     the second arm sweep relaxes placement hints precisely so hints
 *     can steer work but never idle a slot.
 *  3. *WFQ no-starvation*: a paced victim tenant sharing the pool with
 *     a flood tenant drains within a bounded horizon, and its worst
 *     job latency under WFQ beats FIFO's (which serves the entire
 *     flood backlog first).
 *
 * Plus direct unit fuzz of the pure policies (valid, deterministic,
 * compatible picks) and the multi-program area/width checks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "model/area.h"
#include "runtime/scheduler.h"
#include "runtime/session.h"
#include "sim/simulator.h"
#include "test_programs.h"
#include "util/rng.h"

namespace fleet {
namespace runtime {
namespace {

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

QueuedJobView
randomJobView(Rng &rng, uint64_t id, uint32_t num_programs)
{
    QueuedJobView job;
    job.id = id;
    job.enqueueCycle = rng.nextBelow(10000);
    job.streamBits = 8 * (1 + rng.nextBelow(4096));
    job.tag.tenant = static_cast<uint32_t>(rng.nextBelow(4));
    job.tag.programIndex =
        static_cast<uint32_t>(rng.nextBelow(num_programs));
    job.tag.priority = static_cast<uint32_t>(rng.nextBelow(3));
    job.tag.preferredLane =
        rng.nextBelow(3) == 0 ? static_cast<int>(rng.nextBelow(2)) : -1;
    return job;
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
            uint64_t next_id = 0;
            for (int round = 0; round < 40; ++round) {
                std::vector<QueuedJobView> queued;
                size_t depth = 1 + rng.nextBelow(12);
                for (size_t i = 0; i < depth; ++i)
                    queued.push_back(
                        randomJobView(rng, next_id++, 2));
                SlotView slot;
                slot.pu = static_cast<int>(rng.nextBelow(8));
                slot.programIndex =
                    static_cast<uint32_t>(rng.nextBelow(2));
                slot.lane = static_cast<int>(rng.nextBelow(2));
                bool relax = rng.nextBelow(2) == 1;
                uint64_t now = rng.nextBelow(100000);

                int pick_a = a->pick(slot, queued, now, relax);
                int pick_b = b->pick(slot, queued, now, relax);
                ASSERT_EQ(pick_a, pick_b)
                    << schedulerPolicyName(policy) << " seed " << seed
                    << " round " << round << ": twin schedulers with "
                       "identical histories disagree";
                if (pick_a < 0) {
                    // -1 only when no queued job is compatible.
                    for (const QueuedJobView &job : queued) {
                        bool compatible =
                            job.tag.programIndex == slot.programIndex &&
                            (relax || job.tag.preferredLane < 0 ||
                             job.tag.preferredLane == slot.lane);
                        EXPECT_FALSE(compatible)
                            << schedulerPolicyName(policy)
                            << ": refused a compatible job";
                    }
                    continue;
                }
                ASSERT_LT(static_cast<size_t>(pick_a), queued.size());
                const QueuedJobView &picked = queued[pick_a];
                EXPECT_EQ(picked.tag.programIndex, slot.programIndex);
                if (!relax && picked.tag.preferredLane >= 0) {
                    EXPECT_EQ(picked.tag.preferredLane, slot.lane);
                }
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
    std::vector<QueuedJobView> queued(3);
    for (int i = 0; i < 3; ++i)
        queued[i].id = static_cast<uint64_t>(i);
    queued[0].tag.priority = 2;
    queued[1].tag.priority = 0;
    queued[2].tag.priority = 0;
    queued[0].streamBits = 64;
    queued[1].streamBits = 512;
    queued[2].streamBits = 64;
    SlotView slot;

    SchedulerConfig config;
    config.policy = SchedulerPolicy::Fifo;
    EXPECT_EQ(makeScheduler(config)->pick(slot, queued, 0, false), 0);
    config.policy = SchedulerPolicy::Priority;
    EXPECT_EQ(makeScheduler(config)->pick(slot, queued, 0, false), 1);
    config.policy = SchedulerPolicy::Sjf;
    EXPECT_EQ(makeScheduler(config)->pick(slot, queued, 0, false), 0);
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
        std::vector<QueuedJobView> queued(2);
        queued[0].id = static_cast<uint64_t>(2 * round);
        queued[0].streamBits = 1024;
        queued[0].tag.tenant = 0;
        queued[1].id = static_cast<uint64_t>(2 * round + 1);
        queued[1].streamBits = 1024;
        queued[1].tag.tenant = 1;
        int pick = scheduler->pick(slot, queued, round, false);
        ASSERT_GE(pick, 0);
        scheduler->onArm(queued[pick], round);
        ++armed[queued[pick].tag.tenant];
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
        job.tag.preferredLane =
            rng.nextBelow(4) == 0 ? static_cast<int>(rng.nextBelow(2))
                                  : -1;
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
            for (const TaggedJob &job : mix)
                session.submitJob(job.stream, job.tag,
                                  session.cycles());
            system::RunReport report = session.finish();
            return std::make_pair(session.reports(),
                                  std::move(report));
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
    // bound to its program may not coexist: the relaxed second sweep
    // must have matched them. Checked at every step of a drain under
    // every policy.
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
        JobTag flood_tag, victim_tag;
        flood_tag.tenant = 0;
        victim_tag.tenant = 1;
        std::vector<uint64_t> victim_ids;
        for (const BitBuffer &stream : flood)
            session.submitJob(stream, flood_tag, 0);
        for (const BitBuffer &stream : victim)
            victim_ids.push_back(
                session.submitJob(stream, victim_tag, 0));
        session.finish();
        uint64_t worst = 0;
        for (uint64_t id : victim_ids) {
            const JobReport &report = session.report(id);
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
// Multi-program sessions: per-slot binding, placement hints, and the
// configure-time mix checks.
// ---------------------------------------------------------------------------

TEST(MultiProgram, SlotBindingRoutesJobsToTheirProgram)
{
    // identity on slots 0..2 (lane 0), blockFrequencies on slots 3..5
    // (lane 1): jobs tagged per program must land only on their
    // program's slots and match that program's golden output.
    auto ident = testprogs::identity(8);
    auto histo = testprogs::blockFrequencies(8);
    std::vector<system::SlotBinding> bindings(6);
    for (int p = 0; p < 6; ++p) {
        bindings[p].program = p < 3 ? 0 : 1;
        bindings[p].lane = p < 3 ? 0 : 1;
    }
    SessionConfig config = poolConfig(system::PuBackend::Fast, 2);
    Session session({ident, histo}, config, bindings);

    Rng rng(31);
    std::vector<TaggedJob> mix;
    for (int j = 0; j < 20; ++j) {
        TaggedJob job;
        job.tag.programIndex = static_cast<uint32_t>(j % 2);
        job.stream = randomStream(rng, 24 + 8 * rng.nextBelow(10));
        mix.push_back(std::move(job));
    }
    for (const TaggedJob &job : mix)
        session.submitJob(job.stream, job.tag, session.cycles());
    session.finish();

    for (uint64_t j = 0; j < mix.size(); ++j) {
        const JobReport &report = session.report(j);
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
}

TEST(MultiProgram, PlacementHintsSteerButNeverIdleSlots)
{
    // One program bound across two lanes (slots 0..2 lane 0, slots
    // 3..5 lane 1). Eight jobs all hinted to lane 1: the first sweep
    // fills the three lane-1 slots, the relaxed sweep spills the rest
    // onto lane 0 — every slot takes work in round one.
    auto program = testprogs::identity(8);
    std::vector<system::SlotBinding> bindings(6);
    for (int p = 0; p < 6; ++p)
        bindings[p].lane = p < 3 ? 0 : 1;
    SessionConfig config = poolConfig(system::PuBackend::Fast, 1);
    Session session({program}, config, bindings);

    Rng rng(7);
    JobTag hinted;
    hinted.preferredLane = 1;
    for (int j = 0; j < 6; ++j)
        session.submitJob(randomStream(rng, 64), hinted,
                          session.cycles());
    session.step();
    // All six slots armed in one round; the three hinted slots (lane
    // 1) took the first three jobs in queue order.
    for (int pu = 0; pu < 6; ++pu)
        EXPECT_TRUE(session.slotState(pu).busy) << "slot " << pu;
    EXPECT_EQ(session.slotState(3).jobId, 0u);
    EXPECT_EQ(session.slotState(4).jobId, 1u);
    EXPECT_EQ(session.slotState(5).jobId, 2u);
    session.finish();
    for (uint64_t j = 0; j < 6; ++j)
        EXPECT_TRUE(session.report(j).ok());
}

TEST(MultiProgram, MixedBackendsPerSlotStayBitIdentical)
{
    // Placement the issue asks for: latency lanes on the Fast backend,
    // audit lanes on the unbatched RTL interpreter — in one session. Outputs
    // still match the functional golden, and the whole schedule is
    // invariant to host thread count.
    auto program = testprogs::blockFrequencies(16);
    std::vector<system::SlotBinding> bindings(6);
    for (int p = 0; p < 6; ++p) {
        bindings[p].lane = p < 3 ? 0 : 1;
        bindings[p].backend = p < 3 ? system::PuBackend::Fast
                                    : system::PuBackend::RtlInterp;
    }
    Rng rng(55);
    std::vector<BitBuffer> streams;
    for (int j = 0; j < 18; ++j)
        streams.push_back(randomStream(rng, 32 + rng.nextBelow(64)));

    auto runAll = [&](int threads) {
        SessionConfig config =
            poolConfig(system::PuBackend::Fast, threads);
        Session session({program}, config, bindings);
        for (const BitBuffer &stream : streams)
            session.submitJob(stream, JobTag{}, session.cycles());
        session.finish();
        return session.reports();
    };
    std::vector<JobReport> one = runAll(1);
    std::vector<JobReport> four = runAll(4);
    ASSERT_EQ(one.size(), streams.size());
    for (uint64_t j = 0; j < streams.size(); ++j) {
        ASSERT_TRUE(one[j].ok()) << "job " << j;
        EXPECT_TRUE(one[j].output ==
                    goldenOutput(program, streams[j]))
            << "job " << j;
        ASSERT_TRUE(one[j] == four[j]) << "job " << j;
    }
}

TEST(MultiProgram, OrphanedJobsReportInsteadOfWaitingForever)
{
    auto ident = testprogs::identity(8);
    auto histo = testprogs::blockFrequencies(8);
    std::vector<system::SlotBinding> bindings(6);
    for (int p = 0; p < 6; ++p)
        bindings[p].program = p < 3 ? 0 : 1;
    SessionConfig config = poolConfig(system::PuBackend::Fast, 1);
    Session session({ident, histo}, config, bindings);

    Rng rng(12);
    JobTag unknown;
    unknown.programIndex = 9;
    uint64_t bad = session.submitJob(randomStream(rng, 32), unknown,
                                     session.cycles());
    uint64_t good = session.submitJob(randomStream(rng, 32), JobTag{},
                                      session.cycles());
    session.finish();
    EXPECT_EQ(session.report(bad).status.code,
              StatusCode::InvalidArgument);
    EXPECT_NE(session.report(bad).status.message.find(
                  "unknown program index"),
              std::string::npos);
    EXPECT_TRUE(session.report(good).ok());
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
                        std::vector<system::SlotBinding>(6));
        FAIL() << "mismatched output widths should throw";
    } catch (const StatusError &error) {
        EXPECT_EQ(error.status().code, StatusCode::InvalidArgument);
        EXPECT_NE(error.status().message.find("share"),
                  std::string::npos);
    }
}

TEST(MultiProgram, AreaModelRejectsOvercommittedMix)
{
    // The vu9p fits this mix easily; a toy device with a few thousand
    // LUTs does not. checkProgramMix is the configure-time gate.
    auto ident = testprogs::identity(8);
    auto histo = testprogs::blockFrequencies(8);
    std::vector<system::SlotBinding> bindings(6);
    for (int p = 0; p < 6; ++p)
        bindings[p].program = p % 2;
    system::SystemConfig config;
    config.numChannels = 3;

    Status fits = system::FleetSystem::checkProgramMix(
        {ident, histo}, bindings, config, model::Device{});
    EXPECT_TRUE(fits.ok()) << fits.toString();

    model::Device tiny;
    tiny.name = "toy";
    tiny.luts = 3000;
    tiny.ffs = 6000;
    tiny.bram36 = 8;
    tiny.dsps = 16;
    Status rejected = system::FleetSystem::checkProgramMix(
        {ident, histo}, bindings, config, tiny);
    EXPECT_EQ(rejected.code, StatusCode::ResourceExhausted);
    EXPECT_NE(rejected.message.find("does not fit"),
              std::string::npos);
}

} // namespace
} // namespace runtime
} // namespace fleet

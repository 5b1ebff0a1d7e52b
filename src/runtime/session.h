#ifndef FLEET_RUNTIME_SESSION_H
#define FLEET_RUNTIME_SESSION_H

/**
 * @file
 * The multi-stream job runtime (ISSUE 5): accept many independent jobs
 * — far more than there are processing units — and multiplex them onto
 * the fixed PU pool, re-arming each slot the moment its stream drains.
 * This is the paper's host runtime shape (Fleet §6): the FPGA's units
 * are a fixed resource that a server keeps continuously fed, not a
 * batch device that runs one stream set to completion.
 *
 * A Session owns a cluster::Cluster of session-mode FleetSystems
 * (numDevices devices × numSlots parked units, each pre-armed with one
 * of the session's programs; one device by default, where the cluster
 * is a zero-cost rename) and drives it in scheduler rounds:
 *
 *   1. *Harvest*, in global PU order: every drained slot's job is read
 *      back, retired into a JobReport, and its callback fired; jobs
 *      stranded on a halted channel are reported with the channel's
 *      status and the slot is marked dead.
 *   2. *Arm*, in global PU order, two sweeps (ISSUE 8): each parked
 *      live slot asks the configured Scheduler which queued job to run.
 *      Sweep one honours placement hints (JobTag::preferredLane);
 *      sweep two relaxes them, so no live slot idles while a
 *      program-compatible job is queued (work conservation).
 *   3. *Advance*: every channel shard steps up to epochCycles cycles
 *      on the worker pool (shards park early when they go idle).
 *
 * Determinism: harvesting and arming happen only at round boundaries,
 * in a fixed order, and every scheduling policy is a pure function of
 * simulated state (runtime/scheduler.h) — so the job→slot schedule is
 * bit-identical at any host thread count and across PU backends, for
 * every policy. The determinism and sched-property suites assert
 * exactly this.
 *
 * Multi-tenancy (ISSUE 8): jobs carry a JobTag (tenant, program class,
 * priority, placement hint); a Session can host several compiled
 * programs at once via per-slot SlotBindings (the mix is checked
 * against the device area model at construction), and per-tenant
 * queue-wait/service accounting is kept alongside the global counters.
 */

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "runtime/job_queue.h"
#include "runtime/scheduler.h"
#include "system/fleet_system.h"

namespace fleet {
namespace runtime {

struct SessionConfig
{
    /** Channel/DRAM/backends/fault/trace config for the underlying
     * session-mode FleetSystem (system::SystemConfig::inputRegionBytes
     * bounds the largest acceptable job stream). */
    system::SystemConfig system;
    /** Processing-unit slots in the pool, *per device*. */
    int numSlots = 8;
    /**
     * Cluster width (ISSUE 10): how many identical simulated devices
     * the session schedules across. Slots are pooled under global
     * device-major indices (device 0's slots first), and placement is
     * just scheduling: the same pluggable policy picks jobs for every
     * device's slots in one fixed-order arm sweep, so the placement is
     * a pure function of simulated state like everything else. With
     * the default of 1 the session is cycle-exact with the
     * pre-cluster, single-FleetSystem runtime.
     */
    int numDevices = 1;
    /** Inter-device link model (cluster::LinkParams); only observable
     * through cluster()/finishCluster() since independent jobs never
     * cross devices — pipelines (cluster/pipeline.h) do. */
    cluster::LinkParams link;
    /**
     * Cycles each shard advances per scheduler round. Smaller epochs
     * re-arm drained slots sooner (less idle tail per job) but cross
     * the host barrier more often; results are bit-identical for any
     * value — only wall-clock and slot idle time change.
     */
    uint64_t epochCycles = 2048;
    /**
     * Slot health quarantine (ISSUE 7): a slot that suffers this many
     * per-PU containment events (parity errors, output overflows) is
     * pulled out of the pool for good — it stops taking jobs and no
     * longer counts toward liveSlots(), so a slot with flaky hardware
     * degrades capacity instead of failing job after job. 0 (default)
     * disables quarantine. Scoring counts only per-PU faults: channel
     * halts already kill the whole channel's slots, and job-level
     * outcomes (truncation, deadline kills) say nothing about slot
     * health.
     */
    int quarantineAfterFaults = 0;
    /**
     * Halted-channel recovery (ISSUE 7): when true, jobs in flight on
     * a channel that halts are re-queued at the *front* of the FIFO
     * (original ids, original arrival cycles, in PU order) and re-run
     * on surviving channels instead of stranding with the channel's
     * status. Costs one stream copy per armed job. When no live slot
     * survives, jobs strand as before. Default off: the pre-recovery
     * stranding semantics.
     */
    bool requeueStranded = false;
    /**
     * Scheduling policy: FIFO (legacy, default), strict priority
     * classes, shortest-job-first, or weighted fair queuing across
     * tenants. With the default (Fifo) the arm order is cycle-exact
     * with the pre-scheduler runtime.
     */
    SchedulerConfig scheduler;
};

/** Per-tenant session accounting (ISSUE 8): the scheduler-side slice
 * of the queue-wait/service breakdown (the serving layer adds
 * admission-side counters in serve::ServiceStats). */
struct TenantSessionStats
{
    uint64_t completed = 0; ///< Reports finalized for this tenant.
    uint64_t queueWaitCycles = 0;
    uint64_t serviceCycles = 0;
    uint64_t deadlineKills = 0;
};

/** Final, per-job result — the runtime's analogue of a PuOutcome. */
struct JobReport
{
    uint64_t jobId = 0;
    /** Ok; StreamTruncated (completed over an injected short stream);
     * a containment code (Parity, OutputOverflow); or the channel
     * status for a job stranded by a halted channel. */
    Status status;
    int pu = -1;      ///< Global slot the job ran on (-1: never armed).
    int channel = -1; ///< Global channel owning that slot.
    int device = -1;  ///< Cluster device owning that slot (ISSUE 10).
    /** Multi-tenant classification carried from submit (ISSUE 8);
     * part of operator== — the tagged schedule is fenced too. */
    uint32_t tenant = 0;
    uint32_t programIndex = 0;
    uint64_t armCycle = 0;
    uint64_t retireCycle = 0;
    uint64_t streamBits = 0;  ///< Input bits actually armed.
    uint64_t emittedBits = 0; ///< Bits the unit emitted.
    uint64_t outputBits = 0;  ///< Bits flushed to channel memory.
    /** This job's slice of the slot's stall counters. */
    uint64_t inputStarvedCycles = 0;
    uint64_t outputBlockedCycles = 0;
    /** Tokens kept / original when fault truncation applied (equal
     * when the stream ran whole). */
    uint64_t keptTokens = 0;
    uint64_t originalTokens = 0;
    /**
     * @name Recovery accounting (ISSUE 7)
     * Both are part of operator==: the retry/requeue schedule is as
     * deterministic as the rest of the simulated state.
     */
    /// @{
    /** Service-level attempts this report closes (1 = first try; set
     * by serve::FleetService when its RetryPolicy re-submitted the
     * job; the Session itself always reports 1). */
    uint32_t attempts = 1;
    /** Times the job was pulled off a halted channel and re-queued
     * onto survivors (SessionConfig::requeueStranded). */
    uint32_t requeues = 0;
    /// @}
    /**
     * @name Latency decomposition (ISSUE 6)
     * Simulated timestamps on the *session clock* (max over shard
     * cycles, sampled at scheduler round boundaries), so they share one
     * monotonic timebase even though armCycle/retireCycle are on the
     * owning shard's clock (which can lag when that shard idles).
     * Deterministic: bit-identical across PU backends and host thread
     * counts, and part of operator==.
     */
    /// @{
    uint64_t enqueueCycle = 0;   ///< Entered the queue (or arrival).
    uint64_t admittedCycle = 0;  ///< Round the job was armed on a slot.
    uint64_t completedCycle = 0; ///< Round the report became final.

    /** Cycles spent queued before a slot armed the job. */
    uint64_t queueWaitCycles() const
    {
        return admittedCycle > enqueueCycle
                   ? admittedCycle - enqueueCycle
                   : 0;
    }
    /** Arm-to-retire service time on the owning shard's clock. */
    uint64_t serviceCycles() const
    {
        return retireCycle > armCycle ? retireCycle - armCycle : 0;
    }
    /** End-to-end simulated latency: queue wait + service + the round
     * quantization of harvest. */
    uint64_t totalCycles() const
    {
        return completedCycle > enqueueCycle
                   ? completedCycle - enqueueCycle
                   : 0;
    }
    /// @}

    /**
     * Host wall-clock stamps (steady clock, nanoseconds): submission
     * and report-finalization time. Purely observational host-side
     * metrics — they vary run to run and are deliberately *excluded*
     * from operator==, which fences only the simulated schedule.
     */
    uint64_t hostSubmitNs = 0;
    uint64_t hostDoneNs = 0;
    double hostLatencySeconds() const
    {
        return hostDoneNs > hostSubmitNs
                   ? (hostDoneNs - hostSubmitNs) * 1e-9
                   : 0.0;
    }

    /** The job's flushed output (partial for contained/stranded jobs —
     * empty when the channel halted before the slot drained). */
    BitBuffer output;

    /** Completed — possibly on a truncated stream. */
    bool ok() const
    {
        return status.code == StatusCode::Ok ||
               status.code == StatusCode::StreamTruncated;
    }
};

bool operator==(const JobReport &a, const JobReport &b);
inline bool
operator!=(const JobReport &a, const JobReport &b)
{
    return !(a == b);
}

class Session
{
  public:
    Session(const lang::Program &program, const SessionConfig &config);

    /**
     * Multi-program session (ISSUE 8): host every program in the list
     * at once, slots bound per `bindings` (empty = all slots run
     * programs[0] on lane 0). The program mix is validated against the
     * device area model at construction — see
     * system::FleetSystem::checkProgramMix.
     */
    Session(std::vector<lang::Program> programs,
            const SessionConfig &config,
            std::vector<system::SlotBinding> bindings = {});

    /**
     * Enqueue a job; returns its id (sequential from 0). The stream
     * must be a whole number of input tokens and fit the configured
     * input region — violations surface in the job's report
     * (InvalidArgument), not as exceptions, so one bad job cannot take
     * down the queue behind it. Submitting after finish() throws
     * StatusError(InvalidState).
     */
    uint64_t submit(BitBuffer stream, JobCallback callback = nullptr);

    /**
     * submit() with an explicit enqueue timestamp on the session clock
     * (ISSUE 6): the serving layer passes each job's open-loop arrival
     * cycle so JobReport::queueWaitCycles measures queueing delay from
     * *arrival*, not from whenever the scheduler got around to the
     * transfer. `enqueue_cycle` must not exceed the current session
     * cycle by construction of the caller's pacing; it is used verbatim.
     */
    uint64_t submitAt(BitBuffer stream, uint64_t enqueue_cycle,
                      JobCallback callback = nullptr,
                      uint64_t deadline_cycle = 0);

    /**
     * submitAt() with a multi-tenant JobTag (ISSUE 8): tenant id for
     * fair queuing and per-tenant accounting, program class (which
     * bound program the job targets — a job only arms on slots bound
     * to that program), strict priority, and placement hint. A tag
     * naming an unknown program index is reported InvalidArgument; a
     * tag whose program has no live slots left (all halted or
     * quarantined while other slots keep serving) is reported
     * InvalidState.
     */
    uint64_t submitJob(BitBuffer stream, const JobTag &tag,
                       uint64_t enqueue_cycle,
                       JobCallback callback = nullptr,
                       uint64_t deadline_cycle = 0);

    /**
     * One scheduler round: harvest drained jobs, arm queued jobs onto
     * parked slots, advance every shard one epoch. Returns true while
     * jobs remain queued or in flight — `while (session.step());` is
     * the serving loop, with submit() legal between rounds.
     */
    bool step();

    /** Run rounds until every submitted job has a report. */
    void drain();

    /**
     * Drain, then settle the underlying cluster: every shard's
     * ChannelOutcome and the session trace are assembled into the
     * returned RunReport (which the determinism fences compare across
     * thread counts). Call once, last. Returns *device 0's* report —
     * on a 1-device session this is the whole result and is bit-exact
     * with the pre-cluster runtime; multi-device callers read
     * finishCluster()/clusterReport() for every device plus the link
     * fabric.
     */
    const system::RunReport &finish();

    /** finish(), returning the whole ClusterReport (ISSUE 10). */
    const cluster::ClusterReport &finishCluster();

    /** The settled ClusterReport; throws StatusError(InvalidState)
     * before finish()/finishCluster(). */
    const cluster::ClusterReport &clusterReport() const;

    /** A finished job's report. Throws StatusError(InvalidState) while
     * the job is still queued or in flight. */
    const JobReport &report(uint64_t job_id) const;

    /** True once `job_id` has a final report. */
    bool done(uint64_t job_id) const;

    /** Reports of all finished jobs, indexed by job id (ids with no
     * final report yet are default-constructed placeholders). */
    const std::vector<JobReport> &reports() const { return reports_; }

    /// @name Recovery telemetry (ISSUE 7).
    /// @{
    /** Jobs cancelled for exceeding their deadline (in-queue + armed). */
    uint64_t deadlineKills() const { return deadlineKills_; }
    /** Jobs pulled off halted channels and re-queued onto survivors. */
    uint64_t jobRequeues() const { return jobRequeues_; }
    /** Slots quarantined by repeated per-PU containment events. */
    int quarantinedSlots() const { return quarantinedSlots_; }
    /// @}

    uint64_t jobsSubmitted() const { return queue_.pushed(); }
    uint64_t jobsFinished() const { return jobsFinished_; }
    /** Queued + armed jobs without a final report. */
    uint64_t jobsPending() const
    {
        return queue_.pushed() - jobsFinished_;
    }
    /** Jobs currently armed on a slot (busy slots). */
    int jobsInFlight() const;
    /** Slots that can still serve (their channel has not halted). */
    int liveSlots() const;
    /** Jobs waiting in the session's FIFO (pending minus in flight). */
    uint64_t jobsQueued() const { return queue_.size(); }
    /** Simulated cycle count (max over channels so far). */
    uint64_t cycles() const;

    /** Device 0's simulator — the legacy single-device accessor; every
     * pre-cluster caller (tests, benches) still reads through it. */
    system::FleetSystem &system() { return cluster_.deviceSystem(0); }
    const system::FleetSystem &system() const
    {
        return cluster_.deviceSystem(0);
    }

    /// @name Cluster observability (ISSUE 10).
    /// @{
    cluster::Cluster &cluster() { return cluster_; }
    const cluster::Cluster &cluster() const { return cluster_; }
    int numDevices() const { return cluster_.numDevices(); }
    /** One device's containment/throughput counters. */
    system::SystemStats deviceStats(int device) const
    {
        return cluster_.deviceSystem(device).stats();
    }
    /** Halt a *global* channel mid-session (fault-drill hook; the
     * serving layer's injectChannelHalt routes through this). */
    void forceHaltChannel(int global_channel, Status status)
    {
        cluster_.forceHaltChannel(global_channel, std::move(status));
    }
    /// @}

    /// @name Scheduler observability (ISSUE 8, the property harness).
    /// @{

    /** The session's wait queue, read-only (arrival order). */
    const JobQueue &queue() const { return queue_; }

    /** The active scheduling policy. */
    const Scheduler &scheduler() const { return *scheduler_; }

    /** Point-in-time view of one slot, for work-conservation checks. */
    struct SlotStateView
    {
        bool busy = false;
        bool dead = false;
        bool quarantined = false;
        uint32_t programIndex = 0;
        int lane = 0;
        int device = 0; ///< Cluster device hosting the slot.
        uint64_t jobId = 0; ///< Valid while busy.
    };
    SlotStateView slotState(int pu) const;

    /** Per-tenant queue-wait/service breakdown, keyed by tenant id
     * (tenants appear when their first report finalizes). */
    const std::map<uint32_t, TenantSessionStats> &tenantStats() const
    {
        return tenants_;
    }

    /// @}

  private:
    /** Slot bookkeeping: which job a slot holds, if any. */
    struct Slot
    {
        bool busy = false;
        bool dead = false; ///< Channel halted; never re-armed.
        /** Health registry pulled the slot from the pool (ISSUE 7). */
        bool quarantined = false;
        /** Per-PU containment events (parity, overflow) on this slot. */
        int faultCount = 0;
        uint64_t jobId = 0;
        JobCallback callback;
        /** Latency anchors carried from the pending job to harvest. */
        uint64_t enqueueCycle = 0;
        uint64_t admittedCycle = 0;
        uint64_t hostSubmitNs = 0;
        /** Absolute expiry cycle (0 = none) for mid-flight kills. */
        uint64_t deadlineCycle = 0;
        uint64_t requeues = 0;
        /** Multi-tenant tag carried from the pending job (ISSUE 8). */
        JobTag tag;
        /** Pre-truncation stream copy, kept only under
         * requeueStranded so a halted channel's jobs can re-run. */
        BitBuffer stream;
    };

    void harvest();
    /** Cancel jobs past their deadline: in-queue and mid-flight. */
    void expireDeadlines();
    /** Health scoring at retire time; may quarantine the slot. */
    void scoreSlotHealth(int pu, const Status &status);
    void armFromQueue();
    /** One scheduler-driven arm pass over the parked live slots. */
    void armSweep(bool relax_hints);
    /** Strand queued jobs that can never arm (unknown program, or a
     * program with zero live slots while others keep serving). */
    void strandOrphans();
    /** Sample the scheduler tracks for this round (events mode only). */
    void sampleSessionTracks();
    /** Report a job that never produced a RetiredJob (arm rejection or
     * a halted channel) and fire its callback. */
    void finishJobEarly(uint64_t job_id, int pu, Status status,
                        JobCallback &callback, uint64_t enqueue_cycle,
                        uint64_t host_submit_ns, uint32_t requeues,
                        const JobTag &tag);
    void record(JobReport report, JobCallback &callback);

    SessionConfig config_;
    /** The device pool (ISSUE 10): numDevices identical FleetSystems
     * under global slot indices. Every former direct FleetSystem call
     * forwards through the cluster's device-major index translation —
     * with one device, a zero-cost rename. */
    cluster::Cluster cluster_;
    /** The pluggable policy (runtime/scheduler.h); never null. */
    std::unique_ptr<Scheduler> scheduler_;
    JobQueue queue_;
    std::vector<Slot> slots_; ///< Indexed by global PU index.
    std::vector<JobReport> reports_; ///< Indexed by job id.
    std::vector<bool> reported_;     ///< Indexed by job id.
    uint64_t jobsFinished_ = 0;
    bool finished_ = false;
    /** Set by finish(): the cluster's settled report (owned by
     * cluster_; stable for the session's remaining lifetime). */
    const cluster::ClusterReport *clusterReport_ = nullptr;
    /** Scheduler observability (trace events mode): queue depth, jobs
     * in flight, and cumulative queue-wait cycles, sampled per round
     * on the session clock (consecutive equal samples deduplicated). */
    trace::CounterTrack queueDepthTrack_;
    trace::CounterTrack inFlightTrack_;
    trace::CounterTrack queueWaitTrack_;
    /** Recovery counters, sampled as tracks too (ISSUE 7). */
    trace::CounterTrack deadlineKillTrack_;
    trace::CounterTrack requeueTrack_;
    trace::CounterTrack quarantineTrack_;
    uint64_t totalQueueWaitCycles_ = 0;
    uint64_t deadlineKills_ = 0;
    uint64_t jobRequeues_ = 0;
    int quarantinedSlots_ = 0;
    /** Per-tenant accounting, updated as reports finalize; std::map so
     * iteration (and thus the trace assembly) is tenant-ordered and
     * deterministic. */
    std::map<uint32_t, TenantSessionStats> tenants_;
    /** Per-tenant counter tracks (events mode): cumulative queue-wait
     * and service cycles, sampled per round like the global tracks. */
    std::map<uint32_t, std::pair<trace::CounterTrack,
                                 trace::CounterTrack>>
        tenantTracks_;
};

} // namespace runtime
} // namespace fleet

#endif // FLEET_RUNTIME_SESSION_H

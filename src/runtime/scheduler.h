#ifndef FLEET_RUNTIME_SCHEDULER_H
#define FLEET_RUNTIME_SCHEDULER_H

/**
 * @file
 * Pluggable job scheduling for the multi-tenant Session (ISSUE 8).
 *
 * The Session's arm loop asks a Scheduler which queued job a freed slot
 * should run next. Every policy here is a *pure function of simulated
 * state*: picks depend only on the queue contents, the slot's static
 * binding (program index + placement lane), and the scheduler's own
 * history of armed jobs — never on host time, host thread count, or PU
 * backend. That purity is what lets the existing bit-identity fences
 * (serial-vs-parallel, cross-backend, trace equality) survive with any
 * policy enabled (DESIGN.md §5h).
 *
 * Policies:
 *  - Fifo:     legacy arrival order; the default, cycle-exact with the
 *              pre-scheduler runtime.
 *  - Priority: strict priority classes (lower JobTag::priority value
 *              wins), FIFO within a class.
 *  - Sjf:      shortest job first by stream bytes, FIFO among equals.
 *  - Wfq:      weighted fair queuing across tenants, implemented as
 *              integer start-time fair queuing: each tenant carries a
 *              finish tag advanced by streamBits * kWfqCostScale /
 *              weight per armed job, and the earliest start tag
 *              (max(tenant finish tag, virtual time)) wins.
 *
 * Placement hints: JobTag::preferredLane steers a job toward slots with
 * a matching SlotBinding::lane (e.g. latency-critical work onto lanes
 * bound to the Fast backend, audit jobs onto RtlInterp lanes). Hints are
 * preferences, not partitions — the Session's second arm sweep relaxes
 * them so no live slot idles while compatible work is queued.
 */

#include <cstdint>
#include <memory>
#include <vector>

namespace fleet {
namespace runtime {

/** Which scheduling policy a Session runs. */
enum class SchedulerPolicy
{
    Fifo,
    Priority,
    Sjf,
    Wfq,
};

const char *schedulerPolicyName(SchedulerPolicy policy);

/** Multi-tenant classification carried by every job. Defaults reproduce
 * the single-tenant, single-program, unhinted legacy behaviour. */
struct JobTag
{
    /** Tenant id for fair-queuing and per-tenant accounting. */
    uint32_t tenant = 0;
    /** Which bound program this job targets (index into the Session's
     * program list); jobs only arm on slots bound to the same index. */
    uint32_t programIndex = 0;
    /** Strict priority class, lower wins (Priority policy only). */
    uint32_t priority = 0;
    /** Placement hint: preferred SlotBinding::lane, or -1 for any. */
    int preferredLane = -1;
    /** Placement hint (ISSUE 10): preferred cluster device, or -1 for
     * any. Like preferredLane, a preference, not a partition — the
     * relaxed arm sweep ignores it so no live slot idles. */
    int preferredDevice = -1;
};

bool operator==(const JobTag &a, const JobTag &b);

/** Immutable view of the slot asking for work. */
struct SlotView
{
    int pu = -1;
    uint32_t programIndex = 0;
    int lane = 0;
    /** Cluster device hosting the slot (ISSUE 10); 0 on one device. */
    int device = 0;
};

/** Immutable view of one queued job, in queue (arrival) order. */
struct QueuedJobView
{
    uint64_t id = 0;
    uint64_t enqueueCycle = 0;
    uint64_t streamBits = 0;
    JobTag tag;
};

/** Per-tenant WFQ weight; tenants without an entry default to weight
 * 1. Weight 0 is clamped to 1 (a zero-weight tenant would starve and
 * break the no-starvation property). */
struct TenantWeight
{
    uint32_t tenant = 0;
    uint32_t weight = 1;
};

struct SchedulerConfig
{
    SchedulerPolicy policy = SchedulerPolicy::Fifo;
    /** WFQ weights; ignored by the other policies. */
    std::vector<TenantWeight> weights;
};

/** Scale factor for WFQ cost arithmetic: cost = max(1, streamBits) *
 * kWfqCostScale / weight, all in integers so schedules are bit-exact
 * on every host. */
constexpr uint64_t kWfqCostScale = 1024;

/**
 * Picks which queued job a freed slot runs next. pick() filters the
 * queue down to candidates the slot can legally run (program match,
 * plus the placement-hint rule unless relax_hints), then delegates the
 * policy decision to choose(). Implementations must be deterministic:
 * same arguments and same onArm() history => same pick.
 */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    virtual const char *name() const = 0;

    /**
     * Returns the queue index of the job the slot should arm, or -1 if
     * no queued job is compatible. With relax_hints false, jobs whose
     * preferredLane is set and differs from slot.lane are excluded;
     * with relax_hints true only the program binding filters.
     */
    int pick(const SlotView &slot, const std::vector<QueuedJobView> &queued,
             uint64_t now, bool relax_hints);

    /** Informs the scheduler a pick was actually armed (WFQ advances
     * its virtual clock here). Called once per successful arm. */
    virtual void onArm(const QueuedJobView &job, uint64_t now);

  protected:
    /** Policy decision among pre-filtered candidates (queue indices in
     * ascending order, never empty). Returns one of the candidates. */
    virtual int choose(const SlotView &slot,
                       const std::vector<QueuedJobView> &queued,
                       const std::vector<int> &candidates,
                       uint64_t now) = 0;
};

/** Builds the scheduler for a config; never returns null. */
std::unique_ptr<Scheduler> makeScheduler(const SchedulerConfig &config);

} // namespace runtime
} // namespace fleet

#endif // FLEET_RUNTIME_SCHEDULER_H

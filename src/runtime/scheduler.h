#ifndef FLEET_RUNTIME_SCHEDULER_H
#define FLEET_RUNTIME_SCHEDULER_H

/**
 * @file
 * Pluggable job scheduling for the multi-tenant Session (ISSUE 8).
 *
 * The Session's arm loop asks a Scheduler which queued job a freed slot
 * should run next. Every policy here is a *pure function of simulated
 * state*: picks depend only on the queue contents, the slot's program
 * index, and the scheduler's own history of armed jobs — never on host
 * time, host thread count, or PU backend. That purity is what lets the
 * existing bit-identity fences (serial-vs-parallel, cross-backend,
 * trace equality) survive with any policy enabled (DESIGN.md §5h).
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
 * Every queued job of a slot's program is a candidate for that slot,
 * so no live slot idles while such a job waits.
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
 * the single-tenant, single-program legacy behaviour. */
struct JobTag
{
    /** Tenant id for fair-queuing and per-tenant accounting. */
    uint32_t tenant = 0;
    /** Which bound program this job targets (index into the Session's
     * program list); jobs only arm on slots bound to the same index. */
    uint32_t programIndex = 0;
    /** Strict priority class, lower wins (Priority policy only). */
    uint32_t priority = 0;
};

bool operator==(const JobTag &a, const JobTag &b);

/** Immutable view of the slot asking for work. */
struct SlotView
{
    int pu = -1;
    uint32_t programIndex = 0;
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

class JobQueue;
struct PendingJob;

/**
 * Picks which queued job a freed slot runs next. Every policy reads the
 * queue in place, in arrival order, skips jobs of other programs, and
 * breaks ties toward arrival order. Implementations must be
 * deterministic: same arguments and same onArm() history => same pick.
 */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    virtual const char *name() const = 0;

    /**
     * Returns the queue index of the job the slot should arm, or -1 if
     * no queued job targets the slot's program.
     */
    virtual int pick(const SlotView &slot, const JobQueue &queue,
                     uint64_t now) = 0;

    /** Informs the scheduler a pick was actually armed (WFQ advances
     * its virtual clock here). Called once per successful arm. */
    virtual void onArm(const PendingJob &, uint64_t) {}
};

/** Builds the scheduler for a config; never returns null. */
std::unique_ptr<Scheduler> makeScheduler(const SchedulerConfig &config);

} // namespace runtime
} // namespace fleet

#endif // FLEET_RUNTIME_SCHEDULER_H

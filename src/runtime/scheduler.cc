#include "runtime/scheduler.h"

#include <algorithm>
#include <map>

#include "runtime/job_queue.h"

namespace fleet {
namespace runtime {

const char *
schedulerPolicyName(SchedulerPolicy policy)
{
    switch (policy) {
      case SchedulerPolicy::Fifo:
        return "fifo";
      case SchedulerPolicy::Priority:
        return "priority";
      case SchedulerPolicy::Sjf:
        return "sjf";
      case SchedulerPolicy::Wfq:
        return "wfq";
    }
    return "unknown";
}

bool
operator==(const JobTag &a, const JobTag &b)
{
    return a.tenant == b.tenant && a.programIndex == b.programIndex &&
           a.priority == b.priority;
}

namespace {

/** The first queued job of `program` minimising `key`, or -1: the
 * strict comparison keeps arrival order among equal keys. */
template <typename Key>
int
firstMin(const JobQueue &queue, uint32_t program, Key key)
{
    int best = -1;
    uint64_t best_key = 0;
    for (size_t i = 0; i < queue.size(); ++i) {
        const PendingJob &job = queue.at(i);
        if (job.tag.programIndex != program)
            continue;
        const uint64_t k = key(job);
        if (best < 0 || k < best_key) {
            best = static_cast<int>(i);
            best_key = k;
        }
    }
    return best;
}

/** Legacy arrival order: always the first compatible job. */
class FifoScheduler final : public Scheduler
{
  public:
    const char *name() const override { return "fifo"; }

    int pick(const SlotView &slot, const JobQueue &queue,
             uint64_t) override
    {
        for (size_t i = 0; i < queue.size(); ++i)
            if (queue.at(i).tag.programIndex == slot.programIndex)
                return static_cast<int>(i);
        return -1;
    }
};

/** Strict priority classes, FIFO within a class (lower value wins). */
class PriorityScheduler final : public Scheduler
{
  public:
    const char *name() const override { return "priority"; }

    int pick(const SlotView &slot, const JobQueue &queue,
             uint64_t) override
    {
        return firstMin(queue, slot.programIndex,
                        [](const PendingJob &job) {
                            return job.tag.priority;
                        });
    }
};

/** Shortest job first by stream size, FIFO among equals. */
class SjfScheduler final : public Scheduler
{
  public:
    const char *name() const override { return "sjf"; }

    int pick(const SlotView &slot, const JobQueue &queue,
             uint64_t) override
    {
        return firstMin(queue, slot.programIndex,
                        [](const PendingJob &job) {
                            return job.stream.sizeBits();
                        });
    }
};

/**
 * Weighted fair queuing as integer start-time fair queuing (SFQ).
 * Virtual time v is the start tag of the last armed job; a tenant's
 * next job starts at max(finishTag[tenant], v) and finishes cost =
 * max(1, streamBits) * kWfqCostScale / weight later. The candidate
 * with the smallest start tag wins; ties break toward queue (arrival)
 * order, so equal-weight tenants interleave deterministically and a
 * single tenant degenerates to FIFO. A tenant's jobs share one start
 * tag, so the winner is always its tenant's head-of-line job: fair
 * queuing serves each tenant's backlog FIFO. State advances only in
 * onArm(), i.e. only as a function of the armed sequence, keeping the
 * schedule a pure function of simulated state.
 */
class WfqScheduler final : public Scheduler
{
  public:
    explicit WfqScheduler(const SchedulerConfig &config)
    {
        for (const TenantWeight &w : config.weights)
            weights_[w.tenant] = std::max<uint32_t>(1, w.weight);
    }

    const char *name() const override { return "wfq"; }

    int pick(const SlotView &slot, const JobQueue &queue,
             uint64_t) override
    {
        return firstMin(queue, slot.programIndex,
                        [this](const PendingJob &job) {
                            return startTag(job.tag.tenant);
                        });
    }

    void onArm(const PendingJob &job, uint64_t now) override
    {
        (void)now;
        uint64_t start = startTag(job.tag.tenant);
        finish_[job.tag.tenant] = start + cost(job);
        virtualTime_ = start;
    }

  private:
    uint64_t weight(uint32_t tenant) const
    {
        auto it = weights_.find(tenant);
        return it == weights_.end() ? 1 : it->second;
    }

    uint64_t cost(const PendingJob &job) const
    {
        uint64_t bits = std::max<uint64_t>(1, job.stream.sizeBits());
        return std::max<uint64_t>(1,
                                  bits * kWfqCostScale /
                                      weight(job.tag.tenant));
    }

    uint64_t startTag(uint32_t tenant) const
    {
        auto it = finish_.find(tenant);
        uint64_t f = it == finish_.end() ? 0 : it->second;
        return std::max(f, virtualTime_);
    }

    std::map<uint32_t, uint64_t> weights_;
    std::map<uint32_t, uint64_t> finish_;
    uint64_t virtualTime_ = 0;
};

} // namespace

std::unique_ptr<Scheduler>
makeScheduler(const SchedulerConfig &config)
{
    switch (config.policy) {
      case SchedulerPolicy::Fifo:
        return std::make_unique<FifoScheduler>();
      case SchedulerPolicy::Priority:
        return std::make_unique<PriorityScheduler>();
      case SchedulerPolicy::Sjf:
        return std::make_unique<SjfScheduler>();
      case SchedulerPolicy::Wfq:
        return std::make_unique<WfqScheduler>(config);
    }
    return std::make_unique<FifoScheduler>();
}

} // namespace runtime
} // namespace fleet

#include "runtime/scheduler.h"

#include <algorithm>
#include <map>

#include "util/logging.h"

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

int
Scheduler::pick(const SlotView &slot,
                const std::vector<QueuedJobView> &queued, uint64_t now)
{
    std::vector<int> candidates;
    candidates.reserve(queued.size());
    for (size_t i = 0; i < queued.size(); ++i)
        if (queued[i].tag.programIndex == slot.programIndex)
            candidates.push_back(static_cast<int>(i));
    if (candidates.empty())
        return -1;
    int picked = choose(slot, queued, candidates, now);
    if (std::find(candidates.begin(), candidates.end(), picked) ==
        candidates.end()) {
        panic("scheduler ", name(), " picked index ", picked,
              " outside its candidate set");
    }
    return picked;
}

void
Scheduler::onArm(const QueuedJobView &job, uint64_t now)
{
    (void)job;
    (void)now;
}

namespace {

/** Legacy arrival order: always the first compatible job. */
class FifoScheduler final : public Scheduler
{
  public:
    const char *name() const override { return "fifo"; }

  protected:
    int choose(const SlotView &, const std::vector<QueuedJobView> &,
               const std::vector<int> &candidates, uint64_t) override
    {
        return candidates.front();
    }
};

/** Strict priority classes, FIFO within a class (lower value wins). */
class PriorityScheduler final : public Scheduler
{
  public:
    const char *name() const override { return "priority"; }

  protected:
    int choose(const SlotView &, const std::vector<QueuedJobView> &queued,
               const std::vector<int> &candidates, uint64_t) override
    {
        int best = candidates.front();
        for (int i : candidates) {
            if (queued[i].tag.priority < queued[best].tag.priority)
                best = i;
        }
        return best;
    }
};

/** Shortest job first by stream size, FIFO among equals. */
class SjfScheduler final : public Scheduler
{
  public:
    const char *name() const override { return "sjf"; }

  protected:
    int choose(const SlotView &, const std::vector<QueuedJobView> &queued,
               const std::vector<int> &candidates, uint64_t) override
    {
        int best = candidates.front();
        for (int i : candidates) {
            if (queued[i].streamBits < queued[best].streamBits)
                best = i;
        }
        return best;
    }
};

/**
 * Weighted fair queuing as integer start-time fair queuing (SFQ).
 * Virtual time v is the start tag of the last armed job; a tenant's
 * next job starts at max(finishTag[tenant], v) and finishes cost =
 * max(1, streamBits) * kWfqCostScale / weight later. The candidate
 * with the smallest start tag wins; ties break toward queue (arrival)
 * order, so equal-weight tenants interleave deterministically and a
 * single tenant degenerates to FIFO. State advances only in onArm(),
 * i.e. only as a function of the armed sequence, keeping the schedule
 * a pure function of simulated state.
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

    void onArm(const QueuedJobView &job, uint64_t now) override
    {
        (void)now;
        uint64_t start = startTag(job.tag.tenant);
        finish_[job.tag.tenant] = start + cost(job);
        virtualTime_ = start;
    }

  protected:
    int choose(const SlotView &, const std::vector<QueuedJobView> &queued,
               const std::vector<int> &candidates, uint64_t) override
    {
        // Fair queuing serves each tenant's own backlog FIFO, so only
        // the head-of-line candidate per tenant competes.
        int best = -1;
        uint64_t best_start = 0;
        std::map<uint32_t, bool> seen;
        for (int i : candidates) {
            uint32_t tenant = queued[i].tag.tenant;
            if (seen[tenant])
                continue;
            seen[tenant] = true;
            uint64_t start = startTag(tenant);
            if (best < 0 || start < best_start) {
                best = i;
                best_start = start;
            }
        }
        return best;
    }

  private:
    uint64_t weight(uint32_t tenant) const
    {
        auto it = weights_.find(tenant);
        return it == weights_.end() ? 1 : it->second;
    }

    uint64_t cost(const QueuedJobView &job) const
    {
        uint64_t bits = std::max<uint64_t>(1, job.streamBits);
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

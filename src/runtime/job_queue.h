#ifndef FLEET_RUNTIME_JOB_QUEUE_H
#define FLEET_RUNTIME_JOB_QUEUE_H

/**
 * @file
 * FIFO of pending jobs for the multi-stream runtime (ISSUE 5). A job is
 * one independent input stream plus an optional completion callback; the
 * queue assigns sequential ids at push time, so the fault plan's per-job
 * stream truncation (fault::truncatedJobTokens) is keyed stably no matter
 * which processing-unit slot the job eventually lands on, and the report
 * the callback receives carries the same id.
 *
 * The queue itself is deliberately dumb — it stores jobs in strict
 * arrival order and never reorders — because the scheduler's determinism
 * argument (DESIGN.md §5e/§5h) rests on the dispatch order being a pure
 * function of simulated state. Policy lives in runtime::Scheduler, which
 * reads this queue in place and *picks an index* out of it (take()); the
 * queue just preserves arrival order and stable ids.
 */

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "runtime/scheduler.h"
#include "util/bitbuf.h"
#include "util/logging.h"

namespace fleet {
namespace runtime {

struct JobReport;

/** Invoked by Session when the job's report is final; the report is
 * handed over, and the session keeps no copy. */
using JobCallback = std::function<void(JobReport)>;

/** One pending job: a stream awaiting a processing-unit slot. */
struct PendingJob
{
    uint64_t id = 0;
    BitBuffer stream;
    JobCallback callback; ///< May be empty.
    /**
     * Session-clock cycle the job entered the queue (ISSUE 6): the
     * anchor for the report's queue-wait decomposition. Stamped by
     * Session::submit with the current session cycle, or provided by
     * the serving layer as the job's open-loop arrival cycle.
     */
    uint64_t enqueueCycle = 0;
    /** Host steady-clock nanoseconds at submission (wall-clock metrics
     * only — never feeds back into the simulated schedule). */
    uint64_t hostSubmitNs = 0;
    /**
     * Absolute session-clock cycle after which the job is expired
     * (ISSUE 7); 0 = no deadline. Session::step cancels expired jobs
     * in-queue (JobQueue::takeExpired) or mid-flight (killPu/retire)
     * and reports them DeadlineExceeded.
     */
    uint64_t deadlineCycle = 0;
    /** Times the job was pulled off a halted channel and re-queued
     * onto survivors (ISSUE 7); surfaced in JobReport::requeues. */
    uint32_t requeues = 0;
    /** Tenant / program-class / placement tag (ISSUE 8). Defaults are
     * the single-tenant legacy behaviour. */
    JobTag tag;
};

class JobQueue
{
  public:
    /** Enqueue a stream; returns the job's id (sequential from 0). */
    uint64_t push(BitBuffer stream, JobCallback callback = nullptr,
                  uint64_t enqueue_cycle = 0, uint64_t host_submit_ns = 0,
                  uint64_t deadline_cycle = 0, const JobTag &tag = {})
    {
        uint64_t id = nextId_++;
        jobs_.push_back(PendingJob{id, std::move(stream),
                                   std::move(callback), enqueue_cycle,
                                   host_submit_ns, deadline_cycle, 0,
                                   tag});
        return id;
    }

    /**
     * Put a job back at the *front* of the queue without assigning a
     * new id (ISSUE 7): the halted-channel recovery path re-queues a
     * stranded job under its original id so its report slot, fault
     * hashes, and latency anchors stay keyed to the same job. The id
     * must have been assigned by this queue's push().
     */
    void requeueFront(PendingJob job)
    {
        if (job.id >= nextId_)
            panic("JobQueue::requeueFront with a foreign job id ",
                  job.id);
        jobs_.push_front(std::move(job));
    }

    /**
     * Remove and return every queued job whose deadline has passed at
     * session cycle `now` (deadlineCycle != 0 and <= now), preserving
     * FIFO order among the expired and among the kept. Works in place
     * and allocates nothing when no job has expired. Pure function of
     * queue contents and `now` — called once per scheduler round, so
     * expiry is as deterministic as the rest of the schedule.
     */
    std::vector<PendingJob> takeExpired(uint64_t now)
    {
        std::vector<PendingJob> expired;
        size_t kept = 0;
        for (size_t i = 0; i < jobs_.size(); ++i) {
            PendingJob &job = jobs_[i];
            if (job.deadlineCycle != 0 && job.deadlineCycle <= now)
                expired.push_back(std::move(job));
            else if (kept++ != i)
                jobs_[kept - 1] = std::move(job);
        }
        jobs_.resize(kept);
        return expired;
    }

    bool empty() const { return jobs_.empty(); }
    size_t size() const { return jobs_.size(); }
    /** Total jobs ever pushed (== the next id to be assigned). */
    uint64_t pushed() const { return nextId_; }

    const PendingJob &front() const
    {
        if (jobs_.empty())
            panic("JobQueue::front on an empty queue");
        return jobs_.front();
    }

    /** Read-only view of the job at queue position `index` (arrival
     * order) — what Scheduler::pick reads. */
    const PendingJob &at(size_t index) const
    {
        if (index >= jobs_.size())
            panic("JobQueue::at(", index, ") on a queue of ",
                  jobs_.size());
        return jobs_[index];
    }

    PendingJob pop()
    {
        if (jobs_.empty())
            panic("JobQueue::pop on an empty queue");
        PendingJob job = std::move(jobs_.front());
        jobs_.pop_front();
        return job;
    }

    /** Remove and return the job at queue position `index`: how the
     * Session honours a scheduler pick. take(0) == pop(). */
    PendingJob take(size_t index)
    {
        if (index >= jobs_.size())
            panic("JobQueue::take(", index, ") on a queue of ",
                  jobs_.size());
        PendingJob job = std::move(jobs_[index]);
        jobs_.erase(jobs_.begin() + static_cast<ptrdiff_t>(index));
        return job;
    }

  private:
    std::deque<PendingJob> jobs_;
    uint64_t nextId_ = 0;
};

} // namespace runtime
} // namespace fleet

#endif // FLEET_RUNTIME_JOB_QUEUE_H

/**
 * @file
 * FleetService implementation. Thread discipline: client threads touch
 * only the admission state (wait_, counters, the block CV) under mu_;
 * the inner Session is touched exclusively by the pumping thread (the
 * background service thread, or the caller in paced mode) — stats for
 * client threads are published through atomics after each round. That
 * split is what keeps the simulated schedule a pure function of the
 * admitted sequence: host timing decides only when rounds happen and
 * in which order clients reach the admission lock, never what the
 * simulation computes (DESIGN.md §5f).
 */

#include "serve/service.h"

#include <chrono>

namespace fleet {
namespace serve {

const char *
admissionPolicyName(AdmissionPolicy policy)
{
    switch (policy) {
    case AdmissionPolicy::Block:
        return "block";
    case AdmissionPolicy::Reject:
        return "reject";
    case AdmissionPolicy::ShedOldest:
        return "shed-oldest";
    }
    return "unknown";
}

// ---------------------------------------------------------------------------
// JobTicket

void
JobTicket::State::complete(runtime::JobReport final)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        report = std::move(final);
        ready = true;
    }
    cv.notify_all();
}

bool
JobTicket::ready() const
{
    if (!state_)
        return false;
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->ready;
}

const runtime::JobReport &
JobTicket::wait() const
{
    if (!state_)
        throw StatusError(Status::make(StatusCode::InvalidState,
                                       "JobTicket::wait on an invalid "
                                       "(default-constructed) ticket"));
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [this] { return state_->ready; });
    return state_->report;
}

bool
JobTicket::waitFor(std::chrono::nanoseconds timeout) const
{
    if (!state_)
        throw StatusError(Status::make(StatusCode::InvalidState,
                                       "JobTicket::waitFor on an "
                                       "invalid ticket"));
    std::unique_lock<std::mutex> lock(state_->mu);
    return state_->cv.wait_for(lock, timeout,
                               [this] { return state_->ready; });
}

const runtime::JobReport &
JobTicket::report() const
{
    if (!state_)
        throw StatusError(Status::make(StatusCode::InvalidState,
                                       "JobTicket::report on an invalid "
                                       "ticket"));
    std::lock_guard<std::mutex> lock(state_->mu);
    if (!state_->ready)
        throw StatusError(Status::make(
            StatusCode::InvalidState,
            "JobTicket::report before the job finished (pump or wait)"));
    return state_->report;
}

const std::vector<runtime::JobReport> &
JobTicket::retried() const
{
    report(); // the same validity and readiness checks
    return state_->retried;
}

// ---------------------------------------------------------------------------
// FleetService

namespace {

/** Background thread: how long to sleep when a round finds no work. */
constexpr auto kIdlePoll = std::chrono::microseconds(100);

/** Report for a job admission turned away before it reached a slot. */
runtime::JobReport
refusalReport(StatusCode code, const char *why)
{
    runtime::JobReport report;
    report.jobId = UINT64_MAX; // never assigned a session job id
    report.status = Status::make(code, why);
    return report;
}

} // namespace

FleetService::FleetService(const lang::Program &program,
                           const ServiceConfig &config)
    : FleetService(std::vector<lang::Program>(1, program), config)
{
}

FleetService::FleetService(std::vector<lang::Program> programs,
                           const ServiceConfig &config,
                           std::vector<uint32_t> slot_programs)
    : config_(config), session_(std::move(programs), config.session,
                                std::move(slot_programs))
{
    // A zero-depth queue under Block would park submitters forever
    // (nothing can ever be "waiting"); one slot of waiting room keeps
    // the policy meaningful.
    if (config_.policy == AdmissionPolicy::Block &&
        config_.maxQueueDepth == 0)
        config_.maxQueueDepth = 1;
    deviceCompleted_.assign(
        static_cast<size_t>(session_.numDevices()), 0);
    liveSlotsNow_.store(session_.liveSlots(), std::memory_order_relaxed);
    if (config_.backgroundThread)
        thread_ = std::thread([this] { serviceThread(); });
}

FleetService::~FleetService()
{
    shutdown();
}

JobTicket
FleetService::refuse(std::shared_ptr<JobTicket::State> state,
                     StatusCode code, const char *why)
{
    state->complete(refusalReport(code, why));
    JobTicket ticket;
    ticket.state_ = std::move(state);
    return ticket;
}

JobTicket
FleetService::submit(BitBuffer stream)
{
    return admit(std::move(stream),
                 nowCycle_.load(std::memory_order_relaxed), {});
}

JobTicket
FleetService::submit(BitBuffer stream, const SubmitOptions &options)
{
    return admit(std::move(stream),
                 nowCycle_.load(std::memory_order_relaxed), options);
}

JobTicket
FleetService::submitAt(BitBuffer stream, uint64_t arrival_cycle,
                       const SubmitOptions &options)
{
    return admit(std::move(stream), arrival_cycle, options);
}

JobTicket
FleetService::admit(BitBuffer stream, uint64_t arrival_cycle,
                    const SubmitOptions &options)
{
    auto tracked = std::make_shared<Tracked>();
    tracked->ticket = std::make_shared<JobTicket::State>();
    tracked->stream = std::move(stream);
    tracked->arrivalCycle = arrival_cycle;
    tracked->deadlineCycle =
        options.deadlineCycles ? arrival_cycle + options.deadlineCycles
                               : 0;
    tracked->tag = options.tag;
    std::unique_lock<std::mutex> lock(mu_);
    ++submitted_;
    TenantStats &tenant = tenants_[options.tag.tenant];
    ++tenant.submitted;
    if (!accepting_) {
        ++tenant.cancelled;
        return refuse(tracked->ticket, StatusCode::Cancelled,
                      "submit after shutdown: the service is no longer "
                      "accepting jobs");
    }

    // FIFO fairness under Block: a newcomer may not slip past parked
    // submitters, so it parks whenever anyone is already waiting for a
    // turn, not just when the queue is full.
    if (config_.policy == AdmissionPolicy::Block &&
        (wait_.size() >= config_.maxQueueDepth ||
         blockHead_ != blockNext_)) {
        uint64_t turn = blockNext_++;
        spaceCv_.wait(lock, [&] {
            return !accepting_ ||
                   (blockHead_ == turn &&
                    wait_.size() < config_.maxQueueDepth);
        });
        ++blockHead_; // pass the turn on even when released by shutdown
        spaceCv_.notify_all();
        if (!accepting_) {
            ++tenants_[options.tag.tenant].cancelled;
            return refuse(tracked->ticket, StatusCode::Cancelled,
                          "submit released by shutdown while blocked "
                          "on admission");
        }
    } else if (wait_.size() >= config_.maxQueueDepth) {
        if (config_.policy == AdmissionPolicy::Reject) {
            ++rejected_;
            ++tenant.rejected;
            return refuse(tracked->ticket,
                          StatusCode::ResourceExhausted,
                          "admission queue full (Reject policy)");
        }
        // ShedOldest: the oldest waiting job pays for the newest. The
        // distinct Shed code tells the evicted client apart from one
        // turned away at the door (ResourceExhausted).
        std::shared_ptr<Tracked> oldest = std::move(wait_.front());
        wait_.pop_front();
        ++shed_;
        ++tenants_[oldest->tag.tenant].shed;
        oldest->ticket->complete(refusalReport(
            StatusCode::Shed,
            "shed from the admission queue to make room "
            "(ShedOldest policy)"));
    }

    JobTicket ticket;
    ticket.state_ = tracked->ticket;
    wait_.push_back(std::move(tracked));
    ++admitted_;
    ++tenants_[options.tag.tenant].admitted;
    return ticket;
}

void
FleetService::dispatchLocked(std::shared_ptr<Tracked> tracked)
{
    // Keep the stream copy only while another attempt is possible
    // (retry enabled and attempts remain after this one).
    BitBuffer stream;
    if (config_.retry.maxAttempts > tracked->attempt)
        stream = tracked->stream; // copy; original stays for retries
    else
        stream = std::move(tracked->stream);
    auto self = tracked;
    session_.submitJob(
        std::move(stream), tracked->tag, tracked->arrivalCycle,
        [this, self](runtime::JobReport report) {
            onJobDone(self, std::move(report));
        },
        tracked->deadlineCycle);
    ++tenants_[tracked->tag.tenant].inSession;
}

void
FleetService::onJobDone(const std::shared_ptr<Tracked> &tracked,
                        runtime::JobReport report)
{
    // Runs on the pumping thread, inside Session::step — the session
    // is mid-round, so only service-side state is touched here; the
    // retry itself re-enters through feedSessionLocked next round.
    std::lock_guard<std::mutex> lock(mu_);
    TenantStats &tenant = tenants_[tracked->tag.tenant];
    --tenant.inSession;
    const bool attempts_left =
        config_.retry.maxAttempts > tracked->attempt;
    const bool within_deadline =
        tracked->deadlineCycle == 0 ||
        session_.cycles() < tracked->deadlineCycle;
    if (attempts_left && statusCodeTransient(report.status.code) &&
        within_deadline && session_.liveSlots() > 0) {
        tracked->ticket->retried.push_back(std::move(report));
        // Linear backoff in simulated cycles: attempt k waits k units.
        // The clock only advances while jobs run, so an otherwise-idle
        // service releases the retry on the next round (feedSession's
        // idle warp) rather than deadlocking on a cycle that would
        // never come.
        tracked->retryEligibleCycle =
            session_.cycles() +
            config_.retry.backoffCycles *
                static_cast<uint64_t>(tracked->attempt);
        ++tracked->attempt;
        ++retries_;
        ++tenant.retries;
        retryWait_.push_back(tracked);
        return;
    }
    report.attempts = static_cast<uint32_t>(tracked->attempt);
    ++tenant.completed;
    tenant.queueWaitCycles += report.queueWaitCycles();
    tenant.serviceCycles += report.serviceCycles();
    if (report.status.code == StatusCode::DeadlineExceeded)
        ++tenant.deadlineKilled;
    if (report.device >= 0 &&
        report.device < static_cast<int>(deviceCompleted_.size()))
        ++deviceCompleted_[report.device];
    tracked->ticket->complete(std::move(report));
    completed_.fetch_add(1, std::memory_order_relaxed);
}

void
FleetService::feedSessionLocked()
{
    // Keep the session's appetite ahead of harvest: up to two rounds'
    // worth of jobs pending inside it (one being served, one staged),
    // so a slot drained this round re-arms next round without a
    // bubble. Queue-wait accounting is unaffected — dispatch carries
    // each job's original arrival cycle.
    //
    // Under a non-FIFO scheduler (ISSUE 8) the staging bound would
    // defeat the policy: priority/SJF/WFQ can only reorder jobs the
    // *session* can see, so the whole admitted backlog is handed over
    // and the session queue becomes the scheduling pool. The FIFO
    // default keeps the legacy 2x bound (and its byte-identical
    // feed order).
    const bool fifo_default = config_.session.scheduler.policy ==
                              runtime::SchedulerPolicy::Fifo;
    const uint64_t target =
        fifo_default ? 2 * static_cast<uint64_t>(session_.liveSlots())
                     : UINT64_MAX;
    const uint64_t now = session_.cycles();

    // Retries first: they were admitted long ago, so they outrank the
    // wait queue and bypass the admission bound. Released strictly in
    // decision order once their backoff cycle passes.
    for (auto it = retryWait_.begin();
         it != retryWait_.end() && session_.jobsPending() < target;) {
        if ((*it)->retryEligibleCycle > now) {
            ++it;
            continue;
        }
        dispatchLocked(*it);
        it = retryWait_.erase(it);
    }
    // Idle warp: the session clock only advances while jobs are in
    // flight. If backoff is the *only* thing left, waiting for the
    // eligible cycle would deadlock — release the earliest-eligible
    // retry now. Deterministic: depends only on simulated state.
    if (wait_.empty() && session_.jobsPending() == 0 &&
        !retryWait_.empty()) {
        auto earliest = retryWait_.begin();
        for (auto it = std::next(earliest); it != retryWait_.end(); ++it)
            if ((*it)->retryEligibleCycle <
                (*earliest)->retryEligibleCycle)
                earliest = it;
        dispatchLocked(*earliest);
        retryWait_.erase(earliest);
    }

    bool freed = false;
    while (!wait_.empty() && session_.jobsPending() < target) {
        dispatchLocked(std::move(wait_.front()));
        wait_.pop_front();
        freed = true;
    }
    if (freed)
        spaceCv_.notify_all();
}

bool
FleetService::pumpOnce()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (finished_)
            return false;
        if (session_.liveSlots() == 0 &&
            (!wait_.empty() || !retryWait_.empty())) {
            // Every slot halted or quarantined: nothing will ever
            // drain the wait queue — complete the stranded tickets
            // instead of hanging their owners (the session strands its
            // own jobs the same way).
            for (const auto &tracked : wait_) {
                tracked->ticket->complete(refusalReport(
                    StatusCode::InvalidState,
                    "no live processing-unit slots remain "
                    "(every channel halted)"));
                ++tenants_[tracked->tag.tenant].completed;
                completed_.fetch_add(1, std::memory_order_relaxed);
            }
            wait_.clear();
            // A pending retry has a real failure report from its last
            // attempt — that, not a refusal, is the honest terminal
            // state; it was never retried, so it leaves the list.
            for (auto &tracked : retryWait_) {
                std::vector<runtime::JobReport> &retried =
                    tracked->ticket->retried;
                runtime::JobReport final = std::move(retried.back());
                retried.pop_back();
                final.attempts =
                    static_cast<uint32_t>(tracked->attempt - 1);
                ++tenants_[tracked->tag.tenant].completed;
                tracked->ticket->complete(std::move(final));
                completed_.fetch_add(1, std::memory_order_relaxed);
            }
            retryWait_.clear();
            spaceCv_.notify_all();
        }
        feedSessionLocked();
    }
    session_.step();
    publishTelemetry();
    std::lock_guard<std::mutex> lock(mu_);
    return !wait_.empty() || !retryWait_.empty() ||
           session_.jobsPending() > 0;
}

bool
FleetService::pump()
{
    if (thread_.joinable())
        throw StatusError(Status::make(
            StatusCode::InvalidState,
            "pump: the service runs a background thread; paced mode "
            "requires ServiceConfig::backgroundThread = false"));
    return pumpOnce();
}

void
FleetService::serviceThread()
{
    for (;;) {
        bool work = pumpOnce();
        if (!work) {
            {
                std::lock_guard<std::mutex> lock(mu_);
                if (!accepting_)
                    return; // shutdown requested and fully drained
            }
            std::this_thread::sleep_for(kIdlePoll);
        }
    }
}

void
FleetService::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        accepting_ = false;
    }
    spaceCv_.notify_all();
    if (thread_.joinable())
        thread_.join(); // exits once every admitted job has a report
    else
        while (pumpOnce()) {
        }
    std::lock_guard<std::mutex> lock(mu_);
    if (!finished_) {
        runReport_ = &session_.finish();
        finished_ = true;
        publishTelemetry();
    }
}

void
FleetService::publishTelemetry()
{
    nowCycle_.store(session_.cycles(), std::memory_order_relaxed);
    inFlightNow_.store(session_.jobsInFlight(),
                       std::memory_order_relaxed);
    liveSlotsNow_.store(session_.liveSlots(), std::memory_order_relaxed);
    deadlineKilledNow_.store(session_.deadlineKills(),
                             std::memory_order_relaxed);
    requeuedNow_.store(session_.jobRequeues(),
                       std::memory_order_relaxed);
    quarantinedNow_.store(session_.quarantinedSlots(),
                          std::memory_order_relaxed);
}

const system::RunReport &
FleetService::runReport() const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!finished_ || runReport_ == nullptr)
        throw StatusError(Status::make(
            StatusCode::InvalidState,
            "runReport: call shutdown() first to settle the session"));
    return *runReport_;
}

ServiceStats
FleetService::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    ServiceStats stats;
    stats.submitted = submitted_;
    stats.admitted = admitted_;
    stats.rejected = rejected_;
    stats.shed = shed_;
    stats.completed = completed_.load(std::memory_order_relaxed);
    stats.queueDepth = wait_.size();
    stats.blockedSubmitters = blockNext_ - blockHead_;
    stats.jobsInFlight = inFlightNow_.load(std::memory_order_relaxed);
    stats.liveSlots = liveSlotsNow_.load(std::memory_order_relaxed);
    stats.saturated = wait_.size() >= config_.maxQueueDepth;
    stats.simCycles = nowCycle_.load(std::memory_order_relaxed);
    stats.retries = retries_;
    stats.retryBacklog = retryWait_.size();
    stats.deadlineKilled =
        deadlineKilledNow_.load(std::memory_order_relaxed);
    stats.requeued = requeuedNow_.load(std::memory_order_relaxed);
    stats.quarantinedSlots =
        quarantinedNow_.load(std::memory_order_relaxed);
    // Per-tenant breakdown (ISSUE 8): terminal buckets come from the
    // maintained counters; the live waiting / retryBacklog buckets are
    // recomputed from the actual deques so the conservation law in
    // TenantStats holds by construction of the state, not by mirrored
    // arithmetic.
    std::map<uint32_t, TenantStats> tenants = tenants_;
    for (const auto &tracked : wait_)
        ++tenants[tracked->tag.tenant].waiting;
    for (const auto &tracked : retryWait_)
        ++tenants[tracked->tag.tenant].retryBacklog;
    stats.tenants.assign(tenants.begin(), tenants.end());
    stats.numDevices = static_cast<int>(deviceCompleted_.size());
    stats.deviceCompleted = deviceCompleted_;
    return stats;
}

bool
FleetService::saturated() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return wait_.size() >= config_.maxQueueDepth;
}

void
FleetService::injectChannelHalt(int c)
{
    if (thread_.joinable())
        throw StatusError(Status::make(
            StatusCode::InvalidState,
            "injectChannelHalt: the service runs a background thread; "
            "the chaos drill requires paced mode"));
    session_.forceHaltChannel(
        c, Status::make(StatusCode::InternalError,
                        "injected channel halt (chaos drill)"));
}

} // namespace serve
} // namespace fleet

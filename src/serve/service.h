#ifndef FLEET_SERVE_SERVICE_H
#define FLEET_SERVE_SERVICE_H

/**
 * @file
 * Fleet-as-a-service (ISSUE 6): an in-process async client API over the
 * multi-stream job runtime. "Millions of users" is a queueing problem,
 * not a throughput problem — the serving layer is where queueing delay,
 * admission behaviour, and tail latency live, which the closed-loop
 * job_throughput bench structurally cannot see.
 *
 * A FleetService wraps a runtime::Session behind a thread-safe
 * submission boundary:
 *
 *  - *Clients* (any host thread) call submit() and get back a
 *    JobTicket — a future for the job's final runtime::JobReport.
 *  - A *service loop* — either a background thread (the default) or
 *    the caller pumping explicitly in paced mode — transfers admitted
 *    jobs into the Session and drives its scheduler rounds.
 *  - *Admission control*: the wait queue is bounded
 *    (ServiceConfig::maxQueueDepth). At the bound the configured
 *    policy kicks in: Block parks the submitter (FIFO wake order),
 *    Reject completes the ticket immediately with ResourceExhausted,
 *    ShedOldest drops the oldest waiting job (its ticket completes
 *    with ResourceExhausted) to make room for the newest.
 *  - *Backpressure signals*: stats() exposes queue depth, saturation,
 *    jobs in flight, and blocked submitters, so callers can throttle
 *    before admission control has to act.
 *
 * Determinism contract (DESIGN.md §5f): everything *simulated* — the
 * job→slot schedule, per-job cycle timestamps, outputs, traces — is a
 * pure function of (program, config, admission order, arrival cycles).
 * Host wall-clock only decides *when* rounds run, never what they
 * compute, so per-job simulated-cycle latencies are bit-identical
 * across PU backends and host thread counts. The open-loop bench
 * (bench/serve_latency) exploits this by running in paced mode with
 * arrival cycles from a seeded schedule (load_gen.h), making the whole
 * demand/latency curve reproducible; a free-running background thread
 * leaves the admission *order* up to host scheduling, but each
 * admitted sequence still replays exactly.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/session.h"

namespace fleet {
namespace serve {

/** What happens to a submit() when the wait queue is at its bound. */
enum class AdmissionPolicy
{
    Block,     ///< Park the submitter until space frees (FIFO order).
    Reject,    ///< Complete the ticket with ResourceExhausted now.
    ShedOldest ///< Drop the oldest waiting job; admit the new one.
};

const char *admissionPolicyName(AdmissionPolicy policy);

/**
 * Deterministic retry (ISSUE 7). A job whose report carries a
 * *transient* status (util::statusCodeTransient: parity quarantine,
 * truncation, watchdog stall, cycle limit, internal error) is
 * re-submitted — with its original stream and arrival cycle — until it
 * succeeds, fails permanently, runs out of attempts, or passes its
 * deadline. Backoff is measured in *simulated* cycles (attempt k waits
 * backoffCycles x k before re-entering the queue), so the retry
 * schedule is part of the simulated state and bit-identical across PU
 * backends and host thread counts. Each attempt runs under a fresh
 * session job id, so the fault plan's per-job hashes roll fresh dice —
 * a job truncated or corrupted on one attempt retries clean, and its
 * eventual Ok output is bit-identical to the fault-free golden.
 */
struct RetryPolicy
{
    /** Total attempts, the first included. 1 (default) = no retry. */
    int maxAttempts = 1;
    /** Simulated-cycle backoff unit; attempt k waits k x this. */
    uint64_t backoffCycles = 0;
};

/** Per-submission options (ISSUE 7). */
struct SubmitOptions
{
    /**
     * Deadline in simulated cycles *relative to the arrival cycle*;
     * 0 = none. A job past its deadline is cancelled in-queue or
     * abandoned mid-flight (the slot is reclaimed through the
     * containment path) and its ticket completes DeadlineExceeded.
     * The deadline also bounds retries: no attempt starts after it.
     */
    uint64_t deadlineCycles = 0;
    /**
     * Multi-tenant classification (ISSUE 8): tenant id for fair
     * queuing and per-tenant telemetry, program class (which of the
     * session's programs the job targets) and strict priority.
     * Carried through every attempt and into the final JobReport.
     */
    runtime::JobTag tag;
};

struct ServiceConfig
{
    /** Program/slot-pool/backend/trace config for the inner Session. */
    runtime::SessionConfig session;
    /**
     * Bound on jobs *waiting* for a slot (the service's wait queue;
     * jobs already handed to the session — at most the live slot count
     * — are in service, not waiting). 0 is legal: every submit beyond
     * the slot pool's appetite hits the admission policy immediately.
     */
    size_t maxQueueDepth = 64;
    AdmissionPolicy policy = AdmissionPolicy::Block;
    /**
     * true: start() spawns a background service thread that pumps
     * scheduler rounds until shutdown. false: *paced mode* — the
     * caller drives rounds explicitly with pump(), which is what the
     * open-loop bench and the determinism tests use (simulated time
     * then advances only under the caller's control).
     */
    bool backgroundThread = true;
    /** Transient-failure retry (ISSUE 7). Off by default. */
    RetryPolicy retry;
};

/**
 * Per-tenant serving telemetry (ISSUE 8). The counters obey a
 * conservation law that the serve tests assert at every pump step:
 *
 *   submitted == rejected + cancelled + shed + completed
 *              + waiting + retryBacklog + inSession
 *
 * i.e. every submit() is, at any instant, in exactly one terminal
 * bucket (rejected / cancelled / shed / completed) or one live bucket
 * (waiting in the admission queue, waiting out a retry backoff, or
 * inside the session).
 */
struct TenantStats
{
    uint64_t submitted = 0; ///< submit() calls for this tenant.
    uint64_t admitted = 0;  ///< Entered the wait queue.
    uint64_t rejected = 0;  ///< Turned away at the bound (Reject).
    uint64_t cancelled = 0; ///< Refused at/after shutdown.
    uint64_t shed = 0;      ///< Dropped to make room (ShedOldest).
    uint64_t completed = 0; ///< Tickets holding a final report.
    uint64_t waiting = 0;      ///< In the admission queue right now.
    uint64_t retryBacklog = 0; ///< Waiting out a retry backoff.
    uint64_t inSession = 0;    ///< Handed to the session, no report yet.
    uint64_t retries = 0;      ///< Transient failures re-submitted.
    uint64_t deadlineKilled = 0; ///< Completed DeadlineExceeded.
    /** Cumulative simulated queue-wait / service cycles over this
     * tenant's completed reports (the scheduler-side breakdown). */
    uint64_t queueWaitCycles = 0;
    uint64_t serviceCycles = 0;
};

/** Service-level telemetry snapshot (the backpressure signals). */
struct ServiceStats
{
    uint64_t submitted = 0; ///< submit() calls, including turned-away.
    uint64_t admitted = 0;  ///< Entered the wait queue.
    uint64_t rejected = 0;  ///< Turned away at the bound (Reject).
    uint64_t shed = 0;      ///< Dropped to make room (ShedOldest).
    /** Admitted tickets holding a final report — served, contained, or
     * stranded (shed and rejected tickets are counted separately). */
    uint64_t completed = 0;
    uint64_t queueDepth = 0;      ///< Waiting jobs right now.
    uint64_t blockedSubmitters = 0; ///< Parked in submit() (Block).
    int jobsInFlight = 0;         ///< Armed on slots.
    /** Slots still serving: neither on a halted channel nor
     * quarantined — the service's live capacity (ISSUE 7). */
    int liveSlots = 0;
    bool saturated = false;       ///< queueDepth >= maxQueueDepth.
    uint64_t simCycles = 0;       ///< Session clock (max over shards).
    /// @name Recovery telemetry (ISSUE 7).
    /// @{
    uint64_t retries = 0;        ///< Transient failures re-submitted.
    uint64_t retryBacklog = 0;   ///< Retries waiting out their backoff.
    uint64_t deadlineKilled = 0; ///< Jobs cancelled past their deadline.
    uint64_t requeued = 0;       ///< Jobs pulled off halted channels.
    int quarantinedSlots = 0;    ///< Slots pulled by the health registry.
    /// @}
    /** Per-tenant breakdown (ISSUE 8), sorted by tenant id. Tenants
     * appear on their first submit(). */
    std::vector<std::pair<uint32_t, TenantStats>> tenants;
    /// @name Cluster breakdown (ISSUE 10).
    /// @{
    int numDevices = 1; ///< Devices the session schedules across.
    /** Jobs completed per cluster device (index = device id); counts
     * only reports that actually armed on a slot, so refusals and
     * never-armed strandings appear in no device's bucket. */
    std::vector<uint64_t> deviceCompleted;
    /// @}
};

/**
 * Future for one submitted job. Cheap to copy (shared state). A ticket
 * from a turned-away submission (reject / shed / after shutdown) is
 * already complete, carrying only the refusal status.
 */
class JobTicket
{
  public:
    JobTicket() = default;

    /** False only for a default-constructed ticket. */
    bool valid() const { return state_ != nullptr; }

    /** True once the final report is in (never blocks). */
    bool ready() const;

    /**
     * Block until the report is final, then return it. Only meaningful
     * when something else is pumping (the background thread); in paced
     * mode call pump() until ready() instead — wait() would deadlock.
     */
    const runtime::JobReport &wait() const;

    /**
     * wait() with a host wall-clock timeout: true once the report is
     * final, false on timeout (the ticket stays valid — call again or
     * keep pumping). Host time here never touches the simulated
     * schedule; it only bounds how long the *caller* parks.
     */
    bool waitFor(std::chrono::nanoseconds timeout) const;

    /** The final report; throws StatusError(InvalidState) if !ready(). */
    const runtime::JobReport &report() const;

    /**
     * The session reports of this job's earlier attempts, which failed
     * transiently and were retried (RetryPolicy), oldest first; empty
     * when the first attempt was final. With report() these are every
     * session job the ticket ran. Throws StatusError(InvalidState) if
     * !ready().
     */
    const std::vector<runtime::JobReport> &retried() const;

  private:
    friend class FleetService;

    struct State
    {
        mutable std::mutex mu;
        mutable std::condition_variable cv;
        bool ready = false;
        runtime::JobReport report;
        /** Filled by the pumping thread before `ready` is set. */
        std::vector<runtime::JobReport> retried;

        void complete(runtime::JobReport final);
    };

    std::shared_ptr<State> state_;
};

class FleetService
{
  public:
    /** Build the session and, unless paced, start the service thread. */
    FleetService(const lang::Program &program,
                 const ServiceConfig &config);
    /**
     * Multi-program service (ISSUE 8): host several compiled programs
     * behind one admission boundary, slot p running
     * programs[slot_programs[p]] (see runtime::Session's
     * multi-program constructor — the mix is area-checked against the
     * device model at construction).
     */
    FleetService(std::vector<lang::Program> programs,
                 const ServiceConfig &config,
                 std::vector<uint32_t> slot_programs = {});
    /** Calls shutdown() if the caller has not. */
    ~FleetService();

    FleetService(const FleetService &) = delete;
    FleetService &operator=(const FleetService &) = delete;

    /**
     * Submit a job from any thread. The arrival timestamp is the
     * current session cycle (monotonic snapshot). Returns the job's
     * ticket; if admission turned the job away the ticket is already
     * complete with ResourceExhausted (Reject at the bound) or
     * InvalidState (after shutdown began).
     */
    JobTicket submit(BitBuffer stream);
    /** submit() with per-job options (deadline, ISSUE 7). */
    JobTicket submit(BitBuffer stream, const SubmitOptions &options);

    /**
     * submit() with an explicit arrival cycle on the session clock —
     * the open-loop driver's entry point: pass the scheduled arrival
     * so queue-wait is measured from when the client *wanted* service.
     * Must be <= the current session cycle (the caller releases
     * arrivals as simulated time passes them).
     */
    JobTicket submitAt(BitBuffer stream, uint64_t arrival_cycle,
                       const SubmitOptions &options = {});

    /**
     * Paced mode: run one service round — transfer waiting jobs into
     * the session (up to its slot appetite), then one Session::step().
     * Returns true while jobs are waiting or in flight. Call from one
     * thread only. Illegal (InvalidState) with a background thread.
     */
    bool pump();

    /**
     * Stop accepting (submit() from now on returns InvalidState and
     * parked submitters are released with it), serve every already-
     * admitted job to completion, settle the session, and join the
     * service thread. Idempotent. In paced mode the calling thread
     * does the draining.
     */
    void shutdown();

    /** The settled RunReport. Throws InvalidState before shutdown(). */
    const system::RunReport &runReport() const;

    /** Telemetry snapshot (any thread, any time). */
    ServiceStats stats() const;
    /** True when the wait queue is at its configured bound. */
    bool saturated() const;

    /**
     * Chaos drill (ISSUE 7): force channel `c` into the Halted state,
     * exactly as a watchdog trip would land it. With
     * SessionConfig::requeueStranded the channel's in-flight jobs are
     * re-queued onto survivors on the next round; without it they
     * strand with the injected status. Paced mode only (the background
     * thread owns the session): throws InvalidState otherwise.
     */
    void injectChannelHalt(int c);

    /**
     * The inner session, for its device, cycle and recovery counters
     * (per-job reports come from the tickets). Only touch after
     * shutdown() (or between paced pumps): the service thread owns it
     * while running.
     */
    const runtime::Session &session() const { return session_; }

  private:
    /**
     * One admitted job, from admission to its ticket's completion:
     * waiting, in the session, or waiting out a retry backoff. Alive
     * across attempts, so the original stream and arrival cycle travel
     * with the job while each attempt runs under a fresh session job
     * id.
     */
    struct Tracked
    {
        std::shared_ptr<JobTicket::State> ticket;
        /** Original stream; after the first dispatch, kept only while
         * another attempt is possible (retry enabled and attempts
         * remain). */
        BitBuffer stream;
        uint64_t arrivalCycle = 0;
        /** Absolute expiry on the session clock (0 = none). */
        uint64_t deadlineCycle = 0;
        /** Multi-tenant classification (ISSUE 8). */
        runtime::JobTag tag;
        /** Attempt currently in flight (1 = first try). */
        int attempt = 1;
        /** Simulated cycle the next attempt may re-enter the queue. */
        uint64_t retryEligibleCycle = 0;
    };

    JobTicket admit(BitBuffer stream, uint64_t arrival_cycle,
                    const SubmitOptions &options);
    /** One round; requires mu_ NOT held. True while work remains. */
    bool pumpOnce();
    /** Transfer waiting jobs into the session. Requires mu_ held. */
    void feedSessionLocked();
    /** Hand one tracked job to the session. Requires mu_ held. */
    void dispatchLocked(std::shared_ptr<Tracked> tracked);
    /** Session callback: complete the ticket or queue a retry. Runs
     * on the pumping thread inside Session::step; takes mu_. */
    void onJobDone(const std::shared_ptr<Tracked> &tracked,
                   runtime::JobReport report);
    /** Store the session telemetry mirrors. Pumping thread only. */
    void publishTelemetry();
    /** Complete a ticket that never reached the session. */
    static JobTicket refuse(std::shared_ptr<JobTicket::State> state,
                            StatusCode code, const char *why);
    void serviceThread();

    ServiceConfig config_;
    runtime::Session session_;

    mutable std::mutex mu_;
    std::condition_variable spaceCv_; ///< Block-policy submitters.
    std::deque<std::shared_ptr<Tracked>> wait_;
    /** Transient failures waiting out their simulated-cycle backoff.
     * Already admitted: they bypass the admission bound on release. */
    std::deque<std::shared_ptr<Tracked>> retryWait_;
    bool accepting_ = true;
    bool finished_ = false; ///< session_.finish() has run.
    /** FIFO discipline for Block: submitters take a turn number and
     * are served strictly in order as space frees. */
    uint64_t blockNext_ = 0;
    uint64_t blockHead_ = 0;

    // Counters (under mu_ unless noted).
    uint64_t submitted_ = 0;
    uint64_t admitted_ = 0;
    uint64_t rejected_ = 0;
    uint64_t shed_ = 0;
    uint64_t retries_ = 0;
    /**
     * Per-tenant serving counters (ISSUE 8), under mu_. Terminal and
     * in-session buckets are maintained at each transition; stats()
     * recomputes `waiting` and `retryBacklog` by scanning the actual
     * deques, so the conservation law in TenantStats is a real
     * invariant of the state, not a bookkeeping tautology.
     */
    std::map<uint32_t, TenantStats> tenants_;
    /** Jobs completed per cluster device (ISSUE 10), under mu_;
     * indexed by JobReport::device for reports that armed. */
    std::vector<uint64_t> deviceCompleted_;
    std::atomic<uint64_t> completed_{0}; ///< Bumped in callbacks.
    /** Session-clock snapshot, updated after every round so client
     * threads can stamp arrivals without touching the session. */
    std::atomic<uint64_t> nowCycle_{0};
    /** Telemetry mirrors of session state, published by the pumping
     * thread after each round — stats() must not read the session
     * directly while it is being stepped. */
    std::atomic<int> inFlightNow_{0};
    std::atomic<int> liveSlotsNow_{0};
    std::atomic<uint64_t> deadlineKilledNow_{0};
    std::atomic<uint64_t> requeuedNow_{0};
    std::atomic<int> quarantinedNow_{0};
    /** Set by shutdown() once the session settles. */
    const system::RunReport *runReport_ = nullptr;

    std::thread thread_;
};

} // namespace serve
} // namespace fleet

#endif // FLEET_SERVE_SERVICE_H

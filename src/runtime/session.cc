/**
 * @file
 * Session scheduler implementation. The three-phase round (harvest →
 * arm → advance) and its fixed iteration order are the entire
 * determinism argument — see the header and DESIGN.md §5e/§5h. Nothing
 * here reads host time, thread ids, or any other nondeterministic
 * input; the pluggable policies (runtime/scheduler.h) are pure
 * functions of simulated state, and the underlying
 * FleetSystem::stepEpoch is itself bit-identical at every worker count.
 */

#include "runtime/session.h"

#include <chrono>
#include <sstream>
#include <utility>

namespace fleet {
namespace runtime {

namespace {

/** Host steady-clock stamp in nanoseconds (wall metrics only). */
uint64_t
hostNowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Append a (cycle, value) sample, deduplicating repeats of the last
 * value so idle rounds don't grow the track. */
void
sampleTrack(trace::CounterTrack &track, uint64_t cycle, uint64_t value)
{
    if (!track.samples.empty() && track.samples.back().second == value)
        return;
    track.samples.emplace_back(cycle, value);
}

/** numDevices identical devices, each hosting every program on
 * numSlots slots bound per `bindings`. */
std::vector<cluster::DeviceSpec>
uniformLayout(size_t num_programs, const SessionConfig &config,
              std::vector<system::SlotBinding> bindings)
{
    if (config.numDevices < 1)
        panic("Session: numDevices must be >= 1, got ",
              config.numDevices);
    cluster::DeviceSpec spec{{}, config.numSlots, std::move(bindings)};
    for (uint32_t p = 0; p < num_programs; ++p)
        spec.programs.push_back(p);
    return std::vector<cluster::DeviceSpec>(config.numDevices, spec);
}

} // namespace

bool
operator==(const JobReport &a, const JobReport &b)
{
    // hostSubmitNs / hostDoneNs are deliberately omitted: wall-clock
    // stamps vary run to run, while everything simulated must not.
    return a.jobId == b.jobId && a.status == b.status && a.pu == b.pu &&
           a.channel == b.channel && a.device == b.device &&
           a.tenant == b.tenant &&
           a.programIndex == b.programIndex &&
           a.armCycle == b.armCycle &&
           a.retireCycle == b.retireCycle &&
           a.streamBits == b.streamBits &&
           a.emittedBits == b.emittedBits &&
           a.outputBits == b.outputBits &&
           a.inputStarvedCycles == b.inputStarvedCycles &&
           a.outputBlockedCycles == b.outputBlockedCycles &&
           a.keptTokens == b.keptTokens &&
           a.originalTokens == b.originalTokens &&
           a.attempts == b.attempts && a.requeues == b.requeues &&
           a.enqueueCycle == b.enqueueCycle &&
           a.admittedCycle == b.admittedCycle &&
           a.completedCycle == b.completedCycle && a.output == b.output;
}

Session::Session(const lang::Program &program,
                 const SessionConfig &config)
    : Session(std::vector<lang::Program>(1, program), config)
{
}

Session::Session(std::vector<lang::Program> programs,
                 const SessionConfig &config,
                 std::vector<system::SlotBinding> bindings)
    : Session(programs,
              uniformLayout(programs.size(), config, std::move(bindings)),
              config)
{
}

Session::Session(const std::vector<lang::Program> &programs,
                 std::vector<cluster::DeviceSpec> devices,
                 const SessionConfig &config)
    : config_(config),
      cluster_(programs, std::move(devices), config.system, config.link),
      slots_(cluster_.numSlots())
{
    if (config_.epochCycles == 0)
        panic("SessionConfig::epochCycles must be nonzero");
    scheduler_ = makeScheduler(config_.scheduler);
    queueDepthTrack_.name = "session/queue_depth";
    inFlightTrack_.name = "session/jobs_in_flight";
    queueWaitTrack_.name = "session/queue_wait_cycles";
    deadlineKillTrack_.name = "session/deadline_kills";
    requeueTrack_.name = "session/requeues";
    quarantineTrack_.name = "session/quarantined_slots";
    cluster_.beginSession();
}

uint64_t
Session::submit(BitBuffer stream, JobCallback callback)
{
    return submitAt(std::move(stream), cycles(), std::move(callback));
}

uint64_t
Session::submitAt(BitBuffer stream, uint64_t enqueue_cycle,
                  JobCallback callback, uint64_t deadline_cycle)
{
    return submitJob(std::move(stream), JobTag{}, enqueue_cycle,
                     std::move(callback), deadline_cycle);
}

uint64_t
Session::submitJob(BitBuffer stream, const JobTag &tag,
                   uint64_t enqueue_cycle, JobCallback callback,
                   uint64_t deadline_cycle)
{
    if (finished_)
        throw StatusError(Status::make(
            StatusCode::InvalidState,
            "submit: session already finished"));
    uint64_t id = queue_.push(std::move(stream), std::move(callback),
                              enqueue_cycle, hostNowNs(),
                              deadline_cycle, tag);
    reports_.emplace_back();
    reported_.push_back(false);
    return id;
}

Session::SlotStateView
Session::slotState(int pu) const
{
    const Slot &slot = slots_[pu];
    SlotStateView view;
    view.busy = slot.busy;
    view.dead = slot.dead || cluster_.slotShardState(pu) ==
                                 system::ShardState::Halted;
    view.quarantined = slot.quarantined;
    view.programIndex = cluster_.slotProgramIndex(pu);
    view.lane = cluster_.slotLane(pu);
    view.device = cluster_.slotDevice(pu);
    view.jobId = slot.jobId;
    return view;
}

void
Session::record(JobReport report, JobCallback &callback)
{
    report.completedCycle = cycles();
    report.hostDoneNs = hostNowNs();
    uint64_t id = report.jobId;
    reports_[id] = std::move(report);
    reported_[id] = true;
    ++jobsFinished_;
    const JobReport &final = reports_[id];
    TenantSessionStats &tenant = tenants_[final.tenant];
    ++tenant.completed;
    tenant.queueWaitCycles += final.queueWaitCycles();
    tenant.serviceCycles += final.serviceCycles();
    if (final.status.code == StatusCode::DeadlineExceeded)
        ++tenant.deadlineKills;
    if (callback)
        callback(reports_[id]);
}

void
Session::finishJobEarly(uint64_t job_id, int pu, Status status,
                        JobCallback &callback, uint64_t enqueue_cycle,
                        uint64_t host_submit_ns, uint32_t requeues,
                        const JobTag &tag)
{
    JobReport report;
    report.jobId = job_id;
    report.status = std::move(status);
    report.pu = pu;
    report.channel = pu >= 0 ? cluster_.slotChannel(pu) : -1;
    report.device = pu >= 0 ? cluster_.slotDevice(pu) : -1;
    report.tenant = tag.tenant;
    report.programIndex = tag.programIndex;
    report.requeues = requeues;
    report.enqueueCycle = enqueue_cycle;
    // Never armed: the whole latency is queue wait, so the admission
    // stamp collapses onto the decision round.
    report.admittedCycle = cycles();
    report.hostSubmitNs = host_submit_ns;
    record(std::move(report), callback);
}

void
Session::harvest()
{
    // Jobs pulled off halted channels this round, in PU order; they
    // re-enter the FIFO *front* after the scan so the arm phase sees
    // them before anything newly queued.
    std::vector<PendingJob> requeued;
    for (int pu = 0; pu < cluster_.numSlots(); ++pu) {
        Slot &slot = slots_[pu];
        if (!slot.busy)
            continue;
        if (cluster_.puDrained(pu)) {
            if (retireHold_ && retireHold_(slot.jobId))
                continue;
            // Read the output region before retiring: retireJob parks
            // the slot and the next arm reuses the region.
            BitBuffer output = cluster_.jobOutput(pu);
            system::RetiredJob retired = cluster_.retireJob(pu);
            JobReport report;
            report.jobId = retired.jobId;
            report.status = retired.outcome.status;
            report.pu = pu;
            report.channel = cluster_.slotChannel(pu);
            report.device = cluster_.slotDevice(pu);
            report.tenant = slot.tag.tenant;
            report.programIndex = slot.tag.programIndex;
            report.armCycle = retired.armCycle;
            report.retireCycle = retired.retireCycle;
            report.streamBits = retired.streamBits;
            report.emittedBits = retired.emittedBits;
            report.outputBits = retired.outcome.outputBits;
            report.inputStarvedCycles =
                retired.stats.inputStarvedCycles;
            report.outputBlockedCycles =
                retired.stats.outputBlockedCycles;
            report.keptTokens = retired.keptTokens;
            report.originalTokens = retired.originalTokens;
            report.requeues = static_cast<uint32_t>(slot.requeues);
            report.enqueueCycle = slot.enqueueCycle;
            report.admittedCycle = slot.admittedCycle;
            report.hostSubmitNs = slot.hostSubmitNs;
            report.output = std::move(output);
            slot.busy = false;
            slot.stream = BitBuffer{};
            scoreSlotHealth(pu, report.status);
            record(std::move(report), slot.callback);
            slot.callback = nullptr;
        } else if (cluster_.slotShardState(pu) ==
                   system::ShardState::Halted) {
            if (config_.requeueStranded) {
                // Recovery path (ISSUE 7): pull the job off the dead
                // channel and re-run it on a survivor, provided one
                // exists. The slot itself is still retired for good.
                bool survivor = false;
                for (int other = 0; other < cluster_.numSlots();
                     ++other)
                    survivor |= !slots_[other].dead &&
                                !slots_[other].quarantined &&
                                cluster_.slotShardState(other) !=
                                    system::ShardState::Halted;
                if (survivor) {
                    PendingJob job;
                    job.id = slot.jobId;
                    job.stream = std::move(slot.stream);
                    job.callback = std::move(slot.callback);
                    job.enqueueCycle = slot.enqueueCycle;
                    job.hostSubmitNs = slot.hostSubmitNs;
                    job.deadlineCycle = slot.deadlineCycle;
                    job.requeues =
                        static_cast<uint32_t>(slot.requeues + 1);
                    job.tag = slot.tag;
                    requeued.push_back(std::move(job));
                    ++jobRequeues_;
                    slot.busy = false;
                    slot.dead = true;
                    slot.callback = nullptr;
                    slot.stream = BitBuffer{};
                    continue;
                }
            }
            // The channel died under this job (watchdog, cycle limit,
            // exception): the slot will never drain. Report the job
            // with the channel's status and retire the slot for good —
            // its channel-mates' jobs are stranded the same way, but
            // every other channel keeps serving.
            std::ostringstream os;
            os << "job " << slot.jobId << " stranded on halted channel "
               << cluster_.slotChannel(pu) << ": "
               << cluster_.slotShardStatus(pu).toString();
            JobReport report;
            report.jobId = slot.jobId;
            report.status = Status::make(
                cluster_.slotShardStatus(pu).code, os.str());
            report.pu = pu;
            report.channel = cluster_.slotChannel(pu);
            report.device = cluster_.slotDevice(pu);
            report.tenant = slot.tag.tenant;
            report.programIndex = slot.tag.programIndex;
            report.retireCycle =
                cluster_.channelCycles(cluster_.slotChannel(pu));
            report.requeues = static_cast<uint32_t>(slot.requeues);
            report.enqueueCycle = slot.enqueueCycle;
            report.admittedCycle = slot.admittedCycle;
            report.hostSubmitNs = slot.hostSubmitNs;
            slot.busy = false;
            slot.dead = true;
            slot.stream = BitBuffer{};
            record(std::move(report), slot.callback);
            slot.callback = nullptr;
        }
    }
    // Reverse order: the lowest-PU job lands at the very front, so
    // re-queued jobs are re-armed in the same PU order they held on
    // the dead channel — keeping the schedule a pure function of
    // simulated state.
    for (auto it = requeued.rbegin(); it != requeued.rend(); ++it)
        queue_.requeueFront(std::move(*it));
}

void
Session::scoreSlotHealth(int pu, const Status &status)
{
    if (config_.quarantineAfterFaults <= 0)
        return;
    // Only per-PU containment events indict the slot itself: channel
    // halts take out the whole channel via the dead flag, and job
    // outcomes like truncation or a deadline kill say nothing about
    // the hardware under the job.
    if (status.code != StatusCode::ParityError &&
        status.code != StatusCode::OutputOverflow)
        return;
    Slot &slot = slots_[pu];
    if (slot.quarantined)
        return;
    if (++slot.faultCount >= config_.quarantineAfterFaults) {
        slot.quarantined = true;
        ++quarantinedSlots_;
    }
}

void
Session::expireDeadlines()
{
    const uint64_t now = cycles();
    // In-queue expiry: a job whose deadline passed while waiting never
    // arms — its whole latency was queue wait.
    for (PendingJob &job : queue_.takeExpired(now)) {
        std::ostringstream os;
        os << "job " << job.id << " exceeded its deadline (cycle "
           << job.deadlineCycle << ") while queued";
        ++deadlineKills_;
        finishJobEarly(job.id, -1,
                       Status::make(StatusCode::DeadlineExceeded,
                                    os.str()),
                       job.callback, job.enqueueCycle, job.hostSubmitNs,
                       job.requeues, job.tag);
    }
    // Mid-flight expiry: abandon the job through the containment path
    // (killPu + flush). The slot drains within a few cycles and the
    // next harvest retires it with DeadlineExceeded, reclaiming the
    // slot for the queue.
    for (int pu = 0; pu < cluster_.numSlots(); ++pu) {
        Slot &slot = slots_[pu];
        if (!slot.busy || slot.deadlineCycle == 0 ||
            now < slot.deadlineCycle)
            continue;
        if (cluster_.slotShardState(pu) == system::ShardState::Halted)
            continue; // Harvest's stranded/requeue path owns it.
        std::ostringstream os;
        os << "job " << slot.jobId << " exceeded its deadline (cycle "
           << slot.deadlineCycle << ") in flight; slot reclaimed";
        Status cancelled = cluster_.cancelJob(
            pu, Status::make(StatusCode::DeadlineExceeded, os.str()));
        if (cancelled.ok())
            ++deadlineKills_;
    }
}

void
Session::armFromQueue()
{
    // Two sweeps over the parked live slots (ISSUE 8): sweep one
    // honours JobTag::preferredLane placement hints; sweep two relaxes
    // them to program-match only, so a hint can steer a job but never
    // leave a compatible slot idle (work conservation). With the
    // default FIFO policy, a single program, and no hints, sweep one
    // arms everything and the pop order is cycle-exact with the
    // pre-scheduler runtime.
    armSweep(false);
    armSweep(true);
    strandOrphans();
}

void
Session::armSweep(bool relax_hints)
{
    const uint64_t now = cycles();
    for (int pu = 0; pu < cluster_.numSlots() && !queue_.empty();
         ++pu) {
        Slot &slot = slots_[pu];
        if (slot.busy || slot.dead || slot.quarantined)
            continue;
        if (cluster_.slotShardState(pu) == system::ShardState::Halted) {
            slot.dead = true;
            continue;
        }
        SlotView view;
        view.pu = pu;
        view.programIndex = cluster_.slotProgramIndex(pu);
        view.lane = cluster_.slotLane(pu);
        view.device = cluster_.slotDevice(pu);
        while (!queue_.empty()) {
            std::vector<QueuedJobView> queued(queue_.size());
            for (size_t i = 0; i < queue_.size(); ++i) {
                const PendingJob &pending = queue_.at(i);
                queued[i].id = pending.id;
                queued[i].enqueueCycle = pending.enqueueCycle;
                queued[i].streamBits = pending.stream.sizeBits();
                queued[i].tag = pending.tag;
            }
            int picked =
                scheduler_->pick(view, queued, now, relax_hints);
            if (picked < 0)
                break;
            QueuedJobView picked_view = queued[picked];
            PendingJob job = queue_.take(static_cast<size_t>(picked));
            // Kept pre-truncation so a halted channel's jobs can be
            // re-armed elsewhere (armJob consumes the original).
            BitBuffer stream_copy;
            if (config_.requeueStranded)
                stream_copy = job.stream;
            Status armed =
                cluster_.armJob(pu, std::move(job.stream), job.id);
            if (!armed.ok()) {
                // A malformed job (bad alignment, oversized stream)
                // fails alone; the slot re-picks among the rest.
                finishJobEarly(job.id, pu, std::move(armed),
                               job.callback, job.enqueueCycle,
                               job.hostSubmitNs, job.requeues, job.tag);
                continue;
            }
            scheduler_->onArm(picked_view, now);
            slot.busy = true;
            slot.jobId = job.id;
            slot.callback = std::move(job.callback);
            slot.enqueueCycle = job.enqueueCycle;
            slot.admittedCycle = now;
            slot.hostSubmitNs = job.hostSubmitNs;
            slot.deadlineCycle = job.deadlineCycle;
            slot.requeues = job.requeues;
            slot.tag = job.tag;
            slot.stream = std::move(stream_copy);
            totalQueueWaitCycles_ +=
                slot.admittedCycle > slot.enqueueCycle
                    ? slot.admittedCycle - slot.enqueueCycle
                    : 0;
            break;
        }
    }
}

void
Session::strandOrphans()
{
    if (queue_.empty())
        return;
    // After both sweeps, anything still queued either lost the
    // capacity race this round (fine — it waits) or can *never* arm:
    // its program index is unknown, or every slot bound to its program
    // is dead/quarantined while other programs' slots keep serving.
    // Report those now rather than letting them wait forever behind a
    // live pool. The all-slots-dead case is left to step(), which
    // strands the whole queue with its legacy message.
    std::vector<bool> live_per_program(
        static_cast<size_t>(cluster_.numPrograms()), false);
    bool any_live = false;
    for (int pu = 0; pu < cluster_.numSlots(); ++pu) {
        const Slot &slot = slots_[pu];
        if (slot.dead || slot.quarantined ||
            cluster_.slotShardState(pu) == system::ShardState::Halted)
            continue;
        live_per_program[cluster_.slotProgramIndex(pu)] = true;
        any_live = true;
    }
    if (!any_live)
        return;
    for (size_t i = 0; i < queue_.size();) {
        const PendingJob &pending = queue_.at(i);
        uint32_t program = pending.tag.programIndex;
        Status stranded;
        if (program >= live_per_program.size()) {
            std::ostringstream os;
            os << "job " << pending.id
               << " targets unknown program index " << program;
            stranded =
                Status::make(StatusCode::InvalidArgument, os.str());
        } else if (!live_per_program[program]) {
            std::ostringstream os;
            os << "job " << pending.id
               << " cannot run: no live slot is bound to program "
               << program;
            stranded = Status::make(StatusCode::InvalidState, os.str());
        } else {
            ++i;
            continue;
        }
        PendingJob job = queue_.take(i);
        finishJobEarly(job.id, -1, std::move(stranded), job.callback,
                       job.enqueueCycle, job.hostSubmitNs, job.requeues,
                       job.tag);
    }
}

bool
Session::step()
{
    if (!schedule())
        return false;
    advance();
    return true;
}

bool
Session::schedule()
{
    if (finished_)
        throw StatusError(Status::make(
            StatusCode::InvalidState, "step: session already finished"));
    harvest();
    expireDeadlines();
    armFromQueue();
    sampleSessionTracks();
    bool in_flight = false;
    for (const Slot &slot : slots_)
        in_flight |= slot.busy;
    if (!in_flight) {
        if (queue_.empty())
            return false;
        // Jobs remain but every slot is dead or quarantined: report
        // them stranded rather than spinning.
        while (!queue_.empty()) {
            PendingJob job = queue_.pop();
            finishJobEarly(
                job.id, -1,
                Status::make(StatusCode::InvalidState,
                             "no live processing-unit slots remain "
                             "(every channel halted)"),
                job.callback, job.enqueueCycle, job.hostSubmitNs,
                job.requeues, job.tag);
        }
        return false;
    }
    return true;
}

void
Session::sampleSessionTracks()
{
    if (!config_.system.trace.events)
        return;
    uint64_t now = cycles();
    sampleTrack(queueDepthTrack_, now, queue_.size());
    sampleTrack(inFlightTrack_, now,
                static_cast<uint64_t>(jobsInFlight()));
    sampleTrack(queueWaitTrack_, now, totalQueueWaitCycles_);
    sampleTrack(deadlineKillTrack_, now, deadlineKills_);
    sampleTrack(requeueTrack_, now, jobRequeues_);
    sampleTrack(quarantineTrack_, now,
                static_cast<uint64_t>(quarantinedSlots_));
    // Per-tenant breakdown (ISSUE 8): cumulative queue-wait and
    // service cycles per tenant id. Tracks appear when the tenant's
    // first report finalizes; std::map keeps the assembly order (and
    // thus the fenced trace) tenant-sorted and deterministic.
    for (const auto &entry : tenants_) {
        auto it = tenantTracks_.find(entry.first);
        if (it == tenantTracks_.end()) {
            it = tenantTracks_.emplace(entry.first,
                                       std::make_pair(
                                           trace::CounterTrack{},
                                           trace::CounterTrack{}))
                     .first;
            it->second.first.name = trace::tenantTrackName(
                entry.first, "queue_wait_cycles");
            it->second.second.name =
                trace::tenantTrackName(entry.first, "service_cycles");
        }
        sampleTrack(it->second.first, now,
                    entry.second.queueWaitCycles);
        sampleTrack(it->second.second, now,
                    entry.second.serviceCycles);
    }
}

int
Session::jobsInFlight() const
{
    int busy = 0;
    for (const Slot &slot : slots_)
        busy += slot.busy ? 1 : 0;
    return busy;
}

int
Session::liveSlots() const
{
    int live = 0;
    for (const Slot &slot : slots_)
        live += (slot.dead || slot.quarantined) ? 0 : 1;
    return live;
}

void
Session::drain()
{
    while (step()) {
    }
}

const system::RunReport &
Session::finish()
{
    return finishCluster().devices[0];
}

const cluster::ClusterReport &
Session::finishCluster()
{
    drain();
    finished_ = true;
    if (config_.system.trace.events) {
        std::vector<trace::CounterTrack> tracks = {
            queueDepthTrack_,    inFlightTrack_, queueWaitTrack_,
            deadlineKillTrack_,  requeueTrack_,  quarantineTrack_};
        for (const auto &entry : tenantTracks_) {
            tracks.push_back(entry.second.first);
            tracks.push_back(entry.second.second);
        }
        cluster_.setSessionTracks(std::move(tracks));
    }
    clusterReport_ = &cluster_.finishSession();
    return *clusterReport_;
}

const cluster::ClusterReport &
Session::clusterReport() const
{
    if (!clusterReport_)
        throw StatusError(Status::make(
            StatusCode::InvalidState,
            "clusterReport: session has not finished"));
    return *clusterReport_;
}

const JobReport &
Session::report(uint64_t job_id) const
{
    if (!done(job_id))
        throw StatusError(Status::make(
            StatusCode::InvalidState,
            "report: job has not finished (queued or in flight)"));
    return reports_[job_id];
}

bool
Session::done(uint64_t job_id) const
{
    return job_id < reported_.size() && reported_[job_id];
}

uint64_t
Session::cycles() const
{
    return cluster_.cycles();
}

} // namespace runtime
} // namespace fleet

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

#include <algorithm>
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

/** numDevices identical devices, each hosting every program, slot p
 * running slot_programs[p] (empty = numSlots slots of program 0). */
std::vector<cluster::DeviceSpec>
uniformLayout(size_t num_programs, const SessionConfig &config,
              std::vector<uint32_t> slot_programs)
{
    if (config.numDevices < 1)
        panic("Session: numDevices must be >= 1, got ",
              config.numDevices);
    if (slot_programs.empty())
        slot_programs.assign(std::max(config.numSlots, 0), 0);
    if (static_cast<int>(slot_programs.size()) != config.numSlots) {
        std::ostringstream os;
        os << "Session: " << slot_programs.size()
           << " slot programs for " << config.numSlots << " slots";
        throw StatusError(
            Status::make(StatusCode::InvalidArgument, os.str()));
    }
    cluster::DeviceSpec spec{{}, std::move(slot_programs)};
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
                 std::vector<uint32_t> slot_programs)
    : Session(programs,
              uniformLayout(programs.size(), config,
                            std::move(slot_programs)),
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
    return queue_.push(std::move(stream), std::move(callback),
                       enqueue_cycle, hostNowNs(), deadline_cycle, tag);
}

Session::SlotStateView
Session::slotState(int pu) const
{
    if (pu < 0 || size_t(pu) >= slots_.size())
        throw StatusError(Status::make(StatusCode::InvalidArgument,
                                       "slotState: no such slot"));
    const Slot &slot = slots_[pu];
    SlotStateView view;
    view.busy = slot.job.has_value();
    view.dead = slot.dead || cluster_.slotShardState(pu) ==
                                 system::ShardState::Halted;
    view.quarantined = slot.quarantined;
    view.programIndex = cluster_.slotProgramIndex(pu);
    view.device = cluster_.slotDevice(pu);
    view.jobId = slot.job ? slot.job->id : 0;
    return view;
}

bool
Session::slotLive(int pu) const
{
    const Slot &slot = slots_[pu];
    return !slot.dead && !slot.quarantined &&
           cluster_.slotShardState(pu) != system::ShardState::Halted;
}

JobReport
Session::jobReport(const PendingJob &job, int pu,
                   uint64_t admitted_cycle) const
{
    JobReport report;
    report.jobId = job.id;
    report.pu = pu;
    report.channel = pu >= 0 ? cluster_.slotChannel(pu) : -1;
    report.device = pu >= 0 ? cluster_.slotDevice(pu) : -1;
    report.tenant = job.tag.tenant;
    report.programIndex = job.tag.programIndex;
    report.requeues = job.requeues;
    report.enqueueCycle = job.enqueueCycle;
    report.admittedCycle = admitted_cycle;
    report.hostSubmitNs = job.hostSubmitNs;
    return report;
}

void
Session::record(JobReport report, JobCallback &callback)
{
    report.completedCycle = cycles();
    report.hostDoneNs = hostNowNs();
    ++jobsFinished_;
    TenantSessionStats &tenant = tenants_[report.tenant];
    ++tenant.completed;
    tenant.queueWaitCycles += report.queueWaitCycles();
    tenant.serviceCycles += report.serviceCycles();
    if (report.status.code == StatusCode::DeadlineExceeded)
        ++tenant.deadlineKills;
    if (callback)
        callback(std::move(report));
}

void
Session::finishJobEarly(PendingJob job, int pu, Status status)
{
    // Never ran: the whole latency is queue wait, so the admission
    // stamp collapses onto the decision round.
    JobReport report = jobReport(job, pu, cycles());
    report.status = std::move(status);
    record(std::move(report), job.callback);
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
        if (!slot.job)
            continue;
        if (cluster_.puDrained(pu)) {
            if (retireHold_ && retireHold_(slot.job->id))
                continue;
            // Read the output region before retiring: retireJob parks
            // the slot and the next arm reuses the region.
            BitBuffer output = cluster_.jobOutput(pu);
            system::RetiredJob retired = cluster_.retireJob(pu);
            PendingJob job = std::move(*slot.job);
            slot.job.reset();
            JobReport report = jobReport(job, pu, slot.admittedCycle);
            report.status = retired.outcome.status;
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
            report.output = std::move(output);
            scoreSlotHealth(pu, report.status);
            record(std::move(report), job.callback);
        } else if (cluster_.slotShardState(pu) ==
                   system::ShardState::Halted) {
            PendingJob job = std::move(*slot.job);
            slot.job.reset();
            slot.dead = true;
            if (config_.requeueStranded) {
                // Recovery path (ISSUE 7): pull the job off the dead
                // channel and re-run it on a survivor, provided one
                // exists. The slot itself is still retired for good.
                bool survivor = false;
                for (int other = 0; other < cluster_.numSlots();
                     ++other)
                    survivor |= slotLive(other);
                if (survivor) {
                    ++job.requeues;
                    requeued.push_back(std::move(job));
                    ++jobRequeues_;
                    continue;
                }
            }
            // The channel died under this job (watchdog, cycle limit,
            // exception): the slot will never drain. Report the job
            // with the channel's status and retire the slot for good —
            // its channel-mates' jobs are stranded the same way, but
            // every other channel keeps serving.
            std::ostringstream os;
            os << "job " << job.id << " stranded on halted channel "
               << cluster_.slotChannel(pu) << ": "
               << cluster_.slotShardStatus(pu).toString();
            JobReport report = jobReport(job, pu, slot.admittedCycle);
            report.status = Status::make(
                cluster_.slotShardStatus(pu).code, os.str());
            report.retireCycle =
                cluster_.channelCycles(cluster_.slotChannel(pu));
            record(std::move(report), job.callback);
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
        finishJobEarly(std::move(job), -1,
                       Status::make(StatusCode::DeadlineExceeded,
                                    os.str()));
    }
    // Mid-flight expiry: abandon the job through the containment path
    // (killPu + flush). The slot drains within a few cycles and the
    // next harvest retires it with DeadlineExceeded, reclaiming the
    // slot for the queue.
    for (int pu = 0; pu < cluster_.numSlots(); ++pu) {
        const std::optional<PendingJob> &job = slots_[pu].job;
        if (!job || job->deadlineCycle == 0 || now < job->deadlineCycle)
            continue;
        if (cluster_.slotShardState(pu) == system::ShardState::Halted)
            continue; // Harvest's stranded/requeue path owns it.
        std::ostringstream os;
        os << "job " << job->id << " exceeded its deadline (cycle "
           << job->deadlineCycle << ") in flight; slot reclaimed";
        Status cancelled = cluster_.cancelJob(
            pu, Status::make(StatusCode::DeadlineExceeded, os.str()));
        if (cancelled.ok())
            ++deadlineKills_;
    }
}

void
Session::armFromQueue()
{
    // One pass over the parked live slots in global PU order (ISSUE 8):
    // each takes the scheduler's pick among the queued jobs of its
    // program, so no slot idles while such a job waits (work
    // conservation). With the default FIFO policy and a single program
    // the pop order is cycle-exact with the pre-scheduler runtime.
    const uint64_t now = cycles();
    for (int pu = 0; pu < cluster_.numSlots() && !queue_.empty();
         ++pu) {
        Slot &slot = slots_[pu];
        if (slot.job || slot.dead || slot.quarantined)
            continue;
        if (cluster_.slotShardState(pu) == system::ShardState::Halted) {
            slot.dead = true;
            continue;
        }
        SlotView view;
        view.pu = pu;
        view.programIndex = cluster_.slotProgramIndex(pu);
        int picked;
        while ((picked = scheduler_->pick(view, queue_, now)) >= 0) {
            PendingJob job = queue_.take(static_cast<size_t>(picked));
            if (job.tag.programIndex != view.programIndex)
                panic("scheduler ", scheduler_->name(), " picked job ",
                      job.id, " of program ", job.tag.programIndex,
                      " for slot ", pu, " of program ",
                      view.programIndex);
            Status armed = cluster_.armJob(pu, job.stream, job.id);
            if (!armed.ok()) {
                // A malformed job (bad alignment, oversized stream)
                // fails alone; the slot re-picks among the rest.
                finishJobEarly(std::move(job), pu, std::move(armed));
                continue;
            }
            scheduler_->onArm(job, now);
            // Kept only so a halted channel's jobs can be re-armed
            // elsewhere.
            if (!config_.requeueStranded)
                job.stream = BitBuffer{};
            totalQueueWaitCycles_ +=
                now > job.enqueueCycle ? now - job.enqueueCycle : 0;
            slot.admittedCycle = now;
            slot.job = std::move(job);
            break;
        }
    }
    strandOrphans();
}

void
Session::strandOrphans()
{
    if (queue_.empty())
        return;
    // After the arm pass, anything still queued either lost the
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
        if (!slotLive(pu))
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
        finishJobEarly(queue_.take(i), -1, std::move(stranded));
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
    if (jobsInFlight() == 0) {
        if (queue_.empty())
            return false;
        // Jobs remain but every slot is dead or quarantined: report
        // them stranded rather than spinning.
        while (!queue_.empty())
            finishJobEarly(queue_.pop(), -1,
                           Status::make(StatusCode::InvalidState,
                                        "no live processing-unit slots "
                                        "remain (every channel halted)"));
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
        busy += slot.job ? 1 : 0;
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

uint64_t
Session::cycles() const
{
    return cluster_.cycles();
}

} // namespace runtime
} // namespace fleet

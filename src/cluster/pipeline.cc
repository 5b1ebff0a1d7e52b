/**
 * @file
 * Pipeline driver (ISSUE 10). Round structure, in fixed order:
 *
 *   deliver -> Session::schedule -> send -> Session::advance
 *
 * deliver first so streams that complete reassembly this round can arm
 * in the schedule phase, which also retires (or holds) drained visits;
 * send after it so freshly retired outputs start serializing the same
 * round. Every phase walks slots and edges in ascending index order
 * and takes all timing from the cluster clock — the whole schedule is
 * a pure function of simulated state (see DESIGN.md §5i).
 */

#include "cluster/pipeline.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/logging.h"

namespace fleet {
namespace cluster {

namespace {

/** Liveness guard: rounds with zero progress (nothing armed, retired,
 * sent, or delivered) before the pipeline declares itself wedged and
 * strands the remaining jobs. Exceeds linkLatency/epochCycles and any
 * partition window. */
constexpr uint64_t kMaxIdleRounds = 1 << 16;

/** Copy bits [begin, begin + len) of `src` into a fresh buffer. */
BitBuffer
sliceBits(const BitBuffer &src, uint64_t begin, uint64_t len)
{
    BitBuffer out;
    uint64_t offset = begin;
    uint64_t remaining = len;
    while (remaining > 0) {
        int width = remaining < 64 ? static_cast<int>(remaining) : 64;
        out.appendBits(src.readBits(offset, width), width);
        offset += width;
        remaining -= width;
    }
    return out;
}

/** Validate chaining and build the session that runs the stages:
 * stage k is cluster-wide program k, bound on its device with lane k. */
runtime::Session
stageSession(const std::vector<StageSpec> &stages,
             const PipelineConfig &config)
{
    if (stages.empty())
        throw StatusError(
            Status::make(StatusCode::InvalidArgument,
                         "Pipeline: at least one stage required"));
    std::vector<lang::Program> programs;
    std::vector<DeviceSpec> specs;
    for (size_t s = 0; s < stages.size(); ++s) {
        const StageSpec &stage = stages[s];
        if (stage.device < 0)
            throw StatusError(
                Status::make(StatusCode::InvalidArgument,
                             "Pipeline: stage device must be >= 0"));
        if (stage.slots < 1)
            throw StatusError(
                Status::make(StatusCode::InvalidArgument,
                             "Pipeline: stage slots must be >= 1"));
        if (s + 1 < stages.size() &&
            stage.program.outputTokenWidth !=
                stages[s + 1].program.inputTokenWidth) {
            std::ostringstream os;
            os << "Pipeline: stage " << s << " emits "
               << stage.program.outputTokenWidth
               << "-bit tokens but stage " << s + 1 << " consumes "
               << stages[s + 1].program.inputTokenWidth
               << "-bit tokens";
            throw StatusError(
                Status::make(StatusCode::InvalidArgument, os.str()));
        }
        programs.push_back(stage.program);
        if (specs.size() <= static_cast<size_t>(stage.device))
            specs.resize(stage.device + 1);
        DeviceSpec &spec = specs[stage.device];
        const uint32_t program = static_cast<uint32_t>(s);
        spec.programs.push_back(program);
        for (int i = 0; i < stage.slots; ++i)
            spec.bindings.push_back(
                system::SlotBinding{program, static_cast<int>(s), {}});
        spec.numSlots = static_cast<int>(spec.bindings.size());
    }
    for (size_t d = 0; d < specs.size(); ++d)
        if (specs[d].programs.empty()) {
            std::ostringstream os;
            os << "Pipeline: device " << d
               << " hosts no stage (device indices must be "
                  "contiguous from 0)";
            throw StatusError(
                Status::make(StatusCode::InvalidArgument, os.str()));
        }
    runtime::SessionConfig session;
    session.system = config.system;
    session.link = config.link;
    session.epochCycles = config.epochCycles;
    return runtime::Session(programs, std::move(specs), session);
}

} // namespace

bool
operator==(const PipelineJobReport &a, const PipelineJobReport &b)
{
    return a.jobId == b.jobId && a.status == b.status &&
           a.failedStage == b.failedStage && a.output == b.output &&
           a.submitCycle == b.submitCycle &&
           a.doneCycle == b.doneCycle &&
           a.stageArmCycle == b.stageArmCycle &&
           a.stageRetireCycle == b.stageRetireCycle &&
           a.linkBits == b.linkBits;
}

Pipeline::Pipeline(std::vector<StageSpec> stages,
                   const PipelineConfig &config)
    : stages_(stages.size()), config_(config),
      session_(stageSession(stages, config))
{
    edges_.resize(stages.size() - 1);
    for (size_t k = 0; k < edges_.size(); ++k) {
        Edge &edge = edges_[k];
        const int src = stages[k].device;
        const int dst = stages[k + 1].device;
        edge.crossDevice = src != dst;
        if (edge.crossDevice) {
            edge.link = &cluster().link(src, dst);
        } else {
            // Same-device handoff: an output region is re-read as the
            // next stage's input region through DRAM — model it as a
            // free link so one code path serves both placements.
            LinkParams local;
            local.latencyCycles = 0;
            local.bytesPerCycle = 0;
            local.windowBytes = 0;
            local.spikePermille = 0;
            std::ostringstream os;
            os << "edge/" << k << " (local d" << src << ")";
            edge.internal = std::make_unique<Link>(os.str(), local);
            edge.link = edge.internal.get();
        }
    }
    // Downstream backpressure: a drained visit stays on its slot (its
    // output region still holds the stream) while the edge's send
    // queue is full, so the stage takes no new work and the stall
    // propagates upstream through the bounded queues. A job the
    // liveness backstop already failed is never held.
    session_.holdRetire([this](uint64_t id) {
        const Visit &visit = visits_[id];
        return visit.stage + 1 < numStages() && !done_[visit.jobId] &&
               edges_[visit.stage].sendQueue.size() >=
                   static_cast<size_t>(config_.stageQueueDepth);
    });
}

uint64_t
Pipeline::submit(BitBuffer stream)
{
    if (finished_)
        throw StatusError(Status::make(
            StatusCode::InvalidState,
            "submit: pipeline already finished"));
    uint64_t id = reports_.size();
    PipelineJobReport report;
    report.jobId = id;
    report.submitCycle = cycles();
    report.stageArmCycle.assign(stages_.size(), 0);
    report.stageRetireCycle.assign(stages_.size(), 0);
    reports_.push_back(std::move(report));
    done_.push_back(false);
    submitVisit(id, 0, std::move(stream));
    return id;
}

void
Pipeline::submitVisit(uint64_t job_id, int stage, BitBuffer stream)
{
    runtime::JobTag tag;
    tag.programIndex = static_cast<uint32_t>(stage);
    visits_.push_back(Visit{job_id, stage, stream.sizeBits(), false});
    session_.submitJob(
        std::move(stream), tag, cycles(),
        [this](const runtime::JobReport &report) { visitDone(report); });
}

void
Pipeline::finishJob(uint64_t job_id, int stage, Status status,
                    BitBuffer output, uint64_t now)
{
    PipelineJobReport &report = reports_[job_id];
    report.status = std::move(status);
    report.failedStage = report.ok() ? -1 : stage;
    report.output = std::move(output);
    report.doneCycle = now;
    done_[job_id] = true;
    ++jobsDone_;
    ++roundEvents_;
}

void
Pipeline::deliver(uint64_t now)
{
    // Pop every arrived chunk. Edges may share one physical link
    // (two cross-device hops between the same pair), so drain each
    // distinct link once, in first-edge order, and route chunks back
    // to their edge by decoding the message id.
    std::vector<Link *> drained;
    for (Edge &edge : edges_) {
        if (std::find(drained.begin(), drained.end(), edge.link) !=
            drained.end())
            continue;
        drained.push_back(edge.link);
        while (edge.link->deliverable(now)) {
            LinkMessage msg = edge.link->pop();
            const int k = static_cast<int>(msg.jobId % stages_.size());
            const uint64_t job = msg.jobId / stages_.size();
            // An edge sends one stream at a time and a link delivers
            // in order, so an edge's chunks arrive stream by stream.
            Edge &e = edges_[k];
            e.bitsDelivered += msg.payload.sizeBits();
            e.reassembly.appendBuffer(msg.payload);
            ++roundEvents_;
            if (msg.lastChunk) {
                submitVisit(job, k + 1, std::move(e.reassembly));
                e.reassembly = BitBuffer{};
                --e.inNetwork;
            }
        }
    }
}

void
Pipeline::noteArms(uint64_t now)
{
    for (int slot = 0; slot < cluster().numSlots(); ++slot) {
        const auto view = session_.slotState(slot);
        if (!view.busy || visits_[view.jobId].armed)
            continue;
        Visit &visit = visits_[view.jobId];
        visit.armed = true;
        stages_[visit.stage].inBits += visit.streamBits;
        reports_[visit.jobId].stageArmCycle[visit.stage] = now;
        ++roundEvents_;
    }
}

void
Pipeline::visitDone(const runtime::JobReport &report)
{
    const Visit &visit = visits_[report.jobId];
    const uint64_t job = visit.jobId;
    const int s = visit.stage;
    // The session reports on the pipeline clock's current round.
    const uint64_t now = report.completedCycle;
    if (done_[job])
        return; // Failed by the liveness backstop.
    if (visit.armed)
        reports_[job].stageRetireCycle[s] = now;
    // A visit never armed was rejected at arm (a stream too large for
    // the stage's input region) or stranded with no live slot left.
    if (!visit.armed || !report.ok() || s + 1 == numStages()) {
        finishJob(job, s, report.status,
                  report.ok() ? report.output : BitBuffer{}, now);
        return;
    }
    ++roundEvents_;
    // A mid-pipeline truncation still forwards: the stage completed
    // over the truncated prefix, and the final report keeps Ok from
    // the last stage (the truncation is visible in the per-stage
    // counters).
    stages_[s].outBits += report.output.sizeBits();
    edges_[s].sendQueue.push_back(QueuedStream{job, report.output});
}

void
Pipeline::send(uint64_t now)
{
    for (size_t k = 0; k < edges_.size(); ++k) {
        Edge &edge = edges_[k];
        const uint64_t chunk_bits =
            config_.chunkBytes ? config_.chunkBytes * 8 : ~0ULL;
        for (;;) {
            if (!edge.sending) {
                if (edge.sendQueue.empty())
                    break;
                // Receiver credit: queued + in-network streams ahead
                // of stage k+1 must stay under the depth bound, so
                // the receive queue can always absorb what the link
                // delivers. Stage k+1's queue is the session's.
                const runtime::JobQueue &queue = session_.queue();
                int ahead = edge.inNetwork;
                for (size_t i = 0; i < queue.size(); ++i)
                    ahead += queue.at(i).tag.programIndex == k + 1;
                if (ahead >= config_.stageQueueDepth)
                    break;
                edge.sending = std::move(edge.sendQueue.front());
                edge.sendQueue.pop_front();
                edge.sendOffsetBits = 0;
                ++edge.inNetwork;
            }
            const uint64_t total = edge.sending->stream.sizeBits();
            const uint64_t remaining = total - edge.sendOffsetBits;
            const uint64_t len =
                remaining < chunk_bits ? remaining : chunk_bits;
            LinkMessage msg;
            msg.jobId = edge.sending->jobId * stages_.size() + k;
            msg.lastChunk = edge.sendOffsetBits + len >= total;
            msg.payload =
                sliceBits(edge.sending->stream, edge.sendOffsetBits,
                          len);
            if (!edge.link->offer(std::move(msg), now))
                break; // Window full; resume next round.
            edge.bitsAccepted += len;
            if (edge.crossDevice)
                reports_[edge.sending->jobId].linkBits += len;
            edge.sendOffsetBits += len;
            ++roundEvents_;
            if (edge.sendOffsetBits >= total)
                edge.sending.reset();
        }
    }
}

bool
Pipeline::step()
{
    if (finished_)
        throw StatusError(Status::make(
            StatusCode::InvalidState,
            "step: pipeline already finished"));
    if (jobsDone_ == reports_.size())
        return false;
    const uint64_t now = cycles();
    roundEvents_ = 0;
    deliver(now);
    session_.schedule();
    noteArms(now);
    send(now);
    if (jobsDone_ == reports_.size())
        return false;
    const uint64_t before = cluster().deviceCycles();
    session_.advance();
    if (roundEvents_ > 0 || cluster().deviceCycles() > before) {
        idleRounds_ = 0;
        return true;
    }
    // No events and no device advanced its clock: every shard is
    // parked (free, or drained and held by backpressure). If a stream
    // is still crossing a link, simulated time must pass *here*,
    // against the link's latency — the shard clocks have frozen short
    // of the delivery cycle and will never reach it on their own. One
    // epoch passes per such round: the wire clock, a floor under the
    // cluster clock that every session and pipeline stamp reads.
    bool wire_busy = false;
    for (const Edge &edge : edges_)
        wire_busy |= edge.link->inFlightMessages() > 0;
    if (wire_busy) {
        cluster().raiseClockFloor(now + config_.epochCycles);
        idleRounds_ = 0;
        return true;
    }
    if (++idleRounds_ > kMaxIdleRounds) {
        // Liveness backstop: nothing armed, retired, sent, arrived,
        // computed, or crossed a link for a very long time. Strand
        // what remains instead of spinning.
        for (uint64_t id = 0; id < reports_.size(); ++id) {
            if (done_[id])
                continue;
            finishJob(id, -1,
                      Status::make(
                          StatusCode::InternalError,
                          "pipeline made no progress for " +
                              std::to_string(idleRounds_) +
                              " rounds; stranding job"),
                      BitBuffer{}, now);
        }
        return false;
    }
    return jobsDone_ < reports_.size();
}

void
Pipeline::run()
{
    while (step()) {
    }
}

const ClusterReport &
Pipeline::finish()
{
    if (!finished_) {
        run();
        finished_ = true;
        session_.finishCluster();
    }
    return session_.clusterReport();
}

const PipelineJobReport &
Pipeline::report(uint64_t job_id) const
{
    if (job_id >= reports_.size() || !done_[job_id])
        throw StatusError(Status::make(
            StatusCode::InvalidState,
            "report: pipeline job has not finished"));
    return reports_[job_id];
}

Pipeline::EdgeConservation
Pipeline::edgeConservation(int edge) const
{
    const Edge &e = edges_[edge];
    EdgeConservation law;
    law.stageOutBits = stages_[edge].outBits;
    law.linkBitsAccepted = e.bitsAccepted;
    law.linkBitsDelivered = e.bitsDelivered;
    law.stageInBits = stages_[edge + 1].inBits;
    law.crossDevice = e.crossDevice;
    return law;
}

} // namespace cluster
} // namespace fleet

/**
 * @file
 * Pipeline driver (ISSUE 10). Round structure, in fixed order:
 *
 *   deliver -> harvest -> arm -> send -> strand -> stepEpoch
 *
 * deliver first so streams that complete reassembly this round can arm
 * after harvest frees slots; send after harvest so freshly retired
 * outputs start serializing the same round. Every phase walks stages,
 * slots, and edges in ascending index order and takes all timing from
 * the cluster clock — the whole schedule is a pure function of
 * simulated state (see DESIGN.md §5i).
 */

#include "cluster/pipeline.h"

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

} // namespace

Pipeline::Pipeline(std::vector<StageSpec> stages,
                   const PipelineConfig &config)
    : config_(config),
      cluster_([&stages, &config]() {
          if (stages.empty())
              throw StatusError(Status::make(
                  StatusCode::InvalidArgument,
                  "Pipeline: at least one stage required"));
          int num_devices = 0;
          for (size_t s = 0; s < stages.size(); ++s) {
              const StageSpec &stage = stages[s];
              if (stage.device < 0)
                  throw StatusError(Status::make(
                      StatusCode::InvalidArgument,
                      "Pipeline: stage device must be >= 0"));
              if (stage.slots < 1)
                  throw StatusError(Status::make(
                      StatusCode::InvalidArgument,
                      "Pipeline: stage slots must be >= 1"));
              if (s + 1 < stages.size() &&
                  stage.program.outputTokenWidth !=
                      stages[s + 1].program.inputTokenWidth) {
                  std::ostringstream os;
                  os << "Pipeline: stage " << s << " emits "
                     << stage.program.outputTokenWidth
                     << "-bit tokens but stage " << s + 1
                     << " consumes "
                     << stages[s + 1].program.inputTokenWidth
                     << "-bit tokens";
                  throw StatusError(Status::make(
                      StatusCode::InvalidArgument, os.str()));
              }
              if (stage.device + 1 > num_devices)
                  num_devices = stage.device + 1;
          }
          std::vector<DeviceSpec> specs(
              static_cast<size_t>(num_devices));
          for (size_t s = 0; s < stages.size(); ++s) {
              DeviceSpec &spec = specs[stages[s].device];
              uint32_t program_index =
                  static_cast<uint32_t>(spec.programs.size());
              spec.programs.push_back(stages[s].program);
              // Lane = global stage index: the pipeline recovers its
              // slot->stage mapping from slotLane() after the cluster
              // lays slots out device-major.
              for (int i = 0; i < stages[s].slots; ++i)
                  spec.bindings.push_back(system::SlotBinding{
                      program_index, static_cast<int>(s), {}});
              spec.numSlots =
                  static_cast<int>(spec.bindings.size());
          }
          for (size_t d = 0; d < specs.size(); ++d)
              if (specs[d].programs.empty()) {
                  std::ostringstream os;
                  os << "Pipeline: device " << d
                     << " hosts no stage (device indices must be "
                        "contiguous from 0)";
                  throw StatusError(Status::make(
                      StatusCode::InvalidArgument, os.str()));
              }
          return Cluster(std::move(specs), config.system, config.link);
      }())
{
    stages_.resize(stages.size());
    for (size_t s = 0; s < stages.size(); ++s)
        stages_[s].spec = std::move(stages[s]);
    for (int slot = 0; slot < cluster_.numSlots(); ++slot) {
        Stage &stage = stages_[cluster_.slotLane(slot)];
        stage.slots.push_back(slot);
        stage.busy.push_back(false);
        stage.dead.push_back(false);
        stage.job.push_back(0);
    }
    edges_.resize(stages_.size() > 0 ? stages_.size() - 1 : 0);
    for (size_t k = 0; k < edges_.size(); ++k) {
        Edge &edge = edges_[k];
        const int src = stages_[k].spec.device;
        const int dst = stages_[k + 1].spec.device;
        edge.crossDevice = src != dst;
        if (edge.crossDevice) {
            edge.link = &cluster_.link(src, dst);
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
    cluster_.beginSession();
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
    inputQueue_.push_back(QueuedStream{id, std::move(stream)});
    return id;
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
    // to their edge by decoding the per-stage arm id.
    std::vector<Link *> drained;
    for (Edge &edge : edges_) {
        bool seen = false;
        for (Link *link : drained)
            seen |= link == edge.link;
        if (seen)
            continue;
        drained.push_back(edge.link);
        while (edge.link->deliverable(now)) {
            LinkMessage msg = edge.link->pop();
            const int k = static_cast<int>(
                msg.jobId % stages_.size());
            const uint64_t job = msg.jobId / stages_.size();
            Edge &e = edges_[k];
            if (!e.reassembling) {
                e.reassembling = true;
                e.reassemblyJob = job;
                e.reassembly = BitBuffer{};
            }
            e.bitsDelivered += msg.payload.sizeBits();
            e.reassembly.appendBuffer(msg.payload);
            ++roundEvents_;
            if (msg.lastChunk) {
                stages_[k + 1].recvQueue.push_back(QueuedStream{
                    e.reassemblyJob, std::move(e.reassembly)});
                e.reassembly = BitBuffer{};
                e.reassembling = false;
                --e.inNetwork;
            }
        }
    }
}

void
Pipeline::harvest(uint64_t now)
{
    const int last = numStages() - 1;
    for (int s = 0; s < numStages(); ++s) {
        Stage &stage = stages_[s];
        for (size_t i = 0; i < stage.slots.size(); ++i) {
            if (!stage.busy[i])
                continue;
            const int slot = stage.slots[i];
            const uint64_t job = stage.job[i];
            if (cluster_.puDrained(slot)) {
                if (s < last &&
                    edges_[s].sendQueue.size() >=
                        static_cast<size_t>(config_.stageQueueDepth)) {
                    // Downstream backpressure: the edge's send queue
                    // is full, so the slot stays busy (its output
                    // region still holds the stream) and stage s
                    // cannot take new work — the stall propagates
                    // upstream through the bounded queues.
                    continue;
                }
                BitBuffer output = cluster_.jobOutput(slot);
                system::RetiredJob retired = cluster_.retireJob(slot);
                PipelineJobReport &report = reports_[job];
                // Pipeline clock, not retired.retireCycle: the shard's
                // own clock parks while a drained slot is held by
                // backpressure, so it cannot see the stall this retire
                // just escaped.
                report.stageRetireCycle[s] = now;
                stage.busy[i] = false;
                ++roundEvents_;
                const Status &status = retired.outcome.status;
                const bool forward =
                    status.code == StatusCode::Ok ||
                    status.code == StatusCode::StreamTruncated;
                if (!forward || s == last) {
                    Status final = status;
                    if (status.code == StatusCode::StreamTruncated &&
                        s == last)
                        final = status;
                    finishJob(job, s, std::move(final),
                              forward ? std::move(output) : BitBuffer{},
                              now);
                    continue;
                }
                // A mid-pipeline truncation still forwards: the stage
                // completed over the truncated prefix, and the final
                // report keeps Ok from the last stage (the truncation
                // is visible in the per-stage counters).
                stage.outBits += output.sizeBits();
                edges_[s].sendQueue.push_back(
                    QueuedStream{job, std::move(output)});
            } else if (cluster_.slotShardState(slot) ==
                       system::ShardState::Halted) {
                std::ostringstream os;
                os << "pipeline job " << job << " stranded at stage "
                   << s << " on halted channel "
                   << cluster_.slotChannel(slot) << ": "
                   << cluster_.slotShardStatus(slot).toString();
                finishJob(job, s,
                          Status::make(
                              cluster_.slotShardStatus(slot).code,
                              os.str()),
                          BitBuffer{}, now);
                stage.busy[i] = false;
                stage.dead[i] = true;
            }
        }
    }
}

void
Pipeline::armStages(uint64_t now)
{
    for (int s = 0; s < numStages(); ++s) {
        Stage &stage = stages_[s];
        std::deque<QueuedStream> &queue =
            s == 0 ? inputQueue_ : stage.recvQueue;
        for (size_t i = 0; i < stage.slots.size() && !queue.empty();
             ++i) {
            if (stage.busy[i] || stage.dead[i])
                continue;
            const int slot = stage.slots[i];
            if (cluster_.slotShardState(slot) ==
                system::ShardState::Halted) {
                stage.dead[i] = true;
                continue;
            }
            QueuedStream next = std::move(queue.front());
            queue.pop_front();
            const uint64_t stream_bits = next.stream.sizeBits();
            // Per-stage arm id: decorrelates the fault plan's per-job
            // dice across stages and lets link chunks name their edge.
            const uint64_t arm_id =
                next.jobId * stages_.size() + static_cast<uint64_t>(s);
            Status armed = cluster_.armJob(
                slot, std::move(next.stream), arm_id);
            if (!armed.ok()) {
                finishJob(next.jobId, s, std::move(armed), BitBuffer{},
                          now);
                // This slot is still free; let it look at the next
                // queued stream this round.
                --i;
                continue;
            }
            stage.busy[i] = true;
            stage.job[i] = next.jobId;
            stage.inBits += stream_bits;
            reports_[next.jobId].stageArmCycle[s] = now;
            ++roundEvents_;
        }
    }
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
                // delivers.
                if (stages_[k + 1].recvQueue.size() +
                        static_cast<size_t>(edge.inNetwork) >=
                    static_cast<size_t>(config_.stageQueueDepth))
                    break;
                edge.sending = std::move(edge.sendQueue.front());
                edge.sendQueue.pop_front();
                edge.sendOffsetBits = 0;
                edge.sendChunkIndex = 0;
                ++edge.inNetwork;
            }
            const uint64_t total = edge.sending->stream.sizeBits();
            const uint64_t remaining = total - edge.sendOffsetBits;
            const uint64_t len =
                remaining < chunk_bits ? remaining : chunk_bits;
            LinkMessage msg;
            msg.jobId = edge.sending->jobId * stages_.size() + k;
            msg.chunkIndex = edge.sendChunkIndex;
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
            ++edge.sendChunkIndex;
            ++roundEvents_;
            if (edge.sendOffsetBits >= total)
                edge.sending.reset();
        }
    }
}

void
Pipeline::strandStageless(uint64_t now)
{
    for (int s = 0; s < numStages(); ++s) {
        Stage &stage = stages_[s];
        bool any_live = false;
        for (size_t i = 0; i < stage.slots.size(); ++i)
            any_live |= !stage.dead[i];
        if (any_live)
            continue;
        std::deque<QueuedStream> &queue =
            s == 0 ? inputQueue_ : stage.recvQueue;
        while (!queue.empty()) {
            QueuedStream next = std::move(queue.front());
            queue.pop_front();
            std::ostringstream os;
            os << "pipeline job " << next.jobId
               << " cannot run: stage " << s
               << " has no live slots (every hosting channel halted)";
            finishJob(next.jobId, s,
                      Status::make(StatusCode::InvalidState, os.str()),
                      BitBuffer{}, now);
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
    now_ = cycles();
    const uint64_t now = now_;
    roundEvents_ = 0;
    deliver(now);
    harvest(now);
    armStages(now);
    send(now);
    strandStageless(now);
    if (jobsDone_ == reports_.size())
        return false;
    const uint64_t before = cluster_.cycles();
    cluster_.stepEpoch(config_.epochCycles);
    if (roundEvents_ > 0 || cluster_.cycles() > before) {
        idleRounds_ = 0;
        return true;
    }
    // No events and no device advanced its clock: every shard is
    // parked (free, or drained and held by backpressure). If a stream
    // is still crossing a link, simulated time must pass *here*,
    // against the link's latency — the shard clocks have frozen short
    // of the delivery cycle and will never reach it on their own.
    bool wire_busy = false;
    for (const Edge &edge : edges_)
        wire_busy |= edge.link->inFlightMessages() > 0;
    if (wire_busy) {
        now_ += config_.epochCycles;
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
    }
    return cluster_.finishSession();
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

#ifndef FLEET_CLUSTER_PIPELINE_H
#define FLEET_CLUSTER_PIPELINE_H

/**
 * @file
 * Dataflow pipeline composition (ISSUE 10): chain Fleet programs so
 * one stage's output stream becomes the next stage's input stream —
 * on the same device or across the modelled inter-device link — the
 * TAPA/StreamBlocks shape of inter-kernel streaming, built on top of
 * the Cluster layer rather than inside the RTL.
 *
 * Granularity: stages exchange whole streams (store-and-forward per
 * job), not tokens — each stage is an unmodified Fleet program whose
 * per-job semantics stay exactly those of a standalone run, so a
 * pipeline's final output equals the sequential composition of its
 * stages run one-shot (the pipeline tests assert this). Pipelining
 * happens *across jobs*: while job j's stream crosses the link to
 * stage k+1, job j+1 is already running on stage k.
 *
 * Backpressure propagates end to end through bounded buffers:
 *
 *   stage k+1's receive queue is bounded (stageQueueDepth) — a sender
 *   may only start a stream onto the edge when the receiver has a
 *   free credit (queued + in-network < depth); the edge's send queue
 *   is bounded the same way — a drained stage-k slot is NOT retired
 *   until the send queue has room, which keeps the slot busy, which
 *   stalls stage k's arm loop, which backs the input queue up to the
 *   submitter. A slow or partitioned link therefore throttles every
 *   stage upstream of it, deterministically.
 *
 * Conservation law (asserted by the cluster trace-counters tests):
 * for every edge k, bits out of stage k == bits accepted by the edge
 * == bits delivered by the edge == bits into stage k+1 (failed jobs
 * complete at their failing stage and are never forwarded, so they
 * contribute to no edge).
 *
 * Determinism: the round loop below touches links and devices only at
 * round boundaries in fixed stage order, with all timing derived from
 * the cluster clock — bit-identical across host thread counts and PU
 * backends, like everything beneath it.
 */

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/cluster.h"

namespace fleet {
namespace cluster {

/** One pipeline stage: a program placed on a device with a slot pool. */
struct StageSpec
{
    lang::Program program;
    /** Device hosting the stage (devices are created 0..max named). */
    int device = 0;
    /** Parallel slots the stage runs on (round-robin over jobs). */
    int slots = 1;
};

struct PipelineConfig
{
    /** Per-device channel/DRAM/backend/trace/fault configuration. */
    system::SystemConfig system;
    /** Model for every inter-device edge. Same-device edges bypass it
     * (zero latency, unlimited bandwidth — a DRAM-to-DRAM handoff). */
    LinkParams link;
    uint64_t epochCycles = 2048;
    /** Link MTU: streams cross the link in chunks of this many bytes,
     * so a big stream's serialization overlaps with delivery. */
    uint64_t chunkBytes = 4096;
    /** Per-stage stream credits: bound on queued + in-network streams
     * ahead of each stage (and on each edge's send queue). */
    int stageQueueDepth = 4;
};

/** Final, per-job pipeline result. Everything simulated is
 * deterministic and participates in the pipeline tests' fences. */
struct PipelineJobReport
{
    uint64_t jobId = 0;
    /** Ok / StreamTruncated, or the failing stage's status. */
    Status status;
    /** Stage the status came from (-1: never armed anywhere). */
    int failedStage = -1;
    /** Final stage's flushed output (empty on failure). */
    BitBuffer output;
    uint64_t submitCycle = 0;
    uint64_t doneCycle = 0;
    /** Per-stage arm/retire cycles on the pipeline clock (cycles());
     * 0 for stages the job never reached. */
    std::vector<uint64_t> stageArmCycle;
    std::vector<uint64_t> stageRetireCycle;
    /** Payload bits this job pushed across inter-device links. */
    uint64_t linkBits = 0;

    bool ok() const
    {
        return status.code == StatusCode::Ok ||
               status.code == StatusCode::StreamTruncated;
    }
    uint64_t totalCycles() const
    {
        return doneCycle > submitCycle ? doneCycle - submitCycle : 0;
    }
};

class Pipeline
{
  public:
    /**
     * Build the cluster (max named device + 1 devices; stages sharing
     * a device become one multi-program FleetSystem, so they must
     * share token widths — cross-device stages need not) and validate
     * chaining: stage k's outputTokenWidth must equal stage k+1's
     * inputTokenWidth, or this throws StatusError(InvalidArgument).
     */
    Pipeline(std::vector<StageSpec> stages, const PipelineConfig &config);

    /** Enqueue a stream for stage 0; returns the job id (from 0). */
    uint64_t submit(BitBuffer stream);

    /** One pipeline round; true while any job lacks a final report. */
    bool step();

    /** Run rounds until every submitted job has a report. */
    void run();

    /** Settle the cluster and return its report (call once, last). */
    const ClusterReport &finish();

    const PipelineJobReport &report(uint64_t job_id) const;
    const std::vector<PipelineJobReport> &reports() const
    {
        return reports_;
    }

    int numStages() const { return static_cast<int>(stages_.size()); }
    /** The pipeline clock: the cluster clock, plus the epochs spent
     * waiting on the wire while every device was idle (see now_). */
    uint64_t cycles() const
    {
        uint64_t cluster_cycles = cluster_.cycles();
        return now_ > cluster_cycles ? now_ : cluster_cycles;
    }
    Cluster &cluster() { return cluster_; }
    const Cluster &cluster() const { return cluster_; }

    /** The conservation-law view of edge k (stage k -> k+1). */
    struct EdgeConservation
    {
        uint64_t stageOutBits = 0;      ///< Retired out of stage k.
        uint64_t linkBitsAccepted = 0;  ///< Offered onto the edge.
        uint64_t linkBitsDelivered = 0; ///< Arrived at stage k+1.
        uint64_t stageInBits = 0;       ///< Armed into stage k+1.
        bool crossDevice = false;
    };
    EdgeConservation edgeConservation(int edge) const;

  private:
    /** A stream queued in front of a stage. */
    struct QueuedStream
    {
        uint64_t jobId = 0;
        BitBuffer stream;
    };

    /** One stage's slot pool + receive queue. */
    struct Stage
    {
        StageSpec spec;
        std::vector<int> slots;    ///< Global cluster slot ids.
        std::vector<bool> busy;    ///< Parallel to slots.
        std::vector<bool> dead;    ///< Channel halted under the slot.
        std::vector<uint64_t> job; ///< Armed job id, parallel to slots.
        std::deque<QueuedStream> recvQueue;
        uint64_t inBits = 0;  ///< Armed into this stage.
        uint64_t outBits = 0; ///< Retired and forwarded downstream.
    };

    /** Edge k: stage k -> stage k+1 over a link. */
    struct Edge
    {
        Link *link = nullptr; ///< Cluster link or `internal`.
        std::unique_ptr<Link> internal; ///< Same-device transport.
        bool crossDevice = false;
        std::deque<QueuedStream> sendQueue;
        /** Stream currently serializing onto the link. */
        std::optional<QueuedStream> sending;
        uint64_t sendOffsetBits = 0;
        uint32_t sendChunkIndex = 0;
        /** Streams that left the send queue but have not yet landed in
         * the receiver's queue (the in-network credit share). */
        int inNetwork = 0;
        /** Receiver-side reassembly of the in-flight stream. */
        bool reassembling = false;
        uint64_t reassemblyJob = 0;
        BitBuffer reassembly;
        uint64_t bitsAccepted = 0;
        uint64_t bitsDelivered = 0;
    };

    void deliver(uint64_t now);
    void harvest(uint64_t now);
    void armStages(uint64_t now);
    void send(uint64_t now);
    void finishJob(uint64_t job_id, int stage, Status status,
                   BitBuffer output, uint64_t now);
    void strandStageless(uint64_t now);

    std::vector<Stage> stages_;
    std::vector<Edge> edges_;
    PipelineConfig config_;
    Cluster cluster_;
    std::deque<QueuedStream> inputQueue_;
    std::vector<PipelineJobReport> reports_;
    std::vector<bool> done_;
    uint64_t jobsDone_ = 0;
    /**
     * The pipeline's monotonic clock: max of the cluster clock and the
     * time spent waiting on the wire. Device clocks park when their
     * shards go idle, so when every slot is free while a stream is
     * still crossing a link (its delivery cycle not yet reached), the
     * cluster clock alone would freeze short of the delivery time.
     * Each such round advances now_ by one epoch — simulated time
     * passing against the link's latency, not any shard — keeping the
     * whole schedule a pure function of simulated state.
     */
    uint64_t now_ = 0;
    uint64_t idleRounds_ = 0;
    /** Progress markers for the liveness guard, reset each round. */
    uint64_t roundEvents_ = 0;
    bool finished_ = false;
};

} // namespace cluster
} // namespace fleet

#endif // FLEET_CLUSTER_PIPELINE_H

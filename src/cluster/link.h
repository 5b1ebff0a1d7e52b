#ifndef FLEET_CLUSTER_LINK_H
#define FLEET_CLUSTER_LINK_H

/**
 * @file
 * The inter-device link model (ISSUE 10): a directed, point-to-point,
 * store-and-forward channel between two simulated devices, modelled the
 * way HPCC-FPGA's `b_eff`/`PTRANS` benchmarks characterize inter-FPGA
 * links — a fixed per-message latency plus a serialization term
 * (bytes / bytesPerCycle), with effective bandwidth emerging from how
 * many bytes are in flight against the credit window.
 *
 * Timing contract. A message offered at cycle `now` is delivered at
 *
 *   txStart  = max(now, end of the previous message's serialization,
 *                  end of a partition window covering the start)
 *   txEnd    = txStart + ceil(bytes / bytesPerCycle)
 *   deliver  = max(txEnd + latencyCycles + spike, previous delivery)
 *
 * The final max enforces in-order delivery even when a seeded latency
 * spike hits one message and not its successor. Everything is computed
 * with integer cycle arithmetic from simulated state only — offer
 * cycles come from the cluster's session clock, which is itself
 * bit-identical across host thread counts and PU backends — so the
 * delivery schedule is deterministic and replayable.
 *
 * Backpressure: the link accepts at most `windowBytes` of
 * accepted-but-undelivered payload. offer() refuses (returns false,
 * counted) past the window; the sender retries on a later cycle. This
 * is the credit mechanism the pipeline layer chains into end-to-end
 * backpressure.
 *
 * Faults (ISSUE 10, folding into the fault layer's idiom): seeded
 * per-message latency spikes (SplitMix64 hash of (seed, sequence
 * number), the same generator discipline as fault/fault.cc) and a
 * partition window [partitionBeginCycle, partitionEndCycle) during
 * which no new serialization may start. Both delay delivery — they
 * never drop or corrupt payload — so containment and requeue machinery
 * above observe them only as latency.
 */

#include <cstdint>
#include <deque>
#include <string>

#include "trace/trace.h"
#include "util/bitbuf.h"

namespace fleet {
namespace cluster {

struct LinkParams
{
    /** Fixed propagation latency added to every message. */
    uint64_t latencyCycles = 500;
    /** Serialization bandwidth; 0 = unlimited (no serialization term —
     * used for same-device pipeline edges). */
    uint64_t bytesPerCycle = 8;
    /** Credit window: max accepted-but-undelivered payload bytes; 0 =
     * unlimited. */
    uint64_t windowBytes = 256 * 1024;
    /** Seed for the per-message spike dice (fault/fault.h idiom). */
    uint64_t seed = 0;
    /** Per-message latency-spike probability, in permille. */
    uint32_t spikePermille = 0;
    /** Extra delivery latency a spiked message suffers. */
    uint64_t spikeCycles = 2000;
    /** Partition window [begin, end): no serialization starts inside
     * it (a transient fabric partition). begin == end = none. */
    uint64_t partitionBeginCycle = 0;
    uint64_t partitionEndCycle = 0;

    /** Link bandwidth in GB/s at `clock_mhz` (for bench metadata). */
    double gbps(double clock_mhz) const
    {
        return double(bytesPerCycle) * clock_mhz * 1e6 / 1e9;
    }
};

/** One message in flight: a chunk of a stream crossing the link. */
struct LinkMessage
{
    uint64_t seq = 0;   ///< Per-link sequence number (spike dice key).
    uint64_t jobId = 0; ///< Pipeline job (or sender-defined) id.
    bool lastChunk = true;   ///< Final chunk of its stream.
    BitBuffer payload;
    uint64_t offerCycle = 0;
    uint64_t deliverCycle = 0;
};

/** Cumulative link accounting; every field is simulated state and
 * participates in the cluster determinism fences. */
struct LinkCounters
{
    uint64_t messagesAccepted = 0;
    uint64_t messagesDelivered = 0;
    /** Wire bytes: per-chunk ceil(bits/8), the serialization unit. */
    uint64_t bytesAccepted = 0;
    uint64_t bytesDelivered = 0;
    /** Exact payload (the conservation-law unit). */
    uint64_t bitsAccepted = 0;
    uint64_t bitsDelivered = 0;
    uint64_t offersRefused = 0; ///< Window-full rejections.
    uint64_t spikes = 0;        ///< Messages hit by a latency spike.
    uint64_t busyCycles = 0;    ///< Serialization cycles consumed.
    uint64_t lastDeliverCycle = 0;
};

bool operator==(const LinkCounters &a, const LinkCounters &b);
inline bool
operator!=(const LinkCounters &a, const LinkCounters &b)
{
    return !(a == b);
}

class Link
{
  public:
    Link(std::string name, const LinkParams &params);

    /**
     * Offer a message at cycle `now` (must be monotonically
     * nondecreasing across calls). Returns false — and counts a
     * refusal — when the credit window cannot take the payload;
     * otherwise schedules delivery per the timing contract above and
     * queues the message in order.
     */
    bool offer(LinkMessage msg, uint64_t now);

    /** True when the oldest in-flight message has arrived by `now`. */
    bool deliverable(uint64_t now) const;

    /** Dequeue the oldest message (call only after deliverable()). */
    LinkMessage pop();

    /** Accepted-but-undelivered payload bytes (window occupancy). */
    uint64_t inFlightBytes() const { return windowUsed_; }
    size_t inFlightMessages() const { return inFlight_.size(); }

    const LinkCounters &counters() const { return counters_; }
    const LinkParams &params() const { return params_; }
    const std::string &name() const { return name_; }

    /** Export the counters as a named trace CounterSet. */
    trace::CounterSet counterSet() const;

  private:
    std::string name_;
    LinkParams params_;
    std::deque<LinkMessage> inFlight_;
    LinkCounters counters_;
    uint64_t nextSeq_ = 0;
    uint64_t lastTxEnd_ = 0;    ///< Serializer free-from cycle.
    uint64_t lastDeliver_ = 0;  ///< In-order delivery floor.
    uint64_t windowUsed_ = 0;   ///< Bytes inside the credit window.
};

} // namespace cluster
} // namespace fleet

#endif // FLEET_CLUSTER_LINK_H

#ifndef FLEET_FAULT_FAULT_H
#define FLEET_FAULT_FAULT_H

/**
 * @file
 * Deterministic, seed-driven fault injection for the full-system
 * simulator. Production streaming stacks treat latency spikes,
 * backpressure storms, short streams, and corrupted data as first-class
 * events; this layer lets the cycle-accurate model reproduce them on
 * demand so the containment machinery (system/run_report.h) can be
 * exercised and regression-tested.
 *
 * Every fault decision is a *pure function* of (plan seed, channel or PU
 * index, event index) computed with SplitMix64-style mixing — no hidden
 * RNG state. That makes injection:
 *
 *  - deterministic: the same seed and plan produce the same faults on
 *    every run and at every host thread count (the determinism suite
 *    enforces RunReport equality across numThreads = 1, 2, 0);
 *  - composable: the DRAM model and both memory controllers consult the
 *    injector independently without sharing state;
 *  - free when disabled: a null injector is never consulted, so
 *    fault-free runs are bit-identical to a build without this layer.
 *
 * Fault classes (ISSUE 2):
 *  - read latency spikes: a read request's DRAM latency grows by
 *    `latencySpikeCycles` with probability latencySpikePermille/1000;
 *  - sustained backpressure: whole `backpressureWindow`-cycle windows in
 *    which the channel accepts no new read/write addresses, with
 *    probability backpressurePermille/1000 per window;
 *  - corrupted read beats: a delivered 512-bit beat carries a single-bit
 *    error with probability corruptBeatPerMillion/1e6; the input
 *    controller's per-beat parity check detects it (single-bit flips are
 *    always caught by parity) and the affected PU is contained;
 *  - truncated streams: a job's input stream is cut to a random prefix
 *    (whole tokens) with probability truncatePermille/1000, modelling
 *    short or interrupted uploads.
 */

#include <cstdint>

namespace fleet {
namespace fault {

/** Seed-driven fault mix. Rates are integers so plans hash and compare
 * exactly; a default-constructed plan injects nothing. */
struct FaultPlan
{
    uint64_t seed = 0;

    /** Per read request, rate/1000 chance of +latencySpikeCycles. */
    uint32_t latencySpikePermille = 0;
    uint32_t latencySpikeCycles = 400;

    /** Per window, rate/1000 chance the window starts with a stall. */
    uint32_t backpressurePermille = 0;
    uint32_t backpressureWindow = 2048;
    uint32_t backpressureDuration = 512;

    /** Per delivered read beat, rate/1e6 chance of a single-bit error. */
    uint32_t corruptBeatPerMillion = 0;

    /** Per job (one-shot: per PU), rate/1000 chance its input stream
     * is truncated. */
    uint32_t truncatePermille = 0;

    bool enabled() const
    {
        return latencySpikePermille || backpressurePermille ||
               corruptBeatPerMillion || truncatePermille;
    }

    /** A moderate mixed plan (all four classes) keyed by `seed` — what
     * `fig7_main_results --faults <seed>` and the CI fault job run. */
    static FaultPlan fromSeed(uint64_t seed);
};

bool operator==(const FaultPlan &a, const FaultPlan &b);

/**
 * One memory channel's view of a FaultPlan: pure predicate functions the
 * DRAM model and controllers call at their injection points. Stateless
 * and const, so shards can run concurrently without synchronization.
 */
class ChannelFaults
{
  public:
    ChannelFaults(const FaultPlan &plan, int channel_index)
        : plan_(plan), channel_(channel_index)
    {
    }

    /** Extra read latency for the channel's request_index-th AR. */
    uint64_t extraReadLatency(uint64_t request_index) const;

    /** True while the channel refuses new read/write addresses. */
    bool busBackpressured(uint64_t cycle) const;

    /** True if the channel's beat_index-th delivered read beat carries a
     * (parity-detectable) single-bit error. */
    bool beatCorrupted(uint64_t beat_index) const;

    const FaultPlan &plan() const { return plan_; }
    int channelIndex() const { return channel_; }

  private:
    FaultPlan plan_;
    int channel_;
};

/**
 * Stream truncation decision for one job: returns the number of tokens
 * to keep out of `tokens` (== tokens when not truncated; a truncated
 * stream keeps at least one token when it had any). Keying by job id
 * makes a job's fault independent of which processing unit runs it; a
 * one-shot FleetSystem's job ids are its PU indices.
 */
uint64_t truncatedJobTokens(const FaultPlan &plan, uint64_t job_id,
                            uint64_t tokens);

} // namespace fault
} // namespace fleet

#endif // FLEET_FAULT_FAULT_H

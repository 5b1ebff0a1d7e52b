#ifndef FLEET_TRACE_TRACE_H
#define FLEET_TRACE_TRACE_H

/**
 * @file
 * Cycle-level observability for the full-system simulator (ISSUE 3): a
 * zero-overhead-when-disabled layer that turns a run into (a) structured
 * per-component `CounterSet`s — bytes moved, DRAM beats, stall cycles
 * split by the shared taxonomy (taxonomy.h), queue-occupancy histograms
 * — and (b) span-based event traces exportable as Chrome `trace_event`
 * JSON, so a whole run opens in Perfetto with one process per memory
 * channel and one lane per processing unit.
 *
 * Collection discipline: components keep their existing cheap native
 * counters; the only *new* per-cycle work (phase classification, span
 * coalescing, occupancy histograms) happens behind a null check on the
 * shard's collector pointer, exactly like the fault layer — a disabled
 * TraceConfig allocates nothing and adds no work to the simulation
 * loop, and an *enabled* one is purely observational, so traced and
 * untraced runs are cycle- and bit-identical.
 *
 * The counters are designed to be *conserved* across layer boundaries
 * (sum of per-PU payload bits == controller bits == DRAM bursts x burst
 * size; per-PU phase cycles sum to the channel cycle count; histogram
 * mass equals cycles sampled). tests/trace_counters_test.cc asserts
 * these invariants for every application on both PU backends at every
 * thread count.
 */

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/taxonomy.h"
#include "util/status.h"

namespace fleet {
namespace trace {

struct TraceConfig
{
    /** Collect per-component CounterSets and occupancy histograms. */
    bool counters = false;
    /** Record span events for Chrome trace_event / Perfetto export. */
    bool events = false;
    /**
     * Events mode: sample the DRAM queue-depth counter tracks every
     * this-many cycles (1 = every cycle; larger keeps traces small).
     */
    int counterSampleCycles = 16;
    /**
     * Events mode: per-lane span cap. A runaway run stops recording new
     * spans past the cap (dropped spans are counted and reported in the
     * trace metadata) instead of growing without bound.
     */
    uint64_t maxSpansPerLane = 1 << 18;

    bool enabled() const { return counters || events; }
};

/**
 * Fixed-range occupancy histogram: bucket v counts cycles the sampled
 * value was exactly v (values past the range clamp into the last
 * bucket). Sized from the queue's hard capacity, so no clamping occurs
 * in practice and weightedSum() equals the exact occupancy integral.
 */
struct Histogram
{
    std::string name;
    std::vector<uint64_t> buckets;

    Histogram() = default;
    Histogram(std::string histogram_name, int max_value)
        : name(std::move(histogram_name)), buckets(max_value + 1, 0)
    {
    }

    void sample(uint64_t value)
    {
        size_t idx = value < buckets.size() ? static_cast<size_t>(value)
                                            : buckets.size() - 1;
        ++buckets[idx];
    }
    uint64_t samples() const;
    /** Sum of value x count — the occupancy integral. */
    uint64_t weightedSum() const;
    double mean() const;
};

bool operator==(const Histogram &a, const Histogram &b);

/**
 * One component's counters: an ordered list of (key, value) pairs under
 * a hierarchical component name ("ch0/dram", "ch0/pu5", ...). Ordered
 * (not a map) so traversal, export, and equality are deterministic.
 */
struct CounterSet
{
    std::string name;
    std::vector<std::pair<std::string, uint64_t>> values;

    void set(std::string_view key, uint64_t value);
    void add(std::string_view key, uint64_t delta);
    /** Value for `key`, or 0 if the key was never set. */
    uint64_t get(std::string_view key) const;
    bool has(std::string_view key) const;
};

bool operator==(const CounterSet &a, const CounterSet &b);

/** Half-open [begin, end) cycle interval a unit spent in one phase. */
struct Span
{
    PuPhase phase;
    uint64_t beginCycle = 0;
    uint64_t endCycle = 0;
};

bool operator==(const Span &a, const Span &b);

/** A point-in-time annotation on a lane (containment, finish). */
struct Marker
{
    uint64_t cycle = 0;
    std::string label;
};

bool operator==(const Marker &a, const Marker &b);

/**
 * One job's residency on a unit's lane (the multi-stream job runtime,
 * runtime/session.h): [beginCycle, endCycle) covers arm-to-re-arm, so a
 * job's span encloses every phase span of its execution plus the idle
 * tail until the scheduler re-armed the slot. One-shot runs record no
 * job spans.
 */
struct JobSpan
{
    uint64_t jobId = 0;
    uint64_t beginCycle = 0;
    uint64_t endCycle = 0;
};

bool operator==(const JobSpan &a, const JobSpan &b);

/** One processing unit's timeline within its channel. */
struct Lane
{
    int globalPu = -1; ///< Global PU index (Chrome tid = local + 1).
    std::vector<Span> spans;
    std::vector<Marker> markers;
    /** Job runtime only: one enclosing span per job the slot ran. */
    std::vector<JobSpan> jobs;
    uint64_t droppedSpans = 0; ///< Spans past TraceConfig::maxSpansPerLane.
};

bool operator==(const Lane &a, const Lane &b);

/** Sampled value track (DRAM queue depths; Chrome "C" counter events). */
struct CounterTrack
{
    std::string name;
    std::vector<std::pair<uint64_t, uint64_t>> samples; ///< (cycle, value).
};

bool operator==(const CounterTrack &a, const CounterTrack &b);

/** Canonical session-track name for a per-tenant metric (ISSUE 8):
 * "session/tenant<k>/<metric>". The job runtime emits cumulative
 * queue_wait_cycles and service_cycles tracks per tenant under these
 * names, alongside the global session tracks. */
inline std::string
tenantTrackName(uint32_t tenant, const char *metric)
{
    return "session/tenant" + std::to_string(tenant) + "/" + metric;
}

/** Everything observed on one memory channel. */
struct ChannelTrace
{
    int channel = -1;
    /**
     * Process-row label for the Chrome export; empty = the default
     * "channel <n>". The cluster layer (ISSUE 10) sets
     * "dev<d>/channel <c>" when merging device traces so each device
     * renders as its own group of process rows.
     */
    std::string label;
    uint64_t cycles = 0;
    /** Counters mode: dram / input_ctrl / output_ctrl / one per PU. */
    std::vector<CounterSet> counters;
    std::vector<Histogram> histograms;
    /** Events mode: one lane per PU (local order) + channel tracks. */
    std::vector<Lane> lanes;
    std::vector<CounterTrack> tracks;

    const CounterSet *find(std::string_view name) const;
};

bool operator==(const ChannelTrace &a, const ChannelTrace &b);

/**
 * The trace of a whole run, attached to RunReport when tracing is on.
 * Deterministic: serial and worker-pool runs of the same configuration
 * produce equal TraceReports (part of the conservation test harness).
 */
struct TraceReport
{
    TraceConfig config;
    double clockMHz = 125.0;
    std::vector<ChannelTrace> channels;
    /**
     * Scheduler-level tracks recorded above the channels by the job
     * runtime / serving layer (ISSUE 6): job-queue depth, jobs in
     * flight, and cumulative queue-wait cycles, sampled at scheduler
     * round boundaries on the session clock (max over shard cycles).
     * Empty for one-shot runs. Exported under a synthetic "session"
     * process by writeChromeTrace, and compared by value — the
     * determinism fences cover the serving schedule too.
     */
    std::vector<CounterTrack> sessionTracks;

    /** Counter set by full name ("ch2/pu7"), or null. */
    const CounterSet *find(std::string_view name) const;

    /**
     * Write the events as Chrome trace_event JSON (open in Perfetto or
     * chrome://tracing): one process per channel, one thread lane per
     * PU, counter tracks for the DRAM queues. 1 cycle = 1 us of trace
     * time. Fails with InvalidArgument if events were not recorded.
     */
    Status writeChromeTrace(const std::string &path) const;

    /** Human-readable per-channel counter digest (for --counters). */
    std::string countersSummary() const;
};

bool operator==(const TraceReport &a, const TraceReport &b);
inline bool
operator!=(const TraceReport &a, const TraceReport &b)
{
    return !(a == b);
}

/**
 * Per-shard collector, owned by a ChannelShard when tracing is enabled
 * (null otherwise — the null check is the entire disabled-mode cost).
 * The shard calls puCycle() once per attached unit per simulated cycle
 * and dramCycle() once per cycle; finish() freezes the ChannelTrace.
 */
class ShardTrace
{
  public:
    ShardTrace(int channel, const TraceConfig &config,
               int max_outstanding_reads, int max_outstanding_writes);

    /** Register the next unit (call in local-index order). */
    void addPu(int global_index);

    /** Account `cycle` to `phase` for local unit `local`. */
    void puCycle(int local, uint64_t cycle, PuPhase phase);

    /** A point event on a unit's lane (containment, watchdog trip). */
    void marker(int local, uint64_t cycle, std::string label);

    /** Record one job's [begin, end) residency on a unit's lane. */
    void jobSpan(int local, uint64_t job_id, uint64_t begin_cycle,
                 uint64_t end_cycle);

    /** Sample the DRAM queues for this cycle. */
    void dramCycle(uint64_t cycle, int outstanding_reads,
                   int outstanding_writes);

    uint64_t phaseCycles(int local, PuPhase phase) const;

    /**
     * Close open spans at `cycles` and assemble the per-channel trace.
     * The caller appends the component CounterSets (harvested from the
     * DRAM model, controllers, and units) afterwards.
     */
    ChannelTrace finish(uint64_t cycles);

  private:
    struct PuCollect
    {
        Lane lane;
        uint64_t phaseCycles[kNumPuPhases] = {};
        PuPhase openPhase = PuPhase::Active;
        uint64_t openBegin = 0;
        bool hasOpen = false;
    };

    void closeSpan(PuCollect &pu, uint64_t end_cycle);

    int channel_;
    TraceConfig config_;
    std::vector<PuCollect> pus_;
    Histogram readDepth_;
    Histogram writeDepth_;
    CounterTrack readTrack_;
    CounterTrack writeTrack_;
};

} // namespace trace
} // namespace fleet

#endif // FLEET_TRACE_TRACE_H

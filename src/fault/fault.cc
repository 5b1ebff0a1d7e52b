#include "fault/fault.h"

namespace fleet {
namespace fault {

namespace {

/** SplitMix64 finalizer: uniform mixing of a 64-bit key. */
uint64_t
mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Hash of (seed, stream id, event index); stream ids keep the fault
 * classes' decision streams independent of each other. */
uint64_t
hashEvent(uint64_t seed, uint64_t stream_id, uint64_t index)
{
    uint64_t h = seed + 0x9e3779b97f4a7c15ULL * (stream_id + 1);
    return mix64(mix64(h) ^ (index + 0x6a09e667f3bcc909ULL));
}

/** Bernoulli trial at rate/denominator on a uniform 64-bit hash. */
bool
chance(uint64_t hash, uint32_t rate, uint64_t denominator)
{
    if (rate == 0)
        return false;
    if (rate >= denominator)
        return true;
    return hash % denominator < rate;
}

enum StreamId : uint64_t
{
    kLatency = 1,
    kBackpressure = 2,
    kCorrupt = 3,
    kTruncate = 4,
    kTruncateLen = 5,
};

/** Per-channel decision key: channels must fault independently. */
uint64_t
channelKey(uint64_t seed, int channel, uint64_t stream_id)
{
    return mix64(seed ^ (uint64_t(channel) + 1) * 0xd1342543de82ef95ULL) +
           stream_id;
}

} // namespace

FaultPlan
FaultPlan::fromSeed(uint64_t seed)
{
    FaultPlan plan;
    plan.seed = seed;
    plan.latencySpikePermille = 20;  // 2% of read requests.
    plan.latencySpikeCycles = 400;
    plan.backpressurePermille = 100; // 10% of windows stall.
    plan.backpressureWindow = 2048;
    plan.backpressureDuration = 512;
    plan.corruptBeatPerMillion = 40; // ~1 per 25k beats.
    plan.truncatePermille = 150;     // 15% of PUs get short streams.
    return plan;
}

bool
operator==(const FaultPlan &a, const FaultPlan &b)
{
    return a.seed == b.seed &&
           a.latencySpikePermille == b.latencySpikePermille &&
           a.latencySpikeCycles == b.latencySpikeCycles &&
           a.backpressurePermille == b.backpressurePermille &&
           a.backpressureWindow == b.backpressureWindow &&
           a.backpressureDuration == b.backpressureDuration &&
           a.corruptBeatPerMillion == b.corruptBeatPerMillion &&
           a.truncatePermille == b.truncatePermille;
}

uint64_t
ChannelFaults::extraReadLatency(uint64_t request_index) const
{
    uint64_t h = hashEvent(channelKey(plan_.seed, channel_, kLatency),
                           kLatency, request_index);
    return chance(h, plan_.latencySpikePermille, 1000)
               ? plan_.latencySpikeCycles
               : 0;
}

bool
ChannelFaults::busBackpressured(uint64_t cycle) const
{
    if (plan_.backpressurePermille == 0 || plan_.backpressureWindow == 0)
        return false;
    uint64_t window = cycle / plan_.backpressureWindow;
    if (cycle % plan_.backpressureWindow >= plan_.backpressureDuration)
        return false;
    uint64_t h = hashEvent(channelKey(plan_.seed, channel_, kBackpressure),
                           kBackpressure, window);
    return chance(h, plan_.backpressurePermille, 1000);
}

bool
ChannelFaults::beatCorrupted(uint64_t beat_index) const
{
    uint64_t h = hashEvent(channelKey(plan_.seed, channel_, kCorrupt),
                           kCorrupt, beat_index);
    return chance(h, plan_.corruptBeatPerMillion, 1000000);
}

uint64_t
truncatedJobTokens(const FaultPlan &plan, uint64_t job_id, uint64_t tokens)
{
    if (tokens == 0 || plan.truncatePermille == 0)
        return tokens;
    uint64_t h = hashEvent(plan.seed, kTruncate, job_id);
    if (!chance(h, plan.truncatePermille, 1000))
        return tokens;
    uint64_t keep = hashEvent(plan.seed, kTruncateLen, job_id) % tokens;
    return keep == 0 ? 1 : keep;
}

} // namespace fault
} // namespace fleet

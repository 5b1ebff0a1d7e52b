#ifndef FLEET_DRAM_DRAM_H
#define FLEET_DRAM_DRAM_H

/**
 * @file
 * Cycle-level model of one AXI4 memory channel backed by DRAM, standing in
 * for the Amazon F1's DDR3 channels (the paper uses four channels with
 * 512-bit data buses at 125 MHz; Section 5). The model exposes the
 * behaviours the Fleet memory controller's optimizations exploit:
 *
 *  - a long read latency from address acceptance to first data beat
 *    (motivating asynchronous address supply, Figure 9);
 *  - read data returned in address order, one 512-bit beat per cycle at
 *    most (motivating burst registers to keep the bus saturated);
 *  - a small amortized per-request overhead plus periodic refresh, so
 *    larger bursts achieve higher efficiency (Section 5's burst-size
 *    tradeoff; calibrated so a 64-beat-burst raw read sustains ~94% of
 *    the theoretical peak, matching the paper's 30.1 of 32 GB/s).
 *
 * Reads and writes share the DRAM data bus, so echo-style workloads see
 * roughly half the unidirectional bandwidth (Section 7.3's 11.38 GB/s).
 *
 * The channel owns its (simulated) memory contents; the host runtime
 * fills input regions and reads back output regions between runs.
 */

#include <cstdint>
#include <cstdlib>
#include <deque>
#include <memory>
#include <vector>

#include "fault/fault.h"
#include "trace/trace.h"
#include "util/aligned.h"

namespace fleet {
namespace dram {

struct DramParams
{
    /** AXI data bus width. One beat per cycle maximum. */
    int busWidthBits = 512;
    /** Cycles from AR acceptance to the first beat becoming available. */
    uint64_t readLatency = 62;
    /** Amortized extra bus cycles per request (command/bank overhead). */
    double perRequestOverhead = 0.22;
    /** Every refreshPeriod cycles the bus blocks for refreshDuration. */
    uint64_t refreshPeriod = 975;
    uint64_t refreshDuration = 55;
    /** Maximum accepted-but-undelivered read requests. */
    int maxOutstandingReads = 64;
    /** Maximum buffered write bursts awaiting bus time. */
    int maxOutstandingWrites = 16;
};

/**
 * A channel's memory contents: zero-filled bytes whose pages are not
 * written at allocation (calloc), so a region costs host memory only
 * once something is written into it. Move-only.
 */
class ChannelMemory
{
  public:
    explicit ChannelMemory(uint64_t size);

    uint64_t size() const { return size_; }
    uint8_t *data() { return bytes_.get(); }
    const uint8_t *data() const { return bytes_.get(); }
    uint8_t *begin() { return data(); }
    uint8_t *end() { return data() + size_; }
    const uint8_t *begin() const { return data(); }
    const uint8_t *end() const { return data() + size_; }
    uint8_t &operator[](uint64_t i) { return bytes_[i]; }
    const uint8_t &operator[](uint64_t i) const { return bytes_[i]; }

  private:
    struct Free
    {
        void operator()(uint8_t *p) const { std::free(p); }
    };
    std::unique_ptr<uint8_t[], Free> bytes_;
    uint64_t size_;
};

/** One 512-bit read-data beat (data is read via DramChannel::memory()). */
struct RBeat
{
    uint64_t addr;          ///< Byte address of this beat.
    bool last;              ///< Final beat of its burst.
    bool corrupted = false; ///< Injected single-bit error (fault layer);
                            ///< caught by the controller's parity check.
};

class alignas(kCacheLineBytes) DramChannel
{
  public:
    /**
     * `faults` (optional, not owned, may be null) injects read latency
     * spikes, address-channel backpressure windows, and corrupted read
     * beats; see fault/fault.h. A null injector is never consulted, so
     * fault-free timing is bit-identical with or without the layer.
     */
    DramChannel(const DramParams &params, uint64_t mem_bytes,
                const fault::ChannelFaults *faults = nullptr);

    /// @name Host access to channel memory (zero simulated cost).
    /// @{
    ChannelMemory &memory() { return mem_; }
    const ChannelMemory &memory() const { return mem_; }
    /// @}

    /// @name Read address channel.
    /// @{
    bool arReady() const;
    void arPush(uint64_t addr, int len_beats);
    /// @}

    /// @name Read data channel (at most one beat popped per cycle).
    /// @{
    bool rValid() const;
    const RBeat &rPeek() const;
    void rPop();
    /// @}

    /// @name Write address/data channels. Beats follow AW order; a burst's
    /// data commits to memory as its beats are pushed.
    /// @{
    bool awReady() const;
    void awPush(uint64_t addr, int len_beats);
    bool wReady() const;
    void wPush(const uint8_t *beat_data);
    /// @}

    /** Advance one cycle. */
    void tick();

    uint64_t cycle() const { return cycle_; }
    int busWidthBytes() const { return params_.busWidthBits / 8; }

    /// @name Statistics.
    /// @{
    uint64_t beatsDelivered() const { return beatsDelivered_; }
    uint64_t beatsWritten() const { return beatsWritten_; }
    /** Accepted-but-undelivered read requests (queue occupancy). */
    int outstandingReads() const
    {
        return static_cast<int>(readQueue_.size());
    }
    /** Buffered write bursts awaiting bus time (queue occupancy). */
    int outstandingWrites() const
    {
        return static_cast<int>(writeQueue_.size());
    }
    /** Read bursts accepted on the AR channel. */
    uint64_t readRequests() const { return readRequests_; }
    /** Write bursts accepted on the AW channel. */
    uint64_t writeRequests() const { return writeRequests_; }
    /** Dump the channel's native counters into `out` (trace layer). */
    void exportCounters(trace::CounterSet &out) const;
    /// @}

  private:
    struct PendingRead
    {
        uint64_t addr;
        int lenBeats;
        uint64_t firstBeatCycle; ///< When the first beat becomes available.
    };
    struct PendingWrite
    {
        uint64_t addr;
        int lenBeats;
        int beatsReceived;
    };

    /** Advance a candidate cycle past any refresh window. */
    uint64_t skipRefresh(uint64_t cycle) const;
    /** Claim `beats` bus cycles starting no earlier than `earliest`. */
    uint64_t scheduleBus(uint64_t earliest, int beats);

    DramParams params_;
    const fault::ChannelFaults *faults_;
    ChannelMemory mem_;
    uint64_t cycle_ = 0;
    uint64_t readRequests_ = 0;  ///< ARs accepted (fault-event index).
    uint64_t writeRequests_ = 0; ///< AWs accepted.

    uint64_t busNext_ = 0;      ///< First cycle the data bus is free.
    double overheadAcc_ = 0.0;  ///< Fractional per-request overhead.

    std::deque<PendingRead> readQueue_; ///< Accepted, undelivered reads.
    int headBeatsDelivered_ = 0;
    mutable RBeat headBeat_{0, false};
    mutable bool headBeatValid_ = false;

    std::deque<PendingWrite> writeQueue_;

    uint64_t beatsDelivered_ = 0;
    uint64_t beatsWritten_ = 0;
};

} // namespace dram
} // namespace fleet

#endif // FLEET_DRAM_DRAM_H

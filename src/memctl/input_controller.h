#ifndef FLEET_MEMCTL_INPUT_CONTROLLER_H
#define FLEET_MEMCTL_INPUT_CONTROLLER_H

/**
 * @file
 * Round-robin input controller for one memory channel (Section 5). An
 * addressing unit walks the channel's processing units issuing burst read
 * addresses well ahead of the data transfer unit (asynchronous address
 * supply); returning bursts land in one of r burst registers, which drain
 * in parallel — w bits per cycle each — into the per-PU BRAM input
 * buffers. Backpressure propagates naturally: a full buffer stalls its
 * burst register's drain, busy burst registers stall the AXI R channel,
 * and exhausted credits stall the addressing unit.
 *
 * Failure containment (ISSUE 2): each accepted read beat passes a parity
 * check; a corrupted beat (injected via fault/fault.h) raises a
 * ParityEvent for the owning processing unit instead of silently feeding
 * it bad tokens. The shard then calls killPu(), after which the dead
 * unit's in-flight bursts are discarded at full rate and no further
 * addresses are issued for it — so a contained failure can never wedge
 * the shared burst registers and stall healthy units on the channel.
 */

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "dram/dram.h"
#include "memctl/bitfifo.h"
#include "memctl/params.h"
#include "util/aligned.h"

namespace fleet {
namespace memctl {

class alignas(kCacheLineBytes) InputController
{
  public:
    InputController(dram::DramChannel &channel,
                    const ControllerParams &params,
                    std::vector<StreamRegion> regions);
    /** The burst registers point into the controller's own storage. */
    InputController(const InputController &) = delete;
    InputController &operator=(const InputController &) = delete;

    /** Per-PU input buffer the processing unit consumes tokens from. */
    BitFifo &buffer(int pu) { return pus_[pu].buffer; }
    const BitFifo &buffer(int pu) const { return pus_[pu].buffer; }

    /** True once every payload bit of the PU's stream is in (or through)
     * its buffer — drives the input_finished protocol signal together
     * with buffer emptiness. */
    bool streamExhausted(int pu) const;

    /** All streams fully issued, received, and drained into buffers. */
    bool done() const;

    /** Advance one cycle (call before the channel's tick()). */
    void tick();

    /** PUs whose input buffer the last tick() pushed into (may repeat).
     * The channel loop re-derives their handshake inputs from it. */
    const AlignedVec<int> &touchedLanes() const { return touched_; }

    /** A corrupted beat caught by the per-beat parity check. */
    struct ParityEvent
    {
        int pu;        ///< Local PU whose stream the beat belonged to.
        uint64_t addr; ///< Byte address of the corrupted beat.
    };

    /** Oldest undelivered parity event, if any (at most one per cycle —
     * the channel delivers at most one beat per cycle). */
    std::optional<ParityEvent> takeParityEvent();

    /**
     * Contain a failed processing unit: issue no further bursts for it
     * and discard its in-flight and undrained data, so the channel's
     * shared burst registers and AR queue keep flowing for healthy PUs.
     */
    void killPu(int pu);

    /**
     * True once the PU's lane holds no controller-side work: every burst
     * of its (possibly shortened by killPu) stream has been issued and
     * fully drained or discarded. A lane must be idle before it can be
     * re-armed.
     */
    bool puIdle(int pu) const;

    /**
     * Re-arm one PU's lane with a fresh stream of `stream_bits` payload
     * bits (the caller has already written them at the lane's fixed
     * region base). Resets the per-PU issue/drain/credit state, clears
     * the buffer (including any sub-token residue of the previous
     * stream), and clears a killPu() quarantine — the input_finished
     * protocol starts over for the new stream. The lane must be idle
     * (puIdle); shared structures (burst registers, order queue,
     * round-robin pointer) are untouched, so channel-mates are
     * unaffected mid-flight.
     */
    void rearmPu(int pu, uint64_t stream_bits);

    /// @name Statistics.
    /// @{
    uint64_t bitsDelivered() const { return bitsDelivered_; }
    uint64_t arIssued() const { return arIssued_; }
    /** Payload bits pushed into one PU's input buffer so far. */
    uint64_t puBitsDelivered(int pu) const
    {
        return pus_[pu].bitsBuffered;
    }
    /** Total payload bits in one PU's input stream region. */
    uint64_t puStreamBits(int pu) const
    {
        return pus_[pu].region.streamBits;
    }
    /** Dump the controller's native counters into `out` (trace layer). */
    void exportCounters(trace::CounterSet &out) const;
    /** Issued-but-not-fully-drained bursts across all PUs (occupancy of
     * the addressing unit's pipeline; utilization diagnostics). */
    int inflightBursts() const
    {
        int total = 0;
        for (const auto &pu : pus_)
            total += pu.inflightBursts;
        return total;
    }
    /// @}

  private:
    struct PuState
    {
        StreamRegion region;
        BitFifo buffer;
        uint64_t totalBursts = 0;
        uint64_t burstsIssued = 0;
        uint64_t burstsReceived = 0; ///< Arrived at a burst register.
        uint64_t burstsDrained = 0;  ///< Fully pushed into the buffer.
        uint64_t bitsBuffered = 0; ///< Payload bits pushed into buffer.
        int inflightBursts = 0;    ///< Issued but not fully drained.
        bool dead = false;         ///< Contained failure: discard data.
    };

    struct BurstSlot
    {
        bool active = false;
        int pu = -1;
        uint64_t seq = 0; ///< This PU's burst index (drain ordering).
        int beatsReceived = 0;
        int beatsTotal = 0;
        uint64_t payloadBits = 0; ///< Stream bits in this burst (tail may
                                  ///< be short; padding is discarded).
        uint64_t drainedBits = 0;
        uint8_t *data = nullptr; ///< This register's bytes in slotData_.
    };

    void drainSlots();
    void acceptBeat();
    void issueAddresses();
    bool creditAvailable(const PuState &pu) const;
    uint64_t burstPayloadBits(const PuState &pu, uint64_t burst_idx) const;

    dram::DramChannel &channel_;
    ControllerParams params_;
    // Shard-owned, written every cycle: on cache lines of their own.
    AlignedVec<PuState> pus_;
    AlignedVec<BurstSlot> slots_;
    /** Every burst register's bytes, burstBits / 8 each, in one block. */
    AlignedVec<uint8_t> slotData_;
    /** PUs of issued-but-not-fully-received bursts, in AR order. */
    std::deque<int> orderQueue_;
    int fillingSlot_ = -1; ///< Slot receiving the current burst's beats.
    std::deque<ParityEvent> parityEvents_;
    int rrPointer_ = 0;
    int beatsPerBurst_;
    uint64_t bitsDelivered_ = 0;
    uint64_t arIssued_ = 0;
    AlignedVec<int> touched_;
};

} // namespace memctl
} // namespace fleet

#endif // FLEET_MEMCTL_INPUT_CONTROLLER_H

#ifndef FLEET_MEMCTL_OUTPUT_CONTROLLER_H
#define FLEET_MEMCTL_OUTPUT_CONTROLLER_H

/**
 * @file
 * Round-robin output controller for one memory channel — symmetric to the
 * input controller (Section 5). The addressing unit issues a write
 * address once a processing unit has a full burst buffered (or a final
 * partial burst after output_finished); burst registers fill from the
 * per-PU output buffers in parallel at w bits per cycle; completed bursts
 * are transmitted to the AXI W channel in address order. The addressing
 * unit is non-blocking by default, since filter-style units produce
 * output at dramatically different rates (paper, Section 5).
 *
 * Failure containment (ISSUE 2): a processing unit whose output would
 * exceed its DRAM region is *contained*, not fatal — the controller
 * stops issuing bursts for it, flushes what was already committed, drops
 * the uncommitted remainder, and raises an OverflowEvent so the shard
 * can record a per-PU OutputOverflow outcome while every other unit on
 * the channel keeps running.
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

class alignas(kCacheLineBytes) OutputController
{
  public:
    OutputController(dram::DramChannel &channel,
                     const ControllerParams &params,
                     std::vector<StreamRegion> regions);
    /** The burst registers point into the controller's own storage. */
    OutputController(const OutputController &) = delete;
    OutputController &operator=(const OutputController &) = delete;

    /** Per-PU output buffer the processing unit emits tokens into.
     * Read-only: tokens enter through push(), which keeps the
     * addressing unit's issuable count exact. */
    const BitFifo &buffer(int pu) const { return pus_[pu].buffer; }

    /** The PU emits `bits` bits of `value` into its output buffer. */
    void push(int pu, uint64_t value, int bits);

    /** Inform the controller the PU asserted output_finished. */
    void setPuFinished(int pu);

    /** A PU whose next burst would exceed its output region. */
    struct OverflowEvent
    {
        int pu;
        uint64_t regionBytes; ///< The region it overflowed.
    };

    /** Oldest undelivered overflow event, if any. */
    std::optional<OverflowEvent> takeOverflowEvent();

    /** True once the PU was contained for output-region overflow. */
    bool puFailed(int pu) const { return pus_[pu].failed; }

    /**
     * True once the PU has finished (or been contained) and every bit it
     * committed has left the controller: no uncommitted output remains
     * (for a contained PU the uncommitted remainder was dropped), no
     * burst of its is still filling or awaiting transmission, so its
     * payloadBits() are all in channel memory (writes commit to memory
     * as their beats are pushed). The gate for re-arming the lane.
     */
    bool puFlushed(int pu) const;

    /**
     * Re-arm one PU's lane for the next job's output stream: resets the
     * finished / flushIssued / failed protocol state (all one-way within
     * a single job), the burst and payload accounting, and the buffer.
     * The lane must be flushed (puFlushed); the fixed output region is
     * reused, so the caller must read back the previous job's output
     * first. Shared structures (burst registers, order queue,
     * round-robin pointer) are untouched.
     */
    void rearmPu(int pu);

    /** All output flushed to channel memory for every finished PU. */
    bool done() const;

    /** Total payload bits written for one PU (for host readback). */
    uint64_t payloadBits(int pu) const { return pus_[pu].bitsAccepted; }

    /** Advance one cycle (call before the channel's tick()). */
    void tick();

    /** PUs whose output buffer the last tick() popped (may repeat). The
     * channel loop re-derives their handshake inputs from it. */
    const AlignedVec<int> &touchedLanes() const { return touched_; }

    /// @name Statistics.
    /// @{
    uint64_t bitsCollected() const { return bitsCollected_; }
    uint64_t awIssued() const { return awIssued_; }
    /** Dump the controller's native counters into `out` (trace layer). */
    void exportCounters(trace::CounterSet &out) const;
    /** Issued-but-untransmitted bursts (addressing-unit lead; utilization
     * diagnostics). */
    int pendingBursts() const
    {
        return static_cast<int>(orderQueue_.size());
    }
    /// @}

  private:
    struct PuState
    {
        StreamRegion region;
        BitFifo buffer;
        uint64_t burstsIssued = 0;
        uint64_t bitsAccepted = 0; ///< Payload bits committed to bursts.
        uint64_t bitsPendingFill = 0; ///< Committed but not yet popped.
        bool finished = false;
        bool flushIssued = false; ///< Final partial burst issued.
        bool failed = false;      ///< Contained overflow: uncommitted
                                  ///< bits are dropped, not flushed.
        bool issuable = false;    ///< Counted in issuable_.
    };

    struct PendingBurst
    {
        int pu;
        uint64_t payloadBits; ///< Real bits (rest of the burst is padding).
        int slot = -1;        ///< Burst register, -1 until assigned.
        int beatsSent = 0;
    };

    struct BurstSlot
    {
        bool active = false;
        uint64_t filledBits = 0;
        uint64_t payloadBits = 0;
        int owner = -1; ///< Index into orderQueue_ at assignment time is
                        ///< not stable; slots are referenced from
                        ///< PendingBurst::slot instead.
        uint8_t *data = nullptr; ///< This register's bytes in slotData_.
    };

    void assignSlots();
    void fillSlots();
    void transmit();
    void issueAddresses();
    bool burstReady(const PuState &pu) const;
    /** Re-derive one PU's issuable bit after its buffer accounting or
     * protocol state changed, keeping issuable_ exact. */
    void refreshIssuable(PuState &pu);

    dram::DramChannel &channel_;
    ControllerParams params_;
    // Shard-owned, written every cycle: on cache lines of their own.
    AlignedVec<PuState> pus_;
    AlignedVec<BurstSlot> slots_;
    /** Every burst register's bytes, burstBits / 8 each, in one block. */
    AlignedVec<uint8_t> slotData_;
    std::deque<PendingBurst> orderQueue_;
    std::deque<OverflowEvent> overflowEvents_;
    int rrPointer_ = 0;
    /** PUs the addressing unit could act on: not skipped for good and
     * burstReady. Zero lets the non-blocking walk return at once. */
    int issuable_ = 0;
    int beatsPerBurst_;
    uint64_t bitsCollected_ = 0;
    uint64_t awIssued_ = 0;
    AlignedVec<int> touched_;
    /** fillSlots scratch: PUs with an earlier burst still filling. */
    AlignedVec<uint8_t> puFilling_;
};

} // namespace memctl
} // namespace fleet

#endif // FLEET_MEMCTL_OUTPUT_CONTROLLER_H

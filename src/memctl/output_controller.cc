#include "memctl/output_controller.h"

#include "util/bits.h"
#include "util/logging.h"

namespace fleet {
namespace memctl {

OutputController::OutputController(dram::DramChannel &channel,
                                   const ControllerParams &params,
                                   std::vector<StreamRegion> regions)
    : channel_(channel), params_(params)
{
    int bus_bits = channel_.busWidthBytes() * 8;
    if (params_.burstBits % bus_bits != 0 || params_.burstBits < bus_bits) {
        fatal("OutputController: burst size must be a positive multiple "
              "of the bus width");
    }
    beatsPerBurst_ = params_.burstBits / bus_bits;

    // One-token skid: when the token width does not divide the burst
    // size, a buffer of exactly N bursts wedges — it fills to within
    // tokenBits-1 bits of a burst boundary, too full for the PU to push
    // and not full enough for the addressing unit to issue. The skid
    // keeps freeBits >= tokenBits whenever a burst is still short.
    uint64_t capacity =
        uint64_t(params_.burstBits) * std::max(1, params_.bufferBursts);
    if (params_.tokenBits > 0 && params_.burstBits % params_.tokenBits != 0)
        capacity += uint64_t(params_.tokenBits) - 1;
    for (auto &region : regions)
        pus_.push_back(PuState{region, BitFifo(capacity)});
    puFilling_.assign(pus_.size(), 0);
    slots_.resize(params_.numBurstRegs);
    for (auto &slot : slots_)
        slot.data.resize(params_.burstBits / 8);
    // At most one pop per burst register per tick.
    touched_.reserve(slots_.size());
}

void
OutputController::push(int pu, uint64_t value, int bits)
{
    pus_[pu].buffer.push(value, bits);
    refreshIssuable(pus_[pu]);
}

void
OutputController::setPuFinished(int pu)
{
    pus_[pu].finished = true;
    refreshIssuable(pus_[pu]);
}

void
OutputController::refreshIssuable(PuState &pu)
{
    // A failed PU is skipped for good; a finished one with nothing
    // uncommitted is too, and burstReady() is false for it anyway.
    bool issuable = !pu.failed && burstReady(pu);
    issuable_ += int(issuable) - int(pu.issuable);
    pu.issuable = issuable;
}

std::optional<OutputController::OverflowEvent>
OutputController::takeOverflowEvent()
{
    if (overflowEvents_.empty())
        return std::nullopt;
    OverflowEvent event = overflowEvents_.front();
    overflowEvents_.pop_front();
    return event;
}

bool
OutputController::puFlushed(int pu_index) const
{
    const PuState &pu = pus_[pu_index];
    if (!pu.finished)
        return false;
    if (pu.failed ? pu.bitsPendingFill != 0 : !pu.buffer.empty())
        return false;
    // Committed bursts stay in the order queue until every beat has been
    // transmitted (and thereby committed to channel memory).
    for (const auto &pending : orderQueue_)
        if (pending.pu == pu_index)
            return false;
    return true;
}

void
OutputController::rearmPu(int pu_index)
{
    PuState &pu = pus_[pu_index];
    if (!puFlushed(pu_index))
        panic("OutputController: rearmPu(", pu_index,
              ") with output still in flight");
    pu.buffer.clear();
    pu.burstsIssued = 0;
    pu.bitsAccepted = 0;
    pu.bitsPendingFill = 0;
    pu.finished = false;
    pu.flushIssued = false;
    pu.failed = false;
    refreshIssuable(pu);
}

bool
OutputController::done() const
{
    if (!orderQueue_.empty())
        return false;
    for (const auto &pu : pus_) {
        if (!pu.finished)
            return false;
        // An overflowed PU's uncommitted bits are dropped: only the bits
        // already committed to issued bursts still need to flush.
        if (pu.failed ? pu.bitsPendingFill != 0 : !pu.buffer.empty())
            return false;
    }
    return true;
}

bool
OutputController::burstReady(const PuState &pu) const
{
    // Bits already committed to an issued burst still sit in the buffer
    // until its burst register pops them; only uncommitted bits count.
    uint64_t available = pu.buffer.sizeBits() - pu.bitsPendingFill;
    if (available >= uint64_t(params_.burstBits))
        return true;
    return pu.finished && available > 0 && !pu.flushIssued;
}

void
OutputController::issueAddresses()
{
    if (pus_.empty())
        return;
    if (static_cast<int>(orderQueue_.size()) >= params_.maxAheadRequests)
        return;
    if (!params_.asyncAddressSupply) {
        // Synchronous supply: one outstanding write burst at a time.
        if (!orderQueue_.empty())
            return;
    }
    if (!channel_.awReady())
        return;
    // Nothing issuable: the non-blocking walk would skip every PU and
    // leave rrPointer_ where it started.
    if (!params_.blockingAddressing && issuable_ == 0)
        return;

    int examined = 0;
    int count = static_cast<int>(pus_.size());
    while (examined < count) {
        PuState &pu = pus_[rrPointer_];
        bool skip_forever =
            pu.failed || (pu.finished &&
                          pu.buffer.sizeBits() == pu.bitsPendingFill);
        if (skip_forever) {
            // Produced its last output (or was contained): always skipped.
            rrPointer_ = (rrPointer_ + 1) % count;
            ++examined;
            continue;
        }
        if (!burstReady(pu)) {
            if (params_.blockingAddressing)
                return; // Wait for this PU's next output burst.
            rrPointer_ = (rrPointer_ + 1) % count;
            ++examined;
            continue;
        }
        uint64_t burst_bytes = params_.burstBits / 8;
        uint64_t addr = pu.region.baseAddr + pu.burstsIssued * burst_bytes;
        if ((pu.burstsIssued + 1) * burst_bytes > pu.region.regionBytes) {
            // Contained overflow: no room for another burst. Keep the
            // bursts already issued (their data flushes normally), drop
            // the uncommitted remainder, and report the PU failed. The
            // rest of the channel is unaffected.
            pu.failed = true;
            pu.finished = true;
            pu.flushIssued = true;
            refreshIssuable(pu);
            overflowEvents_.push_back(
                OverflowEvent{rrPointer_, pu.region.regionBytes});
            rrPointer_ = (rrPointer_ + 1) % count;
            ++examined;
            continue;
        }
        uint64_t payload = std::min<uint64_t>(
            params_.burstBits, pu.buffer.sizeBits() - pu.bitsPendingFill);
        if (payload < uint64_t(params_.burstBits))
            pu.flushIssued = true; // Final partial burst.
        channel_.awPush(addr, beatsPerBurst_);
        orderQueue_.push_back(PendingBurst{rrPointer_, payload, -1, 0});
        pu.burstsIssued++;
        pu.bitsAccepted += payload;
        pu.bitsPendingFill += payload;
        refreshIssuable(pu);
        ++awIssued_;
        rrPointer_ = (rrPointer_ + 1) % count;
        return;
    }
}

void
OutputController::assignSlots()
{
    for (auto &pending : orderQueue_) {
        if (pending.slot >= 0)
            continue;
        int free_slot = -1;
        for (size_t s = 0; s < slots_.size(); ++s) {
            if (!slots_[s].active) {
                free_slot = static_cast<int>(s);
                break;
            }
        }
        if (free_slot < 0)
            return;
        pending.slot = free_slot;
        BurstSlot &slot = slots_[free_slot];
        slot.active = true;
        slot.filledBits = 0;
        slot.payloadBits = pending.payloadBits;
        std::fill(slot.data.begin(), slot.data.end(), 0);
    }
}

void
OutputController::fillSlots()
{
    // A PU's bursts must pop its buffer in issue order; while an earlier
    // burst for the same PU is still filling, later ones wait. A pop
    // moves bits from the buffer to the burst register, so the PU's
    // uncommitted bits and hence its issuable bit are unchanged.
    for (auto &pending : orderQueue_) {
        bool earlier_incomplete = puFilling_[pending.pu];
        bool this_incomplete =
            pending.slot < 0 ||
            slots_[pending.slot].filledBits <
                slots_[pending.slot].payloadBits;
        if (this_incomplete)
            puFilling_[pending.pu] = 1;
        if (pending.slot < 0 || earlier_incomplete)
            continue;
        BurstSlot &slot = slots_[pending.slot];
        if (slot.filledBits >= slot.payloadBits)
            continue;
        PuState &pu = pus_[pending.pu];
        uint64_t remaining = slot.payloadBits - slot.filledBits;
        int chunk = static_cast<int>(
            std::min<uint64_t>(params_.portWidth, remaining));
        if (pu.buffer.sizeBits() < uint64_t(chunk))
            continue; // Shouldn't starve: payload was buffered at issue.
        uint64_t value = pu.buffer.pop(chunk);
        pu.bitsPendingFill -= chunk;
        touched_.push_back(pending.pu);
        uint64_t bit_off = slot.filledBits;
        for (int put = 0; put < chunk;) {
            uint64_t byte = (bit_off + put) / 8;
            int shift = (bit_off + put) % 8;
            int piece = std::min(chunk - put, 8 - shift);
            slot.data[byte] |= uint8_t(((value >> put) & mask64(piece))
                                       << shift);
            put += piece;
        }
        slot.filledBits += chunk;
        bitsCollected_ += chunk;
    }
    for (const auto &pending : orderQueue_)
        puFilling_[pending.pu] = 0;
}

void
OutputController::transmit()
{
    if (orderQueue_.empty())
        return;
    PendingBurst &head = orderQueue_.front();
    if (head.slot < 0)
        return;
    BurstSlot &slot = slots_[head.slot];
    if (slot.filledBits < slot.payloadBits)
        return; // Head-of-line: wait until the oldest burst is complete.
    if (!channel_.wReady())
        return;
    int bus_bytes = channel_.busWidthBytes();
    channel_.wPush(slot.data.data() +
                   static_cast<size_t>(head.beatsSent) * bus_bytes);
    head.beatsSent++;
    if (head.beatsSent == beatsPerBurst_) {
        slot.active = false;
        orderQueue_.pop_front();
    }
}

void
OutputController::tick()
{
    touched_.clear();
    issueAddresses();
    assignSlots();
    fillSlots();
    transmit();
}

void
OutputController::exportCounters(trace::CounterSet &out) const
{
    out.set("bits_collected", bitsCollected_);
    out.set("write_bursts_issued", awIssued_);
    out.set("burst_bits", params_.burstBits);
    out.set("beats_per_burst", beatsPerBurst_);
    out.set("pending_bursts", pendingBursts());
    uint64_t accepted = 0, failed = 0;
    for (const auto &pu : pus_) {
        accepted += pu.bitsAccepted;
        failed += pu.failed ? 1 : 0;
    }
    out.set("bits_accepted", accepted);
    out.set("pus_contained", failed);
}

} // namespace memctl
} // namespace fleet

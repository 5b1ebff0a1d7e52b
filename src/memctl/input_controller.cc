#include "memctl/input_controller.h"

#include "util/bits.h"
#include "util/logging.h"

namespace fleet {
namespace memctl {

InputController::InputController(dram::DramChannel &channel,
                                 const ControllerParams &params,
                                 std::vector<StreamRegion> regions)
    : channel_(channel), params_(params)
{
    int bus_bits = channel_.busWidthBytes() * 8;
    if (params_.burstBits % bus_bits != 0 || params_.burstBits < bus_bits) {
        fatal("InputController: burst size must be a positive multiple of "
              "the bus width");
    }
    beatsPerBurst_ = params_.burstBits / (channel_.busWidthBytes() * 8);

    // One-token skid, mirroring the output controller: with a
    // non-dividing token width the buffer can hold a sub-token residue
    // (< tokenBits bits) the PU cannot pop, and creditAvailable() then
    // never clears residue + burstBits <= capacity. The extra
    // tokenBits-1 bits absorb the residue so the next burst's credit is
    // always reachable.
    uint64_t capacity =
        uint64_t(params_.burstBits) * std::max(1, params_.bufferBursts);
    if (params_.tokenBits > 0 && params_.burstBits % params_.tokenBits != 0)
        capacity += uint64_t(params_.tokenBits) - 1;
    for (auto &region : regions) {
        PuState pu{region, BitFifo(capacity)};
        pu.totalBursts = ceilDiv(region.streamBits, params_.burstBits);
        if (pu.totalBursts * (params_.burstBits / 8) > region.regionBytes)
            fatal("InputController: stream exceeds its region");
        pus_.push_back(std::move(pu));
    }
    slots_.resize(params_.numBurstRegs);
    for (auto &slot : slots_)
        slot.data.resize(params_.burstBits / 8);
    // At most one push per burst register per tick.
    touched_.reserve(slots_.size());
}

bool
InputController::streamExhausted(int pu) const
{
    return pus_[pu].bitsBuffered == pus_[pu].region.streamBits;
}

bool
InputController::done() const
{
    for (const auto &pu : pus_) {
        if (pu.burstsIssued != pu.totalBursts || pu.inflightBursts != 0)
            return false;
    }
    return true;
}

uint64_t
InputController::burstPayloadBits(const PuState &pu,
                                  uint64_t burst_idx) const
{
    uint64_t start = burst_idx * params_.burstBits;
    uint64_t end = std::min<uint64_t>(start + params_.burstBits,
                                      pu.region.streamBits);
    return end - start;
}

bool
InputController::creditAvailable(const PuState &pu) const
{
    // Bits already committed to this PU (in flight or buffered) plus the
    // next burst must fit its buffer. With bufferBursts == 1 this is the
    // paper's scheme (one burst fetched once the buffer can take it);
    // larger buffers overlap the fetch of burst n+1 with the
    // consumption of burst n.
    uint64_t committed = uint64_t(pu.inflightBursts) * params_.burstBits +
                         pu.buffer.sizeBits();
    uint64_t payload = burstPayloadBits(pu, pu.burstsIssued);
    return committed + payload <= pu.buffer.capacityBits();
}

std::optional<InputController::ParityEvent>
InputController::takeParityEvent()
{
    if (parityEvents_.empty())
        return std::nullopt;
    ParityEvent event = parityEvents_.front();
    parityEvents_.pop_front();
    return event;
}

bool
InputController::puIdle(int pu_index) const
{
    const PuState &pu = pus_[pu_index];
    return pu.burstsIssued == pu.totalBursts && pu.inflightBursts == 0;
}

void
InputController::rearmPu(int pu_index, uint64_t stream_bits)
{
    PuState &pu = pus_[pu_index];
    if (!puIdle(pu_index))
        panic("InputController: rearmPu(", pu_index,
              ") with bursts still in flight");
    pu.region.streamBits = stream_bits;
    pu.totalBursts = ceilDiv(stream_bits, params_.burstBits);
    if (pu.totalBursts * (params_.burstBits / 8) > pu.region.regionBytes)
        panic("InputController: re-armed stream exceeds its region");
    pu.burstsIssued = 0;
    pu.burstsReceived = 0;
    pu.burstsDrained = 0;
    pu.bitsBuffered = 0;
    pu.buffer.clear();
    pu.dead = false;
}

void
InputController::killPu(int pu_index)
{
    PuState &pu = pus_[pu_index];
    pu.dead = true;
    // No further bursts for this stream; in-flight ones are discarded as
    // they complete (drainSlots), freeing their burst registers.
    pu.totalBursts = pu.burstsIssued;
}

void
InputController::drainSlots()
{
    for (auto &slot : slots_) {
        if (!slot.active || slot.beatsReceived != slot.beatsTotal)
            continue;
        PuState &pu = pus_[slot.pu];
        if (slot.seq != pu.burstsDrained)
            continue; // Keep each PU's bursts in stream order.
        if (pu.dead) {
            // Contained failure: discard the burst without touching the
            // buffer, so the register frees even if the buffer is full.
            slot.active = false;
            pu.inflightBursts--;
            pu.burstsDrained++;
            continue;
        }
        uint64_t remaining = slot.payloadBits - slot.drainedBits;
        int chunk = static_cast<int>(
            std::min<uint64_t>(params_.portWidth, remaining));
        if (pu.buffer.freeBits() < uint64_t(chunk))
            continue; // Buffer full: stall this burst register.
        // Read chunk bits starting at drainedBits within the burst.
        uint64_t bit_off = slot.drainedBits;
        uint64_t value = 0;
        for (int got = 0; got < chunk;) {
            uint64_t byte = (bit_off + got) / 8;
            int shift = (bit_off + got) % 8;
            int piece = std::min(chunk - got, 8 - shift);
            value |= uint64_t((slot.data[byte] >> shift) & mask64(piece))
                     << got;
            got += piece;
        }
        pu.buffer.push(value, chunk);
        touched_.push_back(slot.pu);
        slot.drainedBits += chunk;
        pu.bitsBuffered += chunk;
        bitsDelivered_ += chunk;
        if (slot.drainedBits == slot.payloadBits) {
            slot.active = false;
            pu.inflightBursts--;
            pu.burstsDrained++;
        }
    }
}

void
InputController::acceptBeat()
{
    if (!channel_.rValid())
        return;
    if (fillingSlot_ < 0) {
        // First beat of the next burst: allocate a free burst register.
        for (size_t s = 0; s < slots_.size(); ++s) {
            if (!slots_[s].active) {
                fillingSlot_ = static_cast<int>(s);
                break;
            }
        }
        if (fillingSlot_ < 0)
            return; // All burst registers busy: stall the R channel.
        if (orderQueue_.empty())
            panic("InputController: data beat with no outstanding request");
        BurstSlot &slot = slots_[fillingSlot_];
        slot.active = true;
        slot.pu = orderQueue_.front();
        orderQueue_.pop_front();
        slot.beatsReceived = 0;
        slot.beatsTotal = beatsPerBurst_;
        PuState &pu = pus_[slot.pu];
        // Bursts return in AR order per PU (the channel is in-order and
        // the addressing unit issues sequential addresses).
        slot.seq = pu.burstsReceived++;
        slot.payloadBits = burstPayloadBits(pu, slot.seq);
        slot.drainedBits = 0;
    }
    BurstSlot &slot = slots_[fillingSlot_];
    const dram::RBeat &beat = channel_.rPeek();
    const auto &mem = channel_.memory();
    int bus_bytes = channel_.busWidthBytes();
    std::copy(mem.begin() + beat.addr, mem.begin() + beat.addr + bus_bytes,
              slot.data.begin() +
                  static_cast<size_t>(slot.beatsReceived) * bus_bytes);
    // Per-beat parity check: a single-bit error is always detected.
    // Surface it as an event so the shard can contain the owning PU
    // before the burst drains into its buffer (at most one beat arrives
    // per cycle, so the event queue stays shallow).
    if (beat.corrupted && !pus_[slot.pu].dead)
        parityEvents_.push_back(ParityEvent{slot.pu, beat.addr});
    channel_.rPop();
    slot.beatsReceived++;
    if (slot.beatsReceived == slot.beatsTotal)
        fillingSlot_ = -1;
}

void
InputController::issueAddresses()
{
    if (pus_.empty())
        return;
    if (static_cast<int>(orderQueue_.size()) >= params_.maxAheadRequests)
        return;
    if (!params_.asyncAddressSupply) {
        // Synchronous supply: the next address is issued only once the
        // previous burst's data has fully returned (drain into the PU
        // buffer may still overlap).
        if (!orderQueue_.empty())
            return;
    }
    if (!channel_.arReady())
        return;

    // Round-robin walk; one address per cycle.
    int examined = 0;
    int count = static_cast<int>(pus_.size());
    while (examined < count) {
        PuState &pu = pus_[rrPointer_];
        if (pu.burstsIssued == pu.totalBursts) {
            // Finished consuming input: always skipped.
            rrPointer_ = (rrPointer_ + 1) % count;
            ++examined;
            continue;
        }
        if (!creditAvailable(pu)) {
            if (params_.blockingAddressing)
                return; // Wait here until this PU can accept.
            rrPointer_ = (rrPointer_ + 1) % count;
            ++examined;
            continue;
        }
        uint64_t addr = pu.region.baseAddr +
                        pu.burstsIssued * (params_.burstBits / 8);
        channel_.arPush(addr, beatsPerBurst_);
        orderQueue_.push_back(rrPointer_);
        pu.burstsIssued++;
        pu.inflightBursts++;
        ++arIssued_;
        rrPointer_ = (rrPointer_ + 1) % count;
        return;
    }
}

void
InputController::tick()
{
    touched_.clear();
    drainSlots();
    acceptBeat();
    issueAddresses();
}

void
InputController::exportCounters(trace::CounterSet &out) const
{
    out.set("bits_delivered", bitsDelivered_);
    out.set("read_bursts_issued", arIssued_);
    out.set("burst_bits", params_.burstBits);
    out.set("beats_per_burst", beatsPerBurst_);
    out.set("inflight_bursts", inflightBursts());
    uint64_t stream_bits = 0, dead = 0;
    for (const auto &pu : pus_) {
        stream_bits += pu.region.streamBits;
        dead += pu.dead ? 1 : 0;
    }
    out.set("stream_bits_total", stream_bits);
    out.set("pus_contained", dead);
}

} // namespace memctl
} // namespace fleet

#include "dram/dram.h"

#include <algorithm>
#include <cstring>
#include <new>

#include "util/logging.h"

namespace fleet {
namespace dram {

ChannelMemory::ChannelMemory(uint64_t size)
    : bytes_(static_cast<uint8_t *>(std::calloc(size ? size : 1, 1))),
      size_(size)
{
    if (!bytes_)
        throw std::bad_alloc();
}

DramChannel::DramChannel(const DramParams &params, uint64_t mem_bytes,
                         const fault::ChannelFaults *faults)
    : params_(params), faults_(faults), mem_(mem_bytes)
{
    if (params_.busWidthBits % 8 != 0 || params_.busWidthBits <= 0)
        fatal("DramChannel: bus width must be a positive multiple of 8");
}

uint64_t
DramChannel::skipRefresh(uint64_t cycle) const
{
    if (params_.refreshDuration == 0)
        return cycle;
    uint64_t pos = cycle % params_.refreshPeriod;
    if (pos < params_.refreshDuration)
        return cycle + (params_.refreshDuration - pos);
    return cycle;
}

uint64_t
DramChannel::scheduleBus(uint64_t earliest, int beats)
{
    uint64_t start = std::max(busNext_, earliest);
    overheadAcc_ += params_.perRequestOverhead;
    uint64_t extra = static_cast<uint64_t>(overheadAcc_);
    overheadAcc_ -= static_cast<double>(extra);
    start = skipRefresh(start + extra);

    // Walk the beats across any refresh windows to account bus time.
    uint64_t t = start;
    int remaining = beats;
    while (remaining > 0) {
        uint64_t pos = t % params_.refreshPeriod;
        uint64_t until_refresh = params_.refreshPeriod - pos;
        uint64_t chunk = std::min<uint64_t>(remaining, until_refresh);
        t += chunk;
        remaining -= static_cast<int>(chunk);
        if (remaining > 0)
            t = skipRefresh(t);
    }
    busNext_ = t;
    return start;
}

bool
DramChannel::arReady() const
{
    if (faults_ && faults_->busBackpressured(cycle_))
        return false; // Injected backpressure window: accept no AR.
    return readQueue_.size() <
           static_cast<size_t>(params_.maxOutstandingReads);
}

void
DramChannel::arPush(uint64_t addr, int len_beats)
{
    if (!arReady())
        panic("DramChannel: arPush without arReady");
    if (len_beats <= 0)
        panic("DramChannel: empty burst");
    if (addr % busWidthBytes() != 0)
        fatal("DramChannel: read address ", addr, " not beat-aligned");
    if (addr + uint64_t(len_beats) * busWidthBytes() > mem_.size())
        fatal("DramChannel: read burst past end of channel memory");
    uint64_t latency = params_.readLatency;
    if (faults_)
        latency += faults_->extraReadLatency(readRequests_);
    ++readRequests_;
    uint64_t first = scheduleBus(cycle_ + latency, len_beats);
    readQueue_.push_back(PendingRead{addr, len_beats, first});
}

bool
DramChannel::rValid() const
{
    if (readQueue_.empty())
        return false;
    const PendingRead &head = readQueue_.front();
    return cycle_ >= head.firstBeatCycle + headBeatsDelivered_;
}

const RBeat &
DramChannel::rPeek() const
{
    if (!rValid())
        panic("DramChannel: rPeek without rValid");
    const PendingRead &head = readQueue_.front();
    headBeat_.addr = head.addr +
                     uint64_t(headBeatsDelivered_) * busWidthBytes();
    headBeat_.last = headBeatsDelivered_ == head.lenBeats - 1;
    // Corruption is a pure function of the beat's delivery index, so
    // repeated rPeek() calls within a cycle agree.
    headBeat_.corrupted = faults_ && faults_->beatCorrupted(beatsDelivered_);
    headBeatValid_ = true;
    return headBeat_;
}

void
DramChannel::rPop()
{
    if (!rValid())
        panic("DramChannel: rPop without rValid");
    ++beatsDelivered_;
    ++headBeatsDelivered_;
    if (headBeatsDelivered_ == readQueue_.front().lenBeats) {
        readQueue_.pop_front();
        headBeatsDelivered_ = 0;
    }
}

bool
DramChannel::awReady() const
{
    if (faults_ && faults_->busBackpressured(cycle_))
        return false; // Injected backpressure window: accept no AW.
    return writeQueue_.size() <
           static_cast<size_t>(params_.maxOutstandingWrites);
}

void
DramChannel::awPush(uint64_t addr, int len_beats)
{
    if (!awReady())
        panic("DramChannel: awPush without awReady");
    if (addr % busWidthBytes() != 0)
        fatal("DramChannel: write address ", addr, " not beat-aligned");
    if (addr + uint64_t(len_beats) * busWidthBytes() > mem_.size())
        fatal("DramChannel: write burst past end of channel memory");
    ++writeRequests_;
    writeQueue_.push_back(PendingWrite{addr, len_beats, 0});
}

void
DramChannel::exportCounters(trace::CounterSet &out) const
{
    out.set("bus_width_bits", params_.busWidthBits);
    out.set("cycles", cycle_);
    out.set("beats_delivered", beatsDelivered_);
    out.set("beats_written", beatsWritten_);
    out.set("read_bursts_accepted", readRequests_);
    out.set("write_bursts_accepted", writeRequests_);
    out.set("bytes_read", beatsDelivered_ * busWidthBytes());
    out.set("bytes_written", beatsWritten_ * busWidthBytes());
}

bool
DramChannel::wReady() const
{
    // Beats fill bursts in AW order; ready while any burst is incomplete.
    for (const auto &write : writeQueue_)
        if (write.beatsReceived < write.lenBeats)
            return true;
    return false;
}

void
DramChannel::wPush(const uint8_t *beat_data)
{
    for (auto &write : writeQueue_) {
        if (write.beatsReceived < write.lenBeats) {
            uint64_t addr = write.addr +
                            uint64_t(write.beatsReceived) * busWidthBytes();
            std::memcpy(mem_.data() + addr, beat_data, busWidthBytes());
            ++write.beatsReceived;
            ++beatsWritten_;
            if (write.beatsReceived == write.lenBeats) {
                // Burst complete: claim bus time (contends with reads).
                scheduleBus(cycle_, write.lenBeats);
                // Completed bursts at the queue head retire.
                while (!writeQueue_.empty() &&
                       writeQueue_.front().beatsReceived ==
                           writeQueue_.front().lenBeats) {
                    writeQueue_.pop_front();
                }
            }
            return;
        }
    }
    panic("DramChannel: wPush without wReady");
}

void
DramChannel::tick()
{
    ++cycle_;
}

} // namespace dram
} // namespace fleet

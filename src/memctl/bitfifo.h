#ifndef FLEET_MEMCTL_BITFIFO_H
#define FLEET_MEMCTL_BITFIFO_H

/**
 * @file
 * Fixed-capacity bit FIFO modelling a processing unit's BRAM-based input
 * or output buffer (Section 5 of the paper: each PU has buffers with
 * capacity equal to the memory-controller burst size and a data port of
 * width w, 32 bits on the F1). The cycle-level controllers push/pop whole
 * w-bit or token-width chunks; this class only models contents and
 * occupancy — timing is enforced by the callers.
 */

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/aligned.h"
#include "util/bits.h"
#include "util/logging.h"

namespace fleet {
namespace memctl {

class BitFifo
{
  public:
    explicit BitFifo(uint64_t capacity_bits)
        : capacity_(capacity_bits),
          words_(ceilDiv(capacity_bits, 64) + 1, 0)
    {
    }

    uint64_t capacityBits() const { return capacity_; }
    uint64_t sizeBits() const { return size_; }
    uint64_t freeBits() const { return capacity_ - size_; }
    bool empty() const { return size_ == 0; }

    /** Append `width` bits (width <= 64). Caller checks space. */
    void
    push(uint64_t value, int width)
    {
        if (width < 0 || width > 64)
            panic("BitFifo: bad push width ", width);
        if (uint64_t(width) > freeBits())
            panic("BitFifo: overflow (pushing ", width, " bits into ",
                  freeBits(), " free)");
        // Word-by-word chunks never cross the ring end because the ring
        // is a whole number of 64-bit words. Each chunk overwrites its
        // bits, so popped bits never need clearing.
        uint64_t pos = tail_;
        int done = 0;
        while (done < width) {
            int word = pos / 64;
            int shift = pos % 64;
            int chunk = std::min<int>(width - done, 64 - shift);
            const uint64_t mask = mask64(chunk) << shift;
            words_[word] = (words_[word] & ~mask) |
                           ((value >> done) << shift & mask);
            done += chunk;
            pos = advance(pos, chunk);
        }
        tail_ = pos;
        size_ += width;
    }

    /** Remove and return `width` bits (width <= 64). Caller checks size. */
    uint64_t
    pop(int width)
    {
        uint64_t value = peek(width);
        drop(width);
        return value;
    }

    /** Remove `width` bits unread. Caller checks size. */
    void
    drop(int width)
    {
        if (width < 0 || uint64_t(width) > size_)
            panic("BitFifo: underflow (dropping ", width, " bits of ",
                  size_, ")");
        head_ = advance(head_, width);
        size_ -= width;
    }

    /** Read the next `width` bits without removing them. */
    uint64_t
    peek(int width) const
    {
        if (width < 0 || width > 64)
            panic("BitFifo: bad pop width ", width);
        if (uint64_t(width) > size_)
            panic("BitFifo: underflow (popping ", width, " bits of ",
                  size_, ")");
        uint64_t pos = head_;
        uint64_t value = 0;
        int got = 0;
        while (got < width) {
            int word = pos / 64;
            int shift = pos % 64;
            int chunk = std::min<int>(width - got, 64 - shift);
            // Bits until the physical end of the ring.
            uint64_t ring_end = ringBits();
            if (pos + chunk > ring_end)
                chunk = static_cast<int>(ring_end - pos);
            uint64_t piece = (words_[word] >> shift) & mask64(chunk);
            value |= piece << got;
            got += chunk;
            pos = advance(pos, chunk);
        }
        return value;
    }

    void clear() { head_ = tail_ = size_ = 0; }

  private:
    /** Ring size in bits (rounded up to a whole word for simplicity). */
    uint64_t ringBits() const { return (words_.size() - 1) * 64; }

    uint64_t
    advance(uint64_t pos, int bits) const
    {
        pos += bits;
        if (pos >= ringBits())
            pos -= ringBits();
        return pos;
    }

    uint64_t capacity_;
    /** Written by every push and pop: kept on lines of its own. */
    AlignedVec<uint64_t> words_;
    uint64_t head_ = 0;
    uint64_t tail_ = 0;
    uint64_t size_ = 0;
};

} // namespace memctl
} // namespace fleet

#endif // FLEET_MEMCTL_BITFIFO_H

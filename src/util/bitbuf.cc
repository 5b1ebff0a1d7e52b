#include "util/bitbuf.h"

#include <bit>
#include <cstring>

#include "util/bits.h"
#include "util/logging.h"

namespace fleet {

BitBuffer::BitBuffer(uint64_t size_bits)
{
    resizeBits(size_bits);
}

BitBuffer
BitBuffer::fromBytes(const void *data, size_t size_bytes)
{
    BitBuffer buf;
    const uint8_t *bytes = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < size_bytes; ++i)
        buf.appendBits(bytes[i], 8);
    return buf;
}

BitBuffer
BitBuffer::fromString(const std::string &s)
{
    return fromBytes(s.data(), s.size());
}

void
BitBuffer::ensureCapacity(uint64_t size_bits)
{
    uint64_t words = ceilDiv(size_bits, 64);
    if (words > words_.size())
        words_.resize(words, 0);
}

void
BitBuffer::appendBits(uint64_t value, int width)
{
    if (width < 0 || width > 64)
        panic("BitBuffer::appendBits: bad width ", width);
    if (width == 0)
        return;
    value = truncTo(value, width);
    uint64_t offset = sizeBits_;
    ensureCapacity(offset + width);
    sizeBits_ += width;
    int word = offset / 64;
    int shift = offset % 64;
    words_[word] |= value << shift;
    if (shift + width > 64)
        words_[word + 1] |= value >> (64 - shift);
}

void
BitBuffer::appendBuffer(const BitBuffer &other)
{
    uint64_t remaining = other.sizeBits_;
    uint64_t offset = 0;
    while (remaining > 0) {
        int chunk = remaining < 64 ? static_cast<int>(remaining) : 64;
        appendBits(other.readBits(offset, chunk), chunk);
        offset += chunk;
        remaining -= chunk;
    }
}

uint64_t
BitBuffer::readBits(uint64_t bit_offset, int width, bool allow_pad) const
{
    if (width < 0 || width > 64)
        panic("BitBuffer::readBits: bad width ", width);
    if (width == 0)
        return 0;
    if (bit_offset + width > sizeBits_) {
        if (!allow_pad)
            panic("BitBuffer::readBits: read past end (offset ", bit_offset,
                  ", width ", width, ", size ", sizeBits_, ")");
        if (bit_offset >= sizeBits_)
            return 0;
    }
    uint64_t word = bit_offset / 64;
    int shift = bit_offset % 64;
    uint64_t lo = word < words_.size() ? words_[word] >> shift : 0;
    uint64_t hi = 0;
    if (shift != 0 && word + 1 < words_.size())
        hi = words_[word + 1] << (64 - shift);
    uint64_t value = truncTo(lo | hi, width);
    if (bit_offset + width > sizeBits_) {
        // Zero out any bits past the logical end (they may be stale if the
        // buffer was shrunk).
        value = truncTo(value, static_cast<int>(sizeBits_ - bit_offset));
    }
    return value;
}

void
BitBuffer::writeBits(uint64_t bit_offset, uint64_t value, int width)
{
    if (width < 0 || width > 64)
        panic("BitBuffer::writeBits: bad width ", width);
    if (bit_offset + width > sizeBits_)
        panic("BitBuffer::writeBits: write past end (offset ", bit_offset,
              ", width ", width, ", size ", sizeBits_, ")");
    if (width == 0)
        return;
    value = truncTo(value, width);
    uint64_t word = bit_offset / 64;
    int shift = bit_offset % 64;
    words_[word] = (words_[word] & ~(mask64(width) << shift)) |
                   (value << shift);
    if (shift + width > 64) {
        int hi_bits = shift + width - 64;
        words_[word + 1] = (words_[word + 1] & ~mask64(hi_bits)) |
                           (value >> (64 - shift));
    }
}

void
BitBuffer::resizeBits(uint64_t size_bits)
{
    ensureCapacity(size_bits);
    if (size_bits < sizeBits_) {
        // Clear the tail so later reads of re-grown space see zeros.
        uint64_t words = ceilDiv(size_bits, 64);
        words_.resize(words);
        if (size_bits % 64 != 0 && !words_.empty())
            words_.back() &= mask64(size_bits % 64);
    }
    sizeBits_ = size_bits;
}

void
BitBuffer::padToMultipleOf(uint64_t align_bits)
{
    if (align_bits == 0)
        panic("BitBuffer::padToMultipleOf: zero alignment");
    resizeBits(roundUp(sizeBits_, align_bits));
}

std::vector<uint8_t>
BitBuffer::toBytes() const
{
    std::vector<uint8_t> bytes(ceilDiv(sizeBits_, 8));
    copyBytes(bytes.data());
    return bytes;
}

void
BitBuffer::copyBytes(uint8_t *out) const
{
    // Bit i is bit i % 64 of word i / 64, so byte k of a word, from its
    // low end, is byte 8 * (i / 64) + k of the stream: on a
    // little-endian host the whole words are copied as they lie.
    const uint64_t bytes = ceilDiv(sizeBits_, 8);
    const uint64_t whole = sizeBits_ / 64;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(out, words_.data(), whole * 8);
    } else {
        for (uint64_t w = 0; w < whole; ++w)
            for (int k = 0; k < 8; ++k)
                out[w * 8 + k] = static_cast<uint8_t>(words_[w] >> 8 * k);
    }
    if (whole * 8 == bytes)
        return;
    const uint64_t tail =
        readBits(whole * 64, static_cast<int>(sizeBits_ - whole * 64));
    for (uint64_t k = 0; whole * 8 + k < bytes; ++k)
        out[whole * 8 + k] = static_cast<uint8_t>(tail >> 8 * k);
}

std::string
BitBuffer::toString() const
{
    auto bytes = toBytes();
    return std::string(bytes.begin(), bytes.end());
}

bool
BitBuffer::operator==(const BitBuffer &other) const
{
    if (sizeBits_ != other.sizeBits_)
        return false;
    uint64_t offset = 0;
    uint64_t remaining = sizeBits_;
    while (remaining > 0) {
        int chunk = remaining < 64 ? static_cast<int>(remaining) : 64;
        if (readBits(offset, chunk) != other.readBits(offset, chunk))
            return false;
        offset += chunk;
        remaining -= chunk;
    }
    return true;
}

} // namespace fleet

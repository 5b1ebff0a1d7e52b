#ifndef FLEET_UTIL_BITBUF_H
#define FLEET_UTIL_BITBUF_H

/**
 * @file
 * A growable, bit-addressed buffer. Fleet streams are bit streams: input
 * buffers hold tokens of arbitrary width packed back to back, the memory
 * controllers move w-bit chunks, and the AXI model moves 512-bit beats.
 * BitBuffer is the single representation used across those layers.
 *
 * Bit order is little-endian within the underlying 64-bit words: bit i of
 * the stream is bit (i % 64) of word (i / 64). A token appended with
 * appendBits() is later read back by readBits() at the same offset.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace fleet {

class BitBuffer
{
  public:
    BitBuffer() = default;

    /** Create a zero-filled buffer of the given bit length. */
    explicit BitBuffer(uint64_t size_bits);

    /** Wrap a byte string: byte i occupies bits [8i, 8i+8). */
    static BitBuffer fromBytes(const void *data, size_t size_bytes);
    static BitBuffer fromString(const std::string &s);

    /** Number of valid bits in the buffer. */
    uint64_t sizeBits() const { return sizeBits_; }

    /** True if the buffer holds no bits. */
    bool empty() const { return sizeBits_ == 0; }

    /** Append the low `width` bits of `value` (0 <= width <= 64). */
    void appendBits(uint64_t value, int width);

    /** Append all bits of another buffer. */
    void appendBuffer(const BitBuffer &other);

    /**
     * Read `width` bits starting at `bit_offset`. Reading past the end is
     * an error except that up to `width` bits of zero padding are allowed
     * when `allow_pad` is set (used by the memory controller, which moves
     * data in fixed-size chunks past the logical end of a stream).
     */
    uint64_t readBits(uint64_t bit_offset, int width, bool allow_pad = false)
        const;

    /** Overwrite `width` bits at `bit_offset` (must be within size). */
    void writeBits(uint64_t bit_offset, uint64_t value, int width);

    /** Grow (zero-filled) or shrink to the given bit length. */
    void resizeBits(uint64_t size_bits);

    /** Pad with zero bits up to the next multiple of `align_bits`. */
    void padToMultipleOf(uint64_t align_bits);

    /** Copy out to a byte vector (final partial byte zero-padded). */
    std::vector<uint8_t> toBytes() const;

    /** Write the bytes toBytes() returns to `out`, a whole word at a
     * time. */
    void copyBytes(uint8_t *out) const;

    /** Interpret the whole buffer as a string of 8-bit characters. */
    std::string toString() const;

    bool operator==(const BitBuffer &other) const;

  private:
    std::vector<uint64_t> words_;
    uint64_t sizeBits_ = 0;

    void ensureCapacity(uint64_t size_bits);
};

} // namespace fleet

#endif // FLEET_UTIL_BITBUF_H

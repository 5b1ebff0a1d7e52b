#include <gtest/gtest.h>

#include <algorithm>

#include "util/bitbuf.h"
#include "util/bits.h"
#include "util/logging.h"
#include "util/rng.h"

namespace fleet {
namespace {

TEST(BitBuffer, Empty)
{
    BitBuffer buf;
    EXPECT_TRUE(buf.empty());
    EXPECT_EQ(buf.sizeBits(), 0u);
}

TEST(BitBuffer, AppendAndReadAligned)
{
    BitBuffer buf;
    buf.appendBits(0xab, 8);
    buf.appendBits(0xcd, 8);
    EXPECT_EQ(buf.sizeBits(), 16u);
    EXPECT_EQ(buf.readBits(0, 8), 0xabu);
    EXPECT_EQ(buf.readBits(8, 8), 0xcdu);
    EXPECT_EQ(buf.readBits(0, 16), 0xcdabu);
}

TEST(BitBuffer, AppendUnaligned)
{
    BitBuffer buf;
    buf.appendBits(0b101, 3);
    buf.appendBits(0b11, 2);
    buf.appendBits(0x7f, 7);
    EXPECT_EQ(buf.sizeBits(), 12u);
    EXPECT_EQ(buf.readBits(0, 3), 0b101u);
    EXPECT_EQ(buf.readBits(3, 2), 0b11u);
    EXPECT_EQ(buf.readBits(5, 7), 0x7fu);
}

TEST(BitBuffer, CrossesWordBoundary)
{
    BitBuffer buf;
    buf.appendBits(0, 60);
    buf.appendBits(0xff, 8);
    EXPECT_EQ(buf.readBits(60, 8), 0xffu);
    EXPECT_EQ(buf.readBits(56, 12), 0xff0u);
}

TEST(BitBuffer, Full64BitValues)
{
    BitBuffer buf;
    buf.appendBits(~uint64_t(0), 64);
    buf.appendBits(0x123456789abcdef0ULL, 64);
    EXPECT_EQ(buf.readBits(0, 64), ~uint64_t(0));
    EXPECT_EQ(buf.readBits(64, 64), 0x123456789abcdef0ULL);
    // Unaligned 64-bit read across the two words.
    EXPECT_EQ(buf.readBits(32, 64), 0x9abcdef0ffffffffULL);
}

TEST(BitBuffer, AppendMasksValue)
{
    BitBuffer buf;
    buf.appendBits(0xffff, 4);
    EXPECT_EQ(buf.readBits(0, 4), 0xfu);
    EXPECT_EQ(buf.sizeBits(), 4u);
}

TEST(BitBuffer, WriteBits)
{
    BitBuffer buf(32);
    buf.writeBits(4, 0xab, 8);
    EXPECT_EQ(buf.readBits(4, 8), 0xabu);
    EXPECT_EQ(buf.readBits(0, 4), 0u);
    buf.writeBits(4, 0x5, 4);
    EXPECT_EQ(buf.readBits(4, 8), 0xa5u);
}

TEST(BitBuffer, WriteBitsAcrossWords)
{
    BitBuffer buf(128);
    buf.writeBits(60, 0xdeadbeefcafef00dULL, 64);
    EXPECT_EQ(buf.readBits(60, 64), 0xdeadbeefcafef00dULL);
    EXPECT_EQ(buf.readBits(0, 60), 0u);
    EXPECT_EQ(buf.readBits(120, 4), 0xdu);
    EXPECT_EQ(buf.readBits(124, 4), 0u);
}

TEST(BitBuffer, ReadPastEndThrows)
{
    BitBuffer buf;
    buf.appendBits(0xff, 8);
    EXPECT_THROW(buf.readBits(4, 8), PanicError);
    EXPECT_EQ(buf.readBits(4, 8, /*allow_pad=*/true), 0xfu);
    EXPECT_EQ(buf.readBits(100, 8, /*allow_pad=*/true), 0u);
}

TEST(BitBuffer, FromBytesAndToString)
{
    BitBuffer buf = BitBuffer::fromString("hi!");
    EXPECT_EQ(buf.sizeBits(), 24u);
    EXPECT_EQ(buf.readBits(0, 8), uint64_t('h'));
    EXPECT_EQ(buf.readBits(8, 8), uint64_t('i'));
    EXPECT_EQ(buf.toString(), "hi!");
}

TEST(BitBuffer, ToBytesPartial)
{
    BitBuffer buf;
    buf.appendBits(0b1011, 4);
    auto bytes = buf.toBytes();
    ASSERT_EQ(bytes.size(), 1u);
    EXPECT_EQ(bytes[0], 0b1011);
}

TEST(BitBuffer, CopyBytesMatchesBitReads)
{
    // Whole words, a partial tail word, a partial last byte, and a
    // shrunk buffer whose dropped bits must not leak into the copy; the
    // byte past the end is never written.
    for (uint64_t bits : {0, 7, 64, 130, 1000, 1001}) {
        BitBuffer buf;
        uint64_t x = 0x9e3779b97f4a7c15ull;
        for (uint64_t i = 0; i < bits + 13; i += 13) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            buf.appendBits(x >> 51, 13);
        }
        buf.resizeBits(bits);
        const uint64_t size = (bits + 7) / 8;
        std::vector<uint8_t> out(size + 1, 0xee);
        buf.copyBytes(out.data());
        for (uint64_t i = 0; i < size; ++i) {
            const int width = int(std::min<uint64_t>(8, bits - 8 * i));
            EXPECT_EQ(out[i], buf.readBits(8 * i, width))
                << bits << " bits, byte " << i;
        }
        EXPECT_EQ(out[size], 0xee) << bits << " bits";
    }
}

TEST(BitBuffer, FromBytesCopyBytesRoundTrip)
{
    // fromBytes and copyBytes are inverses: bytes in, the same bytes
    // out, with a buffer cut to `bits` keeping only its own bits of
    // the last byte (the readOutput pattern).
    for (uint64_t bits : {0, 1, 7, 63, 64, 65, 1000}) {
        const uint64_t size = (bits + 7) / 8;
        std::vector<uint8_t> bytes(size);
        uint64_t x = 0x2545f4914f6cdd1dull ^ bits;
        for (uint8_t &byte : bytes) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            byte = static_cast<uint8_t>(x >> 56);
        }
        BitBuffer buf = BitBuffer::fromBytes(bytes.data(), size);
        ASSERT_EQ(buf.sizeBits(), size * 8) << bits << " bits";
        for (uint64_t i = 0; i < size; ++i)
            EXPECT_EQ(buf.readBits(8 * i, 8), bytes[i])
                << bits << " bits, byte " << i;
        buf.resizeBits(bits);
        if (bits % 8 != 0)
            bytes.back() &= static_cast<uint8_t>((1u << bits % 8) - 1);
        std::vector<uint8_t> out(size + 1, 0xee);
        buf.copyBytes(out.data());
        for (uint64_t i = 0; i < size; ++i)
            EXPECT_EQ(out[i], bytes[i]) << bits << " bits, byte " << i;
        EXPECT_EQ(out[size], 0xee) << bits << " bits";
        BitBuffer again = BitBuffer::fromBytes(out.data(), size);
        again.resizeBits(bits);
        EXPECT_TRUE(again == buf) << bits << " bits";
    }
}

TEST(BitBuffer, ResizeShrinkClearsTail)
{
    BitBuffer buf;
    buf.appendBits(0xff, 8);
    buf.resizeBits(4);
    buf.resizeBits(8);
    EXPECT_EQ(buf.readBits(0, 8), 0x0fu);
}

TEST(BitBuffer, PadToMultipleOf)
{
    BitBuffer buf;
    buf.appendBits(0x3, 2);
    buf.padToMultipleOf(8);
    EXPECT_EQ(buf.sizeBits(), 8u);
    buf.padToMultipleOf(8);
    EXPECT_EQ(buf.sizeBits(), 8u);
    buf.padToMultipleOf(1024);
    EXPECT_EQ(buf.sizeBits(), 1024u);
}

TEST(BitBuffer, AppendBuffer)
{
    BitBuffer a;
    a.appendBits(0b101, 3);
    BitBuffer b;
    b.appendBits(0xabcd, 16);
    a.appendBuffer(b);
    EXPECT_EQ(a.sizeBits(), 19u);
    EXPECT_EQ(a.readBits(3, 16), 0xabcdu);
}

TEST(BitBuffer, Equality)
{
    BitBuffer a, b;
    a.appendBits(0x12345, 20);
    b.appendBits(0x12345, 20);
    EXPECT_TRUE(a == b);
    b.appendBits(0, 1);
    EXPECT_FALSE(a == b);
}

TEST(BitBuffer, RandomizedRoundTrip)
{
    Rng rng(42);
    for (int trial = 0; trial < 20; ++trial) {
        BitBuffer buf;
        std::vector<std::pair<uint64_t, int>> pieces;
        for (int i = 0; i < 200; ++i) {
            int width = static_cast<int>(rng.nextInRange(1, 64));
            uint64_t value = rng.next() & mask64(width);
            pieces.emplace_back(value, width);
            buf.appendBits(value, width);
        }
        uint64_t offset = 0;
        for (const auto &[value, width] : pieces) {
            EXPECT_EQ(buf.readBits(offset, width), value);
            offset += width;
        }
        EXPECT_EQ(buf.sizeBits(), offset);
    }
}

TEST(BitBuffer, RandomizedWriteRead)
{
    Rng rng(7);
    BitBuffer buf(4096);
    std::vector<uint64_t> shadow(4096, 0);
    for (int i = 0; i < 1000; ++i) {
        int width = static_cast<int>(rng.nextInRange(1, 64));
        uint64_t offset = rng.nextBelow(4096 - width);
        uint64_t value = rng.next() & mask64(width);
        buf.writeBits(offset, value, width);
        for (int b = 0; b < width; ++b)
            shadow[offset + b] = (value >> b) & 1;
    }
    for (uint64_t b = 0; b < 4096; ++b)
        ASSERT_EQ(buf.readBits(b, 1), shadow[b]) << "bit " << b;
}

} // namespace
} // namespace fleet

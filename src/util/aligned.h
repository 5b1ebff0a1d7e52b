#ifndef FLEET_UTIL_ALIGNED_H
#define FLEET_UTIL_ALIGNED_H

/**
 * @file
 * Cache-line ownership for state that host threads write concurrently.
 * The full-system simulator steps each memory channel's shard on its
 * own thread; a line written by two shards ping-pongs between cores
 * (false sharing) even though no datum is shared. Objects and arrays a
 * shard writes every cycle are therefore aligned to, and padded out to,
 * whole kCacheLineBytes blocks, so no two shards ever write one line.
 */

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace fleet {

/**
 * The false-sharing granule: two 64-byte lines, because x86 cores
 * prefetch adjacent lines in pairs. Also a multiple of the widest SIMD
 * load the native jit kernel issues on a slot row (rtl/jit.h).
 */
inline constexpr std::size_t kCacheLineBytes = 128;

/**
 * Allocator whose blocks start on a kCacheLineBytes boundary and span a
 * whole number of such blocks, so the storage shares no line with any
 * other allocation. It over-allocates by one block and aligns by hand:
 * the aligned operator new goes through memalign, which costs several
 * plain allocations in a heap that has seen churn, and a system's
 * construction makes hundreds of these arrays. The byte before the
 * aligned block holds its distance from the raw one.
 */
template <typename T>
struct CacheAlignedAlloc
{
    using value_type = T;
    CacheAlignedAlloc() = default;
    template <typename U>
    CacheAlignedAlloc(const CacheAlignedAlloc<U> &) noexcept
    {
    }
    static std::size_t paddedBytes(std::size_t n)
    {
        return (n * sizeof(T) + kCacheLineBytes - 1) / kCacheLineBytes *
               kCacheLineBytes;
    }
    T *allocate(std::size_t n)
    {
        auto *raw = static_cast<unsigned char *>(
            ::operator new(paddedBytes(n) + kCacheLineBytes));
        const std::size_t offset =
            kCacheLineBytes -
            reinterpret_cast<std::uintptr_t>(raw) % kCacheLineBytes;
        unsigned char *block = raw + offset;
        block[-1] = static_cast<unsigned char>(offset - 1);
        return reinterpret_cast<T *>(block);
    }
    void deallocate(T *p, std::size_t) noexcept
    {
        auto *block = reinterpret_cast<unsigned char *>(p);
        ::operator delete(block - block[-1] - 1);
    }
    template <typename U>
    bool operator==(const CacheAlignedAlloc<U> &) const noexcept
    {
        return true;
    }
};

template <typename T>
using AlignedVec = std::vector<T, CacheAlignedAlloc<T>>;

} // namespace fleet

#endif // FLEET_UTIL_ALIGNED_H

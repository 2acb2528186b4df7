/**
 * @file
 * Set-associative writeback last-level cache.
 *
 * One instance per core: the paper's shared L2 must itself be
 * partitioned for the end-to-end system to be leak-free (cache side
 * channels are out of scope and assumed handled, Section 2.2), so we
 * model the per-core partition directly: 4 MB / 8 cores = 512 KB,
 * 8-way, LRU, write-allocate, writeback.
 */

#ifndef MEMSEC_CACHE_CACHE_HH
#define MEMSEC_CACHE_CACHE_HH

#include <cstdint>
#include <new>
#include <vector>

#include "sim/types.hh"
#include "stats/stats.hh"

namespace memsec::cache {

/** Result of a cache access. */
struct AccessResult
{
    bool hit = false;
    bool prefetchHit = false; ///< first demand touch of a prefetched line
};

/** Result of a line fill. */
struct FillResult
{
    bool evictedDirty = false;
    Addr writebackAddr = 0;
};

/** Simple blocking-free LRU cache model. */
class Cache
{
  public:
    /**
     * @param sizeBytes total capacity
     * @param ways associativity
     */
    Cache(uint64_t sizeBytes, unsigned ways);

    /**
     * Look up (and touch) a line. On a store hit the line is marked
     * dirty. Misses do NOT allocate; the owner fetches the line and
     * calls fill() when data returns.
     */
    AccessResult access(Addr addr, bool isStore);

    /** True if the line is present (no LRU update). */
    bool contains(Addr addr) const;

    /** Install a line; returns any dirty victim to write back.
     *  `prefetched` marks the line for usefulness accounting. */
    FillResult fill(Addr addr, bool dirty, bool prefetched = false);

    /** Mark a resident line dirty (store completing after fill). */
    void markDirty(Addr addr);

    /**
     * Functional-warmup step: access(addr, isStore) then, on a miss,
     * fill(addr, isStore) with its writeback discarded, in one lookup
     * that compares every way without branching.
     */
    void warm(Addr addr, bool isStore);

    unsigned numSets() const { return static_cast<unsigned>(numSets_); }
    unsigned ways() const { return ways_; }

    const Counter &hits() const { return hits_; }
    const Counter &misses() const { return misses_; }

    /** Checkpoint layout (util/serialize.hh). */
    template <class Self, class Ar>
    static void transfer(Self &self, Ar &a);

  private:
    /** Tag of a way that holds no line (real tags are far smaller). */
    static constexpr Addr kInvalidTag = ~Addr{0};
    /** find() result for a line that is not present. */
    static constexpr size_t kMiss = ~size_t{0};
    /** Per-way flag bits. */
    static constexpr uint8_t kDirty = 1;
    static constexpr uint8_t kPrefetched = 2;

    /** std::allocator that starts each array on a 64 B line, so an
     *  8-way set's tags, and its stamps, are one line each. */
    template <class T>
    struct LineAligned
    {
        using value_type = T;
        static constexpr std::align_val_t kAlign{64};
        LineAligned() = default;
        template <class U>
        LineAligned(const LineAligned<U> &)
        {
        }
        T *
        allocate(size_t n)
        {
            return static_cast<T *>(::operator new(n * sizeof(T), kAlign));
        }
        void deallocate(T *p, size_t) { ::operator delete(p, kAlign); }
        bool operator==(const LineAligned &) const = default;
    };

    /** Index of the line holding `addr`, or kMiss. */
    size_t find(Addr addr) const;
    /** LRU and flag update of a hit on line `i`; the prefetch-hit bit. */
    bool touch(size_t i, bool isStore);
    /** Install `tag` over the LRU way of the set at `base`. */
    FillResult install(size_t base, Addr tag, bool dirty, bool prefetched);
    /** Index of the first way of `addr`'s set. */
    size_t setBase(Addr addr) const;
    Addr tagOf(Addr addr) const;

    unsigned ways_ = 0;
    uint64_t numSets_ = 0;  ///< a power of two
    unsigned setShift_ = 0; ///< log2(numSets_)
    // Per way, set-major (set s holds [s * ways_, (s + 1) * ways_)).
    // Tags, LRU stamps and flag bytes are three arrays, so a lookup
    // reads one set's tags and an LRU update or victim search one
    // set's stamps, each contiguously.
    std::vector<Addr, LineAligned<Addr>> tags_;
    std::vector<uint64_t, LineAligned<uint64_t>> stamps_;
    std::vector<uint8_t> flags_; ///< kDirty | kPrefetched
    uint64_t stamp_ = 0;
    Counter hits_;
    Counter misses_;
};

} // namespace memsec::cache

#endif // MEMSEC_CACHE_CACHE_HH

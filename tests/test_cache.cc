#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cache/cache.hh"
#include "util/random.hh"
#include "util/serialize.hh"

using namespace memsec;
using namespace memsec::cache;

TEST(Cache, MissThenFillThenHit)
{
    Cache c(64 * 1024, 8);
    EXPECT_FALSE(c.access(0x1000, false).hit);
    c.fill(0x1000, false);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_EQ(c.hits().value(), 1u);
    EXPECT_EQ(c.misses().value(), 1u);
}

TEST(Cache, GeometryDerived)
{
    Cache c(64 * 1024, 8);
    EXPECT_EQ(c.numSets(), 128u); // 1024 lines / 8 ways
    EXPECT_EQ(c.ways(), 8u);
}

TEST(Cache, LruEvictsOldest)
{
    Cache c(8 * kLineBytes, 8); // one set, 8 ways
    for (Addr i = 0; i < 8; ++i)
        c.fill(i * kLineBytes, false);
    // Touch line 0 so line 1 is LRU.
    c.access(0, false);
    const FillResult fr = c.fill(8 * kLineBytes, false);
    EXPECT_FALSE(fr.evictedDirty);
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(1 * kLineBytes));
}

TEST(Cache, DirtyEvictionYieldsWritebackAddress)
{
    Cache c(8 * kLineBytes, 8);
    for (Addr i = 0; i < 8; ++i)
        c.fill(i * kLineBytes, false);
    c.access(2 * kLineBytes, true); // dirty line 2
    // Evict down to line 2 (touch everything else first).
    for (Addr i = 0; i < 8; ++i) {
        if (i != 2)
            c.access(i * kLineBytes, false);
    }
    const FillResult fr = c.fill(100 * kLineBytes, false);
    EXPECT_TRUE(fr.evictedDirty);
    EXPECT_EQ(fr.writebackAddr, 2 * kLineBytes);
}

TEST(Cache, StoreMarksDirty)
{
    Cache c(8 * kLineBytes, 8);
    c.fill(0, false);
    c.access(0, true);
    for (Addr i = 1; i < 8; ++i)
        c.fill(i * kLineBytes, false);
    const FillResult fr = c.fill(9 * kLineBytes, false);
    EXPECT_TRUE(fr.evictedDirty);
    EXPECT_EQ(fr.writebackAddr, 0u);
}

TEST(Cache, FillDirtyFlag)
{
    Cache c(8 * kLineBytes, 8);
    c.fill(0, true);
    for (Addr i = 1; i < 8; ++i)
        c.fill(i * kLineBytes, false);
    EXPECT_TRUE(c.fill(9 * kLineBytes, false).evictedDirty);
}

TEST(Cache, DoubleFillMergesDirty)
{
    Cache c(8 * kLineBytes, 8);
    c.fill(0, false);
    const FillResult fr = c.fill(0, true); // already present
    EXPECT_FALSE(fr.evictedDirty);
    for (Addr i = 1; i < 8; ++i)
        c.fill(i * kLineBytes, false);
    EXPECT_TRUE(c.fill(9 * kLineBytes, false).evictedDirty);
}

TEST(Cache, PrefetchedFlagConsumedOnFirstHit)
{
    Cache c(8 * kLineBytes, 8);
    c.fill(0, false, true);
    const AccessResult first = c.access(0, false);
    EXPECT_TRUE(first.hit);
    EXPECT_TRUE(first.prefetchHit);
    const AccessResult second = c.access(0, false);
    EXPECT_TRUE(second.hit);
    EXPECT_FALSE(second.prefetchHit);
}

TEST(Cache, MarkDirtyOnResidentLine)
{
    Cache c(8 * kLineBytes, 8);
    c.fill(0, false);
    c.markDirty(0);
    for (Addr i = 1; i < 8; ++i)
        c.fill(i * kLineBytes, false);
    EXPECT_TRUE(c.fill(9 * kLineBytes, false).evictedDirty);
}

TEST(Cache, SetIndexingSeparatesSets)
{
    Cache c(64 * 1024, 8); // 128 sets
    // Same tag bits, different sets: both resident.
    c.fill(0, false);
    c.fill(kLineBytes, false);
    EXPECT_TRUE(c.contains(0));
    EXPECT_TRUE(c.contains(kLineBytes));
}

TEST(Cache, InvalidGeometryFatal)
{
    EXPECT_EXIT(Cache(100, 8), ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(Cache(64 * 1024, 0), ::testing::ExitedWithCode(1), "");
}

namespace {

/**
 * Reference LRU model: the per-way record layout (tag apart, then
 * dirty, prefetched and LRU stamp together) with a first-match scan,
 * and the checkpoint bytes Cache::transfer writes. Cache must agree
 * with it on every result and every byte.
 */
class ReferenceLru
{
  public:
    ReferenceLru(uint64_t sizeBytes, unsigned ways)
        : ways_(ways), numSets_(sizeBytes / kLineBytes / ways),
          tags_(sizeBytes / kLineBytes, kInvalid),
          meta_(sizeBytes / kLineBytes)
    {
        while ((uint64_t{1} << setShift_) < numSets_)
            ++setShift_;
    }

    AccessResult
    access(Addr addr, bool isStore)
    {
        AccessResult res;
        const size_t i = find(addr);
        if (i == kMiss) {
            ++misses_;
            return res;
        }
        Meta &line = meta_[i];
        line.stamp = ++stamp_;
        if (isStore)
            line.dirty = true;
        if (line.prefetched) {
            res.prefetchHit = true;
            line.prefetched = false;
        }
        ++hits_;
        res.hit = true;
        return res;
    }

    bool contains(Addr addr) const { return find(addr) != kMiss; }

    FillResult
    fill(Addr addr, bool dirty, bool prefetched)
    {
        FillResult res;
        if (const size_t i = find(addr); i != kMiss) {
            meta_[i].dirty = meta_[i].dirty || dirty;
            return res;
        }
        const size_t base = setBase(addr);
        size_t victim = base;
        for (size_t i = base; i < base + ways_; ++i) {
            if (tags_[i] == kInvalid) {
                victim = i;
                break;
            }
            if (meta_[i].stamp < meta_[victim].stamp)
                victim = i;
        }
        if (tags_[victim] != kInvalid && meta_[victim].dirty) {
            res.evictedDirty = true;
            res.writebackAddr =
                (tags_[victim] * numSets_ + base / ways_) * kLineBytes;
        }
        tags_[victim] = tagOf(addr);
        meta_[victim] = Meta{dirty, prefetched, ++stamp_};
        return res;
    }

    void
    markDirty(Addr addr)
    {
        if (const size_t i = find(addr); i != kMiss)
            meta_[i].dirty = true;
    }

    std::string
    bytes() const
    {
        Serializer s;
        s.section("cache");
        s.count(numSets_, "");
        for (size_t i = 0; i < tags_.size(); ++i) {
            const bool valid = tags_[i] != kInvalid;
            s.u64(valid ? tags_[i] : 0);
            s.flag(valid);
            s.flag(meta_[i].dirty);
            s.flag(meta_[i].prefetched);
            s.u64(meta_[i].stamp);
        }
        s.u64(stamp_);
        s.u64(hits_);
        s.u64(misses_);
        return s.take();
    }

  private:
    static constexpr Addr kInvalid = ~Addr{0};
    static constexpr size_t kMiss = ~size_t{0};

    struct Meta
    {
        bool dirty = false;
        bool prefetched = false;
        uint64_t stamp = 0;
    };

    size_t
    setBase(Addr addr) const
    {
        return static_cast<size_t>((addr / kLineBytes) & (numSets_ - 1)) *
               ways_;
    }

    Addr tagOf(Addr addr) const { return (addr / kLineBytes) >> setShift_; }

    size_t
    find(Addr addr) const
    {
        const size_t base = setBase(addr);
        for (size_t i = base; i < base + ways_; ++i) {
            if (tags_[i] == tagOf(addr))
                return i;
        }
        return kMiss;
    }

    unsigned ways_;
    uint64_t numSets_;
    unsigned setShift_ = 0;
    std::vector<Addr> tags_;
    std::vector<Meta> meta_;
    uint64_t stamp_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

std::string
bytesOf(const Cache &c)
{
    Serializer s;
    Cache::transfer(c, s);
    return s.take();
}

} // namespace

TEST(Cache, MatchesReferenceLru)
{
    // 16 sets x 8 ways (one set's stamps fill a 64 B line) and
    // 8 sets x 3 ways (associativity not a power of two). Every
    // operation, warm() included, must match the reference's results
    // and leave the same checkpoint bytes.
    struct Geometry
    {
        uint64_t bytes;
        unsigned ways;
    };
    for (const Geometry g : {Geometry{16 * 8 * kLineBytes, 8},
                             Geometry{8 * 3 * kLineBytes, 3}}) {
        for (uint64_t seed = 1; seed <= 8; ++seed) {
            SCOPED_TRACE(testing::Message()
                         << g.ways << "-way seed " << seed);
            Cache c(g.bytes, g.ways);
            ReferenceLru ref(g.bytes, g.ways);
            Rng rng(seed);
            // Twice the capacity in distinct lines, so sets overflow
            // and evict; byte offsets within a line vary, and some
            // addresses carry high tag bits.
            const uint64_t lines = 2 * g.bytes / kLineBytes;
            for (int op = 0; op < 3000; ++op) {
                Addr addr = rng.below(lines) * kLineBytes +
                            rng.below(kLineBytes);
                if (rng.chance(0.1))
                    addr += Addr{1} << 40;
                switch (rng.below(5)) {
                case 0: {
                    const bool store = rng.chance(0.3);
                    const AccessResult a = c.access(addr, store);
                    const AccessResult b = ref.access(addr, store);
                    ASSERT_EQ(a.hit, b.hit) << "op " << op;
                    ASSERT_EQ(a.prefetchHit, b.prefetchHit) << "op " << op;
                    break;
                }
                case 1: {
                    const bool dirty = rng.chance(0.3);
                    const bool prefetched = rng.chance(0.3);
                    const FillResult a = c.fill(addr, dirty, prefetched);
                    const FillResult b = ref.fill(addr, dirty, prefetched);
                    ASSERT_EQ(a.evictedDirty, b.evictedDirty) << "op " << op;
                    ASSERT_EQ(a.writebackAddr, b.writebackAddr)
                        << "op " << op;
                    break;
                }
                case 2:
                    c.markDirty(addr);
                    ref.markDirty(addr);
                    break;
                case 3: {
                    // The functional warmup's access-then-fill.
                    const bool store = rng.chance(0.3);
                    c.warm(addr, store);
                    if (!ref.access(addr, store).hit)
                        ref.fill(addr, store, false);
                    break;
                }
                default:
                    ASSERT_EQ(c.contains(addr), ref.contains(addr))
                        << "op " << op;
                }
                ASSERT_EQ(bytesOf(c), ref.bytes()) << "op " << op;
            }
        }
    }
}

#include "cache/cache.hh"

#include "util/bitops.hh"
#include "util/logging.hh"
#include "util/serialize.hh"

namespace memsec::cache {

Cache::Cache(uint64_t sizeBytes, unsigned ways) : ways_(ways)
{
    fatal_if(ways == 0, "cache needs at least one way");
    const uint64_t lines = sizeBytes / kLineBytes;
    fatal_if(lines < ways || lines % ways != 0,
             "cache size {} not divisible into {} ways", sizeBytes, ways);
    const uint64_t nsets = lines / ways;
    fatal_if(!isPowerOf2(nsets), "cache set count must be a power of two");
    numSets_ = nsets;
    setShift_ = floorLog2(nsets);
    tags_.assign(lines, kInvalidTag);
    stamps_.assign(lines, 0);
    flags_.assign(lines, 0);
}

size_t
Cache::setBase(Addr addr) const
{
    return static_cast<size_t>((addr / kLineBytes) & (numSets_ - 1)) *
           ways_;
}

Addr
Cache::tagOf(Addr addr) const
{
    return (addr / kLineBytes) >> setShift_;
}

size_t
Cache::find(Addr addr) const
{
    // An early exit, unlike warm(): the timed path mostly re-probes
    // one line (a blocked record's miss on every wake query, an
    // open-loop filler's hit in the same way), where the exit is
    // predicted and a full scan measured slower (docs/PERF.md,
    // "Functional warmup").
    const size_t base = setBase(addr);
    const Addr tag = tagOf(addr);
    for (size_t i = base; i < base + ways_; ++i) {
        if (tags_[i] == tag)
            return i;
    }
    return kMiss;
}

bool
Cache::touch(size_t i, bool isStore)
{
    stamps_[i] = ++stamp_;
    uint8_t &flags = flags_[i];
    const bool prefetchHit = flags & kPrefetched;
    flags = static_cast<uint8_t>((flags & ~kPrefetched) |
                                 (isStore ? kDirty : 0));
    hits_.inc();
    return prefetchHit;
}

AccessResult
Cache::access(Addr addr, bool isStore)
{
    AccessResult res;
    const size_t i = find(addr);
    if (i == kMiss) {
        misses_.inc();
        return res;
    }
    res.hit = true;
    res.prefetchHit = touch(i, isStore);
    return res;
}

bool
Cache::contains(Addr addr) const
{
    return find(addr) != kMiss;
}

FillResult
Cache::fill(Addr addr, bool dirty, bool prefetched)
{
    if (const size_t i = find(addr); i != kMiss) {
        // Already present (e.g. prefetch raced a demand fill).
        if (dirty)
            flags_[i] |= kDirty;
        return {};
    }
    return install(setBase(addr), tagOf(addr), dirty, prefetched);
}

FillResult
Cache::install(size_t base, Addr tag, bool dirty, bool prefetched)
{
    FillResult res;
    size_t victim = base;
    for (size_t i = base; i < base + ways_; ++i) {
        if (tags_[i] == kInvalidTag) {
            victim = i;
            break;
        }
        if (stamps_[i] < stamps_[victim])
            victim = i;
    }
    if (tags_[victim] != kInvalidTag && (flags_[victim] & kDirty)) {
        res.evictedDirty = true;
        res.writebackAddr =
            (tags_[victim] * numSets_ + base / ways_) * kLineBytes;
    }
    tags_[victim] = tag;
    stamps_[victim] = ++stamp_;
    flags_[victim] = static_cast<uint8_t>((dirty ? kDirty : 0) |
                                          (prefetched ? kPrefetched : 0));
    return res;
}

void
Cache::warm(Addr addr, bool isStore)
{
    // find() without its early exit: warmup hits land in any way, so
    // the exit mispredicts, and comparing every way measured a third
    // cheaper (docs/PERF.md, "Functional warmup"). Scanning down keeps
    // the lowest matching way, the one find() returns.
    const size_t base = setBase(addr);
    const Addr tag = tagOf(addr);
    size_t hit = kMiss;
    for (size_t i = base + ways_; i-- > base;)
        hit = tags_[i] == tag ? i : hit;
    if (hit != kMiss) {
        touch(hit, isStore);
        return;
    }
    misses_.inc();
    install(base, tag, isStore, false);
}

void
Cache::markDirty(Addr addr)
{
    if (const size_t i = find(addr); i != kMiss)
        flags_[i] |= kDirty;
}

template <class Self, class Ar>
void
Cache::transfer(Self &self, Ar &a)
{
    // Per line: tag, valid, dirty, prefetched, LRU stamp. A way that
    // was never filled saves tag 0. Restore rejects what no run can
    // reach: a tag wider than the address, a tag twice in one set
    // (lines install only after a miss; find() would never see the
    // later way), and a stamp ahead of the clock (the line would
    // outrank every later touch).
    a.section("cache");
    a.count(self.numSets_, "cache set count mismatch");
    const unsigned tagBits = 64 - floorLog2(kLineBytes) - self.setShift_;
    for (size_t i = 0; i < self.tags_.size(); ++i) {
        bool valid = self.tags_[i] != kInvalidTag;
        Addr tag = valid ? self.tags_[i] : 0;
        a.u64(tag);
        a.flag(valid);
        a.check(!valid || (tag >> tagBits) == 0, "cache tag out of range");
        bool dirty = self.flags_[i] & kDirty;
        bool prefetched = self.flags_[i] & kPrefetched;
        a.flag(dirty);
        a.flag(prefetched);
        a.u64(self.stamps_[i]);
        if constexpr (Ar::kLoading) {
            self.tags_[i] = valid ? tag : kInvalidTag;
            self.flags_[i] = static_cast<uint8_t>(
                (dirty ? kDirty : 0) | (prefetched ? kPrefetched : 0));
            const size_t base = i - i % self.ways_;
            for (size_t j = base; valid && j < i; ++j)
                a.check(self.tags_[j] != tag, "cache set holds a tag twice");
        }
    }
    a.u64(self.stamp_);
    if constexpr (Ar::kLoading) {
        for (const uint64_t stamp : self.stamps_)
            a.check(stamp <= self.stamp_, "cache line stamp ahead of clock");
    }
    a.nested(self.hits_);
    a.nested(self.misses_);
}

template void Cache::transfer(const Cache &, Serializer &);
template void Cache::transfer(Cache &, Deserializer &);

} // namespace memsec::cache

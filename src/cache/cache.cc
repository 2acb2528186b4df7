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
    meta_.resize(lines);
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
    const size_t base = setBase(addr);
    const Addr tag = tagOf(addr);
    for (size_t i = base; i < base + ways_; ++i) {
        if (tags_[i] == tag)
            return i;
    }
    return kMiss;
}

AccessResult
Cache::access(Addr addr, bool isStore)
{
    AccessResult res;
    const size_t i = find(addr);
    if (i != kMiss) {
        Meta &line = meta_[i];
        line.lruStamp = ++stamp_;
        if (isStore)
            line.dirty = true;
        if (line.prefetched) {
            res.prefetchHit = true;
            line.prefetched = false;
        }
        hits_.inc();
        res.hit = true;
        return res;
    }
    misses_.inc();
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
    FillResult res;
    if (const size_t i = find(addr); i != kMiss) {
        // Already present (e.g. prefetch raced a demand fill).
        meta_[i].dirty = meta_[i].dirty || dirty;
        return res;
    }
    const size_t base = setBase(addr);
    size_t victim = base;
    for (size_t i = base; i < base + ways_; ++i) {
        if (tags_[i] == kInvalidTag) {
            victim = i;
            break;
        }
        if (meta_[i].lruStamp < meta_[victim].lruStamp)
            victim = i;
    }
    if (tags_[victim] != kInvalidTag && meta_[victim].dirty) {
        res.evictedDirty = true;
        res.writebackAddr =
            (tags_[victim] * numSets_ + base / ways_) * kLineBytes;
    }
    tags_[victim] = tagOf(addr);
    meta_[victim] = Meta{dirty, prefetched, ++stamp_};
    return res;
}

void
Cache::markDirty(Addr addr)
{
    if (const size_t i = find(addr); i != kMiss)
        meta_[i].dirty = true;
}

template <class Self, class Ar>
void
Cache::transfer(Self &self, Ar &a)
{
    // Per line: tag, valid, dirty, prefetched, LRU stamp. A way that
    // was never filled saves tag 0.
    a.section("cache");
    a.count(self.numSets_, "cache set count mismatch");
    for (size_t i = 0; i < self.tags_.size(); ++i) {
        bool valid = self.tags_[i] != kInvalidTag;
        Addr tag = valid ? self.tags_[i] : 0;
        a.u64(tag);
        a.flag(valid);
        a.check(!valid || tag != kInvalidTag, "cache tag out of range");
        if constexpr (Ar::kLoading)
            self.tags_[i] = valid ? tag : kInvalidTag;
        auto &meta = self.meta_[i];
        a.flag(meta.dirty);
        a.flag(meta.prefetched);
        a.u64(meta.lruStamp);
    }
    a.u64(self.stamp_);
    a.nested(self.hits_);
    a.nested(self.misses_);
}

template void Cache::transfer(const Cache &, Serializer &);
template void Cache::transfer(Cache &, Deserializer &);

} // namespace memsec::cache

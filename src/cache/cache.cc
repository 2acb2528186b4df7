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

void
Cache::saveState(Serializer &s) const
{
    // Per line: tag, valid, dirty, prefetched, LRU stamp. A way that
    // was never filled saves tag 0.
    s.section("cache");
    s.putU64(numSets_);
    for (size_t i = 0; i < tags_.size(); ++i) {
        const bool valid = tags_[i] != kInvalidTag;
        s.putU64(valid ? tags_[i] : 0);
        s.putBool(valid);
        s.putBool(meta_[i].dirty);
        s.putBool(meta_[i].prefetched);
        s.putU64(meta_[i].lruStamp);
    }
    s.putU64(stamp_);
    hits_.saveState(s);
    misses_.saveState(s);
}

void
Cache::restoreState(Deserializer &d)
{
    d.section("cache");
    if (d.getU64() != numSets_)
        d.fail("cache set count mismatch");
    for (size_t i = 0; i < tags_.size(); ++i) {
        const Addr tag = d.getU64();
        const bool valid = d.getBool();
        if (valid && tag == kInvalidTag)
            d.fail("cache tag out of range");
        tags_[i] = valid ? tag : kInvalidTag;
        meta_[i].dirty = d.getBool();
        meta_[i].prefetched = d.getBool();
        meta_[i].lruStamp = d.getU64();
    }
    stamp_ = d.getU64();
    hits_.restoreState(d);
    misses_.restoreState(d);
}

} // namespace memsec::cache

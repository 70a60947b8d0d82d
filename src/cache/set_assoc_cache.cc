#include "cache/set_assoc_cache.hh"

#include <cassert>
#include <utility>

#include "common/bitops.hh"

namespace valley {

SetAssocCache::SetAssocCache(const CacheConfig &cfg)
    : cfg_(cfg), mshrs(cfg.mshrEntries), mshrLines(cfg.mshrEntries, 0)
{
    assert(cfg_.numSets() >= 1);
    assert(bits::isPow2(cfg_.lineBytes));
    assert(bits::isPow2(cfg_.numSets()));
    ways.resize(static_cast<std::size_t>(cfg_.numSets()) * cfg_.ways);
}

std::uint32_t
SetAssocCache::setOf(Addr line) const
{
    return static_cast<std::uint32_t>(line / cfg_.lineBytes) &
           (cfg_.numSets() - 1);
}

SetAssocCache::Way *
SetAssocCache::findLine(Addr line)
{
    const std::uint32_t set = setOf(line);
    Way *base = &ways[static_cast<std::size_t>(set) * cfg_.ways];
    for (std::uint32_t w = 0; w < cfg_.ways; ++w)
        if (base[w].valid && base[w].line == line)
            return &base[w];
    return nullptr;
}

const SetAssocCache::Way *
SetAssocCache::findLine(Addr line) const
{
    return const_cast<SetAssocCache *>(this)->findLine(line);
}

SetAssocCache::Way &
SetAssocCache::victimIn(std::uint32_t set)
{
    Way *base = &ways[static_cast<std::size_t>(set) * cfg_.ways];
    Way *victim = &base[0];
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
        if (!base[w].valid)
            return base[w];
        if (base[w].lastUse < victim->lastUse)
            victim = &base[w];
    }
    return *victim;
}

CacheAccessResult
SetAssocCache::access(Addr line, bool write, std::uint64_t waiter)
{
    assert(line % cfg_.lineBytes == 0);
    CacheAccessResult result;
    ++stats_.accesses;
    ++useClock;

    if (Way *way = findLine(line)) {
        way->lastUse = useClock;
        if (write)
            way->dirty = cfg_.writeAllocate;
        ++stats_.hits;
        if (write && !cfg_.writeAllocate)
            ++stats_.writeThroughs; // hit still propagates the write
        result.kind = CacheAccessResult::Kind::Hit;
        return result;
    }

    if (write && !cfg_.writeAllocate) {
        // No-write-allocate: the write bypasses this cache entirely.
        ++stats_.writeThroughs;
        result.kind = CacheAccessResult::Kind::Hit;
        return result;
    }

    // Read (or allocating write) miss.
    if (const int i = findMshr(line); i >= 0) {
        mshrs[i].waiters.push_back(waiter);
        mshrs[i].write |= write;
        ++stats_.mshrMerges;
        result.kind = CacheAccessResult::Kind::MergedMiss;
        return result;
    }
    if (!mshrAvailable()) {
        ++stats_.mshrStalls;
        --stats_.accesses; // a stalled access will be retried
        result.kind = CacheAccessResult::Kind::Stall;
        return result;
    }
    Mshr &entry = mshrs[mshrLive]; // a free slot's waiters are empty
    mshrLines[mshrLive++] = line;
    entry.waiters.push_back(waiter);
    entry.write = write;
    ++stats_.misses;
    result.kind = CacheAccessResult::Kind::Miss;
    return result;
}

const std::vector<std::uint64_t> &
SetAssocCache::fill(Addr line, CacheAccessResult &eviction)
{
    eviction.dirtyEviction = false;
    ++useClock;

    filledWaiters.clear();
    bool write = false;
    if (const int i = findMshr(line); i >= 0) {
        // The slot takes the previous fill's storage, cleared above,
        // so free slots hold empty vectors; the last live slot moves
        // into the hole.
        filledWaiters.swap(mshrs[i].waiters);
        write = mshrs[i].write;
        --mshrLive;
        std::swap(mshrs[i], mshrs[mshrLive]);
        mshrLines[i] = mshrLines[mshrLive];
    }

    if (!findLine(line)) {
        Way &victim = victimIn(setOf(line));
        if (victim.valid && victim.dirty) {
            eviction.dirtyEviction = true;
            eviction.victimLine = victim.line;
            ++stats_.writebacks;
        }
        victim.valid = true;
        victim.line = line;
        victim.dirty = write && cfg_.writeAllocate;
        victim.lastUse = useClock;
    } else if (write && cfg_.writeAllocate) {
        markDirty(line);
    }
    return filledWaiters;
}

bool
SetAssocCache::contains(Addr line) const
{
    return findLine(line) != nullptr;
}

void
SetAssocCache::markDirty(Addr line)
{
    if (Way *way = findLine(line))
        way->dirty = true;
}

} // namespace valley

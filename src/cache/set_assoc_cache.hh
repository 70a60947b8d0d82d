/**
 * @file
 * Set-associative cache with LRU replacement and an MSHR table,
 * modeling both the per-SM L1 data caches and the LLC slices of
 * Table I.
 *
 * The cache operates on line addresses. Write policy is configurable:
 * the L1 is write-through/no-write-allocate (GPU-style), the LLC is
 * write-back/write-allocate so dirty evictions generate DRAM
 * writebacks, which the Micron power model charges as write bursts.
 *
 * The MSHR table is a fixed array of `mshrEntries` slots, allocated
 * once: live entries are packed at the front (a freed slot swaps
 * with the last live one) and found by a scan of their line
 * addresses, and each slot keeps its waiter vector's storage for the
 * next miss. `fill` hands the waiters back in a vector the cache
 * reuses, so the simulator's miss/fill cycle does not allocate.
 */

#ifndef VALLEY_CACHE_SET_ASSOC_CACHE_HH
#define VALLEY_CACHE_SET_ASSOC_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace valley {

/** Cache geometry and policy. */
struct CacheConfig
{
    std::uint32_t sizeBytes = 16 * 1024;
    std::uint32_t ways = 4;
    std::uint32_t lineBytes = 128;
    std::uint32_t mshrEntries = 32;
    bool writeAllocate = false; ///< false: write-through/no-allocate

    std::uint32_t
    numSets() const
    {
        return sizeBytes / (ways * lineBytes);
    }
};

/** Hit/miss counters. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;        ///< demand misses sent below
    std::uint64_t mshrMerges = 0;    ///< misses merged into an MSHR
    std::uint64_t mshrStalls = 0;    ///< rejected: MSHR table full
    std::uint64_t writebacks = 0;    ///< dirty lines evicted
    std::uint64_t writeThroughs = 0; ///< writes forwarded below

    double
    missRate() const
    {
        return accesses
                   ? static_cast<double>(misses + mshrMerges) /
                         static_cast<double>(accesses)
                   : 0.0;
    }
};

/** Outcome of a cache access. */
struct CacheAccessResult
{
    enum class Kind
    {
        Hit,        ///< present (or write-through accepted)
        Miss,       ///< new MSHR allocated; fetch the line below
        MergedMiss, ///< appended to an existing MSHR
        Stall,      ///< MSHR table full; retry later
    };

    Kind kind = Kind::Hit;
    bool dirtyEviction = false; ///< a dirty victim needs writing back
    Addr victimLine = 0;        ///< line address of the dirty victim
};

/**
 * The cache. Tags only (no data payloads); fills and evictions are
 * driven by the owner (SM core or LLC slice model).
 */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheConfig &cfg);

    /** Line address (byte address with the offset stripped). */
    Addr
    lineOf(Addr byte_addr) const
    {
        return byte_addr / cfg_.lineBytes * cfg_.lineBytes;
    }

    /**
     * Look up `line` (a line-aligned address). On a read miss an MSHR
     * is allocated (or merged); `waiter` is recorded so the owner can
     * wake requestors on fill. Writes with writeAllocate=false never
     * allocate: hits update LRU/dirty, misses are reported as Hit with
     * the writeThroughs counter bumped (the owner forwards the write).
     */
    CacheAccessResult access(Addr line, bool write, std::uint64_t waiter);

    /**
     * Install a previously missed line; returns the waiters recorded
     * on its MSHR, in arrival order, and frees the entry (no MSHR: no
     * waiters). The returned vector is owned by the cache and valid
     * until the next `fill`. Sets `eviction` when a dirty victim must
     * be written back.
     */
    const std::vector<std::uint64_t> &fill(Addr line,
                                           CacheAccessResult &eviction);

    /** True iff the line is currently present (probe; no LRU update). */
    bool contains(Addr line) const;

    /** Mark a resident line dirty (used when a write hits under fill). */
    void markDirty(Addr line);

    /** Outstanding MSHR entries. */
    unsigned mshrInUse() const { return mshrLive; }

    bool mshrAvailable() const { return mshrLive < cfg_.mshrEntries; }

    /** True iff the line already has an outstanding MSHR. */
    bool mshrPending(Addr line) const { return findMshr(line) >= 0; }

    const CacheStats &stats() const { return stats_; }
    const CacheConfig &config() const { return cfg_; }

  private:
    struct Way
    {
        Addr line = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
    };

    struct Mshr
    {
        std::vector<std::uint64_t> waiters;
        bool write = false;
    };

    /** Slot of `line`'s live MSHR, or -1. */
    int
    findMshr(Addr line) const
    {
        for (unsigned i = 0; i < mshrLive; ++i)
            if (mshrLines[i] == line)
                return static_cast<int>(i);
        return -1;
    }

    std::uint32_t setOf(Addr line) const;
    Way *findLine(Addr line);
    const Way *findLine(Addr line) const;
    Way &victimIn(std::uint32_t set);

    CacheConfig cfg_;
    std::vector<Way> ways; // sets * ways, row-major by set
    /** Slots [0, mshrLive) are live; `mshrLines[i]` is slot i's line. */
    std::vector<Mshr> mshrs;
    std::vector<Addr> mshrLines;
    unsigned mshrLive = 0;
    /** What the last `fill` returned (swapped out of its slot). */
    std::vector<std::uint64_t> filledWaiters;
    std::uint64_t useClock = 0;
    CacheStats stats_;
};

} // namespace valley

#endif // VALLEY_CACHE_SET_ASSOC_CACHE_HH

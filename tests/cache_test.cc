/**
 * @file
 * Unit tests for the set-associative cache with MSHRs.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "cache/set_assoc_cache.hh"
#include "common/rng.hh"

using namespace valley;

namespace {

CacheConfig
tinyCache(bool write_allocate = false)
{
    CacheConfig c;
    c.sizeBytes = 1024; // 2 sets x 4 ways x 128 B
    c.ways = 4;
    c.lineBytes = 128;
    c.mshrEntries = 4;
    c.writeAllocate = write_allocate;
    return c;
}

using Kind = CacheAccessResult::Kind;

} // namespace

TEST(CacheConfig, GeometryOfTableI)
{
    // L1: 16 KB, 4-way, 128 B lines -> 32 sets.
    CacheConfig l1{16 * 1024, 4, 128, 32, false};
    EXPECT_EQ(l1.numSets(), 32u);
    // LLC slice: 64 KB, 8-way -> 64 sets.
    CacheConfig llc{64 * 1024, 8, 128, 32, true};
    EXPECT_EQ(llc.numSets(), 64u);
}

TEST(SetAssocCache, MissThenHitAfterFill)
{
    SetAssocCache c(tinyCache());
    const Addr line = 0x1000;
    EXPECT_EQ(c.access(line, false, 7).kind, Kind::Miss);
    EXPECT_FALSE(c.contains(line));

    CacheAccessResult ev;
    const auto waiters = c.fill(line, ev);
    ASSERT_EQ(waiters.size(), 1u);
    EXPECT_EQ(waiters[0], 7u);
    EXPECT_FALSE(ev.dirtyEviction);
    EXPECT_TRUE(c.contains(line));
    EXPECT_EQ(c.access(line, false, 8).kind, Kind::Hit);
    EXPECT_EQ(c.stats().hits, 1u);
    EXPECT_EQ(c.stats().misses, 1u);
}

TEST(SetAssocCache, MshrMergesSameLine)
{
    SetAssocCache c(tinyCache());
    EXPECT_EQ(c.access(0x1000, false, 1).kind, Kind::Miss);
    EXPECT_EQ(c.access(0x1000, false, 2).kind, Kind::MergedMiss);
    EXPECT_EQ(c.access(0x1000, false, 3).kind, Kind::MergedMiss);
    EXPECT_EQ(c.mshrInUse(), 1u);
    EXPECT_EQ(c.stats().mshrMerges, 2u);

    CacheAccessResult ev;
    const auto waiters = c.fill(0x1000, ev);
    EXPECT_EQ(waiters.size(), 3u);
    EXPECT_EQ(c.mshrInUse(), 0u);
}

TEST(SetAssocCache, MshrExhaustionStalls)
{
    SetAssocCache c(tinyCache());
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(c.access(0x1000 + i * 128, false, i).kind,
                  Kind::Miss);
    EXPECT_FALSE(c.mshrAvailable());
    const auto r = c.access(0x9000, false, 9);
    EXPECT_EQ(r.kind, Kind::Stall);
    EXPECT_EQ(c.stats().mshrStalls, 1u);
    // A stalled access is not counted as an access (it will retry).
    EXPECT_EQ(c.stats().accesses, 4u);
}

TEST(SetAssocCache, LruEviction)
{
    SetAssocCache c(tinyCache());
    CacheAccessResult ev;
    // Fill all 4 ways of set 0 (set = (line/128) % 2 -> even lines).
    for (unsigned i = 0; i < 4; ++i) {
        c.access(Addr{i} * 256, false, i);
        c.fill(Addr{i} * 256, ev);
    }
    // Touch line 0 so line 256 becomes LRU.
    EXPECT_EQ(c.access(0, false, 9).kind, Kind::Hit);
    // A new even line evicts line 256 (the LRU), not line 0.
    c.access(4 * 256, false, 10);
    c.fill(4 * 256, ev);
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(256));
}

TEST(SetAssocCache, WriteThroughNoAllocate)
{
    SetAssocCache c(tinyCache(false));
    // Write miss: no MSHR, no allocation, counted as a write-through.
    const auto r = c.access(0x2000, true, 1);
    EXPECT_EQ(r.kind, Kind::Hit);
    EXPECT_EQ(c.mshrInUse(), 0u);
    EXPECT_FALSE(c.contains(0x2000));
    EXPECT_EQ(c.stats().writeThroughs, 1u);

    // Write hit: stays clean (no writeback on eviction).
    CacheAccessResult ev;
    c.access(0x3000, false, 2);
    c.fill(0x3000, ev);
    c.access(0x3000, true, 3);
    EXPECT_EQ(c.stats().writeThroughs, 2u);
}

TEST(SetAssocCache, WriteAllocateDirtyWriteback)
{
    SetAssocCache c(tinyCache(true));
    CacheAccessResult ev;
    // Write miss allocates (fetch-on-write) and marks dirty on fill.
    EXPECT_EQ(c.access(0x0, true, 1).kind, Kind::Miss);
    c.fill(0x0, ev);
    // Fill the set with clean lines, then one more to evict the dirty
    // victim.
    for (unsigned i = 1; i < 4; ++i) {
        c.access(Addr{i} * 256, false, i);
        c.fill(Addr{i} * 256, ev);
        EXPECT_FALSE(ev.dirtyEviction);
    }
    c.access(4 * 256, false, 9);
    c.fill(4 * 256, ev);
    EXPECT_TRUE(ev.dirtyEviction);
    EXPECT_EQ(ev.victimLine, 0u);
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(SetAssocCache, WriteHitMarksDirtyUnderWriteAllocate)
{
    SetAssocCache c(tinyCache(true));
    CacheAccessResult ev;
    c.access(0x0, false, 1);
    c.fill(0x0, ev);
    c.access(0x0, true, 2); // dirty now
    for (unsigned i = 1; i <= 4; ++i) {
        c.access(Addr{i} * 256, false, i);
        c.fill(Addr{i} * 256, ev);
    }
    EXPECT_TRUE(ev.dirtyEviction);
}

TEST(SetAssocCache, DistinctSetsDoNotConflict)
{
    SetAssocCache c(tinyCache());
    CacheAccessResult ev;
    // 8 lines alternating sets fit (4 ways x 2 sets).
    for (unsigned i = 0; i < 8; ++i) {
        c.access(Addr{i} * 128, false, i);
        c.fill(Addr{i} * 128, ev);
    }
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_TRUE(c.contains(Addr{i} * 128)) << i;
}

TEST(SetAssocCache, MshrPendingProbe)
{
    SetAssocCache c(tinyCache());
    EXPECT_FALSE(c.mshrPending(0x1000));
    c.access(0x1000, false, 1);
    EXPECT_TRUE(c.mshrPending(0x1000));
    CacheAccessResult ev;
    c.fill(0x1000, ev);
    EXPECT_FALSE(c.mshrPending(0x1000));
}

TEST(SetAssocCache, MissRateComputation)
{
    SetAssocCache c(tinyCache());
    CacheAccessResult ev;
    c.access(0x0, false, 1); // miss
    c.access(0x0, false, 2); // merged miss
    c.fill(0x0, ev);
    c.access(0x0, false, 3); // hit
    c.access(0x0, false, 4); // hit
    EXPECT_DOUBLE_EQ(c.stats().missRate(), 0.5);
}

TEST(SetAssocCache, FillWithoutMshrInstallsLine)
{
    // Prefetch-style fill: no waiters recorded.
    SetAssocCache c(tinyCache());
    CacheAccessResult ev;
    const auto waiters = c.fill(0x4000, ev);
    EXPECT_TRUE(waiters.empty());
    EXPECT_TRUE(c.contains(0x4000));
}

TEST(SetAssocCache, MshrTableMatchesMapModelOnRandomTraffic)
{
    // The MSHR table against a std::map of line -> waiters. Tag state
    // is not under test: the model asks the cache whether a line is
    // present before each access. Random reads, allocating writes and
    // fills over 48 lines keep the table full for long stretches,
    // so stalls, merges, fills of lines without an MSHR and slot reuse
    // after a fill all occur.
    struct Entry
    {
        std::vector<std::uint64_t> waiters;
        bool write = false;
    };
    constexpr unsigned kLines = 48; // 6x what the 8-line cache holds
    for (std::uint32_t entries : {4u, 8u}) {
        CacheConfig cfg = tinyCache(/*write_allocate=*/true);
        cfg.mshrEntries = entries;
        SetAssocCache c(cfg);
        std::map<Addr, Entry> model;
        std::uint64_t stalls = 0, merges = 0, misses = 0, empty_fills = 0;
        XorShiftRng rng(entries);
        std::uint64_t waiter = 1;
        for (unsigned step = 0; step < 20000; ++step) {
            const Addr line = Addr{rng.below(kLines)} * 128;
            if (rng.chance(1, 4)) {
                CacheAccessResult ev;
                const auto it = model.find(line);
                const std::vector<std::uint64_t> want =
                    it == model.end() ? std::vector<std::uint64_t>{}
                                      : it->second.waiters;
                empty_fills += want.empty();
                ASSERT_EQ(c.fill(line, ev), want) << step;
                if (it != model.end())
                    model.erase(it);
            } else {
                const bool write = rng.chance(1, 4);
                const bool present = c.contains(line);
                const CacheAccessResult r = c.access(line, write, waiter);
                Kind want = Kind::Hit;
                if (!present) {
                    if (auto it = model.find(line); it != model.end()) {
                        it->second.waiters.push_back(waiter);
                        it->second.write |= write;
                        want = Kind::MergedMiss;
                        ++merges;
                    } else if (model.size() >= entries) {
                        want = Kind::Stall;
                        ++stalls;
                    } else {
                        model[line] = Entry{{waiter}, write};
                        want = Kind::Miss;
                        ++misses;
                    }
                }
                ASSERT_EQ(r.kind, want) << step;
                ++waiter;
            }
            ASSERT_EQ(c.mshrInUse(), model.size()) << step;
            ASSERT_EQ(c.mshrAvailable(), model.size() < entries) << step;
            for (Addr l = 0; l < kLines * 128; l += 128)
                ASSERT_EQ(c.mshrPending(l), model.count(l) != 0) << step;
        }
        EXPECT_EQ(c.stats().mshrStalls, stalls);
        EXPECT_EQ(c.stats().mshrMerges, merges);
        EXPECT_EQ(c.stats().misses, misses);
        EXPECT_GT(stalls, 0u);
        EXPECT_GT(merges, 0u);
        EXPECT_GT(empty_fills, 0u);
    }
}

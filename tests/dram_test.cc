/**
 * @file
 * Unit tests for the FR-FCFS memory controller and DRAM system.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "common/rng.hh"
#include "dram/dram_system.hh"

using namespace valley;

namespace {

DramTiming
fastTiming()
{
    // Small numbers make hand-computed schedules easy to verify.
    DramTiming t;
    t.tCL = 4;
    t.tRCD = 4;
    t.tRP = 4;
    t.tRAS = 8;
    t.tBurst = 2;
    t.tWR = 4;
    t.tRRD = 2;
    return t;
}

DramRequest
readReq(unsigned bank, unsigned row, std::uint64_t tag, unsigned col = 0)
{
    DramRequest r;
    r.coord = DramCoord{0, bank, row, col};
    r.write = false;
    r.tag = tag;
    return r;
}

/** Drive the controller until `tag` completes; returns finish cycle. */
Cycle
runUntilDone(MemoryController &mc, std::uint64_t tag, Cycle start,
             Cycle limit = 10000)
{
    std::vector<DramCompletion> done;
    for (Cycle c = start; c < limit; ++c) {
        mc.tick(c, done);
        for (const auto &d : done)
            if (d.tag == tag)
                return d.finished;
        done.clear();
    }
    ADD_FAILURE() << "request " << tag << " never completed";
    return 0;
}

/**
 * The controller's scheduling rules written the plain way: every
 * decision rescans the whole queue. The controller keeps per-bank
 * hit counts instead; this is the oracle it must agree with.
 */
class ReferenceController
{
  public:
    ReferenceController(unsigned num_banks, const DramTiming &t,
                        unsigned capacity)
        : timing(t), capacity(capacity), banks(num_banks)
    {}

    bool
    enqueue(const DramRequest &req, Cycle now)
    {
        if (queue.size() >= capacity)
            return false;
        queue.push_back(req);
        queue.back().enqueued = now;
        return true;
    }

    void
    tick(Cycle now, std::vector<DramCompletion> &done)
    {
        for (std::size_t i = 0; i < inflight.size();) {
            if (inflight[i].doneAt <= now) {
                if (!inflight[i].write) {
                    stats.latencySum += now - inflight[i].enqueued;
                    done.push_back({inflight[i].tag, now, false});
                }
                inflight[i] = inflight.back();
                inflight.pop_back();
            } else {
                ++i;
            }
        }
        if (!column(now))
            bankCommand(now);
    }

    unsigned
    pending() const
    {
        return static_cast<unsigned>(queue.size() + inflight.size());
    }

    /** Brute-force recount over the queue. */
    unsigned
    banksWithPending() const
    {
        std::vector<bool> busy(banks.size(), false);
        for (const DramRequest &r : queue)
            busy[r.coord.bank] = true;
        return static_cast<unsigned>(
            std::count(busy.begin(), busy.end(), true));
    }

    DramChannelStats stats;
    unsigned starvationOverrides = 0; ///< precharges past queued hits

  private:
    struct Bank
    {
        bool open = false;
        unsigned row = 0;
        Cycle readyAt = 0, activatedAt = 0;
    };
    struct Inflight
    {
        std::uint64_t tag;
        Cycle doneAt;
        bool write;
        Cycle enqueued;
    };

    bool
    column(Cycle now)
    {
        if (busFreeAt > now)
            return false;
        for (auto it = queue.begin(); it != queue.end(); ++it) {
            Bank &b = banks[it->coord.bank];
            if (!b.open || b.row != it->coord.row || b.readyAt > now)
                continue;
            busFreeAt = now + timing.tBurst;
            stats.busBusyCycles += timing.tBurst;
            b.readyAt = now + timing.tBurst + (it->write ? timing.tWR : 0);
            ++(it->write ? stats.writes : stats.reads);
            inflight.push_back({it->tag, now + timing.tCL + timing.tBurst,
                                it->write, it->enqueued});
            queue.erase(it);
            return true;
        }
        return false;
    }

    bool
    hasHit(unsigned bank) const
    {
        for (const DramRequest &r : queue)
            if (r.coord.bank == bank && r.coord.row == banks[bank].row)
                return true;
        return false;
    }

    void
    bankCommand(Cycle now)
    {
        for (const DramRequest &r : queue) {
            Bank &b = banks[r.coord.bank];
            if (b.readyAt > now || (b.open && b.row == r.coord.row))
                continue;
            if (b.open) {
                const bool hit = hasHit(r.coord.bank);
                if (hit && now - r.enqueued < 2000)
                    continue;
                if (b.activatedAt + timing.tRAS > now)
                    continue;
                starvationOverrides += hit;
                b.open = false;
                b.readyAt = now + timing.tRP;
                ++stats.precharges;
                return;
            }
            if (nextActivateAt > now)
                continue;
            b = Bank{true, r.coord.row, now + timing.tRCD, now};
            nextActivateAt = now + timing.tRRD;
            ++stats.activations;
            ++stats.rowMisses;
            return;
        }
    }

    DramTiming timing;
    unsigned capacity;
    std::vector<Bank> banks;
    std::deque<DramRequest> queue;
    std::vector<Inflight> inflight;
    Cycle busFreeAt = 0, nextActivateAt = 0;
};

/**
 * Tick `mc` from `from` through `to`; returns the first cycle that
 * issued a precharge, or 0 if none did.
 */
Cycle
firstPrecharge(MemoryController &mc, Cycle from, Cycle to,
               std::vector<DramCompletion> &done)
{
    for (Cycle c = from; c <= to; ++c) {
        const auto before = mc.stats().precharges;
        mc.tick(c, done);
        if (mc.stats().precharges > before)
            return c;
    }
    return 0;
}

/** Position of `tag` in completion order. */
std::size_t
completionIndex(const std::vector<DramCompletion> &done,
                std::uint64_t tag)
{
    for (std::size_t i = 0; i < done.size(); ++i)
        if (done[i].tag == tag)
            return i;
    ADD_FAILURE() << "request " << tag << " never completed";
    return done.size();
}

} // namespace

TEST(MemoryController, ClosedBankReadTiming)
{
    MemoryController mc(4, fastTiming());
    ASSERT_TRUE(mc.enqueue(readReq(0, 5, 1), 0));
    // Activate at cycle 0 (tRCD=4), column at 4 (bus 2), data at
    // 4 + tCL + tBurst = 10.
    const Cycle done = runUntilDone(mc, 1, 0);
    EXPECT_EQ(done, 10u);
    EXPECT_EQ(mc.stats().activations, 1u);
    EXPECT_EQ(mc.stats().reads, 1u);
    EXPECT_EQ(mc.stats().rowMisses, 1u);
}

TEST(MemoryController, RowHitSkipsActivation)
{
    MemoryController mc(4, fastTiming());
    ASSERT_TRUE(mc.enqueue(readReq(0, 5, 1), 0));
    runUntilDone(mc, 1, 0);
    // Same row: no new activation, just a column access.
    ASSERT_TRUE(mc.enqueue(readReq(0, 5, 2, 3), 20));
    runUntilDone(mc, 2, 21);
    EXPECT_EQ(mc.stats().activations, 1u);
    EXPECT_EQ(mc.stats().rowMisses, 1u);
    EXPECT_DOUBLE_EQ(mc.stats().rowHitRate(), 0.5);
}

TEST(MemoryController, RowConflictPrechargesAndReactivates)
{
    MemoryController mc(4, fastTiming());
    ASSERT_TRUE(mc.enqueue(readReq(0, 5, 1), 0));
    runUntilDone(mc, 1, 0);
    ASSERT_TRUE(mc.enqueue(readReq(0, 9, 2), 20));
    runUntilDone(mc, 2, 21);
    EXPECT_EQ(mc.stats().activations, 2u);
    EXPECT_EQ(mc.stats().precharges, 1u);
    EXPECT_EQ(mc.stats().rowMisses, 2u);
    EXPECT_DOUBLE_EQ(mc.stats().rowHitRate(), 0.0);
}

TEST(MemoryController, FrFcfsPrefersRowHitOverOlderConflict)
{
    MemoryController mc(4, fastTiming());
    ASSERT_TRUE(mc.enqueue(readReq(0, 5, 1), 0));
    runUntilDone(mc, 1, 0);
    // Older request conflicts (row 9); younger hits the open row 5.
    ASSERT_TRUE(mc.enqueue(readReq(0, 9, 2), 20));
    ASSERT_TRUE(mc.enqueue(readReq(0, 5, 3, 1), 20));
    const Cycle hit_done = runUntilDone(mc, 3, 21);
    const Cycle conflict_done = runUntilDone(mc, 2, 21);
    EXPECT_LT(hit_done, conflict_done);
}

TEST(MemoryController, BanksOperateInParallel)
{
    MemoryController mc(4, fastTiming());
    // Two closed banks: their activations overlap (separated only by
    // tRRD), so total time is far below 2x the serial latency.
    ASSERT_TRUE(mc.enqueue(readReq(0, 5, 1), 0));
    ASSERT_TRUE(mc.enqueue(readReq(1, 7, 2), 0));
    const Cycle d1 = runUntilDone(mc, 1, 0);
    const Cycle d2 = runUntilDone(mc, 2, 0);
    EXPECT_LE(std::max(d1, d2), 16u); // serial would be ~20
}

TEST(MemoryController, WritesCountedAndNotCompleted)
{
    MemoryController mc(4, fastTiming());
    DramRequest w = readReq(0, 5, 7);
    w.write = true;
    ASSERT_TRUE(mc.enqueue(w, 0));
    std::vector<DramCompletion> done;
    for (Cycle c = 0; c < 100; ++c)
        mc.tick(c, done);
    EXPECT_TRUE(done.empty()); // writebacks produce no completions
    EXPECT_EQ(mc.stats().writes, 1u);
    EXPECT_EQ(mc.stats().reads, 0u);
}

TEST(MemoryController, QueueCapacityBackpressure)
{
    MemoryController mc(4, fastTiming(), /*queue_capacity=*/2);
    EXPECT_TRUE(mc.canAccept());
    ASSERT_TRUE(mc.enqueue(readReq(0, 1, 1), 0));
    ASSERT_TRUE(mc.enqueue(readReq(0, 2, 2), 0));
    EXPECT_FALSE(mc.canAccept());
    EXPECT_FALSE(mc.enqueue(readReq(0, 3, 3), 0));
    // Draining frees space again.
    runUntilDone(mc, 1, 0);
    EXPECT_TRUE(mc.canAccept());
}

TEST(MemoryController, PendingAndBanksWithPending)
{
    MemoryController mc(8, fastTiming());
    EXPECT_EQ(mc.pending(), 0u);
    EXPECT_EQ(mc.banksWithPending(), 0u);
    mc.enqueue(readReq(2, 1, 1), 0);
    mc.enqueue(readReq(2, 1, 2, 1), 0);
    mc.enqueue(readReq(5, 1, 3), 0);
    EXPECT_EQ(mc.pending(), 3u);
    EXPECT_EQ(mc.banksWithPending(), 2u);
}

TEST(MemoryController, DataBusSerializesColumnAccesses)
{
    // Both requests hit the same open row; the second is delayed by
    // the bus, not by bank timing.
    MemoryController mc(4, fastTiming());
    ASSERT_TRUE(mc.enqueue(readReq(0, 5, 1), 0));
    runUntilDone(mc, 1, 0);
    ASSERT_TRUE(mc.enqueue(readReq(0, 5, 2, 1), 20));
    ASSERT_TRUE(mc.enqueue(readReq(0, 5, 3, 2), 20));
    const Cycle d2 = runUntilDone(mc, 2, 21);
    const Cycle d3 = runUntilDone(mc, 3, 21);
    EXPECT_EQ(d3 - d2, fastTiming().tBurst);
}

TEST(MemoryController, LatencyAccounted)
{
    MemoryController mc(4, fastTiming());
    ASSERT_TRUE(mc.enqueue(readReq(0, 5, 1), 0));
    const Cycle done = runUntilDone(mc, 1, 0);
    EXPECT_EQ(mc.stats().latencySum, done);
}

TEST(DramChannelStats, RowHitRateClampsAndGuards)
{
    DramChannelStats s;
    EXPECT_DOUBLE_EQ(s.rowHitRate(), 0.0);
    s.reads = 10;
    s.rowMisses = 2;
    EXPECT_DOUBLE_EQ(s.rowHitRate(), 0.8);
    s.rowMisses = 50; // writeback-triggered activations can exceed
    EXPECT_DOUBLE_EQ(s.rowHitRate(), 0.0);
}

TEST(DramSystem, RoutesByChannel)
{
    DramSystem sys(4, 4, fastTiming());
    DramRequest r = readReq(0, 1, 1);
    r.coord.channel = 2;
    ASSERT_TRUE(sys.enqueue(r, 0));
    EXPECT_EQ(sys.channel(2).pending(), 1u);
    EXPECT_EQ(sys.channel(0).pending(), 0u);
    EXPECT_EQ(sys.channelsWithPending(), 1u);
}

TEST(DramSystem, AggregatesStatsAndCompletions)
{
    DramSystem sys(2, 4, fastTiming());
    DramRequest a = readReq(0, 1, 1);
    DramRequest b = readReq(1, 2, 2);
    b.coord.channel = 1;
    ASSERT_TRUE(sys.enqueue(a, 0));
    ASSERT_TRUE(sys.enqueue(b, 0));
    std::vector<DramCompletion> done;
    for (Cycle c = 0; c < 100 && done.size() < 2; ++c)
        sys.tick(c, done);
    ASSERT_EQ(done.size(), 2u);
    const DramChannelStats total = sys.totalStats();
    EXPECT_EQ(total.reads, 2u);
    EXPECT_EQ(total.activations, 2u);
}

TEST(DramSystem, ParallelismSamplingHelpers)
{
    DramSystem sys(4, 16, fastTiming());
    EXPECT_EQ(sys.channelsWithPending(), 0u);
    for (unsigned ch = 0; ch < 3; ++ch) {
        DramRequest r = readReq(ch % 16, 1, ch);
        r.coord.channel = ch;
        ASSERT_TRUE(sys.enqueue(r, 0));
    }
    EXPECT_EQ(sys.channelsWithPending(), 3u);
    EXPECT_EQ(sys.banksWithPending(), 3u);
    EXPECT_EQ(sys.totalPending(), 3u);
}

TEST(DramTiming, PresetsMatchTableI)
{
    const DramTiming t = DramTiming::hynixGddr5();
    EXPECT_EQ(t.tCL, 12u);
    EXPECT_EQ(t.tRCD, 12u);
    EXPECT_EQ(t.tRP, 12u);
    EXPECT_DOUBLE_EQ(t.clockGhz, 0.924);
    // Bandwidth check: 128 B per tBurst cycles at 924 MHz x 4 channels
    // = 118.3 GB/s as in Table I.
    const double bw =
        128.0 / (t.tBurst / (t.clockGhz * 1e9)) * 4 / 1e9;
    EXPECT_NEAR(bw, 118.3, 0.5);
}

TEST(DramTiming, Stacked3dBandwidth)
{
    // 64 vaults x 128 B / (16 cycles at 1.25 GHz) = 640 GB/s.
    const DramTiming t = DramTiming::stacked3d();
    const double bw =
        128.0 / (t.tBurst / (t.clockGhz * 1e9)) * 64 / 1e9;
    EXPECT_NEAR(bw, 640.0, 1.0);
}

// ---- FR-FCFS hold-open bookkeeping ----------------------------------------
//
// A conflicting request may precharge only while no hit to the open
// row is queued (or once it has starved for 2000 cycles). The column
// path wins whenever the bus is free, so the hold-open rule only shows
// when another bank's column occupies the bus while the conflicting
// request's bank is ready: bank 1 supplies that column below.

TEST(MemoryController, HitArrivingForOpenRowHoldsRowOpen)
{
    MemoryController mc(4, fastTiming());
    std::vector<DramCompletion> done;
    // Open bank 0 on row 1 and bank 1 on row 5.
    ASSERT_TRUE(mc.enqueue(readReq(0, 1, 1), 0));
    ASSERT_TRUE(mc.enqueue(readReq(1, 5, 2), 0));
    for (Cycle c = 0; c < 40; ++c)
        mc.tick(c, done);
    ASSERT_EQ(done.size(), 2u);

    // X (bank 1 hit) takes the bus first; C conflicts on bank 0 while
    // B arrives for the already-open row 1.
    ASSERT_TRUE(mc.enqueue(readReq(1, 5, 10, 1), 40));  // X
    ASSERT_TRUE(mc.enqueue(readReq(0, 2, 11), 40));     // C
    ASSERT_TRUE(mc.enqueue(readReq(0, 1, 12, 1), 40));  // B
    const Cycle pre = firstPrecharge(mc, 40, 200, done);
    ASSERT_NE(pre, 0u);
    // B was issued before C's precharge: X and B after the two
    // priming reads.
    EXPECT_EQ(mc.stats().reads, 4u);
    for (Cycle c = pre + 1; c < 300; ++c)
        mc.tick(c, done);
    EXPECT_LT(completionIndex(done, 12), completionIndex(done, 11));
    EXPECT_EQ(mc.stats().activations, 3u); // rows 1, 5, then C's row 2
    EXPECT_EQ(mc.stats().rowMisses, 3u);   // B was a hit
}

TEST(MemoryController, HitQueuedBeforeActivationHoldsRowOpen)
{
    MemoryController mc(4, fastTiming());
    std::vector<DramCompletion> done;
    // All of these arrive while both banks are closed. Activating row
    // 1 for A must count B, queued earlier, as a hit to row 1.
    ASSERT_TRUE(mc.enqueue(readReq(0, 1, 1), 0));     // A
    ASSERT_TRUE(mc.enqueue(readReq(0, 2, 2), 0));     // C
    ASSERT_TRUE(mc.enqueue(readReq(1, 5, 3), 0));     // X
    ASSERT_TRUE(mc.enqueue(readReq(0, 1, 4, 1), 0));  // B
    const Cycle pre = firstPrecharge(mc, 0, 200, done);
    ASSERT_NE(pre, 0u);
    EXPECT_EQ(mc.stats().reads, 3u); // A, X and B before the precharge
    for (Cycle c = pre + 1; c < 300; ++c)
        mc.tick(c, done);
    EXPECT_LT(completionIndex(done, 4), completionIndex(done, 2));
    EXPECT_EQ(mc.stats().activations, 3u); // rows 1, 5, 2: B was a hit
}

TEST(MemoryController, ConflictPrechargesOnceHitsDrain)
{
    MemoryController mc(4, fastTiming());
    std::vector<DramCompletion> done;
    ASSERT_TRUE(mc.enqueue(readReq(0, 1, 1), 0));
    ASSERT_TRUE(mc.enqueue(readReq(1, 5, 2), 0));
    for (Cycle c = 0; c < 40; ++c)
        mc.tick(c, done);
    // C waits behind three younger hits to the open row, then goes.
    ASSERT_TRUE(mc.enqueue(readReq(1, 5, 10, 1), 40));
    ASSERT_TRUE(mc.enqueue(readReq(0, 2, 11), 40));
    for (std::uint64_t k = 0; k < 3; ++k)
        ASSERT_TRUE(mc.enqueue(readReq(0, 1, 20 + k, 1 + k), 40));
    const Cycle pre = firstPrecharge(mc, 40, 400, done);
    ASSERT_NE(pre, 0u);
    EXPECT_LT(pre, 40u + 100u); // long before the starvation limit
    EXPECT_EQ(mc.stats().reads, 2u + 4u); // every hit went first
}

TEST(MemoryController, StarvedConflictPrechargesPastQueuedHits)
{
    MemoryController mc(4, fastTiming());
    std::vector<DramCompletion> done;
    ASSERT_TRUE(mc.enqueue(readReq(0, 1, 1), 0));
    ASSERT_TRUE(mc.enqueue(readReq(1, 5, 2), 0));
    for (Cycle c = 0; c < 40; ++c)
        mc.tick(c, done);

    // C arrives at cycle 40; hits to both open rows then arrive every
    // cycle, faster than the bus drains them, so bank 0 always has a
    // queued hit. C must wait the full starvation limit, then close
    // the row with those hits still queued.
    constexpr Cycle t0 = 40;
    ASSERT_TRUE(mc.enqueue(readReq(0, 2, 98), t0)); // even tag = bank 0
    std::uint64_t tag = 100;
    Cycle pre = 0;
    for (Cycle c = t0; c <= t0 + 2100 && pre == 0; ++c) {
        if (mc.canAccept()) {
            const unsigned bank = tag % 2;
            mc.enqueue(readReq(bank, bank ? 5 : 1, tag, tag % 64), c);
            ++tag;
        }
        const auto before = mc.stats().precharges;
        mc.tick(c, done);
        if (mc.stats().precharges > before)
            pre = c;
    }
    ASSERT_NE(pre, 0u);
    EXPECT_GE(pre, t0 + 2000);
    EXPECT_LE(pre, t0 + 2010);
    EXPECT_GT(mc.banksWithPending(), 1u); // hits were still queued

    // The closed bank serves nothing until C's row is activated: the
    // first bank-0 read issued after the precharge is C's.
    const std::size_t seen = done.size();
    for (Cycle c = pre + 1; c < pre + 1000; ++c)
        mc.tick(c, done);
    const Cycle in_flight_until =
        pre + fastTiming().tCL + fastTiming().tBurst;
    for (std::size_t i = seen; i < done.size(); ++i) {
        if (done[i].finished <= in_flight_until || done[i].tag % 2)
            continue; // issued before the precharge, or bank 1
        EXPECT_EQ(done[i].tag, 98u);
        break;
    }
}

namespace {

/**
 * Random enqueue/tick sequences. Each bank has a hot row that most
 * requests hit and that moves now and then, so row conflicts, rows
 * held open for queued hits and starvation all occur. With more than
 * 64 banks half the traffic goes to banks 62-65, so banks on both
 * sides of a mask-word boundary see conflicts. After every tick the
 * controller must agree with the rescanning oracle on completions,
 * statistics, pending() and banksWithPending(). Adds the number of
 * starvation overrides the oracle took to `overrides`.
 */
void
checkAgainstReference(std::uint64_t seed, unsigned banks,
                      unsigned capacity, unsigned &overrides)
{
    XorShiftRng rng(seed);
    MemoryController mc(banks, fastTiming(), capacity);
    ReferenceController ref(banks, fastTiming(), capacity);
    std::vector<unsigned> hot(banks, 0);
    std::vector<DramCompletion> got, want;
    std::uint64_t tag = 0;
    for (Cycle c = 0; c < 12000; ++c) {
        // Saturated phases alternate with drain phases.
        const bool burst = (c / 3000) % 2 == 0;
        const unsigned arrivals =
            burst ? static_cast<unsigned>(rng.below(3))
                  : rng.chance(1, 8);
        if (rng.chance(1, 700))
            hot[rng.below(banks)] = static_cast<unsigned>(rng.below(4));
        for (unsigned k = 0; k < arrivals; ++k) {
            DramRequest r;
            const unsigned bank =
                banks > 64 && rng.chance(1, 2)
                    ? 62 + static_cast<unsigned>(rng.below(4))
                    : static_cast<unsigned>(rng.below(banks));
            const unsigned row =
                rng.chance(1, 12) ? static_cast<unsigned>(rng.below(4))
                                  : hot[bank];
            r.coord = DramCoord{0, bank, row, 0};
            r.write = rng.chance(1, 4);
            r.tag = tag++;
            ASSERT_EQ(mc.enqueue(r, c), ref.enqueue(r, c)) << c;
        }
        mc.tick(c, got);
        ref.tick(c, want);
        ASSERT_EQ(got.size(), want.size()) << "seed " << seed << " @" << c;
        for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i].tag, want[i].tag) << c;
            ASSERT_EQ(got[i].finished, want[i].finished) << c;
        }
        ASSERT_TRUE(mc.stats() == ref.stats) << "seed " << seed << " @" << c;
        ASSERT_EQ(mc.pending(), ref.pending()) << c;
        ASSERT_EQ(mc.banksWithPending(), ref.banksWithPending()) << c;
    }
    overrides += ref.starvationOverrides;
}

} // namespace

TEST(MemoryController, MatchesRescanningReferenceOnRandomTraffic)
{
    unsigned overrides = 0;
    for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
        checkAgainstReference(seed, 2 + static_cast<unsigned>(seed % 3),
                              seed % 2 ? 64 : 16, overrides);
        ASSERT_FALSE(HasFatalFailure()) << "seed " << seed;
    }
    // The starvation rule actually fired somewhere in the sequences.
    EXPECT_GT(overrides, 0u);
}

TEST(MemoryController, MatchesReferenceWithMultiWordBankMasks)
{
    // 96 banks: the queued and hit masks span two words.
    unsigned overrides = 0;
    for (std::uint64_t seed : {5ull, 6ull}) {
        checkAgainstReference(seed, 96, 64, overrides);
        ASSERT_FALSE(HasFatalFailure()) << "seed " << seed;
    }
    EXPECT_GT(overrides, 0u);
}

TEST(MemoryController, MatchesReferenceWithQueueCapacityOne)
{
    // Every enqueue but one per column access bounces; the masks go
    // from empty to one bit and back on nearly every command.
    unsigned overrides = 0;
    for (std::uint64_t seed : {7ull, 8ull}) {
        checkAgainstReference(seed, 4, 1, overrides);
        ASSERT_FALSE(HasFatalFailure()) << "seed " << seed;
    }
}

TEST(DramSystem, BusyCountsMatchRecountOnRandomTraffic)
{
    // The system keeps its busy-channel and busy-bank totals
    // incrementally; they must equal a recount over the channels.
    DramSystem sys(4, 4, fastTiming(), 16);
    XorShiftRng rng(7);
    std::vector<DramCompletion> done;
    for (Cycle c = 0; c < 20000; ++c) {
        if (rng.chance(1, 2)) {
            DramRequest r;
            r.coord = DramCoord{static_cast<unsigned>(rng.below(2)),
                                static_cast<unsigned>(rng.below(4)),
                                static_cast<unsigned>(rng.below(4)), 0};
            r.write = rng.chance(1, 3);
            sys.enqueue(r, c);
        }
        sys.tick(c, done);
        unsigned channels = 0, banks = 0;
        for (unsigned ch = 0; ch < sys.numChannels(); ++ch) {
            channels += sys.channel(ch).pending() > 0;
            banks += sys.channel(ch).banksWithPending();
        }
        ASSERT_EQ(sys.channelsWithPending(), channels) << c;
        ASSERT_EQ(sys.banksWithPending(), banks) << c;
    }
}

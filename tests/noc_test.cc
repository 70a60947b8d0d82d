/**
 * @file
 * Unit tests for the input-queued crossbar NoC.
 */

#include <gtest/gtest.h>

#include <deque>

#include "common/rng.hh"
#include "noc/crossbar.hh"

using namespace valley;

namespace {

/** Tick until `n` deliveries arrive; returns them. */
std::vector<NocDelivery>
run(Crossbar &xb, Cycle start, std::size_t n, Cycle limit = 1000)
{
    std::vector<NocDelivery> done;
    for (Cycle c = start; c <= limit && done.size() < n; ++c)
        xb.tick(c, done);
    EXPECT_EQ(done.size(), n);
    return done;
}

/**
 * The arbitration written the plain way: every free output scans all
 * inputs from the round-robin pointer. The crossbar keeps per-output
 * head masks instead; this is the oracle it must agree with.
 */
class ReferenceCrossbar
{
  public:
    ReferenceCrossbar(unsigned inputs, unsigned outputs, unsigned depth)
        : q(inputs), port(outputs), depth(depth)
    {}

    bool
    inject(unsigned in, unsigned out, unsigned flits, std::uint64_t tag,
           Cycle now)
    {
        if (q[in].size() >= depth)
            return false;
        q[in].push_back({out, flits, tag, now});
        return true;
    }

    void
    tick(Cycle now, std::vector<NocDelivery> &done)
    {
        for (unsigned o = 0; o < port.size(); ++o)
            if (port[o].busy && port[o].until <= now) {
                port[o].busy = false;
                done.push_back({o, port[o].p.tag, now, port[o].p.at});
            }
        const unsigned n = static_cast<unsigned>(q.size());
        for (unsigned o = 0; o < port.size(); ++o) {
            if (port[o].busy)
                continue;
            for (unsigned k = 0; k < n; ++k) {
                auto &in = q[(rr + k) % n];
                if (in.empty() || in.front().out != o)
                    continue;
                port[o] = {true, now + in.front().flits, in.front()};
                in.pop_front();
                break;
            }
        }
        rr = (rr + 1) % n;
    }

  private:
    struct P
    {
        unsigned out, flits;
        std::uint64_t tag;
        Cycle at;
    };
    struct Port
    {
        bool busy = false;
        Cycle until = 0;
        P p{};
    };
    std::vector<std::deque<P>> q;
    std::vector<Port> port;
    unsigned depth;
    unsigned rr = 0;
};

} // namespace

TEST(Crossbar, SingleFlitPacketDelivery)
{
    Crossbar xb(2, 2, 32);
    ASSERT_TRUE(xb.inject(0, 1, 8, 42, 0));
    const auto done = run(xb, 1, 1);
    EXPECT_EQ(done[0].tag, 42u);
    EXPECT_EQ(done[0].output, 1u);
    // 1 flit: grabbed at cycle 1, tail passes at cycle 2.
    EXPECT_EQ(done[0].delivered, 2u);
}

TEST(Crossbar, MultiFlitPacketOccupiesOutput)
{
    Crossbar xb(2, 2, 32);
    // 128 B payload + 8 B header = 136 B -> 5 flits of 32 B.
    ASSERT_TRUE(xb.inject(0, 0, 136, 1, 0));
    const auto done = run(xb, 1, 1);
    EXPECT_EQ(done[0].delivered, 6u); // 1 (arb) + 5 flits
}

TEST(Crossbar, ZeroByteSinglePacketStillOneFlit)
{
    Crossbar xb(1, 1, 32);
    ASSERT_TRUE(xb.inject(0, 0, 0, 1, 0));
    const auto done = run(xb, 1, 1);
    EXPECT_GE(done[0].delivered, 2u);
}

TEST(Crossbar, OutputContentionSerializes)
{
    Crossbar xb(2, 2, 32);
    // Two inputs to the same output: transfers serialize.
    ASSERT_TRUE(xb.inject(0, 0, 128, 1, 0));
    ASSERT_TRUE(xb.inject(1, 0, 128, 2, 0));
    const auto done = run(xb, 1, 2);
    EXPECT_EQ(done[1].delivered - done[0].delivered, 4u);
}

TEST(Crossbar, DistinctOutputsProceedInParallel)
{
    Crossbar xb(2, 2, 32);
    ASSERT_TRUE(xb.inject(0, 0, 128, 1, 0));
    ASSERT_TRUE(xb.inject(1, 1, 128, 2, 0));
    const auto done = run(xb, 1, 2);
    EXPECT_EQ(done[0].delivered, done[1].delivered);
}

TEST(Crossbar, HeadOfLineBlocking)
{
    Crossbar xb(2, 2, 32);
    // Input 0: head packet to output 0 (contended), second to output 1
    // (free) — the second must wait for the head (input-queued HoL).
    ASSERT_TRUE(xb.inject(1, 0, 512, 1, 0)); // long hog via input 1
    std::vector<NocDelivery> scratch;
    xb.tick(1, scratch); // let the hog win arbitration
    ASSERT_TRUE(xb.inject(0, 0, 32, 2, 1));
    ASSERT_TRUE(xb.inject(0, 1, 32, 3, 1));
    std::vector<NocDelivery> done;
    for (Cycle c = 2; c < 100 && done.size() < 3; ++c)
        xb.tick(c, done);
    ASSERT_EQ(done.size(), 3u);
    // Packet 3 (to the free output) still delivered after packet 2
    // was unblocked.
    Cycle t2 = 0, t3 = 0;
    for (const auto &d : done) {
        if (d.tag == 2)
            t2 = d.delivered;
        if (d.tag == 3)
            t3 = d.delivered;
    }
    EXPECT_GT(t3, t2 - 2);
}

TEST(Crossbar, QueueDepthBackpressure)
{
    Crossbar xb(1, 1, 32, /*queue_depth=*/2);
    EXPECT_TRUE(xb.inject(0, 0, 32, 1, 0));
    EXPECT_TRUE(xb.inject(0, 0, 32, 2, 0));
    EXPECT_FALSE(xb.canInject(0));
    EXPECT_FALSE(xb.inject(0, 0, 32, 3, 0));
    EXPECT_EQ(xb.stats().rejects, 1u);
}

TEST(Crossbar, LatencyStatistics)
{
    Crossbar xb(1, 1, 32);
    ASSERT_TRUE(xb.inject(0, 0, 32, 1, 0));
    run(xb, 1, 1);
    EXPECT_EQ(xb.stats().packets, 1u);
    EXPECT_EQ(xb.stats().flits, 1u);
    EXPECT_GT(xb.stats().avgLatency(), 0.0);
}

TEST(Crossbar, FairnessUnderSymmetricLoad)
{
    // Round-robin start pointer must not starve any input.
    Crossbar xb(4, 1, 32);
    std::vector<NocDelivery> done;
    unsigned injected[4] = {0, 0, 0, 0};
    unsigned delivered[4] = {0, 0, 0, 0};
    for (Cycle c = 0; c < 400; ++c) {
        for (unsigned in = 0; in < 4; ++in)
            if (xb.canInject(in) && injected[in] < 50) {
                xb.inject(in, 0, 32, in, c);
                ++injected[in];
            }
        xb.tick(c, done);
    }
    for (const auto &d : done)
        ++delivered[d.tag];
    for (unsigned in = 0; in < 4; ++in)
        EXPECT_GT(delivered[in], 30u) << "input " << in;
}

TEST(Crossbar, ThroughputBoundedByChannelWidth)
{
    // One output of 32 B/cycle: 100 packets of 128 B take >= 400
    // cycles of bus time.
    Crossbar xb(1, 1, 32, 512);
    for (unsigned i = 0; i < 100; ++i)
        ASSERT_TRUE(xb.inject(0, 0, 128, i, 0));
    std::vector<NocDelivery> done;
    Cycle last = 0;
    for (Cycle c = 1; c < 2000 && done.size() < 100; ++c) {
        xb.tick(c, done);
        if (!done.empty())
            last = done.back().delivered;
    }
    ASSERT_EQ(done.size(), 100u);
    EXPECT_GE(last, 400u);
}

TEST(Crossbar, PendingCount)
{
    Crossbar xb(2, 2, 32);
    EXPECT_EQ(xb.pending(), 0u);
    xb.inject(0, 0, 32, 1, 0);
    xb.inject(1, 1, 32, 2, 0);
    EXPECT_EQ(xb.pending(), 2u);
    std::vector<NocDelivery> done;
    for (Cycle c = 1; c < 10; ++c)
        xb.tick(c, done);
    EXPECT_EQ(xb.pending(), 0u);
}

// ---- arbitration details the head masks must keep ---------------------------

TEST(Crossbar, NextHeadReachesHigherOutputInSameTick)
{
    // Outputs are served in ascending order: once output 0 takes the
    // head, the input's next packet (to output 3) is the new head
    // and output 3 takes it in the same tick.
    Crossbar xb(2, 4, 32);
    ASSERT_TRUE(xb.inject(0, 0, 32, 1, 0));
    ASSERT_TRUE(xb.inject(0, 3, 32, 2, 0));
    std::vector<NocDelivery> done;
    xb.tick(1, done);
    EXPECT_EQ(xb.pending(), 2u); // both packets are on their outputs
    const auto rest = run(xb, 2, 2);
    EXPECT_EQ(rest[0].delivered, 2u);
    EXPECT_EQ(rest[1].delivered, 2u);
}

TEST(Crossbar, NextHeadToLowerOutputWaitsOneTick)
{
    // The converse: output 0 was already passed over this tick.
    Crossbar xb(2, 4, 32);
    ASSERT_TRUE(xb.inject(0, 3, 32, 1, 0));
    ASSERT_TRUE(xb.inject(0, 0, 32, 2, 0));
    const auto done = run(xb, 1, 2);
    EXPECT_EQ(done[0].tag, 1u);
    EXPECT_EQ(done[0].delivered, 2u);
    EXPECT_EQ(done[1].tag, 2u);
    EXPECT_EQ(done[1].delivered, 3u);
}

TEST(Crossbar, RoundRobinPointerAdvancesOnIdleTicks)
{
    // Inputs 0 and 3 contend for output 0 after `idle` empty ticks.
    // The pointer moved once per tick, so the winner is the first of
    // them at or after idle % 4.
    for (unsigned idle = 0; idle < 8; ++idle) {
        Crossbar xb(4, 1, 32);
        std::vector<NocDelivery> done;
        for (Cycle c = 1; c <= idle; ++c)
            xb.tick(c, done);
        ASSERT_TRUE(done.empty());
        ASSERT_TRUE(xb.inject(0, 0, 32, 0, idle));
        ASSERT_TRUE(xb.inject(3, 0, 32, 3, idle));
        done = run(xb, idle + 1, 2, idle + 10);
        const std::uint64_t winner = idle % 4 == 0 ? 0 : 3;
        EXPECT_EQ(done[0].tag, winner) << "after " << idle << " idle ticks";
    }
}

TEST(Crossbar, WideCrossbarServesAllInputsRoundRobin)
{
    // 96 inputs need a two-word head mask. Every input queues four
    // 1-flit packets to output 0; the output then grants one input
    // per tick, in pointer order, across both mask words.
    constexpr unsigned kInputs = 96, kPerInput = 4;
    Crossbar xb(kInputs, 8, 32, kPerInput);
    for (unsigned in = 0; in < kInputs; ++in)
        for (unsigned k = 0; k < kPerInput; ++k)
            ASSERT_TRUE(xb.inject(in, 0, 32, in, 0));
    const auto done = run(xb, 1, kInputs * kPerInput, 2000);
    for (std::size_t i = 0; i < done.size(); ++i)
        ASSERT_EQ(done[i].tag, i % kInputs) << "delivery " << i;
    EXPECT_EQ(xb.pending(), 0u);
}

TEST(Crossbar, SixtyFourInputsWrapWithinOneMaskWord)
{
    // 64 inputs fill exactly one mask word, the largest crossbar on
    // the one-word pick. Inputs 0 and 63 (the top bit) each queue
    // three 1-flit packets to output 0, which grants one packet per
    // tick to the first queued input at or after the pointer (t-1 at
    // tick t). Once the pointer has passed 0, input 63 wins until it
    // drains; the pointer then points past every queued input, and the
    // grant wraps to input 0 in the low bits of the same word.
    Crossbar xb(64, 4, 32, 3);
    for (unsigned k = 0; k < 3; ++k)
        for (unsigned in : {0u, 63u})
            ASSERT_TRUE(xb.inject(in, 0, 32, in, 0));
    const auto done = run(xb, 1, 6, 200);
    const std::uint64_t want[] = {0, 63, 63, 63, 0, 0};
    ASSERT_EQ(done.size(), 6u);
    for (std::size_t i = 0; i < done.size(); ++i)
        EXPECT_EQ(done[i].tag, want[i]) << "delivery " << i;
    EXPECT_EQ(xb.pending(), 0u);
}

TEST(Crossbar, MatchesScanningReferenceOnRandomTraffic)
{
    // Random injections on shapes with one, two and three mask words,
    // and on both sides of the one-word boundary; deliveries must
    // equal the scanning oracle's every tick.
    const unsigned shapes[][2] = {{12, 8}, {8, 12}, {64, 64}, {64, 8},
                                  {65, 8}, {96, 8},  {130, 5}};
    for (const auto &shape : shapes) {
        const unsigned ins = shape[0], outs = shape[1];
        Crossbar xb(ins, outs, 32, 4);
        ReferenceCrossbar ref(ins, outs, 4);
        XorShiftRng rng(ins * 1000 + outs);
        std::vector<NocDelivery> got, want;
        for (Cycle c = 1; c < 4000; ++c) {
            const unsigned n = static_cast<unsigned>(rng.below(ins / 2 + 2));
            for (unsigned k = 0; k < n; ++k) {
                const unsigned in = static_cast<unsigned>(rng.below(ins));
                // Skewed outputs give head-of-line blocking.
                const unsigned out = static_cast<unsigned>(
                    rng.chance(1, 2) ? rng.below(2) : rng.below(outs));
                const unsigned bytes = rng.chance(1, 3) ? 136 : 8;
                const std::uint64_t tag = rng.next();
                ASSERT_EQ(xb.inject(in, out, bytes, tag, c),
                          ref.inject(in, out, (bytes + 31) / 32, tag, c));
            }
            got.clear();
            want.clear();
            xb.tick(c, got);
            ref.tick(c, want);
            ASSERT_EQ(got.size(), want.size()) << ins << "x" << outs << " @" << c;
            for (std::size_t i = 0; i < got.size(); ++i) {
                ASSERT_EQ(got[i].output, want[i].output);
                ASSERT_EQ(got[i].tag, want[i].tag);
                ASSERT_EQ(got[i].delivered, want[i].delivered);
            }
        }
    }
}

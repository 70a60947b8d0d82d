/**
 * @file
 * Unit tests for the memory coalescer and trace builder.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/rng.hh"
#include "workloads/trace.hh"

using namespace valley;

TEST(Coalesce, FullyCoalescedWarpIsOneLine)
{
    // 32 consecutive 4 B accesses span one 128 B line.
    std::vector<Addr> addrs;
    for (unsigned t = 0; t < 32; ++t)
        addrs.push_back(0x1000 + t * 4);
    const auto lines = coalesce(addrs, 128);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], 0x1000u);
}

TEST(Coalesce, MisalignedWarpSpansTwoLines)
{
    std::vector<Addr> addrs;
    for (unsigned t = 0; t < 32; ++t)
        addrs.push_back(0x1040 + t * 4);
    EXPECT_EQ(coalesce(addrs, 128).size(), 2u);
}

TEST(Coalesce, StridedWarpScattersTo32Lines)
{
    // The Fig. 2 column-major pathology: stride = one matrix row.
    std::vector<Addr> addrs;
    for (unsigned t = 0; t < 32; ++t)
        addrs.push_back(Addr{t} * 2048);
    const auto lines = coalesce(addrs, 128);
    ASSERT_EQ(lines.size(), 32u);
    EXPECT_EQ(lines[1] - lines[0], 2048u);
}

TEST(Coalesce, DuplicateAddressesMerge)
{
    // Broadcast: all threads read the same word.
    std::vector<Addr> addrs(32, 0x4000);
    EXPECT_EQ(coalesce(addrs, 128).size(), 1u);
}

TEST(Coalesce, OutputSortedUnique)
{
    std::vector<Addr> addrs = {0x300, 0x100, 0x300, 0x200};
    const auto lines = coalesce(addrs, 128);
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_LT(lines[0], lines[1]);
    EXPECT_LT(lines[1], lines[2]);
}

TEST(TraceBuilder, AccessStridedGeneratesThreadAddresses)
{
    TraceBuilder b(2, 128, 4);
    b.accessStrided(0, 0x10000, 2048, 32, false);
    const TbTrace tb = b.take();
    ASSERT_EQ(tb.warps.size(), 2u);
    ASSERT_EQ(tb.warps[0].instrs.size(), 1u);
    EXPECT_EQ(tb.warps[0].instrs[0].lines.size(), 32u);
    EXPECT_FALSE(tb.warps[0].instrs[0].write);
    EXPECT_TRUE(tb.warps[1].instrs.empty());
}

TEST(TraceBuilder, AccessLineAligns)
{
    TraceBuilder b(1, 128, 4);
    b.accessLine(0, 0x1234, true);
    const TbTrace tb = b.take();
    ASSERT_EQ(tb.warps[0].instrs.size(), 1u);
    EXPECT_EQ(tb.warps[0].instrs[0].lines[0], 0x1200u);
    EXPECT_TRUE(tb.warps[0].instrs[0].write);
}

TEST(TraceBuilder, DefaultGapApplied)
{
    TraceBuilder b(1, 128, 7);
    b.accessLine(0, 0, false);
    b.accessLine(0, 128, false);
    const TbTrace tb = b.take();
    EXPECT_EQ(tb.warps[0].instrs[0].gap, 7u);
    EXPECT_EQ(tb.warps[0].instrs[1].gap, 7u);
}

TEST(TraceBuilder, ComputeDelayAddsToNextAccess)
{
    TraceBuilder b(1, 128, 4);
    b.computeDelay(0, 100);
    b.accessLine(0, 0, false);
    b.accessLine(0, 128, false);
    const TbTrace tb = b.take();
    EXPECT_EQ(tb.warps[0].instrs[0].gap, 104u);
    EXPECT_EQ(tb.warps[0].instrs[1].gap, 4u); // delay consumed
}

TEST(TraceBuilder, NegativeStrideSupported)
{
    TraceBuilder b(1, 128, 4);
    b.accessStrided(0, 0x10000, -2048, 4, false);
    const TbTrace tb = b.take();
    ASSERT_EQ(tb.warps[0].instrs.size(), 1u);
    EXPECT_EQ(tb.warps[0].instrs[0].lines.size(), 4u);
    EXPECT_EQ(tb.warps[0].instrs[0].lines.front(), 0x10000u - 3 * 2048);
}

TEST(TbTrace, RequestCountSumsAllLines)
{
    TraceBuilder b(2, 128, 4);
    b.accessStrided(0, 0, 128, 8, false); // 8 lines
    b.accessLine(1, 0x4000, true);        // 1 line
    const TbTrace tb = b.take();
    EXPECT_EQ(tb.requestCount(), 9u);
}

TEST(TbTrace, CopiedOrMovedTraceKeepsItsLines)
{
    // Instructions view the TB's own flat arrays: a copy must view
    // its own, a move must carry them along, and neither may depend
    // on the source staying alive.
    TraceBuilder b(2, 128, 4);
    b.accessStrided(0, 0, 128, 8, false); // 8 lines
    b.accessLine(1, 0x4000, true);        // 1 line
    b.accessStrided(0, 0x10000, 4, 64, false); // 2 lines
    auto src = std::make_unique<TbTrace>(b.take());
    const std::vector<std::vector<Addr>> want = {
        {0, 128, 256, 384, 512, 640, 768, 896}, {0x10000, 0x10080},
        {0x4000}};

    const auto check = [&want](const TbTrace &t, const char *what) {
        EXPECT_EQ(t.requestCount(), 11u) << what;
        ASSERT_EQ(t.warps.size(), 2u) << what;
        ASSERT_EQ(t.warps[0].instrs.size(), 2u) << what;
        ASSERT_EQ(t.warps[1].instrs.size(), 1u) << what;
        std::size_t i = 0;
        for (const WarpTrace &w : t.warps)
            for (const MemInstr &instr : w.instrs) {
                EXPECT_EQ(std::vector<Addr>(instr.lines.begin(),
                                            instr.lines.end()),
                          want[i++])
                    << what;
                EXPECT_GE(instr.lines.data(), t.lines().data()) << what;
                EXPECT_LE(instr.lines.data() + instr.lines.size(),
                          t.lines().data() + t.lines().size())
                    << what;
            }
        EXPECT_TRUE(t.warps[1].instrs[0].write) << what;
    };

    TbTrace copied(*src);
    TbTrace assigned;
    assigned = *src;
    TbTrace moved(std::move(*src));
    src.reset();
    check(copied, "copied");
    check(assigned, "copy-assigned");
    check(moved, "moved");
    TbTrace move_assigned;
    move_assigned = std::move(moved);
    check(move_assigned, "move-assigned");
}

TEST(TraceBuilder, EmptyAccessIgnored)
{
    TraceBuilder b(1, 128, 4);
    b.access(0, {}, false);
    EXPECT_EQ(b.take().requestCount(), 0u);
}

namespace {

/** The coalescer's definition: divide, sort, unique. */
std::vector<Addr>
referenceLines(std::vector<Addr> addrs, unsigned line_bytes)
{
    for (Addr &a : addrs)
        a = a / line_bytes * line_bytes;
    std::sort(addrs.begin(), addrs.end());
    addrs.erase(std::unique(addrs.begin(), addrs.end()), addrs.end());
    return addrs;
}

} // namespace

TEST(TraceBuilder, CoalescerMatchesSortUniqueReference)
{
    // Random warps on both sides of the 64-thread stack buffer:
    // explicit unsorted addresses with duplicate lines through
    // access(), positive and negative strides (sub-line strides make
    // duplicate lines) through accessStrided(). Every instruction
    // must equal the reference and own exactly its lines.
    XorShiftRng rng(4242);
    const std::int64_t strides[] = {0, 4, 8, 100, 128, 2048, -4, -8,
                                    -100, -128, -2048, -4096};
    for (int trial = 0; trial < 300; ++trial) {
        const unsigned threads =
            33 + static_cast<unsigned>(rng.below(68)); // 33..100
        TraceBuilder b(2, 128, 4);

        std::vector<Addr> addrs(threads);
        for (Addr &a : addrs)
            a = (rng.below(64) * 128 + rng.below(128)) << rng.below(3);
        b.access(0, addrs, false);

        const std::int64_t stride = strides[rng.below(std::size(strides))];
        const Addr base = 0x100000 + rng.below(1 << 16);
        b.accessStrided(1, base, stride, threads, true);
        std::vector<Addr> strided(threads);
        for (unsigned t = 0; t < threads; ++t)
            strided[t] = static_cast<Addr>(
                static_cast<std::int64_t>(base) +
                static_cast<std::int64_t>(t) * stride);

        const TbTrace tb = b.take();
        ASSERT_EQ(tb.warps[0].instrs.size(), 1u);
        ASSERT_EQ(tb.warps[1].instrs.size(), 1u);
        const std::span<const Addr> explicit_view =
            tb.warps[0].instrs[0].lines;
        const std::span<const Addr> strided_view =
            tb.warps[1].instrs[0].lines;
        const std::vector<Addr> explicit_lines(explicit_view.begin(),
                                               explicit_view.end());
        const std::vector<Addr> strided_lines(strided_view.begin(),
                                              strided_view.end());
        EXPECT_EQ(explicit_lines, referenceLines(addrs, 128))
            << "trial " << trial << " threads " << threads;
        EXPECT_EQ(explicit_lines, coalesce(addrs, 128));
        EXPECT_EQ(strided_lines, referenceLines(strided, 128))
            << "trial " << trial << " stride " << stride;
        // The two instructions sit back to back in the TB's flat line
        // storage, with nothing of the staging room left between.
        EXPECT_EQ(explicit_view.data(), tb.lines().data());
        EXPECT_EQ(strided_view.data(),
                  explicit_view.data() + explicit_view.size());
        EXPECT_EQ(tb.requestCount(),
                  explicit_view.size() + strided_view.size());
    }
}

TEST(TraceBuilder, RejectsNonPowerOfTwoLineSize)
{
    // Alignment is a mask, so a line size that is not a power of two
    // is refused up front instead of mis-aligning every request.
    EXPECT_THROW(TraceBuilder(1, 96, 4), std::invalid_argument);
    EXPECT_THROW(TraceBuilder(1, 0, 4), std::invalid_argument);
    EXPECT_THROW(coalesce(std::vector<Addr>{0x100}, 100),
                 std::invalid_argument);
    EXPECT_NO_THROW(TraceBuilder(1, 64, 4));
}

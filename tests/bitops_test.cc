/**
 * @file
 * Unit tests for common/bitops.hh and common/bit_mask.hh.
 */

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "common/bit_mask.hh"
#include "common/bitops.hh"
#include "common/rng.hh"

using namespace valley;

TEST(Bitops, MaskBasics)
{
    EXPECT_EQ(bits::mask(0), 0u);
    EXPECT_EQ(bits::mask(1), 1u);
    EXPECT_EQ(bits::mask(6), 0x3Fu);
    EXPECT_EQ(bits::mask(30), 0x3FFFFFFFu);
    EXPECT_EQ(bits::mask(64), ~std::uint64_t{0});
}

TEST(Bitops, ExtractField)
{
    const std::uint64_t v = 0b1011'0110'1100;
    EXPECT_EQ(bits::extract(v, 3, 0), 0b1100u);
    EXPECT_EQ(bits::extract(v, 7, 4), 0b0110u);
    EXPECT_EQ(bits::extract(v, 11, 8), 0b1011u);
    EXPECT_EQ(bits::extract(v, 11, 0), v);
}

TEST(Bitops, ExtractSingleBit)
{
    EXPECT_EQ(bits::bit(0b100, 2), 1u);
    EXPECT_EQ(bits::bit(0b100, 1), 0u);
    EXPECT_EQ(bits::bit(~std::uint64_t{0}, 63), 1u);
}

TEST(Bitops, InsertField)
{
    std::uint64_t v = 0;
    v = bits::insert(v, 7, 4, 0xF);
    EXPECT_EQ(v, 0xF0u);
    v = bits::insert(v, 7, 4, 0x3);
    EXPECT_EQ(v, 0x30u);
    // Inserting must not disturb neighboring bits.
    v = bits::insert(0xFFFF, 7, 4, 0);
    EXPECT_EQ(v, 0xFF0Fu);
}

TEST(Bitops, InsertTruncatesOversizedField)
{
    // Field wider than [hi:lo] is masked down.
    EXPECT_EQ(bits::insert(0, 3, 0, 0x1F), 0xFu);
}

TEST(Bitops, SetBit)
{
    EXPECT_EQ(bits::setBit(0, 5, 1), 32u);
    EXPECT_EQ(bits::setBit(32, 5, 0), 0u);
    EXPECT_EQ(bits::setBit(32, 5, 1), 32u);
}

TEST(Bitops, Parity)
{
    EXPECT_EQ(bits::parity(0), 0u);
    EXPECT_EQ(bits::parity(1), 1u);
    EXPECT_EQ(bits::parity(0b1010101), 0u);
    EXPECT_EQ(bits::parity(0b101010), 1u);
}

TEST(Bitops, IsPow2)
{
    EXPECT_FALSE(bits::isPow2(0));
    EXPECT_TRUE(bits::isPow2(1));
    EXPECT_TRUE(bits::isPow2(1024));
    EXPECT_FALSE(bits::isPow2(1023));
}

TEST(Bitops, Log2Exact)
{
    EXPECT_EQ(bits::log2Exact(1), 0u);
    EXPECT_EQ(bits::log2Exact(2), 1u);
    EXPECT_EQ(bits::log2Exact(1u << 20), 20u);
}

TEST(Bitops, Log2Ceil)
{
    EXPECT_EQ(bits::log2Ceil(1), 0u);
    EXPECT_EQ(bits::log2Ceil(2), 1u);
    EXPECT_EQ(bits::log2Ceil(3), 2u);
    EXPECT_EQ(bits::log2Ceil(4), 2u);
    EXPECT_EQ(bits::log2Ceil(5), 3u);
}

TEST(Bitops, Transpose64Orientation)
{
    // After the transpose, bit c of rows[r] is bit r of the original
    // rows[c] — the exact property the bit-sliced accumulator needs
    // (lane[b] position i == address i bit b).
    XorShiftRng rng(31);
    std::array<std::uint64_t, 64> orig, t;
    for (unsigned i = 0; i < 64; ++i)
        orig[i] = t[i] = rng.next();
    bits::transpose64(t.data());
    for (unsigned r = 0; r < 64; ++r)
        for (unsigned c = 0; c < 64; ++c)
            ASSERT_EQ((t[r] >> c) & 1, (orig[c] >> r) & 1)
                << "r=" << r << " c=" << c;
}

TEST(Bitops, Transpose64IsAnInvolution)
{
    XorShiftRng rng(32);
    std::array<std::uint64_t, 64> orig, t;
    for (unsigned i = 0; i < 64; ++i)
        orig[i] = t[i] = rng.next();
    bits::transpose64(t.data());
    bits::transpose64(t.data());
    EXPECT_EQ(t, orig);
}

TEST(Bitops, Transpose64Identity)
{
    // The identity matrix (row r = bit r) is its own transpose.
    std::array<std::uint64_t, 64> t;
    for (unsigned i = 0; i < 64; ++i)
        t[i] = std::uint64_t{1} << i;
    const std::array<std::uint64_t, 64> orig = t;
    bits::transpose64(t.data());
    EXPECT_EQ(t, orig);
}

// ---- runtime SIMD dispatch: every level must be bit-identical to the
// scalar oracle on random and adversarial inputs ------------------------------

namespace {

/** Kernel tables this CPU can actually run, scalar first. */
std::vector<const bits::SimdOps *>
availableLevels()
{
    std::vector<const bits::SimdOps *> out;
    for (const bits::SimdLevel level :
         {bits::SimdLevel::Scalar, bits::SimdLevel::Avx2,
          bits::SimdLevel::Avx512})
        if (const bits::SimdOps *ops = bits::simdOpsFor(level))
            out.push_back(ops);
    return out;
}

/** Word patterns that stress shuffle/blend/mask lanes, not just RNG. */
std::vector<std::uint64_t>
adversarialWords()
{
    std::vector<std::uint64_t> w = {
        0,
        ~std::uint64_t{0},
        0x5555555555555555ull,
        0xAAAAAAAAAAAAAAAAull,
        0x0F0F0F0F0F0F0F0Full,
        0x00FF00FF00FF00FFull,
        0x0000FFFF0000FFFFull,
        0x00000000FFFFFFFFull,
        0x8000000000000001ull,
        1,
    };
    for (unsigned b = 0; b < 64; b += 7)
        w.push_back(std::uint64_t{1} << b);
    return w;
}

/** Lengths around every vector-width boundary, plus empty. */
const std::size_t kLens[] = {0,  1,  2,  3,  4,  5,   7,   8,
                             9,  15, 16, 17, 31, 32,  33,  63,
                             64, 65, 96, 100, 511, 1024, 1025};

std::vector<std::uint64_t>
randomWords(std::size_t n, XorShiftRng &rng)
{
    std::vector<std::uint64_t> v(n);
    for (std::uint64_t &x : v)
        x = rng.next();
    return v;
}

} // namespace

TEST(SimdDispatch, ScalarTableAlwaysAvailable)
{
    EXPECT_EQ(bits::scalarSimdOps().level, bits::SimdLevel::Scalar);
    EXPECT_STREQ(bits::scalarSimdOps().name, "scalar");
    ASSERT_NE(bits::simdOpsFor(bits::SimdLevel::Scalar), nullptr);
    // The dispatched table is one of the constructable ones.
    const bits::SimdOps &d = bits::simdOps();
    EXPECT_EQ(bits::simdOpsFor(d.level), &d);
}

TEST(SimdDispatch, Transpose64MatchesScalar)
{
    XorShiftRng rng(77);
    for (const bits::SimdOps *ops : availableLevels()) {
        for (int trial = 0; trial < 50; ++trial) {
            std::array<std::uint64_t, 64> a, b;
            for (unsigned i = 0; i < 64; ++i)
                a[i] = b[i] = rng.next();
            bits::transpose64Scalar(a.data());
            ops->transpose64(b.data());
            ASSERT_EQ(a, b) << ops->name << " trial " << trial;
        }
        // Adversarial: constant-pattern rows hit degenerate blends.
        for (const std::uint64_t w : adversarialWords()) {
            std::array<std::uint64_t, 64> a, b;
            a.fill(w);
            b.fill(w);
            bits::transpose64Scalar(a.data());
            ops->transpose64(b.data());
            ASSERT_EQ(a, b) << ops->name << " word " << w;
        }
    }
}

TEST(SimdDispatch, PopcountWordsMatchesScalar)
{
    XorShiftRng rng(78);
    const bits::SimdOps &oracle = bits::scalarSimdOps();
    for (const bits::SimdOps *ops : availableLevels())
        for (const std::size_t n : kLens) {
            const auto v = randomWords(n, rng);
            ASSERT_EQ(ops->popcountWords(v.data(), n),
                      oracle.popcountWords(v.data(), n))
                << ops->name << " n=" << n;
        }
}

TEST(SimdDispatch, XorPopcount2MatchesScalar)
{
    // The search scores proposals write-free: every tier must return
    // the scalar count and leave both inputs as they were.
    XorShiftRng rng(79);
    const bits::SimdOps &oracle = bits::scalarSimdOps();
    for (const bits::SimdOps *ops : availableLevels())
        for (const std::size_t n : kLens) {
            auto a = randomWords(n, rng);
            const auto b = randomWords(n, rng);
            const auto adv = adversarialWords();
            for (std::size_t i = 0; i < n; i += 3)
                a[i] = adv[i % adv.size()];
            const auto a0 = a;
            const auto b0 = b;
            ASSERT_EQ(ops->xorPopcount2(a.data(), b.data(), n),
                      oracle.xorPopcount2(a.data(), b.data(), n))
                << ops->name << " n=" << n;
            ASSERT_EQ(a, a0) << ops->name << " n=" << n;
            ASSERT_EQ(b, b0) << ops->name << " n=" << n;
        }
}

TEST(SimdDispatch, XorPopcountNMatchesScalar)
{
    XorShiftRng rng(80);
    const bits::SimdOps &oracle = bits::scalarSimdOps();
    for (const bits::SimdOps *ops : availableLevels())
        for (const std::size_t n : kLens)
            for (const std::size_t nsrc : {0u, 1u, 2u, 5u, 13u}) {
                std::vector<std::vector<std::uint64_t>> bufs;
                std::vector<const std::uint64_t *> srcs;
                for (std::size_t s = 0; s < nsrc; ++s) {
                    bufs.push_back(randomWords(n, rng));
                    srcs.push_back(bufs.back().data());
                }
                std::vector<std::uint64_t> d1(n, 0xDEAD),
                    d2(n, 0xBEEF);
                const std::uint64_t o1 = oracle.xorPopcountN(
                    srcs.data(), nsrc, d1.data(), n);
                const std::uint64_t o2 = ops->xorPopcountN(
                    srcs.data(), nsrc, d2.data(), n);
                ASSERT_EQ(o1, o2)
                    << ops->name << " n=" << n << " nsrc=" << nsrc;
                ASSERT_EQ(d1, d2)
                    << ops->name << " n=" << n << " nsrc=" << nsrc;
                // Null dst: count-only mode.
                ASSERT_EQ(
                    ops->xorPopcountN(srcs.data(), nsrc, nullptr, n),
                    o1)
                    << ops->name << " n=" << n << " nsrc=" << nsrc;
            }
}

TEST(SimdDispatch, XorPopcountEachMatchesScalar)
{
    // Per-word counts are the only output: every tier must match the
    // scalar counts and leave both inputs as they were.
    XorShiftRng rng(81);
    const bits::SimdOps &oracle = bits::scalarSimdOps();
    for (const bits::SimdOps *ops : availableLevels())
        for (const std::size_t n : kLens) {
            auto a = randomWords(n, rng);
            const auto b = randomWords(n, rng);
            // Sprinkle adversarial words across the run.
            const auto adv = adversarialWords();
            for (std::size_t i = 0; i < n; i += 3)
                a[i] = adv[i % adv.size()];
            const auto a0 = a;
            const auto b0 = b;
            std::vector<std::uint64_t> c1(n), c2(n, 0xDEAD);
            oracle.xorPopcountEach(a.data(), b.data(), c1.data(), n);
            ops->xorPopcountEach(a.data(), b.data(), c2.data(), n);
            ASSERT_EQ(c1, c2) << ops->name << " n=" << n;
            ASSERT_EQ(a, a0) << ops->name << " n=" << n;
            ASSERT_EQ(b, b0) << ops->name << " n=" << n;
        }
}

namespace {

/**
 * `n` words ending exactly at a page boundary, followed by a
 * PROT_NONE page: any read or write past the last word faults.
 */
class GuardedWords
{
  public:
    explicit GuardedWords(std::size_t n)
        : page_(static_cast<std::size_t>(sysconf(_SC_PAGESIZE)))
    {
        base_ = mmap(nullptr, 2 * page_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (base_ == MAP_FAILED ||
            mprotect(static_cast<char *>(base_) + page_, page_,
                     PROT_NONE) != 0)
            throw std::runtime_error("GuardedWords: mmap failed");
        words_ = reinterpret_cast<std::uint64_t *>(
                     static_cast<char *>(base_) + page_) -
                 n;
    }
    GuardedWords(const GuardedWords &) = delete;
    GuardedWords &operator=(const GuardedWords &) = delete;
    ~GuardedWords() { munmap(base_, 2 * page_); }

    std::uint64_t *data() const { return words_; }

  private:
    std::size_t page_;
    void *base_ = nullptr;
    std::uint64_t *words_ = nullptr;
};

} // namespace

TEST(SimdDispatch, TailsStopAtAPageBoundary)
{
    // However a tier finishes the words that do not fill a vector,
    // it must not read or write past its inputs: inputs (and
    // xorPopcountN's dst) that end right before an unmapped page
    // must count as the scalar oracle does and must not fault.
    XorShiftRng rng(82);
    const bits::SimdOps &oracle = bits::scalarSimdOps();
    for (const bits::SimdOps *ops : availableLevels())
        for (std::size_t n = 1; n <= 17; ++n) {
            const GuardedWords a(n), b(n), c(n), dst(n);
            for (std::size_t i = 0; i < n; ++i) {
                a.data()[i] = rng.next();
                b.data()[i] = rng.next();
                c.data()[i] = rng.next();
            }
            EXPECT_EQ(ops->xorPopcount2(a.data(), b.data(), n),
                      oracle.xorPopcount2(a.data(), b.data(), n))
                << ops->name << " n=" << n;
            const std::uint64_t *srcs[] = {a.data(), b.data(), c.data()};
            std::vector<std::uint64_t> want(n);
            const std::uint64_t ones =
                oracle.xorPopcountN(srcs, 3, want.data(), n);
            EXPECT_EQ(ops->xorPopcountN(srcs, 3, dst.data(), n), ones)
                << ops->name << " n=" << n;
            EXPECT_TRUE(std::equal(want.begin(), want.end(), dst.data()))
                << ops->name << " n=" << n;
            EXPECT_EQ(ops->xorPopcountN(srcs, 3, nullptr, n), ones)
                << ops->name << " n=" << n;
        }
}

TEST(BitMask, MatchesVectorOfBoolAcrossWordBoundaries)
{
    // Random set/reset against a std::vector<bool> model on sizes on
    // both sides of one and two words; every query must agree.
    for (std::size_t n : {1u, 63u, 64u, 65u, 128u, 130u}) {
        XorShiftRng rng(n);
        BitMask a(n), b(n);
        std::vector<bool> ma(n), mb(n);
        for (unsigned step = 0; step < 400; ++step) {
            const std::size_t i = rng.below(n);
            const bool on = rng.chance(2, 3);
            BitMask &m = rng.chance(1, 2) ? a : b;
            std::vector<bool> &model = &m == &a ? ma : mb;
            on ? m.set(i) : m.reset(i);
            model[i] = on;

            std::vector<std::size_t> want_a, want_both;
            for (std::size_t k = 0; k < n; ++k) {
                ASSERT_EQ(a.test(k), ma[k]) << n << " bit " << k;
                if (ma[k])
                    want_a.push_back(k);
                if (ma[k] && mb[k])
                    want_both.push_back(k);
            }
            EXPECT_FALSE(a.test(n + 64)); // out of range reads as clear

            std::vector<std::size_t> got;
            a.findIf([&](std::size_t k) {
                got.push_back(k);
                return false;
            });
            ASSERT_EQ(got, want_a) << n;
            got.clear();
            BitMask::findIfBoth(a, b, [&](std::size_t k) {
                got.push_back(k);
                return false;
            });
            ASSERT_EQ(got, want_both) << n;

            // firstAndNot from every start, including past the end.
            for (std::size_t from = 0; from <= n + 1; ++from) {
                std::size_t want = BitMask::npos;
                for (std::size_t k = from; k < n; ++k)
                    if (ma[k] && !mb[k]) {
                        want = k;
                        break;
                    }
                ASSERT_EQ(BitMask::firstAndNot(a, b, from), want)
                    << n << " from " << from;
            }
        }
    }
}

TEST(BitMask, FindIfStopsAtFirstTrue)
{
    BitMask m(100);
    for (std::size_t i : {3u, 64u, 70u, 99u})
        m.set(i);
    std::vector<std::size_t> seen;
    EXPECT_TRUE(m.findIf([&](std::size_t i) {
        seen.push_back(i);
        return i >= 64;
    }));
    EXPECT_EQ(seen, (std::vector<std::size_t>{3, 64}));
    EXPECT_FALSE(m.findIf([](std::size_t) { return false; }));
}

/**
 * @file
 * Fixed-size bit set over 64-bit words, for the simulator's "which
 * components can act" masks (candidate warps, queued banks, crossbar
 * outputs, LLC slices).
 *
 * `std::vector<bool>` hides its words, and `std::bitset` fixes the
 * size at compile time; the simulator sizes its masks from the
 * configuration (any warp or bank count) and needs to walk the set
 * bits of one mask, or of two ANDed together, in ascending order.
 */

#ifndef VALLEY_COMMON_BIT_MASK_HH
#define VALLEY_COMMON_BIT_MASK_HH

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace valley {

class BitMask
{
  public:
    BitMask() = default;

    /** `bits` bits, all clear. */
    explicit BitMask(std::size_t bits) : words_((bits + 63) / 64, 0) {}

    void
    set(std::size_t i)
    {
        assert(i / 64 < words_.size());
        words_[i / 64] |= std::uint64_t{1} << (i % 64);
    }

    void
    reset(std::size_t i)
    {
        assert(i / 64 < words_.size());
        words_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
    }

    bool
    test(std::size_t i) const
    {
        return i / 64 < words_.size() &&
               (words_[i / 64] >> (i % 64) & 1) != 0;
    }

    /**
     * Calls `f(i)` for every set bit `i`, ascending, until `f`
     * returns true; returns whether it did. `f` may clear bit `i` or
     * any other bit of the word it is in: the word is read once.
     */
    template <typename F>
    bool
    findIf(F &&f) const
    {
        for (std::size_t w = 0; w < words_.size(); ++w)
            for (std::uint64_t m = words_[w]; m; m &= m - 1)
                if (f(w * 64 + static_cast<std::size_t>(
                                   std::countr_zero(m))))
                    return true;
        return false;
    }

    static constexpr std::size_t npos = ~std::size_t{0};

    /**
     * Lowest bit `i >= from` set in `a` and clear in `b` (equal
     * sizes), or `npos`. Reads the words as they are now, so a caller
     * walking upwards sees bits set above `from` since its last call.
     */
    static std::size_t
    firstAndNot(const BitMask &a, const BitMask &b, std::size_t from)
    {
        assert(a.words_.size() == b.words_.size());
        std::size_t w = from / 64;
        if (w >= a.words_.size())
            return npos;
        std::uint64_t m = (a.words_[w] & ~b.words_[w]) &
                          (~std::uint64_t{0} << (from % 64));
        while (!m) {
            if (++w == a.words_.size())
                return npos;
            m = a.words_[w] & ~b.words_[w];
        }
        return w * 64 + static_cast<std::size_t>(std::countr_zero(m));
    }

    /** `findIf` over the bits set in both `a` and `b` (equal sizes). */
    template <typename F>
    static bool
    findIfBoth(const BitMask &a, const BitMask &b, F &&f)
    {
        assert(a.words_.size() == b.words_.size());
        for (std::size_t w = 0; w < a.words_.size(); ++w)
            for (std::uint64_t m = a.words_[w] & b.words_[w]; m;
                 m &= m - 1)
                if (f(w * 64 + static_cast<std::size_t>(
                                   std::countr_zero(m))))
                    return true;
        return false;
    }

  private:
    std::vector<std::uint64_t> words_;
};

} // namespace valley

#endif // VALLEY_COMMON_BIT_MASK_HH

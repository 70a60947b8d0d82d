/**
 * @file
 * Bit-plane trace representation for fast BIM-candidate scoring.
 *
 * The BIM search loop (Section IV-B's design-time methodology turned
 * into `search::BimSearch`) must score thousands of candidate
 * matrices against one workload. Re-profiling the workload per
 * candidate — even through the bit-sliced accumulator — would re-read
 * every trace address each time. `TracePlanes` instead streams each
 * TB's coalesced request addresses through `bits::transpose64`
 * *once*, keeping the transposed lanes: for every tracked address bit
 * `b` and every TB, one packed 64-requests-per-word bit plane.
 *
 * Because a BIM output bit is the XOR of the input bits its row taps,
 * the mapped output plane is just the XOR of the tapped input planes,
 * and its per-TB Bit Value Ratio is one popcount pass — no address is
 * ever touched again. A candidate row is scored in
 * O(taps x requests / 64 + #TBs) instead of O(requests x bits).
 *
 * ## Arena layout
 *
 * All planes of one kernel live in a single contiguous arena
 * allocation, **plane-major**, holding a strip only for each *live*
 * input bit of the kernel — a bit some request of the kernel sets
 * (`kernelLive`). A dead bit's strip would be all zero: bits 0-6 of
 * 128 B line addresses, and bits above the kernel's footprint. Live
 * strips sit in ascending bit order, and a per-kernel byte table
 * filled at construction maps a live bit `b` to its strip index; the
 * strip holds every TB's lane words for that bit, in TB-id order,
 * `kwords` words long. A
 * TB's segment sits at the same local word offset in every strip (its
 * row-plane offset relative to the kernel). Extraction stages only
 * each TB's live lanes, so no full-width arena is ever built; over
 * the 16 Table II workloads at scale 1.0 about half the strips are
 * dead (DESIGN.md "Search throughput").
 *
 * Incremental moves stream: a tap-toggle reads one whole strip
 * sequentially instead of taking a cache miss per TB (the strips of a
 * large workload span megabytes, so a TB-major layout made every
 * per-TB plane read a fresh line), and uniform one-word-per-TB
 * kernels — every synth workload — XOR and popcount the strip through
 * one `SimdOps::xorPopcountEach` call. Every reader taps
 * `row & live_k` only; a dead tap adds exactly zero to the XOR, so the
 * one-counts are the ones a full-width arena gives. Resident arena
 * bytes are reported through the metrics registry gauge
 * `search.plane_bytes` (added on construction, subtracted on
 * destruction) and its high-water mark `search.plane_bytes_peak`;
 * the counter `search.plane_strips_dead` adds up the strips not
 * stored.
 *
 * ## Kernel aliasing
 *
 * Iterative workloads relaunch kernels whose traces equal an earlier
 * launch's (SC, SPMV, NN, FWT, SRAD2: 110 of the 1,706 kernels of the
 * 16 Table II workloads at scale 1.0). Construction matches each
 * kernel against the earlier ones — live mask, per-TB requests and
 * words, and every strip word equal; hash first, then a full compare
 * — and a match becomes an *alias*: it stores no arena, shares its
 * representative's row-plane slice, and its entropy is copied from
 * the representative's, which was computed first in kernel order.
 * Equal planes give equal one-counts under every row, so the copy is
 * the value the kernel would get on its own. The counter
 * `search.plane_kernels_aliased` adds up the aliases.
 *
 * ## Incremental scoring
 *
 * A kernel's slice of an output plane under row `r` depends only on
 * `r & live_k`, where `live_k` is the set of input bits whose strip
 * would have any one bit in kernel `k` (the OR of its addresses,
 * recorded at construction; pad lanes are zero, so the mask is
 * exact). The search therefore caches, per row, the combined output
 * plane plus one entropy value per kernel, and every move re-scores
 * only the kernels it can change:
 *
 *  - `combineRow` builds a row from scratch: its plane and its
 *    per-kernel entropies;
 *  - `toggleRow` scores a tap toggle of input bit `b` — only kernels
 *    with `b` in `live_k` change — and `xorRows` a row XOR with a row
 *    `j` — only kernels where `row_j & live_k != 0` change. Both read
 *    the cached plane and count `base ^ strip` per TB without storing
 *    the XOR (write-free proposals);
 *  - `applyToggle`/`applyXor` XOR the cached plane in place, changed
 *    kernels only and each shared slice once, once a move is
 *    accepted;
 *  - `entropyFromKernels` re-sums `(requests_k / total) * e_k` over
 *    every kernel, aliases included, in kernel order.
 *
 * One-counts are exact integers and a kernel's entropy is a pure
 * function of its one-counts, so every value is bit-identical to
 * `rowEntropy` recomputed from scratch, which uses no cached plane.
 * `rowEntropy` reads the same live strips and aliases, so it cannot
 * vouch for the layout itself: that oracle is
 * `workloads::profileWorkload`, which maps every trace address of
 * every kernel (`profileFor` against it in
 * `tests/bim_search_test.cc`).
 *
 * The arithmetic mirrors `workloads::profileWorkload` exactly: the
 * per-TB one-counts are the same integers the scalar and sliced
 * accumulators produce, the BVR division is the same, and the window
 * metric and kernel combination reuse `entropy/window_entropy.hh` —
 * so `profileFor` is bit-identical to profiling the workload under
 * the same matrix (asserted in `tests/bim_search_test.cc`).
 */

#ifndef VALLEY_SEARCH_TRACE_PLANES_HH
#define VALLEY_SEARCH_TRACE_PLANES_HH

#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

#include "bim/bit_matrix.hh"
#include "common/bitops.hh"
#include "entropy/window_entropy.hh"
#include "workloads/workload.hh"

namespace valley {
namespace search {

/** Knobs for building a workload's bit planes. */
struct PlaneOptions
{
    unsigned numBits = 30; ///< physical address bits tracked
    /**
     * Worker threads for plane extraction: 1 = serial, 0 = one per
     * hardware thread. Every TB writes only its own preallocated
     * plane slot, so the result is bit-identical at any thread count.
     */
    unsigned threads = 0;
    /**
     * Pin this instance to the scalar kernel table regardless of CPU
     * and environment — the in-process oracle leg for SIMD identity
     * tests. (All levels are bit-identical anyway; this exists so one
     * process can compare both paths.)
     */
    bool forceScalar = false;
};

/**
 * Transposed per-TB request planes of one workload.
 *
 * Immutable after construction; the scoring entry points are const
 * and touch no shared mutable state, so one instance can be shared by
 * concurrent search restarts. Callers owning incremental row caches
 * pass their own plane and per-kernel entropy storage in.
 */
class TracePlanes
{
  public:
    /** Generate and transpose every TB trace of `workload`. */
    TracePlanes(const Workload &workload, const PlaneOptions &opts);

    TracePlanes(const TracePlanes &) = delete;
    TracePlanes &operator=(const TracePlanes &) = delete;
    TracePlanes(TracePlanes &&other) noexcept;
    TracePlanes &operator=(TracePlanes &&other) noexcept;
    ~TracePlanes();

    /** Tracked address-bit width (matrix size the planes can score). */
    unsigned numBits() const { return nbits; }

    /** Total coalesced requests across all kernels. */
    std::uint64_t totalRequests() const { return requests_; }

    /** Number of kernels represented. */
    std::size_t numKernels() const { return kernels.size(); }

    /**
     * 64-request words in one combined row plane — the concatenation
     * of every TB's lane, in (kernel, TB) order, over the kernels that
     * are not aliases (`plane` buffers passed to the incremental
     * entry points have this length).
     */
    std::size_t planeWords() const { return plane_words; }

    /** Resident arena bytes (the `search.plane_bytes` gauge value);
     *  aliases store none. */
    std::uint64_t planeBytes() const;

    /**
     * Window entropy of the output bit produced by XOR-combining the
     * input bits selected by `row_mask` (a `BitMatrix` row), averaged
     * across kernels weighted by request count — exactly the value
     * `profileWorkload` would report for that output bit under a
     * matrix containing this row. Bits of `row_mask` at or above
     * `numBits()` must be clear. The from-scratch oracle the
     * incremental path is tested against: it reads every tapped
     * stored strip and uses no cached plane (aliases copy their
     * representative's value, as everywhere).
     */
    double rowEntropy(std::uint64_t row_mask, unsigned window,
                      EntropyMetric metric) const;

    /**
     * Input bits some request of kernel `k` sets — the bits with a
     * stored strip: kernel `k`'s output under a row depends only on
     * `row & kernelLive(k)`.
     */
    std::uint64_t kernelLive(std::size_t k) const
    {
        return kernels[k].live;
    }

    /**
     * Build the combined output plane of `row_mask` into
     * `plane[0, planeWords())` and each kernel's window entropy into
     * `kent[0, numKernels())`.
     */
    void combineRow(std::uint64_t row_mask, std::uint64_t *plane,
                    double *kent, unsigned window,
                    EntropyMetric metric) const;

    /**
     * Score a tap toggle: for every kernel with `bit` live (the only
     * kernels with a strip for it), set `kent[k]` to the entropy of
     * kernel `k` under `base ^ inputPlane(bit)`; leave every other
     * entry untouched (those kernels cannot change). Writes no plane.
     * Returns the number of entries set, aliases included.
     */
    std::size_t toggleRow(const std::uint64_t *base, unsigned bit,
                          double *kent, unsigned window,
                          EntropyMetric metric) const;

    /**
     * Score a row XOR: for every kernel where `b_mask` (the row mask
     * whose plane is `b`) has a live bit, set `kent[k]` to the
     * entropy of kernel `k` under `a ^ b`; leave every other entry
     * untouched. Writes no plane. Returns the number of entries set,
     * aliases included.
     */
    std::size_t xorRows(const std::uint64_t *a, const std::uint64_t *b,
                        std::uint64_t b_mask, double *kent,
                        unsigned window, EntropyMetric metric) const;

    /** `plane ^= inputPlane(bit)` on the kernels where `bit` is live. */
    void applyToggle(std::uint64_t *plane, unsigned bit) const;

    /**
     * `plane ^= other` on the kernels where `other_mask` (the row mask
     * whose plane is `other`) has a live bit. `other` must not alias
     * `plane`.
     */
    void applyXor(std::uint64_t *plane, const std::uint64_t *other,
                  std::uint64_t other_mask) const;

    /**
     * The entropy value of a row whose per-kernel entropies are
     * `kent` (as produced by `combineRow`/`toggleRow`/`xorRows`):
     * `EntropyProfile::combine`'s request-weighted sum, in kernel
     * order. Bit-identical to `rowEntropy` of the same row.
     */
    double entropyFromKernels(const double *kent) const;

    /**
     * Upper bound on every row's entropy: `entropyFromKernels` over
     * all-1.0 kernels (a kernel's window entropy is at most 1, and
     * the weighted sum is monotone in each kernel). Computed once at
     * construction; the search's early rejection bounds with it.
     */
    double maxEntropy() const { return maxEntropy_; }

    /**
     * Full workload profile under matrix `m`: per output bit `r`,
     * `rowEntropy(m.row(r))`. Bit-identical to
     * `profileWorkload(workload, opts with mapper = m)`.
     */
    EntropyProfile profileFor(const BitMatrix &m, unsigned window,
                              EntropyMetric metric) const;

  private:
    /** One TB's view into its kernel's arena. */
    struct TbView
    {
        std::uint64_t requests = 0;
        std::uint32_t words = 0; ///< 64-request words per bit plane
        std::size_t off = 0;     ///< first word in its kernel's strips

        bool operator==(const TbView &) const = default;
    };

    /**
     * One kernel's TBs (TB-id order) over one contiguous plane-major
     * arena of live strips only: live bit `b`'s strip at
     * `arena[stripIdx[b] * kwords]`, TB `t`'s segment at offset
     * `tbs[t].off` within every strip and within the kernel's slice
     * of a row plane, which starts at `rowBase`.
     *
     * An alias (`rep` != its own index) has the same planes as the
     * earlier kernel `rep`: it stores no TBs and no arena, shares
     * `rep`'s row-plane slice, and copies `rep`'s entropy.
     */
    struct KernelPlanes
    {
        std::vector<TbView> tbs;
        std::vector<std::uint64_t> arena;
        /** Live bit -> index of its strip (dead bits: unused). */
        std::array<std::uint8_t, 64> stripIdx{};
        std::uint64_t requests = 0; ///< combine() weight
        std::uint64_t live = 0;     ///< bits with a stored strip
        std::size_t rowBase = 0;    ///< first word in a row plane
        std::size_t kwords = 0;     ///< words per strip (sum of TBs)
        std::size_t rep = 0;        ///< first kernel with these planes
        bool uniform = false;       ///< every TB has words == 1

        /** Strip of live bit `b`. */
        const std::uint64_t *strip(unsigned b) const
        {
            assert((live >> b) & 1);
            return arena.data() + stripIdx[b] * kwords;
        }
        std::uint64_t *strip(unsigned b)
        {
            assert((live >> b) & 1);
            return arena.data() + stripIdx[b] * kwords;
        }
    };

    /**
     * Exact per-TB one-counts of kernel `k`'s slice of `row_mask`'s
     * output plane (live taps only) into `ones[0, k.tbs.size())`; the
     * slice itself is stored at `plane` (kernel-local offsets) unless
     * it is null.
     */
    void kernelRowOnes(const KernelPlanes &k, std::uint64_t row_mask,
                       std::uint64_t *plane, std::uint64_t *ones) const;

    /**
     * Exact per-TB one-counts of `a ^ b` over kernel `k`'s slice
     * (`a`, `b` at kernel-local offsets), without storing the XOR.
     */
    void kernelXorOnes(const KernelPlanes &k, const std::uint64_t *a,
                       const std::uint64_t *b,
                       std::uint64_t *ones) const;

    /** Window entropy of kernel `k`'s BVR series from its one-counts. */
    static double kernelEntropy(const KernelPlanes &k,
                                const std::uint64_t *ones,
                                unsigned window, EntropyMetric metric);

    void releaseGauge() noexcept;

    unsigned nbits;
    std::uint64_t requests_ = 0;
    double maxEntropy_ = 0.0;
    std::size_t plane_words = 0;
    const bits::SimdOps *ops; ///< kernel table (scalar if forced)
    std::vector<KernelPlanes> kernels;
};

} // namespace search
} // namespace valley

#endif // VALLEY_SEARCH_TRACE_PLANES_HH

#include "search/trace_planes.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "common/metrics.hh"
#include "common/thread_pool.hh"

namespace valley {
namespace search {

namespace {

/** Extraction staging buffer for one TB (pre-arena). */
struct TbStage
{
    std::uint64_t requests = 0;
    std::uint32_t words = 0;
    std::uint64_t live = 0;          ///< tracked bits some request sets
    std::vector<std::uint64_t> bits; ///< live lanes, ascending bit
};

/**
 * Extract the bit planes of one TB: buffer 64 addresses, transpose
 * them with the selected kernel table, and append lane `b` to plane
 * `b` for every bit `b` some request of the TB sets (the OR of its
 * addresses; every other lane is zero and is not staged). The tail
 * block is zero-padded, so pad lanes carry no one-bits and the
 * popcount-derived one-counts stay exact at any stream length.
 */
void
extractTb(const Kernel &kernel, TbId tb, unsigned nbits,
          const bits::SimdOps &ops, TbStage &out)
{
    const TbTrace trace = kernel.trace(tb);
    const std::uint64_t requests = trace.requestCount();
    const std::uint32_t words =
        static_cast<std::uint32_t>((requests + 63) / 64);
    std::uint64_t live = 0;
    for (Addr a : trace.lines())
        live |= a;
    live &= bits::mask(nbits);
    out.bits.assign(static_cast<std::size_t>(std::popcount(live)) * words,
                    0);

    std::uint64_t block[64];
    unsigned fill = 0;
    std::uint32_t word = 0;
    const auto flush = [&] {
        std::fill(block + fill, block + 64, 0);
        ops.transpose64(block);
        // After the transpose, bit r of block[c] is bit c of address
        // r: block[c] is the 64-request lane of address bit c.
        std::size_t lane = word;
        for (std::uint64_t m = live; m != 0; m &= m - 1, lane += words)
            out.bits[lane] = block[std::countr_zero(m)];
        ++word;
        fill = 0;
    };
    // Requests in generation order: one-counts are sums over the TB,
    // so the order within it changes none of them.
    for (Addr a : trace.lines()) {
        block[fill] = a;
        if (++fill == 64)
            flush();
    }
    if (fill > 0)
        flush();
    assert(word == words);
    out.requests = requests;
    out.words = words;
    out.live = live;
}

/** TB-range task granularity, matching workloads/profiler.cc. */
constexpr unsigned kTbsPerTask = 256;

/** Fold one word into a running hash (multiply-xorshift). */
inline std::uint64_t
hashStep(std::uint64_t h, std::uint64_t v)
{
    h = (h ^ v) * 0x9E3779B97F4A7C15ULL;
    return h ^ (h >> 29);
}

} // namespace

TracePlanes::TracePlanes(const Workload &workload,
                         const PlaneOptions &opts)
    : nbits(opts.numBits),
      ops(opts.forceScalar ? &bits::scalarSimdOps() : &bits::simdOps())
{
    if (nbits == 0 || nbits > 64)
        throw std::invalid_argument("TracePlanes: bad bit width");

    const auto &ks = workload.kernels();
    kernels.resize(ks.size());

    // Stage 1: generate + transpose every TB trace into per-TB
    // staging buffers. Traces are expensive to generate, so they are
    // produced exactly once; the arena pass below only copies words.
    std::vector<std::vector<TbStage>> staged(ks.size());
    std::size_t tb_tasks = 0;
    for (std::size_t ki = 0; ki < ks.size(); ++ki) {
        staged[ki].resize(ks[ki].numTbs());
        tb_tasks += (ks[ki].numTbs() + kTbsPerTask - 1) / kTbsPerTask;
    }

    const auto extractRange = [&](std::size_t ki, TbId lo, TbId hi) {
        for (TbId tb = lo; tb < hi; ++tb)
            extractTb(ks[ki], tb, nbits, *ops, staged[ki][tb]);
    };

    const unsigned threads = opts.threads == 0
                                 ? ThreadPool::defaultThreads()
                                 : opts.threads;
    if (threads <= 1 || tb_tasks <= 1) {
        for (std::size_t ki = 0; ki < ks.size(); ++ki)
            extractRange(ki, 0, ks[ki].numTbs());
    } else {
        ThreadPool pool(static_cast<unsigned>(
            std::min<std::size_t>(threads, tb_tasks)));
        for (std::size_t ki = 0; ki < ks.size(); ++ki)
            for (TbId lo = 0; lo < ks[ki].numTbs(); lo += kTbsPerTask)
                pool.submit([&extractRange, &ks, ki, lo] {
                    extractRange(ki, lo,
                                 std::min<TbId>(lo + kTbsPerTask,
                                                ks[ki].numTbs()));
                });
        pool.run();
    }

    // Stage 2 (serial): pack each kernel's staged lanes into one
    // contiguous plane-major arena with a strip per live bit (the
    // bits some request of the kernel sets), in ascending bit order.
    // Bit b's strip holds every TB's lane words in TB-id order, so
    // incremental moves stream one strip sequentially. A dead bit's
    // strip would be all zero (pad lanes are zero, so the mask is
    // exact) and adds nothing to any row that taps it. Staging
    // buffers are released as they are copied, so the transient
    // overhead shrinks TB by TB.
    //
    // A kernel whose live mask, per-TB requests and words, and strips
    // all equal an earlier kernel's is an alias of it: every row
    // gives both the same one-counts and so the same entropy. Its
    // arena is dropped and it shares the earlier kernel's row-plane
    // slice. Candidates are found by hash and confirmed word by word.
    std::uint64_t dead_strips = 0;
    std::uint64_t aliased = 0;
    std::unordered_multimap<std::uint64_t, std::size_t> by_hash;
    for (std::size_t ki = 0; ki < ks.size(); ++ki) {
        KernelPlanes &k = kernels[ki];
        k.rep = ki;
        k.tbs.resize(staged[ki].size());
        k.uniform = !k.tbs.empty();
        for (std::size_t t = 0; t < staged[ki].size(); ++t) {
            const TbStage &s = staged[ki][t];
            TbView &v = k.tbs[t];
            v.requests = s.requests;
            v.words = s.words;
            v.off = k.kwords;
            k.kwords += s.words;
            k.uniform = k.uniform && s.words == 1;
            k.live |= s.live;
            k.requests += s.requests;
        }
        std::size_t nstrips = 0;
        for (std::uint64_t m = k.live; m != 0; m &= m - 1)
            k.stripIdx[std::countr_zero(m)] =
                static_cast<std::uint8_t>(nstrips++);
        dead_strips += nbits - nstrips;
        k.arena.resize(nstrips * k.kwords);
        for (std::size_t t = 0; t < staged[ki].size(); ++t) {
            TbStage &s = staged[ki][t];
            const std::uint64_t *lane = s.bits.data();
            // copy_n, not memcpy: an empty kernel's arena has a null
            // data() and copying zero words must stay defined.
            for (std::uint64_t m = s.live; m != 0;
                 m &= m - 1, lane += s.words)
                std::copy_n(lane, s.words,
                            k.strip(static_cast<unsigned>(
                                std::countr_zero(m))) +
                                k.tbs[t].off);
            std::vector<std::uint64_t>().swap(s.bits);
        }
        requests_ += k.requests;

        std::uint64_t h = hashStep(0, k.live);
        for (const TbView &v : k.tbs)
            h = hashStep(hashStep(h, v.requests), v.words);
        for (const std::uint64_t w : k.arena)
            h = hashStep(h, w);
        const auto [lo, hi] = by_hash.equal_range(h);
        for (auto it = lo; it != hi; ++it) {
            const KernelPlanes &r = kernels[it->second];
            if (r.live == k.live && r.tbs == k.tbs && r.arena == k.arena) {
                k.rep = it->second;
                break;
            }
        }
        if (k.rep != ki) {
            ++aliased;
            k.rowBase = kernels[k.rep].rowBase;
            std::vector<TbView>().swap(k.tbs);
            std::vector<std::uint64_t>().swap(k.arena);
            continue;
        }
        by_hash.emplace(h, ki);
        k.rowBase = plane_words;
        plane_words += k.kwords;
    }
    maxEntropy_ =
        entropyFromKernels(std::vector<double>(kernels.size(), 1.0).data());

    metrics::Gauge &resident = metrics::gauge("search.plane_bytes");
    resident.add(static_cast<std::int64_t>(planeBytes()));
    metrics::gauge("search.plane_bytes_peak").raiseTo(resident.value());
    metrics::counter("search.plane_strips_dead").add(dead_strips);
    metrics::counter("search.plane_kernels_aliased").add(aliased);
}

TracePlanes::TracePlanes(TracePlanes &&other) noexcept
    : nbits(other.nbits), requests_(other.requests_),
      maxEntropy_(other.maxEntropy_), plane_words(other.plane_words),
      ops(other.ops), kernels(std::move(other.kernels))
{
    // The arena merely changed owner; the resident-bytes gauge is
    // unchanged, and the moved-from side must no longer subtract.
    other.kernels.clear();
    other.plane_words = 0;
    other.requests_ = 0;
}

TracePlanes &
TracePlanes::operator=(TracePlanes &&other) noexcept
{
    if (this != &other) {
        releaseGauge();
        nbits = other.nbits;
        requests_ = other.requests_;
        maxEntropy_ = other.maxEntropy_;
        plane_words = other.plane_words;
        ops = other.ops;
        kernels = std::move(other.kernels);
        other.kernels.clear();
        other.plane_words = 0;
        other.requests_ = 0;
    }
    return *this;
}

TracePlanes::~TracePlanes() { releaseGauge(); }

void
TracePlanes::releaseGauge() noexcept
{
    const std::uint64_t bytes = planeBytes();
    if (bytes != 0)
        metrics::gauge("search.plane_bytes")
            .add(-static_cast<std::int64_t>(bytes));
}

std::uint64_t
TracePlanes::planeBytes() const
{
    std::uint64_t bytes = 0;
    for (const KernelPlanes &k : kernels)
        bytes += k.arena.size() * sizeof(std::uint64_t);
    return bytes;
}

namespace {

/**
 * Gather the strip segment pointers a row mask (live bits only) taps
 * for one TB — strip `b` of the TB starts at
 * `arena + idx[b] * kwords + local_off`. Returns the tap count;
 * `srcs` must hold 64 slots.
 */
inline std::size_t
gatherTaps(const std::uint64_t *arena, const std::uint8_t *idx,
           std::size_t kwords, std::size_t local_off,
           std::uint64_t row_mask, const std::uint64_t **srcs)
{
    std::size_t nsrc = 0;
    for (std::uint64_t m = row_mask; m != 0; m &= m - 1)
        srcs[nsrc++] =
            arena + idx[std::countr_zero(m)] * kwords + local_off;
    return nsrc;
}

/**
 * XOR-fold the tapped plane words of a one-word TB (`row_mask` live
 * bits only). The per-TB loops below special-case `words == 1`
 * through this instead of the dispatched `SimdOps` kernels: with
 * 64-request TBs (every synth workload) a plane is a single word, and
 * an indirect call per TB costs more than the XOR+popcount it
 * performs. Plain integer ops, so the fast path is trivially
 * bit-identical to the dispatched one.
 */
inline std::uint64_t
foldOneWord(const std::uint64_t *arena, const std::uint8_t *idx,
            std::size_t kwords, std::size_t local_off,
            std::uint64_t row_mask)
{
    std::uint64_t x = 0;
    for (std::uint64_t m = row_mask; m != 0; m &= m - 1)
        x ^= arena[idx[std::countr_zero(m)] * kwords + local_off];
    return x;
}

/**
 * Per-TB one-count scratch, one kernel at a time. Thread-local: the
 * scoring entry points run once per candidate evaluation, where a
 * heap allocation would rival the popcounts themselves.
 */
std::uint64_t *
onesScratch(std::size_t tbs)
{
    static thread_local std::vector<std::uint64_t> ones;
    if (ones.size() < tbs)
        ones.resize(tbs);
    return ones.data();
}

} // namespace

void
TracePlanes::kernelRowOnes(const KernelPlanes &k, std::uint64_t row_mask,
                           std::uint64_t *plane,
                           std::uint64_t *ones) const
{
    const std::uint64_t *srcs[64];
    const std::uint64_t *arena = k.arena.data();
    const std::uint8_t *idx = k.stripIdx.data();
    // A dead strip is all zero: dropping its tap leaves the XOR as is.
    const std::uint64_t taps = row_mask & k.live;
    for (std::size_t t = 0; t < k.tbs.size(); ++t) {
        const TbView &v = k.tbs[t];
        const std::size_t lo = v.off;
        if (v.words == 1) {
            const std::uint64_t x =
                foldOneWord(arena, idx, k.kwords, lo, taps);
            if (plane != nullptr)
                plane[lo] = x;
            ones[t] = static_cast<std::uint64_t>(std::popcount(x));
            continue;
        }
        const std::size_t nsrc =
            gatherTaps(arena, idx, k.kwords, lo, taps, srcs);
        ones[t] = ops->xorPopcountN(
            srcs, nsrc, plane != nullptr ? plane + lo : nullptr,
            v.words);
    }
}

void
TracePlanes::kernelXorOnes(const KernelPlanes &k, const std::uint64_t *a,
                           const std::uint64_t *b,
                           std::uint64_t *ones) const
{
    if (k.uniform) {
        // One-word TBs: the per-word popcounts are the per-TB counts.
        ops->xorPopcountEach(a, b, ones, k.kwords);
        return;
    }
    for (std::size_t t = 0; t < k.tbs.size(); ++t) {
        const TbView &v = k.tbs[t];
        const std::size_t lo = v.off;
        ones[t] = v.words == 1
                      ? static_cast<std::uint64_t>(
                            std::popcount(a[lo] ^ b[lo]))
                      : ops->xorPopcount2(a + lo, b + lo, v.words);
    }
}

double
TracePlanes::kernelEntropy(const KernelPlanes &k,
                           const std::uint64_t *ones, unsigned window,
                           EntropyMetric metric)
{
    // Mirror profileWorkload: the per-TB BVR series, then the
    // kernel's window entropy — same operations in the same order.
    static thread_local std::vector<double> series;
    series.resize(k.tbs.size());
    for (std::size_t t = 0; t < k.tbs.size(); ++t) {
        const TbView &v = k.tbs[t];
        series[t] = v.requests == 0
                        ? 0.0
                        : static_cast<double>(ones[t]) /
                              static_cast<double>(v.requests);
    }
    return metric == EntropyMetric::BvrDistribution
               ? windowEntropy(series, window)
               : windowBitEntropy(series, window);
}

void
TracePlanes::combineRow(std::uint64_t row_mask, std::uint64_t *plane,
                        double *kent, unsigned window,
                        EntropyMetric metric) const
{
    assert((row_mask & ~bits::mask(nbits)) == 0 &&
           "row taps must be tracked bits");
    for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
        const KernelPlanes &k = kernels[ki];
        if (k.rep != ki) {
            kent[ki] = kent[k.rep];
            continue;
        }
        std::uint64_t *ones = onesScratch(k.tbs.size());
        kernelRowOnes(k, row_mask, plane + k.rowBase, ones);
        kent[ki] = kernelEntropy(k, ones, window, metric);
    }
}

std::size_t
TracePlanes::toggleRow(const std::uint64_t *base, unsigned bit,
                       double *kent, unsigned window,
                       EntropyMetric metric) const
{
    assert(bit < nbits && "toggled tap must be a tracked bit");
    std::size_t computed = 0;
    for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
        const KernelPlanes &k = kernels[ki];
        if (((k.live >> bit) & 1) == 0)
            continue;
        ++computed;
        if (k.rep != ki) {
            kent[ki] = kent[k.rep];
            continue;
        }
        std::uint64_t *ones = onesScratch(k.tbs.size());
        kernelXorOnes(k, base + k.rowBase, k.strip(bit), ones);
        kent[ki] = kernelEntropy(k, ones, window, metric);
    }
    return computed;
}

std::size_t
TracePlanes::xorRows(const std::uint64_t *a, const std::uint64_t *b,
                     std::uint64_t b_mask, double *kent,
                     unsigned window, EntropyMetric metric) const
{
    std::size_t computed = 0;
    for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
        const KernelPlanes &k = kernels[ki];
        if ((k.live & b_mask) == 0)
            continue;
        ++computed;
        if (k.rep != ki) {
            kent[ki] = kent[k.rep];
            continue;
        }
        std::uint64_t *ones = onesScratch(k.tbs.size());
        kernelXorOnes(k, a + k.rowBase, b + k.rowBase, ones);
        kent[ki] = kernelEntropy(k, ones, window, metric);
    }
    return computed;
}

void
TracePlanes::applyToggle(std::uint64_t *plane, unsigned bit) const
{
    assert(bit < nbits && "toggled tap must be a tracked bit");
    for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
        const KernelPlanes &k = kernels[ki];
        // An alias shares its representative's slice: XOR it once.
        if (k.rep != ki || ((k.live >> bit) & 1) == 0)
            continue;
        const std::uint64_t *strip = k.strip(bit);
        std::uint64_t *dst = plane + k.rowBase;
        for (std::size_t w = 0; w < k.kwords; ++w)
            dst[w] ^= strip[w];
    }
}

void
TracePlanes::applyXor(std::uint64_t *plane, const std::uint64_t *other,
                      std::uint64_t other_mask) const
{
    for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
        const KernelPlanes &k = kernels[ki];
        if (k.rep != ki || (k.live & other_mask) == 0)
            continue;
        std::uint64_t *dst = plane + k.rowBase;
        const std::uint64_t *src = other + k.rowBase;
        for (std::size_t w = 0; w < k.kwords; ++w)
            dst[w] ^= src[w];
    }
}

double
TracePlanes::entropyFromKernels(const double *kent) const
{
    // EntropyProfile::combine's weighted average, term by term in
    // kernel order, so the sum is bit-identical to the profiler's
    // value for this output bit.
    const std::uint64_t total = requests_;
    if (total == 0)
        return 0.0;
    double combined = 0.0;
    for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
        const double w = static_cast<double>(kernels[ki].requests) /
                         static_cast<double>(total);
        combined += w * kent[ki];
    }
    return combined;
}

double
TracePlanes::rowEntropy(std::uint64_t row_mask, unsigned window,
                        EntropyMetric metric) const
{
    // From scratch: per-TB one-counts of every kernel's slice of the
    // combined output plane (no plane materialized), then the shared
    // entropy tail.
    assert((row_mask & ~bits::mask(nbits)) == 0 &&
           "row taps must be tracked bits");
    std::vector<double> kent(kernels.size());
    for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
        const KernelPlanes &k = kernels[ki];
        if (k.rep != ki) {
            kent[ki] = kent[k.rep];
            continue;
        }
        std::uint64_t *ones = onesScratch(k.tbs.size());
        kernelRowOnes(k, row_mask, nullptr, ones);
        kent[ki] = kernelEntropy(k, ones, window, metric);
    }
    return entropyFromKernels(kent.data());
}

EntropyProfile
TracePlanes::profileFor(const BitMatrix &m, unsigned window,
                        EntropyMetric metric) const
{
    if (m.size() != nbits)
        throw std::invalid_argument(
            "TracePlanes: matrix size != tracked bits");
    EntropyProfile out;
    out.weight = requests_;
    out.perBit.resize(nbits);
    for (unsigned r = 0; r < nbits; ++r)
        out.perBit[r] = rowEntropy(m.row(r), window, metric);
    return out;
}

} // namespace search
} // namespace valley

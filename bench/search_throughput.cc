/**
 * @file
 * Search-throughput bench: owns `BENCH_search.json`.
 *
 * Measures `BimSearch` candidate-evaluation throughput on a fixed
 * synth joint set at a small and a large scale.
 *
 * The speedup denominator (`baseline_evaluations_per_second`) comes
 * from a **legacy reference** kept verbatim in this file: the pre-PR
 * scoring path — per-TB `std::vector` planes, the per-word
 * `countr_zero` tap walk, and the vector-allocating
 * `shannonEntropyBaseV` binary-entropy tail — timed on this host over
 * a fixed mask set. Its values double as an oracle: they must match
 * today's `rowEntropy` bit for bit, so the recorded speedup can never
 * come from computing something different.
 *
 * On top of that, three full anneal legs (identical trajectories
 * asserted):
 *
 *  - **scalar oracle**: `PlaneOptions::forceScalar` planes, per-move
 *    from-scratch scoring (`SearchOptions::planeCache = false`);
 *  - **simd oracle**: dispatched SIMD kernels, from-scratch scoring;
 *  - **cached** (headline `evaluations_per_second`): SIMD kernels
 *    plus the incremental plane cache.
 *
 * The joint-vs-independent comparison that used to live in
 * perf_snapshot is carried over with its `joint_*` fields, including
 * the `joint_deterministic` re-run check CI asserts on.
 * Exit code is non-zero on any identity failure.
 */

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/bitops.hh"
#include "common/metrics.hh"
#include "common/rng.hh"
#include "entropy/window_entropy.hh"
#include "search/searched_bim.hh"
#include "workloads/workload_set.hh"

using namespace valley;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- legacy (pre-PR) scoring reference ------------------------------------
// A faithful copy of the original TracePlanes scoring path, preserved
// as the fixed denominator of `speedup_vs_baseline` (and as an oracle
// for today's rowEntropy). Do not "optimize" this: its point is to
// keep measuring what the code did before the plane cache, the SIMD
// dispatch and the arena landed.

struct LegacyTb
{
    std::uint64_t requests = 0;
    std::uint32_t words = 0;
    std::vector<std::uint64_t> bits; ///< plane b at [b * words + w]
};

struct LegacyKernel
{
    std::vector<LegacyTb> tbs;
    std::uint64_t requests = 0;
};

struct LegacyPlanes
{
    unsigned nbits = 0;
    std::uint64_t total = 0;
    std::vector<LegacyKernel> kernels;
};

LegacyPlanes
legacyExtract(const Workload &wl, unsigned nbits)
{
    LegacyPlanes lp;
    lp.nbits = nbits;
    for (const Kernel &k : wl.kernels()) {
        LegacyKernel lk;
        lk.tbs.resize(k.numTbs());
        for (TbId tb = 0; tb < k.numTbs(); ++tb) {
            LegacyTb &t = lk.tbs[tb];
            const TbTrace trace = k.trace(tb);
            t.requests = trace.requestCount();
            t.words =
                static_cast<std::uint32_t>((t.requests + 63) / 64);
            t.bits.assign(static_cast<std::size_t>(nbits) * t.words,
                          0);
            std::uint64_t block[64];
            unsigned fill = 0;
            std::uint32_t word = 0;
            const auto flush = [&] {
                std::fill(block + fill, block + 64, 0);
                bits::transpose64Scalar(block);
                for (unsigned b = 0; b < nbits; ++b)
                    t.bits[static_cast<std::size_t>(b) * t.words +
                           word] = block[b];
                ++word;
                fill = 0;
            };
            for (const WarpTrace &w : trace.warps)
                for (const MemInstr &instr : w.instrs)
                    for (Addr a : instr.lines) {
                        block[fill] = a;
                        if (++fill == 64)
                            flush();
                    }
            if (fill > 0)
                flush();
            lk.requests += t.requests;
        }
        lp.total += lk.requests;
        lp.kernels.push_back(std::move(lk));
    }
    return lp;
}

double
legacyTbBvr(const LegacyTb &tb, std::uint64_t row_mask)
{
    if (tb.requests == 0)
        return 0.0;
    std::uint64_t ones = 0;
    for (std::uint32_t w = 0; w < tb.words; ++w) {
        std::uint64_t x = 0;
        for (std::uint64_t m = row_mask; m != 0; m &= m - 1) {
            const unsigned b =
                static_cast<unsigned>(std::countr_zero(m));
            x ^= tb.bits[static_cast<std::size_t>(b) * tb.words + w];
        }
        ones += static_cast<std::uint64_t>(std::popcount(x));
    }
    return static_cast<double>(ones) /
           static_cast<double>(tb.requests);
}

/** Pre-PR windowBitEntropy: heap-allocating binary-entropy tail. */
double
legacyWindowBitEntropy(const std::vector<double> &bvr_per_tb,
                       unsigned window)
{
    const std::size_t n = bvr_per_tb.size();
    if (n == 0 || window == 0)
        return 0.0;
    const std::size_t w = std::min<std::size_t>(window, n);
    const std::size_t windows = n - w + 1;
    double sum_bvr = 0.0;
    for (std::size_t i = 0; i < w; ++i)
        sum_bvr += bvr_per_tb[i];
    double total = 0.0;
    for (std::size_t i = 0;; ++i) {
        const double p = sum_bvr / static_cast<double>(w);
        if (p > 0.0 && p < 1.0)
            total += shannonEntropyBaseV({p, 1.0 - p});
        if (i + 1 >= windows)
            break;
        sum_bvr += bvr_per_tb[i + w] - bvr_per_tb[i];
    }
    return total / static_cast<double>(windows);
}

double
legacyRowEntropy(const LegacyPlanes &lp, std::uint64_t row_mask,
                 unsigned window, EntropyMetric metric)
{
    if (lp.total == 0)
        return 0.0;
    double combined = 0.0;
    std::vector<double> series;
    for (const LegacyKernel &k : lp.kernels) {
        series.resize(k.tbs.size());
        for (std::size_t t = 0; t < k.tbs.size(); ++t)
            series[t] = legacyTbBvr(k.tbs[t], row_mask);
        const double e = metric == EntropyMetric::BvrDistribution
                             ? windowEntropy(series, window)
                             : legacyWindowBitEntropy(series, window);
        combined += static_cast<double>(k.requests) /
                    static_cast<double>(lp.total) * e;
    }
    return combined;
}

// ---- anneal legs ----------------------------------------------------------

/** One scoring configuration's annealed run. */
struct Leg
{
    search::SearchResult result;
    double seconds = 0.0;

    double
    evalsPerSec() const
    {
        return seconds > 0.0 ? static_cast<double>(
                                   result.stats.evaluations) /
                                   seconds
                             : 0.0;
    }
};

/** Non-owning member pointers for the joint constructor. */
std::vector<const search::TracePlanes *>
ptrsOf(const std::vector<search::TracePlanes> &planes)
{
    std::vector<const search::TracePlanes *> out;
    out.reserve(planes.size());
    for (const search::TracePlanes &p : planes)
        out.push_back(&p);
    return out;
}

/** Results that must be bit-identical across scoring configs. */
bool
sameResult(const search::SearchResult &a, const search::SearchResult &b)
{
    return a.bim == b.bim && a.cost == b.cost &&
           a.stats.evaluations == b.stats.evaluations &&
           a.targetEntropy == b.targetEntropy;
}

Leg
runLeg(const AddressLayout &layout,
       const std::vector<search::TracePlanes> &planes,
       const search::SearchOptions &so)
{
    const search::BimSearch s(
        layout, ptrsOf(planes),
        search::defaultJointObjective(layout, so.targets,
                                      search::JointCombiner::Mean),
        so);
    Leg leg;
    const auto start = Clock::now();
    leg.result = s.anneal();
    leg.seconds = secondsSince(start);
    return leg;
}

} // namespace

int
main()
{
    bench::printHeader("Search throughput",
                       "incremental plane cache + SIMD dispatch + "
                       "arena planes");

    const AddressLayout layout = AddressLayout::hynixGddr5();
    const workloads::WorkloadSet jset(
        {"synth:strided", "synth:stencil3d"});
    std::printf("simd level: %s (dispatched)\n\n",
                bits::simdOps().name);

    bench::JsonEmitter json("BENCH_search.json");
    json.field("set_members", static_cast<std::uint64_t>(jset.size()));
    json.field("set_id", jset.shortId());
    json.field("simd_level", bits::simdOps().name);

    bool ok = true;

    // Fixed candidate-row mask set for the legacy leg (nonzero masks
    // under the PAE candidate restriction).
    const std::uint64_t cmask =
        layout.pageMask() & bits::mask(layout.addrBits);
    XorShiftRng mask_rng(7);
    constexpr std::size_t kMasks = 64;
    std::vector<std::uint64_t> masks(kMasks);
    for (std::uint64_t &m : masks)
        do {
            m = mask_rng.next() & cmask;
        } while (m == 0);

    // ---- evals/sec at small and large scale -------------------------------
    const double small_scale = 0.25;
    const double large_scale = bench::envScale(1.0);
    json.field("scale", small_scale);
    json.field("large_scale", large_scale);

    double small_evals_per_sec = 0.0;
    for (const double scale : {small_scale, large_scale}) {
        const bool small = scale == small_scale;
        const char *tag = small ? "" : "large_";

        const auto wls = jset.build(scale);
        search::PlaneOptions scalar_po{layout.addrBits, 1, true};
        search::PlaneOptions simd_po{layout.addrBits, 1, false};
        std::vector<search::TracePlanes> scalar_planes;
        std::vector<search::TracePlanes> simd_planes;
        std::vector<LegacyPlanes> legacy_planes;
        for (const auto &w : wls) {
            scalar_planes.emplace_back(*w, scalar_po);
            simd_planes.emplace_back(*w, simd_po);
            legacy_planes.push_back(
                legacyExtract(*w, layout.addrBits));
        }
        // Arenas store live strips only; the share is against one
        // strip per tracked bit.
        std::uint64_t plane_bytes = 0;
        std::uint64_t full_width_bytes = 0;
        for (const search::TracePlanes &p : simd_planes) {
            plane_bytes += p.planeBytes();
            full_width_bytes += std::uint64_t{p.numBits()} *
                                p.planeWords() * sizeof(std::uint64_t);
        }
        const double live_share =
            full_width_bytes > 0
                ? static_cast<double>(plane_bytes) /
                      static_cast<double>(full_width_bytes)
                : 0.0;

        search::SearchOptions so = search::defaultOptions(layout);
        so.threads = 1;
        so.restarts = 2;
        so.iterations = 600;

        // Legacy baseline: pre-PR scoring, timed over the fixed mask
        // set, one (member, row) score = one evaluation — the same
        // unit SearchStats::evaluations counts. Every value must
        // match today's oracle bit for bit.
        bool legacy_identical = true;
        std::uint64_t legacy_evals = 0;
        auto start = Clock::now();
        for (std::size_t m = 0; m < legacy_planes.size(); ++m)
            for (const std::uint64_t mask : masks) {
                const double legacy = legacyRowEntropy(
                    legacy_planes[m], mask, so.window, so.metric);
                ++legacy_evals;
                legacy_identical =
                    legacy_identical &&
                    legacy == simd_planes[m].rowEntropy(
                                  mask, so.window, so.metric);
            }
        // The identity re-check above runs the modern path inside the
        // timed region; time a clean second pass for the denominator.
        double legacy_sink = 0.0;
        start = Clock::now();
        for (const LegacyPlanes &lp : legacy_planes)
            for (const std::uint64_t mask : masks)
                legacy_sink += legacyRowEntropy(lp, mask, so.window,
                                                so.metric);
        const double legacy_sec = secondsSince(start);
        ok = ok && legacy_sink >= 0.0; // keep the timed loop live
        const double legacy_evals_per_sec =
            legacy_sec > 0.0
                ? static_cast<double>(legacy_evals) / legacy_sec
                : 0.0;
        ok = ok && legacy_identical;

        search::SearchOptions oracle_so = so;
        oracle_so.planeCache = false;

        const Leg scalar_leg =
            runLeg(layout, scalar_planes, oracle_so);
        const Leg simd_leg = runLeg(layout, simd_planes, oracle_so);
        const Leg cached = runLeg(layout, simd_planes, so);

        const bool simd_identical =
            sameResult(scalar_leg.result, simd_leg.result);
        const bool cached_identical =
            sameResult(scalar_leg.result, cached.result);
        ok = ok && simd_identical && cached_identical;

        const double speedup =
            legacy_evals_per_sec > 0.0
                ? cached.evalsPerSec() / legacy_evals_per_sec
                : 0.0;
        if (small)
            small_evals_per_sec = cached.evalsPerSec();

        json.field(std::string(tag) + "plane_bytes", plane_bytes);
        json.field(std::string(tag) + "plane_live_share", live_share);
        json.field(std::string(tag) +
                       "baseline_evaluations_per_second",
                   legacy_evals_per_sec);
        json.field(std::string(tag) + "baseline_identical",
                   legacy_identical);
        json.field(std::string(tag) +
                       "scalar_oracle_evaluations_per_second",
                   scalar_leg.evalsPerSec());
        json.field(std::string(tag) +
                       "simd_oracle_evaluations_per_second",
                   simd_leg.evalsPerSec());
        json.field(std::string(tag) + "evaluations_per_second",
                   cached.evalsPerSec());
        json.field(std::string(tag) + "speedup_vs_baseline", speedup);
        json.field(std::string(tag) + "simd_identical",
                   simd_identical);
        json.field(std::string(tag) + "cached_identical",
                   cached_identical);
        json.field(std::string(tag) + "plane_toggles",
                   cached.result.stats.planeToggles);
        json.field(std::string(tag) + "plane_xors",
                   cached.result.stats.planeXors);
        json.field(std::string(tag) + "plane_rebuilds",
                   cached.result.stats.planeRebuilds);
        json.field(std::string(tag) + "kernels_skipped",
                   cached.result.stats.kernelsSkipped);

        std::printf(
            "scale %.2f (%.1f MiB planes, %.0f%% live): legacy %.0f "
            "evals/s, scalar-oracle %.0f, simd-oracle %.0f, cached %.0f "
            "(%.1fx vs legacy), identical=%s\n",
            scale,
            static_cast<double>(plane_bytes) / (1024.0 * 1024.0),
            100.0 * live_share,
            legacy_evals_per_sec, scalar_leg.evalsPerSec(),
            simd_leg.evalsPerSec(), cached.evalsPerSec(), speedup,
            legacy_identical && simd_identical && cached_identical
                ? "yes"
                : "NO");
    }

    // ---- joint search vs N independent searches ---------------------------
    bool joint_ok = true;
    {
        // The workload-set question: serving an N-member set used to
        // mean N independent annealing runs (one matrix each); the
        // joint search anneals ONE matrix against all members over
        // their shared trace planes. Record both wall clocks plus the
        // joint run's per-phase breakdown so the plane-sharing win
        // lands in the perf trajectory.
        const double jscale = 0.25;
        search::SearchOptions so = search::defaultOptions(layout);
        so.threads = 1;
        so.restarts = 2;
        so.iterations = 600;

        const auto wls = jset.build(jscale);
        std::vector<search::TracePlanes> planes;
        planes.reserve(wls.size());
        for (const auto &w : wls)
            planes.emplace_back(
                *w, search::PlaneOptions{layout.addrBits, 1});

        auto start = Clock::now();
        double independent_cost = 0.0;
        for (const search::TracePlanes &p : planes) {
            const search::BimSearch s(
                layout, p,
                search::defaultObjective(layout, so.targets), so);
            independent_cost += s.anneal().cost;
        }
        const double independent_sec = secondsSince(start);

        const search::BimSearch js(
            layout, ptrsOf(planes),
            search::defaultJointObjective(layout, so.targets,
                                          search::JointCombiner::Mean),
            so);
        start = Clock::now();
        const search::SearchResult jr = js.anneal();
        const double joint_sec = secondsSince(start);
        // Same seed, same planes: a second joint run must reproduce
        // the exact matrix (the determinism contract of BimSearch).
        joint_ok = js.anneal().bim == jr.bim;
        ok = ok && joint_ok;

        json.field("independent_seconds", independent_sec);
        json.field("independent_cost_sum", independent_cost);
        json.field("joint_seconds", joint_sec);
        json.field("joint_cost", jr.cost);
        json.field("joint_gain", jr.gain());
        json.field("independent_over_joint_seconds",
                   joint_sec > 0.0 ? independent_sec / joint_sec
                                   : 0.0);
        json.field("joint_evaluations", jr.stats.evaluations);
        json.field("joint_setup_seconds", jr.stats.setupSeconds);
        json.field("joint_anneal_seconds", jr.stats.annealSeconds);
        json.field("joint_polish_seconds", jr.stats.polishSeconds);
        json.field("joint_setup_evaluations",
                   jr.stats.setupEvaluations);
        json.field("joint_anneal_evaluations",
                   jr.stats.annealEvaluations);
        json.field("joint_polish_evaluations",
                   jr.stats.polishEvaluations);
        json.field("joint_deterministic", joint_ok);
        std::printf("joint search (%zu members): independent %.3fs, "
                    "joint %.3fs (%.2fx), deterministic=%s\n",
                    jset.size(), independent_sec, joint_sec,
                    joint_sec > 0.0 ? independent_sec / joint_sec
                                    : 0.0,
                    joint_ok ? "yes" : "NO");
    }

    // Registry attribution: search.evals_per_sec / search.plane_*
    // counters, the search.plane_bytes gauge (zero here — every
    // TracePlanes above has been destroyed, so a leak shows up as a
    // nonzero residue) and its high-water search.plane_bytes_peak.
    json.rawField("metrics", metrics::snapshotJson(1));

    std::printf("\nheadline: %.0f evaluations/sec (small scale, "
                "cached+%s)\n",
                small_evals_per_sec, bits::simdOps().name);
    return ok ? 0 : 1;
}

/**
 * @file
 * Tests for the profile-driven BIM search (`src/search/`): the
 * bit-plane evaluator must be bit-identical to the profiler, every
 * searched matrix must be invertible with identity non-target rows,
 * results must be deterministic for a fixed seed and bit-identical
 * between serial and parallel restarts, and the search must strictly
 * lower the entropy-flatness objective against the identity mapping
 * on valley workloads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>

#include "bim/bim_builder.hh"
#include "common/cancellation.hh"
#include "common/metrics.hh"
#include "common/rng.hh"
#include "search/searched_bim.hh"
#include "workloads/profiler.hh"

using namespace valley;
using namespace valley::search;

namespace {

constexpr double kScale = 0.25;

AddressLayout
gddr5()
{
    return AddressLayout::hynixGddr5();
}

/** Planes + profiler options that must describe the same profile. */
struct PlanesFixture
{
    std::unique_ptr<Workload> wl;
    std::unique_ptr<TracePlanes> planes;
    workloads::ProfileOptions po;

    explicit PlanesFixture(const std::string &abbrev,
                   EntropyMetric metric = EntropyMetric::BitProbability)
    {
        wl = workloads::make(abbrev, kScale);
        po.metric = metric;
        po.threads = 1;
        PlaneOptions popts;
        popts.numBits = po.numBits;
        popts.threads = 1;
        planes = std::make_unique<TracePlanes>(*wl, popts);
    }
};

} // namespace

TEST(TracePlanes, IdentityProfileMatchesProfilerBitExactly)
{
    // searchSet computes its identity profiles from the planes, so the
    // planes must reproduce the profiler on every Table II workload,
    // under both metrics.
    for (const std::string &abbrev : workloads::allSet())
        for (const EntropyMetric metric :
             {EntropyMetric::BitProbability,
              EntropyMetric::BvrDistribution}) {
            PlanesFixture s(abbrev, metric);
            const EntropyProfile direct =
                workloads::profileWorkload(*s.wl, s.po);
            const EntropyProfile planes = s.planes->profileFor(
                BitMatrix::identity(s.po.numBits), s.po.window,
                s.po.metric);
            ASSERT_EQ(direct.perBit.size(), planes.perBit.size());
            EXPECT_EQ(direct.weight, planes.weight) << abbrev;
            for (std::size_t b = 0; b < direct.perBit.size(); ++b)
                EXPECT_EQ(direct.perBit[b], planes.perBit[b])
                    << abbrev << " bit " << b;
        }
}

namespace {

/**
 * A random invertible matrix every row of which taps one of bits 0-6
 * (always zero in 128 B line addresses, so never stored as a strip):
 * identity, each row XORed with a low identity row, then random row
 * additions (each keeps the matrix invertible).
 */
BitMatrix
randomMatrixTappingDeadBits(unsigned n, std::uint64_t seed)
{
    BitMatrix m = BitMatrix::identity(n);
    for (unsigned r = 7; r < n; ++r)
        m.setRow(r, m.row(r) ^ m.row(r % 7));
    XorShiftRng rng(seed);
    for (int i = 0; i < 200; ++i) {
        const unsigned a = static_cast<unsigned>(rng.below(n));
        const unsigned b = static_cast<unsigned>(rng.below(n));
        if (a != b && (m.row(a) ^ m.row(b)) & bits::mask(7))
            m.setRow(a, m.row(a) ^ m.row(b));
    }
    return m;
}

} // namespace

TEST(TracePlanes, MappedProfileMatchesProfilerBitExactly)
{
    // Under a non-trivial BIM the planes path XORs the stored (live)
    // input strips while the profiler maps every address; the same
    // integers must fall out. The random matrices tap bits 0-6 and
    // bits above a kernel's footprint, whose strips are not stored,
    // so this pins the compact arena against the trace itself.
    const AddressLayout layout = gddr5();
    std::uint64_t seed = 0;
    for (const std::string &abbrev : workloads::allSet())
        for (const EntropyMetric metric :
             {EntropyMetric::BitProbability,
              EntropyMetric::BvrDistribution}) {
            PlanesFixture s(abbrev, metric);
            const BitMatrix random =
                randomMatrixTappingDeadBits(s.po.numBits, ++seed);
            ASSERT_TRUE(random.invertible()) << abbrev;
            for (std::uint64_t r = 0; r < random.size(); ++r)
                ASSERT_NE(random.row(static_cast<unsigned>(r)) &
                              bits::mask(7),
                          0u)
                    << abbrev << " row " << r;
            const AddressMapper random_mapper("random", layout,
                                                       random);
            const auto pae =
                mapping::makeScheme(Scheme::PAE, layout, /*seed=*/1);
            for (const AddressMapper *mapper :
                 {&random_mapper,
                  static_cast<const AddressMapper *>(pae.get())}) {
                workloads::ProfileOptions po = s.po;
                po.mapper = mapper;
                const EntropyProfile direct =
                    workloads::profileWorkload(*s.wl, po);
                const EntropyProfile planes = s.planes->profileFor(
                    mapper->matrix(), po.window, po.metric);
                ASSERT_EQ(direct.perBit.size(), planes.perBit.size());
                for (std::size_t b = 0; b < direct.perBit.size(); ++b)
                    EXPECT_EQ(direct.perBit[b], planes.perBit[b])
                        << abbrev << " " << mapper->name() << " bit "
                        << b;
            }
        }
}

TEST(TracePlanes, MatchesProfilerUnderBvrDistributionMetric)
{
    PlanesFixture s("LU", EntropyMetric::BvrDistribution);
    const EntropyProfile direct =
        workloads::profileWorkload(*s.wl, s.po);
    const EntropyProfile planes = s.planes->profileFor(
        BitMatrix::identity(s.po.numBits), s.po.window, s.po.metric);
    for (std::size_t b = 0; b < direct.perBit.size(); ++b)
        EXPECT_EQ(direct.perBit[b], planes.perBit[b]) << "bit " << b;
}

TEST(TracePlanes, ParallelExtractionBitIdenticalToSerial)
{
    const auto wl = workloads::make("LU", kScale);
    PlaneOptions serial{30, 1};
    PlaneOptions parallel{30, 3};
    const TracePlanes a(*wl, serial);
    const TracePlanes b(*wl, parallel);
    const BitMatrix id = BitMatrix::identity(30);
    const EntropyProfile pa = a.profileFor(id, 12,
                                           EntropyMetric::BitProbability);
    const EntropyProfile pb = b.profileFor(id, 12,
                                           EntropyMetric::BitProbability);
    for (std::size_t bit = 0; bit < pa.perBit.size(); ++bit)
        EXPECT_EQ(pa.perBit[bit], pb.perBit[bit]);
}

TEST(TracePlanes, KernelLiveMaskIsTheOrOfItsAddresses)
{
    // LU and NW have kernels whose footprint leaves whole strips
    // zero; the live mask must name exactly the tracked bits that
    // some request of the kernel sets.
    for (const char *abbrev : {"LU", "NW", "MT"}) {
        PlanesFixture s(abbrev);
        const auto &ks = s.wl->kernels();
        ASSERT_EQ(s.planes->numKernels(), ks.size());
        bool some_dead = false;
        for (std::size_t k = 0; k < ks.size(); ++k) {
            std::uint64_t any = 0;
            for (TbId tb = 0; tb < ks[k].numTbs(); ++tb)
                for (const WarpTrace &w : ks[k].trace(tb).warps)
                    for (const MemInstr &instr : w.instrs)
                        for (const Addr a : instr.lines)
                            any |= a;
            any &= bits::mask(s.po.numBits);
            EXPECT_EQ(s.planes->kernelLive(k), any)
                << abbrev << " kernel " << k;
            some_dead = some_dead || any != bits::mask(s.po.numBits);
        }
        EXPECT_TRUE(some_dead) << abbrev;
    }
}

namespace {

/** Every TB's lines of one kernel, in generation order. */
std::vector<std::vector<Addr>>
kernelLines(const Kernel &k)
{
    std::vector<std::vector<Addr>> out;
    for (TbId tb = 0; tb < k.numTbs(); ++tb) {
        const TbTrace t = k.trace(tb);
        out.emplace_back(t.lines().begin(), t.lines().end());
    }
    return out;
}

/**
 * Per kernel of `wl`, whether an earlier kernel generates exactly the
 * same lines in every TB — read from the traces, independently of
 * the planes.
 */
std::vector<bool>
repeatedKernels(const Workload &wl)
{
    std::vector<std::vector<std::vector<Addr>>> seen;
    std::vector<bool> repeated;
    for (const Kernel &k : wl.kernels()) {
        auto lines = kernelLines(k);
        repeated.push_back(std::find(seen.begin(), seen.end(), lines) !=
                           seen.end());
        seen.push_back(std::move(lines));
    }
    return repeated;
}

} // namespace

TEST(TracePlanes, DeadStripsAreNotStored)
{
    // Each kernel's arena holds one strip per live bit: its bytes are
    // popcount(live) x (sum of TB words) x 8, with the TB words taken
    // from the trace. A kernel that repeats an earlier one stores no
    // arena and no row-plane slice. A dead bit has no strip, so
    // toggling it scores no kernel and applying it leaves the plane
    // as it is.
    metrics::Counter &dead = metrics::counter("search.plane_strips_dead");
    for (const std::string &abbrev : workloads::allSet()) {
        const std::uint64_t dead_before = dead.value();
        PlanesFixture s(abbrev);
        const TracePlanes &p = *s.planes;
        const auto &ks = s.wl->kernels();
        ASSERT_EQ(p.numKernels(), ks.size());
        const std::vector<bool> repeated = repeatedKernels(*s.wl);
        std::uint64_t bytes = 0;
        std::uint64_t dead_strips = 0;
        std::size_t words = 0;
        for (std::size_t k = 0; k < ks.size(); ++k) {
            std::uint64_t kwords = 0;
            for (TbId tb = 0; tb < ks[k].numTbs(); ++tb)
                kwords += (ks[k].trace(tb).requestCount() + 63) / 64;
            const std::uint64_t live = p.kernelLive(k);
            EXPECT_EQ(live & bits::mask(7), 0u) << abbrev << " " << k;
            dead_strips += p.numBits() -
                           static_cast<unsigned>(std::popcount(live));
            if (repeated[k])
                continue;
            bytes += static_cast<std::uint64_t>(std::popcount(live)) *
                     kwords * sizeof(std::uint64_t);
            words += kwords;
        }
        EXPECT_EQ(p.planeWords(), words) << abbrev;
        EXPECT_EQ(p.planeBytes(), bytes) << abbrev;
        EXPECT_EQ(dead.value() - dead_before, dead_strips) << abbrev;
        EXPECT_GE(dead_strips, 7 * ks.size()) << abbrev;

        const std::uint64_t row =
            bits::mask(p.numBits()) & ~bits::mask(7);
        std::vector<std::uint64_t> plane(p.planeWords());
        std::vector<double> kent(p.numKernels());
        p.combineRow(row, plane.data(), kent.data(), s.po.window,
                     s.po.metric);
        const std::vector<std::uint64_t> plane_before = plane;
        const std::vector<double> kent_before = kent;
        EXPECT_EQ(p.toggleRow(plane.data(), 3, kent.data(), s.po.window,
                              s.po.metric),
                  0u)
            << abbrev;
        EXPECT_EQ(kent, kent_before) << abbrev;
        p.applyToggle(plane.data(), 3);
        EXPECT_EQ(plane, plane_before) << abbrev;
    }
}

TEST(TracePlanes, KernelGranularMovesMatchOracle)
{
    // Walk rows through random tap toggles and row XORs on cached
    // planes, scoring every proposal write-free and applying it as
    // the search's accept does: each value must equal the
    // from-scratch rowEntropy of the mask the cache represents, and
    // the cached plane must stay exactly what combineRow builds.
    for (const char *abbrev : {"LU", "NW"})
        for (const EntropyMetric metric :
             {EntropyMetric::BitProbability,
              EntropyMetric::BvrDistribution}) {
            PlanesFixture s(abbrev, metric);
            const TracePlanes &p = *s.planes;
            const unsigned w = s.po.window;
            const std::size_t nk = p.numKernels();
            XorShiftRng rng(23);
            std::uint64_t masks[2];
            std::vector<std::uint64_t> planes[2];
            std::vector<double> kent[2];
            for (int r = 0; r < 2; ++r) {
                masks[r] = rng.next() & bits::mask(30);
                planes[r].resize(p.planeWords());
                kent[r].resize(nk);
                p.combineRow(masks[r], planes[r].data(),
                             kent[r].data(), w, metric);
                EXPECT_EQ(p.entropyFromKernels(kent[r].data()),
                          p.rowEntropy(masks[r], w, metric));
            }
            std::size_t skipped = 0;
            for (int move = 0; move < 60; ++move) {
                const int r = static_cast<int>(rng.below(2));
                std::vector<double> cand = kent[r];
                std::size_t computed;
                std::uint64_t next;
                const bool toggle = rng.below(3) != 0;
                const unsigned bit =
                    static_cast<unsigned>(rng.below(30));
                if (toggle) {
                    computed = p.toggleRow(planes[r].data(), bit,
                                           cand.data(), w, metric);
                    next = masks[r] ^ (std::uint64_t{1} << bit);
                } else {
                    computed = p.xorRows(planes[r].data(),
                                         planes[1 - r].data(),
                                         masks[1 - r], cand.data(), w,
                                         metric);
                    next = masks[r] ^ masks[1 - r];
                }
                skipped += nk - computed;
                ASSERT_EQ(p.entropyFromKernels(cand.data()),
                          p.rowEntropy(next, w, metric))
                    << abbrev << " move " << move;
                if (rng.below(2) == 0)
                    continue; // rejected: nothing was written
                if (toggle)
                    p.applyToggle(planes[r].data(), bit);
                else
                    p.applyXor(planes[r].data(), planes[1 - r].data(),
                               masks[1 - r]);
                masks[r] = next;
                kent[r] = cand;
                std::vector<std::uint64_t> fresh(p.planeWords());
                std::vector<double> fresh_kent(nk);
                p.combineRow(next, fresh.data(), fresh_kent.data(), w,
                             metric);
                ASSERT_EQ(planes[r], fresh)
                    << abbrev << " move " << move;
                ASSERT_EQ(kent[r], fresh_kent)
                    << abbrev << " move " << move;
            }
            // The walk must have exercised the skip, or it proves
            // nothing about it.
            EXPECT_GT(skipped, 0u) << abbrev;
        }
}

namespace {

/**
 * A kernel that replays `src` one line per instruction, warp by warp;
 * `flip` is XORed into the first line of TB 0.
 */
Kernel
replayKernel(const Kernel &src, Addr flip)
{
    return Kernel(src.params(), [src, flip](TbId tb, TraceBuilder &b) {
        const TbTrace t = src.trace(tb);
        bool first = tb == 0;
        for (unsigned w = 0; w < t.warps.size(); ++w)
            for (const MemInstr &instr : t.warps[w].instrs)
                for (const Addr a : instr.lines) {
                    b.accessLine(w, first ? a ^ flip : a, instr.write);
                    first = false;
                }
    });
}

/**
 * Each kernel of `wl` planed on its own: the row entropy of planes
 * `k` is kernel `k`'s entropy.
 */
std::vector<TracePlanes>
planesPerKernel(const Workload &wl)
{
    PlaneOptions popts;
    popts.threads = 1;
    std::vector<TracePlanes> out;
    for (const Kernel &k : wl.kernels())
        out.emplace_back(Workload(wl.info(), {k}), popts);
    return out;
}

/**
 * Every value the fixture's planes give for rows over the live bits,
 * against `alone` (`planesPerKernel`): combineRow, toggleRow and
 * xorRows must give each kernel exactly its own entropy, rowEntropy
 * the weighted fold, profileFor the profiler's profile, and an
 * applied move the plane combineRow builds.
 */
void
expectPerKernelValues(const PlanesFixture &s,
                      const std::vector<TracePlanes> &alone,
                      const std::string &tag)
{
    const TracePlanes &p = *s.planes;
    const unsigned w = s.po.window;
    const EntropyMetric metric = s.po.metric;
    const std::size_t nk = p.numKernels();
    const std::uint64_t live_bits = bits::mask(30) & ~bits::mask(7);
    XorShiftRng rng(77);
    for (int trial = 0; trial < 6; ++trial) {
        const std::uint64_t row = rng.next() & live_bits;
        const std::uint64_t other = rng.next() & live_bits;
        const unsigned bit = 7 + static_cast<unsigned>(rng.below(23));
        std::vector<std::uint64_t> plane(p.planeWords());
        std::vector<std::uint64_t> other_plane(p.planeWords());
        std::vector<double> kent(nk);
        std::vector<double> other_kent(nk);
        p.combineRow(row, plane.data(), kent.data(), w, metric);
        p.combineRow(other, other_plane.data(), other_kent.data(), w,
                     metric);
        for (std::size_t k = 0; k < nk; ++k)
            ASSERT_EQ(kent[k], alone[k].rowEntropy(row, w, metric))
                << tag << " combineRow kernel " << k;
        EXPECT_EQ(p.entropyFromKernels(kent.data()),
                  p.rowEntropy(row, w, metric))
            << tag;

        std::vector<double> cand = kent;
        std::size_t changed = 0;
        for (std::size_t k = 0; k < nk; ++k)
            changed += (p.kernelLive(k) >> bit) & 1;
        EXPECT_EQ(p.toggleRow(plane.data(), bit, cand.data(), w, metric),
                  changed)
            << tag;
        const std::uint64_t toggled = row ^ (std::uint64_t{1} << bit);
        for (std::size_t k = 0; k < nk; ++k)
            ASSERT_EQ(cand[k], alone[k].rowEntropy(toggled, w, metric))
                << tag << " toggleRow kernel " << k;

        cand = kent;
        p.xorRows(plane.data(), other_plane.data(), other, cand.data(),
                  w, metric);
        for (std::size_t k = 0; k < nk; ++k)
            ASSERT_EQ(cand[k],
                      alone[k].rowEntropy(row ^ other, w, metric))
                << tag << " xorRows kernel " << k;

        // A shared slice must be XORed once, not once per kernel.
        std::vector<std::uint64_t> fresh(p.planeWords());
        p.applyToggle(plane.data(), bit);
        p.combineRow(toggled, fresh.data(), cand.data(), w, metric);
        EXPECT_EQ(plane, fresh) << tag << " applyToggle";
        p.applyXor(plane.data(), other_plane.data(), other);
        p.combineRow(toggled ^ other, fresh.data(), cand.data(), w,
                     metric);
        EXPECT_EQ(plane, fresh) << tag << " applyXor";
    }
    const EntropyProfile direct = workloads::profileWorkload(*s.wl, s.po);
    const EntropyProfile planes = p.profileFor(
        BitMatrix::identity(s.po.numBits), w, metric);
    EXPECT_EQ(direct.perBit, planes.perBit) << tag << " profileFor";
}

} // namespace

TEST(TracePlanes, IdenticalKernelsAreScoredOnce)
{
    // SC and SPMV repeat most of their kernels. A repeat stores no
    // planes and copies the entropy of the first kernel like it, so
    // every value must still be the one the kernel gets on its own.
    metrics::Counter &aliased =
        metrics::counter("search.plane_kernels_aliased");
    for (const char *abbrev : {"SC", "SPMV"}) {
        const std::uint64_t before = aliased.value();
        PlanesFixture s(abbrev);
        const std::vector<bool> repeated = repeatedKernels(*s.wl);
        const auto repeats = static_cast<std::uint64_t>(
            std::count(repeated.begin(), repeated.end(), true));
        EXPECT_GT(repeats, 0u) << abbrev;
        EXPECT_EQ(aliased.value() - before, repeats) << abbrev;

        const std::vector<TracePlanes> alone = planesPerKernel(*s.wl);
        std::uint64_t all_bytes = 0;
        std::uint64_t distinct_bytes = 0;
        for (std::size_t k = 0; k < alone.size(); ++k) {
            all_bytes += alone[k].planeBytes();
            if (!repeated[k])
                distinct_bytes += alone[k].planeBytes();
        }
        EXPECT_EQ(s.planes->planeBytes(), distinct_bytes) << abbrev;
        EXPECT_LT(s.planes->planeBytes(), all_bytes) << abbrev;
        expectPerKernelValues(s, alone, abbrev);
    }

    // Two replays of one kernel alias; a third that differs from them
    // in one line of one TB (same requests, same live bits) does not.
    PlanesFixture s("SC");
    const Kernel src = s.wl->kernels().front();
    s.wl = std::make_unique<Workload>(
        s.wl->info(), std::vector<Kernel>{replayKernel(src, 0),
                                          replayKernel(src, 0),
                                          replayKernel(src, Addr{1} << 7)});
    const std::uint64_t before = aliased.value();
    s.planes = std::make_unique<TracePlanes>(*s.wl, PlaneOptions{30, 1});
    EXPECT_EQ(aliased.value() - before, 1u);
    const auto &ks = s.wl->kernels();
    ASSERT_EQ(ks[2].trace(0).requestCount(), ks[0].trace(0).requestCount());
    ASSERT_EQ(s.planes->kernelLive(2), s.planes->kernelLive(0));
    const std::vector<TracePlanes> alone = planesPerKernel(*s.wl);
    EXPECT_EQ(s.planes->planeBytes(), 2 * alone[0].planeBytes());
    expectPerKernelValues(s, alone, "one-line replay");
}

TEST(TracePlanes, PlaneBytesPeakOutlivesThePlanes)
{
    // search.plane_bytes is live and falls back once the planes go;
    // search.plane_bytes_peak keeps the high-water mark for snapshots
    // taken after a search.
    metrics::Gauge &live = metrics::gauge("search.plane_bytes");
    metrics::Gauge &peak = metrics::gauge("search.plane_bytes_peak");
    const std::int64_t before = live.value();
    std::uint64_t bytes = 0;
    {
        PlanesFixture s("MT");
        bytes = s.planes->planeBytes();
        EXPECT_EQ(live.value(), before + static_cast<std::int64_t>(bytes));
    }
    EXPECT_EQ(live.value(), before);
    EXPECT_GE(peak.value(), before + static_cast<std::int64_t>(bytes));
    EXPECT_GT(bytes, 0u);
}

TEST(TracePlanes, ForceScalarBitIdenticalToDispatched)
{
    // LU's TBs span 1-5 plane words, SPMV's 8-26, so the widest SIMD
    // loops run as well as their tails. Identity rows tap one strip
    // each; the random rows tap several, so the multi-source XOR
    // kernels run on both tables too.
    for (const char *abbrev : {"LU", "SPMV"}) {
        const auto wl = workloads::make(abbrev, kScale);
        PlaneOptions dispatched{30, 1, false};
        PlaneOptions scalar{30, 1, true};
        const TracePlanes a(*wl, dispatched);
        const TracePlanes b(*wl, scalar);
        for (const BitMatrix &m : {BitMatrix::identity(30),
                                   randomMatrixTappingDeadBits(30, 1)})
            for (const EntropyMetric metric :
                 {EntropyMetric::BitProbability,
                  EntropyMetric::BvrDistribution}) {
                const EntropyProfile pa = a.profileFor(m, 12, metric);
                const EntropyProfile pb = b.profileFor(m, 12, metric);
                for (std::size_t bit = 0; bit < pa.perBit.size(); ++bit)
                    EXPECT_EQ(pa.perBit[bit], pb.perBit[bit])
                        << abbrev << " bit " << bit;
            }
    }
}

TEST(FlatnessObjective, RewardsFlatHighEntropy)
{
    FlatnessObjective obj;
    const std::vector<double> valley = {0.1, 0.1, 0.9, 0.9, 0.9, 0.9};
    const std::vector<double> flat = {0.95, 0.95, 0.95,
                                      0.95, 0.95, 0.95};
    EXPECT_LT(obj.cost(flat, 6), obj.cost(valley, 6));
    // Gate regularizer breaks entropy ties toward cheaper hardware.
    EXPECT_LT(obj.cost(flat, 3), obj.cost(flat, 12));
    // Identity (entropy-free targets, no gates) is the worst case.
    const std::vector<double> dead(6, 0.0);
    EXPECT_NEAR(obj.cost(dead, 0),
                obj.meanWeight + obj.minWeight, 1e-12);
}

TEST(BimSearch, SearchedMatrixInvertibleWithIdentityNonTargetRows)
{
    PlanesFixture s("MT");
    const AddressLayout layout = gddr5();
    SearchOptions opts = defaultOptions(layout);
    opts.threads = 1;
    opts.restarts = 2;
    opts.iterations = 300;
    const BimSearch searcher(layout, *s.planes,
                             defaultObjective(layout), opts);
    const SearchResult r = searcher.anneal();

    EXPECT_TRUE(r.bim.invertible());
    // The search must only rewrite the channel/bank target rows —
    // everything else stays identity (the invariant documented in
    // bim_search.hh).
    std::vector<bool> is_target(layout.addrBits, false);
    for (unsigned t : searcher.targets())
        is_target[t] = true;
    for (unsigned row = 0; row < layout.addrBits; ++row)
        if (!is_target[row]) {
            EXPECT_TRUE(r.bim.rowIsIdentity(row)) << "row " << row;
        }
    // Target rows only tap candidate (page-mask) bits.
    for (unsigned t : searcher.targets())
        EXPECT_EQ(r.bim.row(t) & ~searcher.candidateMask(), 0u);
}

TEST(BimSearch, DeterministicForFixedSeed)
{
    PlanesFixture s("MT");
    const AddressLayout layout = gddr5();
    SearchOptions opts = defaultOptions(layout);
    opts.threads = 1;
    opts.restarts = 2;
    opts.iterations = 300;
    const BimSearch searcher(layout, *s.planes,
                             defaultObjective(layout), opts);
    const SearchResult a = searcher.anneal();
    const SearchResult b = searcher.anneal();
    EXPECT_TRUE(a.bim == b.bim);
    EXPECT_EQ(a.cost, b.cost);
    EXPECT_EQ(a.stats.evaluations, b.stats.evaluations);

    SearchOptions other = opts;
    other.seed = 7;
    const BimSearch searcher7(layout, *s.planes,
                              defaultObjective(layout), other);
    const SearchResult c = searcher7.anneal();
    // Different seeds explore different chains (costs may tie, the
    // accept/reject trajectory must not).
    EXPECT_NE(a.stats.accepted, c.stats.accepted);
}

TEST(BimSearch, ParallelRestartsBitIdenticalToSerial)
{
    PlanesFixture s("LU");
    const AddressLayout layout = gddr5();
    SearchOptions serial = defaultOptions(layout);
    serial.restarts = 4;
    serial.iterations = 200;
    serial.threads = 1;
    SearchOptions parallel = serial;
    parallel.threads = 3;
    const BimSearch ss(layout, *s.planes, defaultObjective(layout),
                       serial);
    const BimSearch sp(layout, *s.planes, defaultObjective(layout),
                       parallel);
    const SearchResult a = ss.anneal();
    const SearchResult b = sp.anneal();
    EXPECT_TRUE(a.bim == b.bim);
    EXPECT_EQ(a.cost, b.cost);
    EXPECT_EQ(a.identityCost, b.identityCost);
    EXPECT_EQ(a.bestRestart, b.bestRestart);
    EXPECT_EQ(a.stats.evaluations, b.stats.evaluations);
    EXPECT_EQ(a.stats.accepted, b.stats.accepted);
}

TEST(BimSearch, PhaseEvaluationCountsSumToTotal)
{
    // SearchStats breaks the evaluation budget down per phase; the
    // three phase counts must partition the global count exactly, and
    // each phase that runs must have done real work.
    PlanesFixture s("MT");
    const AddressLayout layout = gddr5();
    SearchOptions opts = defaultOptions(layout);
    opts.threads = 1;
    opts.restarts = 2;
    opts.iterations = 300;
    const BimSearch searcher(layout, *s.planes,
                             defaultObjective(layout), opts);

    const SearchResult annealed = searcher.anneal();
    EXPECT_EQ(annealed.stats.setupEvaluations +
                  annealed.stats.annealEvaluations +
                  annealed.stats.polishEvaluations,
              annealed.stats.evaluations);
    EXPECT_GT(annealed.stats.setupEvaluations, 0u);
    EXPECT_GT(annealed.stats.annealEvaluations, 0u);

    const SearchResult greedy = searcher.greedy();
    EXPECT_EQ(greedy.stats.setupEvaluations +
                  greedy.stats.annealEvaluations +
                  greedy.stats.polishEvaluations,
              greedy.stats.evaluations);
}

TEST(BimSearch, StrictlyBeatsIdentityOnValleyWorkloads)
{
    // The acceptance criterion: on entropy-valley workloads both the
    // annealed search and the greedy baseline must strictly lower the
    // flatness objective vs the identity (BASE) mapping.
    const AddressLayout layout = gddr5();
    for (const char *abbrev : {"MT", "LU"}) {
        PlanesFixture s(abbrev);
        SearchOptions opts = defaultOptions(layout);
        opts.threads = 1;
        opts.restarts = 2;
        opts.iterations = 400;
        const BimSearch searcher(layout, *s.planes,
                                 defaultObjective(layout), opts);
        const SearchResult annealed = searcher.anneal();
        const SearchResult greedy = searcher.greedy();
        EXPECT_LT(annealed.cost, annealed.identityCost) << abbrev;
        EXPECT_LT(greedy.cost, greedy.identityCost) << abbrev;
        EXPECT_GT(annealed.gain(), 0.0) << abbrev;
    }
}

TEST(BimSearch, RejectsTargetsOutsideCandidateMask)
{
    PlanesFixture s("MT");
    const AddressLayout layout = gddr5();
    SearchOptions opts = defaultOptions(layout);
    opts.candidateMask = 1ull << 20; // excludes the channel bits
    EXPECT_THROW(BimSearch(layout, *s.planes,
                           defaultObjective(layout), opts),
                 std::invalid_argument);
}

TEST(SearchedMapper, WrapsInvertibleBimNamedSbim)
{
    PlanesFixture s("MT");
    const AddressLayout layout = gddr5();
    SearchOptions opts = defaultOptions(layout);
    opts.threads = 1;
    opts.restarts = 2;
    opts.iterations = 300;
    // VALLEY_CACHE=0: this test must exercise the live search (and
    // never write a cache entry into the developer's cache dir).
    setenv("VALLEY_CACHE", "0", 1);
    const auto mapper =
        search::searchedMapper(layout, *s.wl, opts, kScale);
    unsetenv("VALLEY_CACHE");
    EXPECT_EQ(mapper->name(), "SBIM");
    EXPECT_TRUE(mapper->matrix().invertible());
    // One-to-one over a sample of addresses via the inverse matrix.
    const auto inv = mapper->matrix().inverse();
    ASSERT_TRUE(inv.has_value());
    XorShiftRng rng(99);
    for (int i = 0; i < 1000; ++i) {
        const Addr a = rng.next() & ((1ull << 30) - 1);
        EXPECT_EQ(inv->apply(mapper->map(a)), a);
    }
}

TEST(SearchedMapper, MakeSchemeRefusesSbim)
{
    EXPECT_THROW(mapping::makeScheme(Scheme::SBIM, gddr5()),
                 std::invalid_argument);
    EXPECT_EQ(schemeName(Scheme::SBIM), "SBIM");
    // The paper's presentation order stays the six paper schemes.
    EXPECT_EQ(allSchemes().size(), 6u);
}

TEST(BimSearch, CancelledSearchDegradesToScoredInvertibleIncumbent)
{
    PlanesFixture s("MT");
    const AddressLayout layout = gddr5();
    SearchOptions opts = defaultOptions(layout);
    opts.threads = 1;
    opts.restarts = 2;
    opts.iterations = 300;

    // Fire before the first move: the harshest deadline possible.
    // The degradation contract says the search must still return a
    // fully scored, invertible incumbent — never throw, never hand
    // back garbage — and flag the truncation.
    CancelToken token;
    token.cancel();
    opts.cancel = &token;
    const BimSearch searcher(layout, *s.planes,
                             defaultObjective(layout), opts);
    const SearchResult r = searcher.anneal();

    EXPECT_TRUE(r.stats.deadlineHit);
    EXPECT_FALSE(r.stats.capped); // budget was not the stopper
    EXPECT_TRUE(r.bim.invertible());
    EXPECT_TRUE(std::isfinite(r.cost));
    // The incumbent still honors the structural invariants.
    std::vector<bool> is_target(layout.addrBits, false);
    for (unsigned t : searcher.targets())
        is_target[t] = true;
    for (unsigned row = 0; row < layout.addrBits; ++row)
        if (!is_target[row]) {
            EXPECT_TRUE(r.bim.rowIsIdentity(row)) << "row " << row;
        }
}

TEST(BimSearch, PlaneCacheOffBitIdenticalToOn)
{
    // The incremental row cache is a pure speedup: with it disabled
    // every proposal is scored from scratch through the oracle, and
    // the whole trajectory — matrix, cost, evaluation and acceptance
    // counts — must not move, under either entropy metric.
    const AddressLayout layout = gddr5();
    for (const EntropyMetric metric :
         {EntropyMetric::BitProbability,
          EntropyMetric::BvrDistribution}) {
        PlanesFixture s("MT", metric);
        SearchOptions cached = defaultOptions(layout);
        cached.threads = 1;
        cached.restarts = 2;
        cached.iterations = 300;
        cached.metric = metric;
        SearchOptions oracle = cached;
        oracle.planeCache = false;
        const BimSearch sc(layout, *s.planes,
                           defaultObjective(layout), cached);
        const BimSearch so(layout, *s.planes,
                           defaultObjective(layout), oracle);

        const SearchResult a = sc.anneal();
        const SearchResult b = so.anneal();
        EXPECT_TRUE(a.bim == b.bim);
        EXPECT_EQ(a.cost, b.cost);
        EXPECT_EQ(a.identityCost, b.identityCost);
        EXPECT_EQ(a.stats.evaluations, b.stats.evaluations);
        EXPECT_EQ(a.stats.accepted, b.stats.accepted);
        // The cached run works through plane moves; the oracle run
        // must not touch the incremental machinery at all.
        EXPECT_GT(a.stats.planeToggles + a.stats.planeXors, 0u);
        EXPECT_GT(a.stats.planeRebuilds, 0u);
        EXPECT_EQ(b.stats.planeToggles, 0u);
        EXPECT_EQ(b.stats.planeXors, 0u);
        EXPECT_EQ(b.stats.planeRebuilds, 0u);
        EXPECT_EQ(b.stats.kernelsSkipped, 0u);

        const SearchResult ga = sc.greedy();
        const SearchResult gb = so.greedy();
        EXPECT_TRUE(ga.bim == gb.bim);
        EXPECT_EQ(ga.cost, gb.cost);
        EXPECT_EQ(ga.stats.evaluations, gb.stats.evaluations);
    }
}

TEST(BimSearch, UnfiredTokenLeavesTheSearchBitIdentical)
{
    PlanesFixture s("MT");
    const AddressLayout layout = gddr5();
    SearchOptions opts = defaultOptions(layout);
    opts.threads = 1;
    opts.restarts = 2;
    opts.iterations = 300;
    const BimSearch plain(layout, *s.planes,
                          defaultObjective(layout), opts);
    const SearchResult a = plain.anneal();

    CancelToken token; // present but never fired
    SearchOptions watched = opts;
    watched.cancel = &token;
    const BimSearch observed(layout, *s.planes,
                             defaultObjective(layout), watched);
    const SearchResult b = observed.anneal();

    EXPECT_FALSE(b.stats.deadlineHit);
    EXPECT_TRUE(a.bim == b.bim);
    EXPECT_EQ(a.cost, b.cost);
    EXPECT_EQ(a.stats.evaluations, b.stats.evaluations);
}

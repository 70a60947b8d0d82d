#include "workloads/trace.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/bitops.hh"

namespace valley {

namespace {

/** Mask clearing the in-line offset bits of a power-of-two line. */
Addr
lineMaskFor(unsigned line_bytes)
{
    if (!bits::isPow2(line_bytes))
        throw std::invalid_argument(
            "coalescer: line size must be a power of two");
    return ~(Addr{line_bytes} - 1);
}

/**
 * Line-align, sort and de-duplicate `a[0, n)` in place; the distinct
 * lines end up sorted at the front. Returns their count.
 */
std::size_t
coalesceInPlace(Addr *a, std::size_t n, Addr line_mask)
{
    for (std::size_t i = 0; i < n; ++i)
        a[i] &= line_mask;
    std::sort(a, a + n);
    return static_cast<std::size_t>(std::unique(a, a + n) - a);
}

} // namespace

std::vector<Addr>
coalesce(std::span<const Addr> thread_addrs, unsigned line_bytes)
{
    std::vector<Addr> lines(thread_addrs.begin(), thread_addrs.end());
    lines.resize(coalesceInPlace(lines.data(), lines.size(),
                                 lineMaskFor(line_bytes)));
    return lines;
}

TbTrace::TbTrace(const TbTrace &other)
    : warps(other.warps), instrs_(other.instrs_), lines_(other.lines_)
{
    rebase(other);
}

TbTrace &
TbTrace::operator=(const TbTrace &other)
{
    if (this != &other)
        *this = TbTrace(other);
    return *this;
}

void
TbTrace::rebase(const TbTrace &from)
{
    for (MemInstr &instr : instrs_)
        instr.lines = {lines_.data() +
                           (instr.lines.data() - from.lines_.data()),
                       instr.lines.size()};
    for (WarpTrace &w : warps)
        w.instrs = {instrs_.data() +
                        (w.instrs.data() - from.instrs_.data()),
                    w.instrs.size()};
}

TraceBuilder::TraceBuilder(unsigned warps_per_tb, unsigned line_bytes,
                           unsigned compute_gap)
    : lineBytes_(line_bytes), lineMask_(lineMaskFor(line_bytes)),
      computeGap(compute_gap), warps(warps_per_tb)
{
    // Most TBs fit in these; larger ones grow geometrically.
    lines.reserve(kInitialLines);
    issued.reserve(kInitialInstrs);
}

Addr *
TraceBuilder::stage(std::size_t threads)
{
    const std::size_t first = lines.size();
    lines.resize(first + threads);
    return lines.data() + first;
}

void
TraceBuilder::push(unsigned warp, const Addr *staged, std::size_t n,
                   bool write)
{
    assert(warp < warps.size());
    const std::size_t first =
        static_cast<std::size_t>(staged - lines.data());
    lines.resize(first + n);
    if (n == 0)
        return;
    WarpState &ws = warps[warp];
    issued.push_back(Issued{
        static_cast<std::uint32_t>(first),
        static_cast<std::uint32_t>(n), warp,
        static_cast<std::uint16_t>(
            std::min<unsigned>(computeGap + ws.pendingGap, 0xFFFF)),
        write});
    ws.pendingGap = 0;
    ++ws.instrs;
}

void
TraceBuilder::access(unsigned warp, std::span<const Addr> thread_addrs,
                     bool write)
{
    Addr *buf = stage(thread_addrs.size());
    std::copy(thread_addrs.begin(), thread_addrs.end(), buf);
    push(warp, buf, coalesceInPlace(buf, thread_addrs.size(), lineMask_),
         write);
}

void
TraceBuilder::accessStrided(unsigned warp, Addr base, std::int64_t stride,
                            unsigned threads, bool write)
{
    Addr *buf = stage(threads);
    // Thread addresses are monotone in t and line alignment keeps
    // them so: filling a negative stride from the back leaves the
    // lines sorted, and coalescing needs no sort.
    for (unsigned t = 0; t < threads; ++t) {
        const std::int64_t a = static_cast<std::int64_t>(base) +
                               static_cast<std::int64_t>(t) * stride;
        assert(a >= 0);
        buf[stride < 0 ? threads - 1 - t : t] =
            static_cast<Addr>(a) & lineMask_;
    }
    push(warp, buf,
         static_cast<std::size_t>(std::unique(buf, buf + threads) - buf),
         write);
}

void
TraceBuilder::accessLine(unsigned warp, Addr line_addr, bool write)
{
    Addr *buf = stage(1);
    *buf = line_addr & lineMask_;
    push(warp, buf, 1, write);
}

void
TraceBuilder::computeDelay(unsigned warp, unsigned cycles)
{
    assert(warp < warps.size());
    warps[warp].pendingGap += cycles;
}

TbTrace
TraceBuilder::take()
{
    // Counting sort of the issued instructions by warp: warp w's
    // instructions keep their issue order in one contiguous run.
    TbTrace tb;
    tb.lines_ = std::move(lines);
    tb.instrs_.resize(issued.size());
    tb.warps.resize(warps.size());
    std::uint32_t next = 0;
    for (std::size_t w = 0; w < warps.size(); ++w) {
        tb.warps[w].instrs = {tb.instrs_.data() + next, warps[w].instrs};
        const std::uint32_t count = warps[w].instrs;
        warps[w].instrs = next; // now the warp's fill cursor
        next += count;
    }
    for (const Issued &i : issued)
        tb.instrs_[warps[i.warp].instrs++] = MemInstr{
            {tb.lines_.data() + i.first, i.count}, i.write, i.gap};
    issued.clear();
    warps.assign(warps.size(), WarpState{});
    return tb;
}

} // namespace valley

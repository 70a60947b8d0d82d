#include "workloads/trace.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/bitops.hh"

namespace valley {

namespace {

/**
 * One warp access's addresses: on the stack up to 64 threads, on the
 * heap above (never for a 32-thread warp).
 */
class WarpBuffer
{
  public:
    explicit WarpBuffer(std::size_t threads)
    {
        if (threads > kStackThreads)
            heap_.resize(threads);
    }

    Addr *data() { return heap_.empty() ? stack_ : heap_.data(); }

  private:
    static constexpr std::size_t kStackThreads = 64;
    Addr stack_[kStackThreads];
    std::vector<Addr> heap_;
};

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

TraceBuilder::TraceBuilder(unsigned warps_per_tb, unsigned line_bytes,
                           unsigned compute_gap)
    : lineBytes_(line_bytes), lineMask_(lineMaskFor(line_bytes)),
      computeGap(compute_gap), pendingGap(warps_per_tb, 0)
{
    tb.warps.resize(warps_per_tb);
}

void
TraceBuilder::push(unsigned warp, const Addr *lines, std::size_t n,
                   bool write)
{
    assert(warp < tb.warps.size());
    if (n == 0)
        return;
    MemInstr &instr = tb.warps[warp].instrs.emplace_back();
    instr.lines.assign(lines, lines + n); // one allocation, exact size
    instr.write = write;
    instr.gap = static_cast<std::uint16_t>(
        std::min<unsigned>(computeGap + pendingGap[warp], 0xFFFF));
    pendingGap[warp] = 0;
}

void
TraceBuilder::access(unsigned warp, std::span<const Addr> thread_addrs,
                     bool write)
{
    WarpBuffer scratch(thread_addrs.size());
    Addr *buf = scratch.data();
    std::copy(thread_addrs.begin(), thread_addrs.end(), buf);
    push(warp, buf,
         coalesceInPlace(buf, thread_addrs.size(), lineMask_), write);
}

void
TraceBuilder::accessStrided(unsigned warp, Addr base, std::int64_t stride,
                            unsigned threads, bool write)
{
    WarpBuffer scratch(threads);
    Addr *buf = scratch.data();
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
    const Addr line = line_addr & lineMask_;
    push(warp, &line, 1, write);
}

void
TraceBuilder::computeDelay(unsigned warp, unsigned cycles)
{
    assert(warp < tb.warps.size());
    pendingGap[warp] += cycles;
}

TbTrace
TraceBuilder::take()
{
    return std::move(tb);
}

} // namespace valley

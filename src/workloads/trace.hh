/**
 * @file
 * Memory trace representation for GPU-compute workloads.
 *
 * A workload is a sequence of kernels; a kernel is a grid of thread
 * blocks (TBs); a TB is a set of warps; each warp executes a sequence
 * of memory instructions. The memory coalescer (part of this module,
 * as in GPGPU-Sim it sits before the address mapper) merges the 32
 * per-thread accesses of one warp instruction into the minimal set of
 * 128 B line transactions — these transactions are "the memory
 * requests" of the paper's entropy analysis and the units entering
 * the L1/NoC/LLC/DRAM hierarchy.
 */

#ifndef VALLEY_WORKLOADS_TRACE_HH
#define VALLEY_WORKLOADS_TRACE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hh"

namespace valley {

/** One warp-level memory instruction after coalescing. */
struct MemInstr
{
    std::vector<Addr> lines; ///< line-aligned transaction addresses
    bool write = false;
    std::uint16_t gap = 0;   ///< compute cycles before this instr issues
};

/** The memory instruction stream of one warp. */
struct WarpTrace
{
    std::vector<MemInstr> instrs;
};

/** The trace of one thread block. */
struct TbTrace
{
    std::vector<WarpTrace> warps;

    /** Total coalesced transactions in the TB. */
    std::uint64_t
    requestCount() const
    {
        std::uint64_t n = 0;
        for (const auto &w : warps)
            for (const auto &i : w.instrs)
                n += i.lines.size();
        return n;
    }
};

/**
 * Coalesce per-thread byte addresses of one warp access into sorted,
 * de-duplicated line transactions. `line_bytes` must be a power of
 * two (std::invalid_argument otherwise): alignment is a mask.
 */
std::vector<Addr> coalesce(std::span<const Addr> thread_addrs,
                           unsigned line_bytes);

/**
 * Incremental builder used by the kernel generator callbacks.
 *
 * Coalesces each access of up to 64 threads in a stack buffer and
 * allocates its `MemInstr::lines` once, at the exact line count.
 */
class TraceBuilder
{
  public:
    /** @throws std::invalid_argument unless `line_bytes` is a power
     *  of two. */
    TraceBuilder(unsigned warps_per_tb, unsigned line_bytes,
                 unsigned compute_gap);

    /** Warp-level access from explicit per-thread byte addresses. */
    void access(unsigned warp, std::span<const Addr> thread_addrs,
                bool write);

    /**
     * Strided warp access: thread t touches base + t * stride bytes.
     * Covers both coalesced (|stride| <= 4) and scatter/gather
     * (|stride| >= line) patterns.
     */
    void accessStrided(unsigned warp, Addr base, std::int64_t stride,
                       unsigned threads, bool write);

    /** Fully coalesced access: a single line transaction. */
    void accessLine(unsigned warp, Addr line_addr, bool write);

    /** Extra compute cycles before the *next* access of `warp`. */
    void computeDelay(unsigned warp, unsigned cycles);

    /** Finish and move the accumulated trace out. */
    TbTrace take();

    unsigned lineBytes() const { return lineBytes_; }

  private:
    /** Append one instruction of `n` sorted, distinct lines (none:
     *  no instruction). */
    void push(unsigned warp, const Addr *lines, std::size_t n,
              bool write);

    unsigned lineBytes_;
    Addr lineMask_; ///< clears the in-line offset bits
    unsigned computeGap;
    std::vector<unsigned> pendingGap;
    TbTrace tb;
};

} // namespace valley

#endif // VALLEY_WORKLOADS_TRACE_HH

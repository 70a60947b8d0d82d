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

/**
 * One warp-level memory instruction after coalescing. Its lines are a
 * view into the flat line storage of the `TbTrace` that holds it.
 */
struct MemInstr
{
    std::span<const Addr> lines; ///< line-aligned transaction addresses
    bool write = false;
    std::uint16_t gap = 0;   ///< compute cycles before this instr issues
};

/** The memory instruction stream of one warp: a view into its TB. */
struct WarpTrace
{
    std::span<const MemInstr> instrs;
};

/**
 * The trace of one thread block.
 *
 * A TB owns two flat arrays: every line of every instruction, in
 * generation order, and every instruction, warp by warp. `warps` and
 * each `MemInstr::lines` view into them, so building a TB costs a few
 * allocations rather than one per instruction. Moving a trace keeps
 * the arrays (and so every view) in place; copying one re-points the
 * copy's views at its own arrays.
 */
struct TbTrace
{
    std::vector<WarpTrace> warps;

    TbTrace() = default;
    TbTrace(const TbTrace &other);
    TbTrace(TbTrace &&) noexcept = default;
    TbTrace &operator=(const TbTrace &other);
    TbTrace &operator=(TbTrace &&) noexcept = default;

    /** Total coalesced transactions in the TB. */
    std::uint64_t requestCount() const { return lines_.size(); }

    /**
     * Every line of the TB in generation order (the order the kernel
     * generator issued the accesses, warps interleaved). Writable, so
     * a consumer can remap all lines in place in one pass.
     */
    std::span<Addr> lines() { return lines_; }
    std::span<const Addr> lines() const { return lines_; }

  private:
    friend class TraceBuilder;

    /** Point the views at this trace's arrays, at the offsets they
     *  have in `from`'s. */
    void rebase(const TbTrace &from);

    std::vector<MemInstr> instrs_; ///< warp-major
    std::vector<Addr> lines_;      ///< generation order
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
 * Stages each access's thread addresses at the end of one growing
 * line array and coalesces them there, in place; `take` sorts the
 * instructions warp-major in one counting pass. No allocation is made
 * per instruction.
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
    /** One instruction as issued: its lines at `lines[first, +count)`. */
    struct Issued
    {
        std::uint32_t first = 0;
        std::uint32_t count = 0;
        std::uint32_t warp = 0;
        std::uint16_t gap = 0;
        bool write = false;
    };

    struct WarpState
    {
        unsigned pendingGap = 0;
        std::uint32_t instrs = 0; ///< instructions issued so far
    };

    /** Make room for `threads` addresses at the end of `lines`. */
    Addr *stage(std::size_t threads);

    /** Keep the first `n` addresses staged at `staged` (sorted,
     *  distinct lines) as one instruction of `warp`; none: no
     *  instruction. Drops the rest of the staging room. */
    void push(unsigned warp, const Addr *staged, std::size_t n,
              bool write);

    static constexpr std::size_t kInitialLines = 256;
    static constexpr std::size_t kInitialInstrs = 64;

    unsigned lineBytes_;
    Addr lineMask_; ///< clears the in-line offset bits
    unsigned computeGap;
    std::vector<WarpState> warps;
    std::vector<Addr> lines;    ///< every instruction's lines, in order
    std::vector<Issued> issued; ///< every instruction, in issue order
};

} // namespace valley

#endif // VALLEY_WORKLOADS_TRACE_HH

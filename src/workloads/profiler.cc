#include "workloads/profiler.hh"

#include <numeric>
#include <string>

#include "common/metrics.hh"
#include "common/thread_pool.hh"
#include "common/trace_span.hh"
#include "entropy/sliced_bvr.hh"

namespace valley {
namespace workloads {

namespace {

/** Non-identity compiled remap of the options, if any. */
const CompiledTransform *
activeTransform(const ProfileOptions &opts)
{
    if (!opts.mapper)
        return nullptr;
    const CompiledTransform &ct = opts.mapper->compiled();
    return ct.isIdentity() ? nullptr : &ct;
}

/**
 * BVR vector and request count of one TB, streamed through the
 * bit-sliced accumulator. The remap, when present, is fused into the
 * accumulator's batch loop — profiling under a BIM never pays a
 * per-line `AddressMapper::map` call.
 */
void
accumulateTb(const Kernel &kernel, TbId tb, const ProfileOptions &opts,
             const CompiledTransform *ct, std::vector<double> &bvr,
             std::uint64_t &requests)
{
    SlicedBvrAccumulator acc(opts.numBits);
    // One-counts are order-free, so the TB's flat line array streams
    // in one call.
    const TbTrace trace = kernel.trace(tb);
    if (ct)
        acc.addManyMapped(trace.lines(),
                          [ct](Addr a) { return ct->apply(a); });
    else
        acc.addMany(trace.lines());
    requests = acc.requestCount();
    bvr = acc.bvrs();
}

/** TB-range task granularity for splitting large kernels. */
constexpr unsigned kTbsPerTask = 256;

/**
 * Profile a batch of kernels, parallelized across kernels and across
 * TB ranges within each kernel. Each TB owns one preallocated BVR
 * slot and each kernel one profile slot, so results are deterministic
 * under any scheduling order.
 */
std::vector<EntropyProfile>
profileKernels(std::span<const Kernel> kernels,
               const ProfileOptions &opts)
{
    const std::size_t nk = kernels.size();
    std::vector<std::vector<std::vector<double>>> bvrs(nk);
    std::vector<std::vector<std::uint64_t>> counts(nk);
    std::size_t tb_tasks = 0;
    for (std::size_t ki = 0; ki < nk; ++ki) {
        const unsigned tbs = kernels[ki].numTbs();
        bvrs[ki].resize(tbs);
        counts[ki].resize(tbs, 0);
        tb_tasks += (tbs + kTbsPerTask - 1) / kTbsPerTask;
    }

    const CompiledTransform *ct = activeTransform(opts);
    const auto bvrRange = [&](std::size_t ki, TbId lo, TbId hi) {
        // Task-start boundary: throws Cancelled (a partial profile is
        // not a degraded profile — see ProfileOptions::cancel). In the
        // pool path the throw propagates to the caller via run().
        if (opts.cancel)
            opts.cancel->check("profileWorkload cancelled");
        trace::Span span(trace::enabled()
                             ? "kernel#" + std::to_string(ki) +
                                   " tb[" + std::to_string(lo) + "," +
                                   std::to_string(hi) + ")"
                             : std::string(),
                         "profiler");
        for (TbId tb = lo; tb < hi; ++tb)
            accumulateTb(kernels[ki], tb, opts, ct, bvrs[ki][tb],
                         counts[ki][tb]);
    };
    std::vector<EntropyProfile> out(nk);
    const auto profileOne = [&](std::size_t ki) {
        if (opts.cancel)
            opts.cancel->check("profileWorkload cancelled");
        trace::Span span(trace::enabled()
                             ? "kernel#" + std::to_string(ki) +
                                   " profile"
                             : std::string(),
                         "profiler");
        metrics::counter("profiler.kernels_profiled").inc();
        // Summed in TB order — integer, hence order-independent, but
        // kept ordered for clarity.
        const std::uint64_t requests = std::accumulate(
            counts[ki].begin(), counts[ki].end(), std::uint64_t{0});
        out[ki] = kernelProfile(bvrs[ki], opts.window, requests,
                                opts.metric);
    };

    const unsigned threads = opts.threads == 0
                                 ? ThreadPool::defaultThreads()
                                 : opts.threads;
    if (threads <= 1 || tb_tasks <= 1) {
        for (std::size_t ki = 0; ki < nk; ++ki) {
            bvrRange(ki, 0, kernels[ki].numTbs());
            profileOne(ki);
        }
    } else {
        ThreadPool pool(static_cast<unsigned>(
            std::min<std::size_t>(threads, tb_tasks)));
        for (std::size_t ki = 0; ki < nk; ++ki)
            for (TbId lo = 0; lo < kernels[ki].numTbs();
                 lo += kTbsPerTask)
                pool.submit([&bvrRange, &kernels, ki, lo] {
                    bvrRange(ki, lo,
                             std::min<TbId>(lo + kTbsPerTask,
                                            kernels[ki].numTbs()));
                });
        pool.run();
        for (std::size_t ki = 0; ki < nk; ++ki)
            pool.submit([&profileOne, ki] { profileOne(ki); });
        pool.run();
    }
    return out;
}

} // namespace

EntropyProfile
profileKernel(const Kernel &kernel, const ProfileOptions &opts)
{
    return profileKernels({&kernel, 1}, opts).front();
}

EntropyProfile
profileWorkload(const Workload &workload, const ProfileOptions &opts)
{
    trace::Span span(trace::enabled()
                         ? "profile " + workload.info().abbrev
                         : std::string(),
                     "profiler");
    return EntropyProfile::combine(
        profileKernels(workload.kernels(), opts));
}

} // namespace workloads
} // namespace valley

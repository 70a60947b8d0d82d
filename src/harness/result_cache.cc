#include "harness/result_cache.hh"

#include <array>
#include <cstdlib>
#include <map>
#include <mutex>
#include <sstream>

#include "common/metrics.hh"
#include "common/trace_span.hh"
#include "harness/atomic_io.hh"

namespace valley {
namespace harness {

// v4: checksummed record lines (atomic_io.hh) — pre-checksum epochs
// are skipped as stale on load.
// v5: mapper-registry spec keys — the scheme field holds the escaped
// canonical `map:` spec and a layout-identity field is appended, so
// pre-registry keys can never alias post-registry cells.
const char *kResultCacheVersion = "v5";

std::string
cacheDir()
{
    const char *env = std::getenv("VALLEY_CACHE_DIR");
    return env && *env ? env : "cache";
}

std::string
resultCachePath()
{
    return cacheDir() + "/valley_results_cache.csv";
}

namespace {

/**
 * The in-memory cache is sharded by key hash so parallel grid cells
 * do not serialize on one global lock; only the on-disk append and
 * the initial file load keep their own (cold-path) mutexes.
 */
constexpr std::size_t kCacheShards = 16;

struct CacheShard
{
    std::mutex mutex;
    std::map<std::string, RunResult> entries;
};

std::array<CacheShard, kCacheShards> shards;
std::mutex load_mutex;
bool loaded = false;

CacheShard &
shardFor(const std::string &key)
{
    return shards[std::hash<std::string>{}(key) % kCacheShards];
}

void
loadOnce()
{
    std::lock_guard<std::mutex> lock(load_mutex);
    if (loaded)
        return;
    loaded = true;
    // Corrupt lines (torn appends, bad checksums, wrong field
    // counts) are quarantined instead of aborting or poisoning the
    // run: the affected cells degrade to cache misses.
    loadChecksummedRecords(
        resultCachePath(), kResultCacheVersion,
        [](const std::string &key, const std::string &payload) {
            auto r = deserializeResult(payload);
            if (!r)
                return false;
            CacheShard &shard = shardFor(key);
            std::lock_guard<std::mutex> shard_lock(shard.mutex);
            shard.entries[key] = std::move(*r);
            return true;
        });
}

} // namespace

std::string
serializeResult(const RunResult &r)
{
    std::ostringstream out;
    out.precision(17);
    out << r.workload << ' ' << r.scheme << ' ' << r.cycles << ' '
        << r.seconds << ' ' << r.instructions << ' ' << r.requests
        << ' ' << r.l1Accesses << ' ' << r.l1Misses << ' '
        << r.llcAccesses << ' ' << r.llcMisses << ' ' << r.llcMissRate
        << ' ' << r.nocLatencySmCycles << ' ' << r.llcParallelism
        << ' ' << r.channelParallelism << ' ' << r.bankParallelism
        << ' ' << r.dram.reads << ' ' << r.dram.writes << ' '
        << r.dram.rowMisses << ' ' << r.dram.activations << ' '
        << r.dram.precharges << ' ' << r.dram.busBusyCycles << ' '
        << r.dram.latencySum << ' ' << r.rowBufferHitRate << ' '
        << r.dramPower.backgroundW << ' ' << r.dramPower.activateW
        << ' ' << r.dramPower.readW << ' ' << r.dramPower.writeW
        << ' ' << r.gpuPower.staticW << ' ' << r.gpuPower.dynamicW
        << ' ' << r.systemPowerW;
    return out.str();
}

std::optional<RunResult>
deserializeResult(const std::string &line)
{
    std::istringstream in(line);
    RunResult r;
    in >> r.workload >> r.scheme >> r.cycles >> r.seconds >>
        r.instructions >> r.requests >> r.l1Accesses >> r.l1Misses >>
        r.llcAccesses >> r.llcMisses >> r.llcMissRate >>
        r.nocLatencySmCycles >> r.llcParallelism >>
        r.channelParallelism >> r.bankParallelism >> r.dram.reads >>
        r.dram.writes >> r.dram.rowMisses >> r.dram.activations >>
        r.dram.precharges >> r.dram.busBusyCycles >>
        r.dram.latencySum >> r.rowBufferHitRate >>
        r.dramPower.backgroundW >> r.dramPower.activateW >>
        r.dramPower.readW >> r.dramPower.writeW >>
        r.gpuPower.staticW >> r.gpuPower.dynamicW >> r.systemPowerW;
    if (!in)
        return std::nullopt;
    // Trailing garbage means the field count is wrong for this
    // schema — corrupt, not just old.
    std::string extra;
    if (in >> extra)
        return std::nullopt;
    return r;
}

bool
cacheEnabled()
{
    const char *env = std::getenv("VALLEY_CACHE");
    return env == nullptr || std::string(env) != "0";
}

std::string
cacheKey(const std::string &config_name, const std::string &workload,
         const std::string &scheme, std::uint64_t seed, double scale,
         const std::string &layout)
{
    std::ostringstream out;
    out.precision(17); // distinct scales must yield distinct keys
    out << kResultCacheVersion << ';' << config_name << ';' << workload
        << ';' << scheme << ';' << seed << ';' << scale << ';'
        << layout;
    return out.str();
}

std::optional<RunResult>
cacheLookup(const std::string &key)
{
    if (!cacheEnabled())
        return std::nullopt;
    static metrics::Histogram &lookup_us =
        metrics::histogram("cache.result.lookup_us");
    metrics::ScopedTimer timer(lookup_us);
    trace::Span span("result_cache.lookup", "cache");
    loadOnce();
    CacheShard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.entries.find(key);
    if (it == shard.entries.end()) {
        metrics::counter("cache.result.misses").inc();
        return std::nullopt;
    }
    metrics::counter("cache.result.hits").inc();
    return it->second;
}

void
cacheStore(const std::string &key, const RunResult &r)
{
    if (!cacheEnabled())
        return;
    loadOnce();
    metrics::counter("cache.result.stores").inc();
    {
        CacheShard &shard = shardFor(key);
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.entries[key] = r;
    }
    // Whole checksummed record in one O_APPEND write: concurrent
    // bench binaries can interleave records but never tear one.
    // Best-effort — a failed append only loses memoization.
    atomicAppend(resultCachePath(),
                 checksummedRecord(key, serializeResult(r)));
}

void
resultCacheResetForTesting()
{
    std::lock_guard<std::mutex> lock(load_mutex);
    for (CacheShard &s : shards) {
        std::lock_guard<std::mutex> shard_lock(s.mutex);
        s.entries.clear();
    }
    loaded = false;
}

} // namespace harness
} // namespace valley

#include "harness/profile_cache.hh"

#include <array>
#include <map>
#include <mutex>
#include <sstream>

#include "common/metrics.hh"
#include "common/trace_span.hh"
#include "harness/atomic_io.hh"
#include "harness/result_cache.hh"

namespace valley {
namespace harness {

// p2: checksummed record lines (atomic_io.hh) — pre-checksum epochs
// are skipped as stale on load.
// p3: mapper-registry epoch — profiles are keyed alongside v5 result
// keys and m3 searched matrices; pre-registry lines load as stale.
const char *kProfileCacheVersion = "p3";

std::string
profileCachePath()
{
    return cacheDir() + "/valley_profiles_cache.csv";
}

namespace {

/** Same sharding rationale as result_cache: parallel benches must
 * not serialize profile lookups on one global lock. */
constexpr std::size_t kShards = 16;

struct Shard
{
    std::mutex mutex;
    std::map<std::string, EntropyProfile> entries;
};

std::array<Shard, kShards> shards;
std::mutex load_mutex;
bool loaded = false;

Shard &
shardFor(const std::string &key)
{
    return shards[std::hash<std::string>{}(key) % kShards];
}

std::string
serialize(const EntropyProfile &p)
{
    std::ostringstream out;
    out.precision(17);
    out << p.weight << ' ' << p.perBit.size();
    for (double b : p.perBit)
        out << ' ' << b;
    return out.str();
}

std::optional<EntropyProfile>
deserialize(const std::string &line)
{
    std::istringstream in(line);
    EntropyProfile p;
    std::size_t nbits = 0;
    in >> p.weight >> nbits;
    if (!in || nbits > 64)
        return std::nullopt;
    p.perBit.resize(nbits);
    for (double &b : p.perBit)
        in >> b;
    if (!in)
        return std::nullopt;
    std::string extra;
    if (in >> extra)
        return std::nullopt; // wrong field count for this schema
    return p;
}

void
loadOnce()
{
    std::lock_guard<std::mutex> lock(load_mutex);
    if (loaded)
        return;
    loaded = true;
    // Skip-and-quarantine: a corrupt profile line degrades to a cache
    // miss (re-profiled on demand) instead of feeding the search a
    // garbage entropy profile.
    loadChecksummedRecords(
        profileCachePath(), kProfileCacheVersion,
        [](const std::string &key, const std::string &payload) {
            auto p = deserialize(payload);
            if (!p)
                return false;
            Shard &shard = shardFor(key);
            std::lock_guard<std::mutex> shard_lock(shard.mutex);
            shard.entries[key] = std::move(*p);
            return true;
        });
}

} // namespace

std::string
profileCacheKey(const std::string &workload,
                const std::string &mapper_id, unsigned window,
                unsigned nbits, EntropyMetric metric, double scale)
{
    std::ostringstream out;
    out.precision(17); // distinct scales must yield distinct keys
    out << kProfileCacheVersion << ';' << workload << ';'
        << (mapper_id.empty() ? "identity" : mapper_id) << ';'
        << window << ';' << nbits << ';' << static_cast<int>(metric)
        << ';' << scale;
    return out.str();
}

std::optional<EntropyProfile>
profileCacheLookup(const std::string &key)
{
    if (!cacheEnabled())
        return std::nullopt;
    static metrics::Histogram &lookup_us =
        metrics::histogram("cache.profile.lookup_us");
    metrics::ScopedTimer timer(lookup_us);
    trace::Span span("profile_cache.lookup", "cache");
    loadOnce();
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.entries.find(key);
    if (it == shard.entries.end()) {
        metrics::counter("cache.profile.misses").inc();
        return std::nullopt;
    }
    metrics::counter("cache.profile.hits").inc();
    return it->second;
}

void
profileCacheStore(const std::string &key, const EntropyProfile &p)
{
    if (!cacheEnabled())
        return;
    loadOnce();
    metrics::counter("cache.profile.stores").inc();
    {
        Shard &shard = shardFor(key);
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.entries[key] = p;
    }
    // Best-effort atomic append: a failed write only loses
    // memoization; a concurrent one can no longer tear the line.
    atomicAppend(profileCachePath(),
                 checksummedRecord(key, serialize(p)));
}

void
profileCacheResetForTesting()
{
    std::lock_guard<std::mutex> lock(load_mutex);
    for (Shard &s : shards) {
        std::lock_guard<std::mutex> shard_lock(s.mutex);
        s.entries.clear();
    }
    loaded = false;
}

EntropyProfile
profileCached(const std::string &key,
              const std::function<EntropyProfile()> &compute)
{
    if (auto hit = profileCacheLookup(key))
        return *hit;
    EntropyProfile p = compute();
    profileCacheStore(key, p);
    return p;
}

EntropyProfile
profileWorkloadCached(const Workload &workload,
                      const workloads::ProfileOptions &opts,
                      double scale, const std::string &mapper_id)
{
    return profileCached(
        profileCacheKey(workload.info().abbrev, mapper_id, opts.window,
                        opts.numBits, opts.metric, scale),
        [&] { return workloads::profileWorkload(workload, opts); });
}

} // namespace harness
} // namespace valley

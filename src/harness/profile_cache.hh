/**
 * @file
 * On-disk memoization of entropy profiles, mirroring the simulation
 * result cache.
 *
 * Fig. 5 profiles all sixteen benchmarks and Fig. 10 profiles MT
 * under every scheme; any profile-driven BIM search re-reads the same
 * profiles many times over. Profiles are deterministic functions of
 * (workload, mapper, window, bits, metric, scale), so the first bench
 * to compute one persists it to a CSV under `harness::cacheDir()`
 * (VALLEY_CACHE_DIR-configurable, "cache/" by default) and later runs
 * reuse it. Shares the VALLEY_CACHE=0 escape hatch and the sharded
 * in-memory map design with `result_cache` (the two caches use
 * separate files and version strings).
 */

#ifndef VALLEY_HARNESS_PROFILE_CACHE_HH
#define VALLEY_HARNESS_PROFILE_CACHE_HH

#include <functional>
#include <optional>
#include <string>

#include "workloads/profiler.hh"

namespace valley {
namespace harness {

/** Profile cache schema/behavior version; bump on metric changes. */
extern const char *kProfileCacheVersion;

/** Profile cache file path (inside `harness::cacheDir()`). */
std::string profileCachePath();

/**
 * Unique key of one profile. `mapper_id` must uniquely identify the
 * mapper applied before accumulation (e.g. scheme name plus BIM
 * seed); use "" for no mapper.
 */
std::string profileCacheKey(const std::string &workload,
                            const std::string &mapper_id,
                            unsigned window, unsigned nbits,
                            EntropyMetric metric, double scale);

/** Look up a cached profile (loads the file on first use). */
std::optional<EntropyProfile> profileCacheLookup(
    const std::string &key);

/** Persist a profile (no-op when caching is disabled). */
void profileCacheStore(const std::string &key,
                       const EntropyProfile &p);

/**
 * Cache-through lookup: return the profile stored under `key`, or
 * run `compute`, store its result under `key` and return it.
 */
EntropyProfile profileCached(
    const std::string &key,
    const std::function<EntropyProfile()> &compute);

/**
 * Profile a workload through the cache: lookup by
 * (workload abbreviation, mapper_id, opts, scale), compute with
 * `workloads::profileWorkload` on a miss, store, return. Cache hits
 * round-trip doubles at full precision, so a hit is bit-identical to
 * the original computation.
 */
EntropyProfile profileWorkloadCached(
    const Workload &workload, const workloads::ProfileOptions &opts,
    double scale, const std::string &mapper_id = "");

/**
 * Drop the in-memory profile cache and forget that the file was
 * loaded (next lookup re-reads disk). Testing hook only.
 */
void profileCacheResetForTesting();

} // namespace harness
} // namespace valley

#endif // VALLEY_HARNESS_PROFILE_CACHE_HH

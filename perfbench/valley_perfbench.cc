/**
 * @file
 * One repetition of one benchmark workload, run in its own process.
 *
 *     valley_perfbench WORKLOAD MAPPER_SEED THREADS run|setup
 *     valley_perfbench WORKLOAD MAPPER_SEED THREADS trace TRACE_JSON
 *
 * WORKLOAD is `valley_base`, `table2_grid` or `joint_search` (see
 * README.md in this directory for what each one is and why).
 * `perfbench/run.py` launches this binary once per repetition, each
 * time with a fresh, empty `VALLEY_CACHE_DIR`, and aggregates the
 * repetitions into medians.
 *
 * `run` times the program the way its users call it
 * (`harness::runGrid` for the grid). `setup` stops where the timed
 * phase would start, so set-up can be sampled cheaply. `trace`
 * composes the timed phase from the layer calls themselves, each
 * wrapped in a Chrome-trace span written by `common/trace_span.hh`,
 * then runs layer probes (profiler and mapper throughput). No span
 * is added inside `src/`.
 *
 * Prints one JSON object on stdout. A failing cell or search is
 * listed under "errors" and the exit code stays 0, so the caller can
 * count failures against attempts; only a usage error exits non-zero.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bitops.hh"
#include "common/fnv.hh"
#include "common/metrics.hh"
#include "common/stats.hh"
#include "common/thread_pool.hh"
#include "common/trace_span.hh"
#include "gpu/gpu_system.hh"
#include "gpu/sim_config.hh"
#include "harness/experiment.hh"
#include "harness/grid_journal.hh"
#include "harness/result_cache.hh"
#include "mapping/layout_registry.hh"
#include "mapping/mapper_registry.hh"
#include "search/searched_bim.hh"
#include "workloads/profiler.hh"
#include "workloads/workload.hh"
#include "workloads/workload_set.hh"

using namespace valley;

namespace {

using Clock = std::chrono::steady_clock;

/** The mapper axis of `table2_grid`, in Fig. 12 column order. */
const std::vector<std::string> kGridMappers = {
    "map:base", "map:pm", "map:rmp", "map:pae",
    "map:fae",  "map:all", "map:sbim"};

/** Mapper whose compiled transform the traced mapping probe times. */
const char *const kProbeMapper = "map:pae";

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

/** CLOCK_MONOTONIC nanoseconds, the clock Python's time.monotonic_ns
 *  reads, so run.py can time set-up from before the process exists. */
std::int64_t
monotonicNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** The command line. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    unsigned threads = 1;
    std::string mode;      ///< "run", "setup" or "trace"
    std::string tracePath; ///< trace mode only

    bool traced() const { return mode == "trace"; }
};

/** One simulated (workload, mapper) cell. */
struct Cell
{
    std::string workload;
    std::string mapper; ///< canonical spec
    RunResult result;
    std::string error;  ///< empty = simulated cleanly

    std::string id() const { return workload + "/" + mapper; }
};

/** What one repetition measured and produced. */
struct Rep
{
    double wallSeconds = 0.0;
    std::int64_t phaseStartNs = 0; ///< run.py times set-up up to here
    std::vector<Cell> cells;
    std::vector<std::string> errors;
    // joint_search only
    std::string matrixDigest;
    double searchCost = 0.0;
    double identityCost = 0.0;
    // table2_grid only: paper-definition design metrics
    std::vector<std::pair<std::string, double>> design;
    // traced runs only
    std::uint64_t probeAddrs = 0;
    std::uint64_t probeChecksum = 0;
};

/**
 * The phase clock: set-up ends where the timed phase begins. In a
 * traced run the timed phase is also a `bench.timed` span, which
 * tells run.py which spans count towards the layers' self times.
 */
class Phases
{
  public:
    Phases(Rep &rep, const Args &args)
        : rep_(rep), setupOnly_(args.mode == "setup")
    {
    }

    /** End set-up; false = set-up only, skip the timed phase. */
    bool
    beginTimed()
    {
        rep_.phaseStartNs = monotonicNs();
        span_.emplace("bench.timed", "bench");
        timed_ = Clock::now();
        return !setupOnly_;
    }

    void
    endTimed()
    {
        rep_.wallSeconds = secondsSince(timed_);
        span_.reset();
    }

  private:
    Rep &rep_;
    bool setupOnly_;
    Clock::time_point timed_;
    std::optional<trace::Span> span_;
};

/** The cache-dir part of set-up: every rep starts from an empty one. */
void
setUpCacheDir(Rep &rep)
{
    const std::filesystem::path dir = harness::cacheDir();
    std::filesystem::create_directories(dir);
    if (!std::filesystem::is_empty(dir))
        rep.errors.push_back("cache dir " + dir.string() +
                             " is not empty at set-up");
}

/** Search options of a grid cell (as harness::runOne builds them). */
search::SearchOptions
cellSearchOptions(const SimConfig &config, std::uint64_t seed)
{
    search::SearchOptions so = search::defaultOptions(config.layout);
    so.seed = seed;
    so.window = config.numSms;
    so.threads = 1;
    return so;
}

/** Simulate one workload under one mapper inside the layer spans. */
RunResult
simulate(const SimConfig &config, const AddressMapper &mapper,
         const Workload &wl)
{
    trace::Span span("gpu.run", "gpu");
    GpuSystem sim(config, mapper);
    return sim.run(wl);
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, double scale)
{
    trace::Span span("workloads.make", "workloads");
    return workloads::make(name, scale);
}

std::unique_ptr<AddressMapper>
makeMapper(const std::string &spec, const AddressLayout &layout,
           std::uint64_t seed)
{
    trace::Span span("mapping.make", "mapping");
    return mapping::makeMapper(spec, layout, seed);
}

// ---- valley_base ------------------------------------------------------------

/** The 10 valley workloads under BASE, serial, scale 0.5. */
void
runValleyBase(Rep &rep, const Args &args)
{
    const double scale = 0.5;
    Phases phases(rep, args);
    const SimConfig config = SimConfig::paperBaseline();
    std::vector<std::unique_ptr<Workload>> wls;
    for (const auto &w : workloads::valleySet())
        wls.push_back(makeWorkload(w, scale));
    const auto mapper = makeMapper("map:base", config.layout, args.seed);
    setUpCacheDir(rep);

    if (!phases.beginTimed())
        return;
    for (std::size_t i = 0; i < wls.size(); ++i) {
        trace::Span cell_span("harness.cell", "harness");
        Cell c{workloads::valleySet()[i], "map:base", {}, {}};
        try {
            c.result = simulate(config, *mapper, *wls[i]);
        } catch (const std::exception &e) {
            c.error = e.what();
        }
        rep.cells.push_back(std::move(c));
    }
    phases.endTimed();
}

// ---- table2_grid ------------------------------------------------------------

/** Paper-definition design metrics over the grid's valley rows. */
void
recordDesignMetrics(Rep &rep, const harness::Grid &grid)
{
    std::vector<double> pae_speedup, pae_ppw, pae_dram, sbim_speedup;
    for (const auto &w : workloads::valleySet()) {
        pae_speedup.push_back(grid.speedup(w, Scheme::PAE));
        pae_ppw.push_back(grid.perfPerWattNorm(w, Scheme::PAE));
        pae_dram.push_back(grid.dramPowerNorm(w, Scheme::PAE));
        sbim_speedup.push_back(grid.speedup(w, Scheme::SBIM));
    }
    rep.design = {
        {"sim_speedup_hmean_pae", harmonicMean(pae_speedup)},
        {"sim_perf_per_watt_hmean_pae", harmonicMean(pae_ppw)},
        {"sim_dram_power_norm_pae", arithmeticMean(pae_dram)},
        {"sim_speedup_hmean_sbim", harmonicMean(sbim_speedup)},
    };
}

/**
 * One grid cell composed from the calls `runGrid` makes for it
 * (result-cache lookup, workload, mapper or SBIM search, simulation,
 * cache store, journal record), each inside its layer's span.
 */
RunResult
composedCell(const harness::GridOptions &opts,
             harness::GridJournal &journal, const std::string &w,
             const std::string &spec)
{
    trace::Span cell_span("harness.cell", "harness");
    const bool sbim = spec == "map:sbim";
    const std::string key = harness::cacheKey(
        workloads::escapeSpecField(opts.config.name), w,
        workloads::escapeSpecField(
            sbim ? spec + "@" + search::kSearchVersion : spec),
        opts.bimSeed, opts.scale,
        mapping::layoutIdentity(opts.config.layout));
    {
        trace::Span span("harness.cacheLookup", "harness");
        if (harness::cacheLookup(key))
            throw std::runtime_error("served from the result cache");
    }
    const auto wl = makeWorkload(w, opts.scale);
    std::unique_ptr<AddressMapper> mapper;
    if (sbim) {
        trace::Span span("search.setMapper", "search");
        mapper = search::setMapper(
            opts.config.layout, workloads::WorkloadSet({w}),
            cellSearchOptions(opts.config, opts.bimSeed), opts.scale);
    } else {
        mapper = makeMapper(spec, opts.config.layout, opts.bimSeed);
    }
    RunResult r = simulate(opts.config, *mapper, *wl);
    {
        trace::Span span("harness.cacheStore", "harness");
        harness::cacheStore(key, r);
    }
    {
        trace::Span span("harness.journal", "harness");
        if (!journal.record(key, r))
            throw std::runtime_error("journal record failed");
    }
    return r;
}

/** All 16 Table II workloads x 7 mappers, scale 0.25, cold caches. */
void
runTable2Grid(Rep &rep, const Args &args)
{
    Phases phases(rep, args);
    harness::GridOptions opts;
    opts.workloads = workloads::allSet();
    opts.mappers = kGridMappers;
    opts.scale = 0.25;
    opts.bimSeed = args.seed;
    opts.threads = args.threads;
    opts.useCache = true;
    opts.checkpoint = true;
    opts.poison = true; // a failing cell is counted, not fatal
    harness::normalizeGridAxes(opts);
    setUpCacheDir(rep);

    const std::size_t nw = opts.workloads.size();
    const std::size_t nm = opts.mappers.size();
    std::vector<std::vector<RunResult>> results(
        nw, std::vector<RunResult>(nm));
    std::vector<std::string> errors(nw * nm);

    if (!phases.beginTimed())
        return;
    if (!args.traced()) {
        try {
            const harness::Grid grid = harness::runGrid(opts);
            for (std::size_t wi = 0; wi < nw; ++wi)
                for (std::size_t mi = 0; mi < nm; ++mi)
                    results[wi][mi] =
                        grid.at(opts.workloads[wi], opts.mappers[mi]);
            for (std::size_t i = 0; i < grid.report().cells.size(); ++i) {
                const auto &c = grid.report().cells[i];
                if (c.status != harness::CellStatus::Ok)
                    errors[i] = std::string("cell status ") +
                                harness::cellStatusName(c.status) +
                                (c.reason.empty() ? "" : ": " + c.reason);
            }
        } catch (const std::exception &e) {
            std::fill(errors.begin(), errors.end(), e.what());
        }
    } else {
        harness::GridJournal journal(
            harness::cacheDir() + "/perfbench_traced_journal.csv");
        ThreadPool pool(args.threads);
        for (std::size_t wi = 0; wi < nw; ++wi)
            for (std::size_t mi = 0; mi < nm; ++mi)
                pool.submit([&, wi, mi] {
                    try {
                        results[wi][mi] = composedCell(
                            opts, journal, opts.workloads[wi],
                            opts.mappers[mi]);
                    } catch (const std::exception &e) {
                        errors[wi * nm + mi] = e.what();
                    }
                });
        pool.run();
    }
    phases.endTimed();

    for (std::size_t wi = 0; wi < nw; ++wi)
        for (std::size_t mi = 0; mi < nm; ++mi)
            rep.cells.push_back({opts.workloads[wi], opts.mappers[mi],
                                 results[wi][mi], errors[wi * nm + mi]});
    if (std::all_of(errors.begin(), errors.end(),
                    [](const std::string &e) { return e.empty(); }))
        recordDesignMetrics(rep,
                            harness::Grid(opts, std::move(results)));
}

// ---- joint_search -----------------------------------------------------------

/** One joint BIM search over all 16 Table II workloads, scale 1.0. */
void
runJointSearch(Rep &rep, const Args &args)
{
    Phases phases(rep, args);
    const SimConfig config = SimConfig::paperBaseline();
    const workloads::WorkloadSet set(workloads::allSet());
    const search::SearchOptions so = cellSearchOptions(config, args.seed);
    setUpCacheDir(rep);

    if (!phases.beginTimed())
        return;
    try {
        trace::Span span("search.searchSet", "search");
        const search::SetSearchResult res =
            search::searchSet(set, config.layout, so, 1.0);
        rep.matrixDigest = hex64(bits::fnv1a(res.annealed.bim.toString()));
        rep.searchCost = res.annealed.cost;
        rep.identityCost = res.annealed.identityCost;
        if (!res.annealed.bim.invertible())
            rep.errors.push_back("annealed matrix is not invertible");
    } catch (const std::exception &e) {
        rep.errors.push_back(std::string("searchSet threw: ") + e.what());
    }
    phases.endTimed();
}

// ---- traced-run layer probes ------------------------------------------------

/**
 * Profiler and mapper throughput over every workload the timed phase
 * used: `profileWorkload` under identity, then the probe mapper's
 * `CompiledTransform::apply` over the workload's full address trace.
 * Runs after the timed phase, so it never counts in wall_s.
 */
void
probeLayers(Rep &rep, const std::vector<std::string> &names,
            double scale, std::uint64_t seed)
{
    const SimConfig config = SimConfig::paperBaseline();
    workloads::ProfileOptions po;
    po.window = config.numSms;
    po.numBits = config.layout.addrBits;
    po.threads = 1;
    for (const auto &name : names) {
        const auto wl = makeWorkload(name, scale);
        {
            trace::Span span("workloads.profile", "workloads");
            workloads::profileWorkload(*wl, po);
        }
        std::vector<Addr> addrs;
        {
            trace::Span span("workloads.trace", "workloads");
            for (const Kernel &k : wl->kernels())
                for (TbId tb = 0; tb < k.numTbs(); ++tb)
                    for (const WarpTrace &wt : k.trace(tb).warps)
                        for (const MemInstr &mi : wt.instrs)
                            addrs.insert(addrs.end(), mi.lines.begin(),
                                         mi.lines.end());
        }
        const auto mapper = makeMapper(kProbeMapper, config.layout, seed);
        const CompiledTransform &ct = mapper->compiled();
        Addr acc = 0;
        {
            trace::Span span("mapping.apply", "mapping");
            for (const Addr a : addrs)
                acc ^= ct.apply(a);
        }
        rep.probeAddrs += addrs.size();
        rep.probeChecksum ^= static_cast<std::uint64_t>(acc);
    }
}

void
printRep(const Rep &rep, const Args &args)
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::ostringstream out;
    out << "{\"workload\": " << jsonString(args.workload)
        << ", \"mapper_seed\": " << args.seed
        << ", \"threads\": " << args.threads
        << ", \"mode\": " << jsonString(args.mode)
        << ", \"simd\": " << jsonString(bits::simdOps().name)
        << ", \"compiler\": " << jsonString(__VERSION__)
        << ", \"build_type\": " << jsonString(VALLEY_PERFBENCH_BUILD_TYPE)
        << ", \"wall_s\": " << jsonNumber(rep.wallSeconds)
        << ", \"phase_start_ns\": " << rep.phaseStartNs
        << ", \"peak_rss_kb\": " << ru.ru_maxrss
        << ", \"probe_addrs\": " << rep.probeAddrs
        << ", \"probe_checksum\": " << jsonString(hex64(rep.probeChecksum))
        << ", \"matrix_digest\": " << jsonString(rep.matrixDigest)
        << ", \"search_cost\": " << jsonNumber(rep.searchCost)
        << ", \"identity_cost\": " << jsonNumber(rep.identityCost)
        << ", \"errors\": [";
    for (std::size_t i = 0; i < rep.errors.size(); ++i)
        out << (i ? ", " : "") << jsonString(rep.errors[i]);
    out << "], \"design\": {";
    for (std::size_t i = 0; i < rep.design.size(); ++i)
        out << (i ? ", " : "") << jsonString(rep.design[i].first) << ": "
            << jsonNumber(rep.design[i].second);
    out << "}, \"cells\": [";
    for (std::size_t i = 0; i < rep.cells.size(); ++i) {
        const Cell &c = rep.cells[i];
        const RunResult &r = c.result;
        out << (i ? ",\n  " : "\n  ") << "{\"id\": " << jsonString(c.id())
            << ", \"error\": " << jsonString(c.error) << ", \"digest\": "
            << jsonString(hex64(bits::fnv1a(harness::serializeResult(r))))
            << ", \"cycles\": " << r.cycles
            << ", \"requests\": " << r.requests
            << ", \"l1_accesses\": " << r.l1Accesses
            << ", \"l1_misses\": " << r.l1Misses
            << ", \"llc_accesses\": " << r.llcAccesses
            << ", \"llc_misses\": " << r.llcMisses
            << ", \"noc_latency\": " << jsonNumber(r.nocLatencySmCycles)
            << ", \"llc_par\": " << jsonNumber(r.llcParallelism)
            << ", \"channel_par\": " << jsonNumber(r.channelParallelism)
            << ", \"bank_par\": " << jsonNumber(r.bankParallelism)
            << ", \"dram_reads\": " << r.dram.reads
            << ", \"dram_writes\": " << r.dram.writes
            << ", \"dram_row_misses\": " << r.dram.rowMisses
            << ", \"dram_activations\": " << r.dram.activations
            << ", \"dram_latency_sum\": " << r.dram.latencySum
            << ", \"dram_w\": " << jsonNumber(r.dramPower.totalW())
            << ", \"system_w\": " << jsonNumber(r.systemPowerW) << "}";
    }
    out << "],\n \"registry\": " << metrics::snapshotJson(1) << "}\n";
    std::fputs(out.str().c_str(), stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (argc >= 5) {
        args.workload = argv[1];
        args.seed = std::strtoull(argv[2], nullptr, 10);
        args.threads =
            static_cast<unsigned>(std::strtoul(argv[3], nullptr, 10));
        args.mode = argv[4];
        if (argc == 6)
            args.tracePath = argv[5];
    }
    const bool valid_mode =
        (argc == 5 && (args.mode == "run" || args.mode == "setup")) ||
        (argc == 6 && args.traced());
    if (!valid_mode || args.seed == 0 || args.threads == 0) {
        std::fprintf(stderr,
                     "usage: %s WORKLOAD MAPPER_SEED THREADS run|setup\n"
                     "       %s WORKLOAD MAPPER_SEED THREADS trace "
                     "TRACE_JSON\n"
                     "(MAPPER_SEED and THREADS >= 1)\n",
                     argv[0], argv[0]);
        return 2;
    }

    // valley_base and joint_search run with every on-disk cache off;
    // table2_grid runs them cold in its private directory.
    if (args.workload != "table2_grid")
        setenv("VALLEY_CACHE", "0", 1);
    if (args.traced())
        trace::enable(args.tracePath);

    Rep rep;
    try {
        if (args.workload == "valley_base") {
            runValleyBase(rep, args);
            if (args.traced())
                probeLayers(rep, workloads::valleySet(), 0.5, args.seed);
        } else if (args.workload == "table2_grid") {
            runTable2Grid(rep, args);
            if (args.traced())
                probeLayers(rep, workloads::allSet(), 0.25, args.seed);
        } else if (args.workload == "joint_search") {
            runJointSearch(rep, args);
            if (args.traced())
                probeLayers(rep, workloads::allSet(), 1.0, args.seed);
        } else {
            std::fprintf(stderr, "unknown workload '%s'\n",
                         args.workload.c_str());
            return 2;
        }
    } catch (const std::exception &e) {
        rep.errors.push_back(std::string("set-up threw: ") + e.what());
    }
    if (args.traced() && !trace::flush())
        rep.errors.push_back("trace flush to " + args.tracePath +
                             " failed");
    printRep(rep, args);
    return 0;
}

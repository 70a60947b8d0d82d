#!/usr/bin/env python3
"""The repository benchmark: three workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --record

Run from the root of a checkout. The first call builds the program
and perfbench/valley_perfbench.cc into .bench_build/ (Release). Each
repetition then runs in a fresh process with its own empty cache
directory, and repetitions are repeated until S seconds have passed.

--trace 0 prints the end-to-end metrics (medians over repetitions),
--trace 1 the per-layer metrics: it alternates untraced and traced
repetitions, reads the layer spans of the traced ones, and reports
the tracing overhead. Both modes check every output against the
digests recorded in perfbench/expected_digests.json. The last line
of stdout is one JSON object with the keys correct, attempted, failed
and metrics; the lines before it are the same numbers as a table.

--all runs every workload in trace mode and prints every metric plus
the north-star row. --record re-records the expected digests (needed
only after a deliberate change to the model's output).

README.md in this directory says why each workload was chosen and
which end-to-end metric each layer metric should move.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "valley_perfbench")
REP_ROOT = os.path.join(ROOT, ".bench_build", "reps")
EXPECTED = os.path.join(HERE, "expected_digests.json")

# --seed selects one of these mapper seeds; each has recorded digests.
MAPPER_SEEDS = 4
# Set-up is a few milliseconds, mostly process start: sample it this
# many times per run (set-up only, no timed phase) and take the median.
SETUP_SAMPLES = 15
REP_TIMEOUT_S = 150
NPROC = len(os.sched_getaffinity(0))

WORKLOADS = {
    # items = cells (or searches) one repetition attempts
    "valley_base": {"scale": 0.5, "threads": 1, "items": 10},
    "table2_grid": {"scale": 0.25, "threads": NPROC, "items": 112},
    "joint_search": {"scale": 1.0, "threads": 1, "items": 1},
}

# Paper values (Figs. 11, 12, 17) for the design metrics that have one.
PAPER = {
    "sim_speedup_hmean_pae": 1.52,
    "sim_perf_per_watt_hmean_pae": 1.39,
    "sim_dram_power_norm_pae": 1.03,
}

END_TO_END = [  # (name, unit); the first three are BENCHMARK.json's
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("cells_per_s", "1/s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("failed_share", "ratio"),
    ("sim_cycles", "cycles"),
    ("sim_speedup_hmean_pae", "x"),
    ("sim_perf_per_watt_hmean_pae", "x"),
    ("sim_dram_power_norm_pae", "x"),
    ("sim_speedup_hmean_sbim", "x"),
    ("search_cost", "cost"),
]
GATED = ("wall_s", "setup_s", "peak_rss_mb")

PER_LAYER = [
    ("gpu.run_s", "s"),
    ("gpu.host_ns_per_cycle", "ns"),
    ("gpu.host_us_per_request", "us"),
    ("gpu.sim_cycles", "cycles"),
    ("gpu.requests", "count"),
    ("cache.l1_miss_rate", "ratio"),
    ("cache.llc_miss_rate", "ratio"),
    ("noc.latency_sm_cycles", "cycles"),
    ("dram.activations", "count"),
    ("dram.row_hit_rate", "ratio"),
    ("dram.reads", "count"),
    ("dram.writes", "count"),
    ("dram.read_latency_avg", "cycles"),
    ("gpu.llc_parallelism", "count"),
    ("gpu.channel_parallelism", "count"),
    ("gpu.bank_parallelism", "count"),
    ("power.dram_w", "W"),
    ("power.system_w", "W"),
    ("search.s", "s"),
    ("search.evals", "count"),
    ("search.evals_per_s", "1/s"),
    ("search.setup_s", "s"),
    ("search.anneal_s", "s"),
    ("search.polish_s", "s"),
    ("workloads.make_s", "s"),
    ("workloads.profile_s", "s"),
    ("workloads.profile_addrs_per_s", "1/s"),
    ("mapping.make_s", "s"),
    ("mapping.addrs_per_s", "1/s"),
    ("harness.cell_s_p50", "s"),
    ("harness.cell_s_max", "s"),
    ("harness.pool_busy_share", "ratio"),
    ("thread_pool.steals", "count"),
    ("grid.cells_done", "count"),
    ("harness.cache_store_us", "us"),
    ("harness.cache_lookup_us", "us"),
    ("gpu.self_s", "s"),
    ("search.self_s", "s"),
    ("workloads.self_s", "s"),
    ("mapping.self_s", "s"),
    ("harness.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
] + [(name, unit) for name, unit in END_TO_END if name not in GATED]

# Span category -> layer (module). The benchmark's own spans use the
# layer name; the rest are the program's existing spans.
LAYER_OF_CATEGORY = {
    "gpu": "gpu",
    "workloads": "workloads",
    "profiler": "workloads",
    "mapping": "mapping",
    "search": "search",
    "harness": "harness",
    "cache": "harness",
}
LAYERS = ("gpu", "search", "workloads", "mapping", "harness")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (a no-op when nothing changed) and build, Release."""
    subprocess.run(
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", str(NPROC),
         "--target", "valley_perfbench"],
        check=True, stdout=sys.stderr)


def rep_env(cache_dir):
    env = dict(os.environ)
    for var in ("VALLEY_TRACE", "VALLEY_CHECKPOINT", "VALLEY_CACHE",
                "VALLEY_FAULT_INJECT", "VALLEY_DEADLINE_MS",
                "VALLEY_NO_SIMD"):
        env.pop(var, None)
    env["VALLEY_CACHE_DIR"] = cache_dir
    return env


def run_rep(workload, mapper_seed, mode, index):
    """One repetition (mode run, setup or trace) in a fresh process
    with an empty cache dir."""
    rep_dir = os.path.join(REP_ROOT, "%s-%d" % (workload, index))
    shutil.rmtree(rep_dir, ignore_errors=True)
    os.makedirs(rep_dir)
    trace_path = os.path.join(rep_dir, "trace.json")
    cmd = [BINARY, workload, str(mapper_seed),
           str(WORKLOADS[workload]["threads"]), mode]
    if mode == "trace":
        cmd.append(trace_path)
    spawn_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(
            cmd, env=rep_env(os.path.join(rep_dir, "cache")),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"crash": "timed out after %d s" % REP_TIMEOUT_S}
    if proc.returncode != 0:
        return {"crash": "exit %d: %s" % (proc.returncode,
                                          proc.stderr.strip()[-500:])}
    try:
        rep = json.loads(proc.stdout)
    except ValueError as e:
        return {"crash": "unparseable output: %s" % e}
    # Set-up as a user pays it: from launching the process (exec,
    # static registration, workload and mapper construction, cache
    # dir set-up) until the timed phase starts. Both ends read
    # CLOCK_MONOTONIC.
    rep["setup_s"] = (rep["phase_start_ns"] - spawn_ns) / 1e9
    if mode == "trace":
        with open(trace_path) as f:
            rep["trace"] = json.load(f)
    shutil.rmtree(rep_dir, ignore_errors=True)
    return rep


def load_expected():
    with open(EXPECTED) as f:
        return json.load(f)


def check_rep(workload, rep, expected):
    """Return the failure messages of one repetition (empty = ok) and
    the number of items that failed."""
    items = WORKLOADS[workload]["items"]
    if "crash" in rep:
        return ["repetition failed: " + rep["crash"]], items
    whole = list(rep["errors"])
    counters = rep["registry"]["counters"]
    # Leak guard: a repetition must compute, never read back, its
    # results. The in-memory SBIM/profile/result stores load once per
    # process, which is why every repetition is its own process.
    if workload != "valley_base" and counters.get("search.evaluations",
                                                  0) == 0:
        whole.append("leak guard: search.evaluations is 0")
    for name in ("grid.cells_resumed", "journal.cells_loaded",
                 "cache.result.hits", "cache.profile.hits",
                 "cache.sbim.hits"):
        if counters.get(name, 0) != 0:
            whole.append("leak guard: %s = %d" % (name, counters[name]))
    if "trace" in rep and rep["trace"].get("droppedEvents", 0):
        whole.append("trace dropped %d events"
                     % rep["trace"]["droppedEvents"])
    if whole:
        return whole, items

    msgs = []
    if workload == "joint_search":
        if rep["matrix_digest"] != expected["matrix"]:
            msgs.append("matrix digest %s != recorded %s"
                        % (rep["matrix_digest"], expected["matrix"]))
        elif rep["search_cost"] > rep["identity_cost"]:
            msgs.append("annealed cost above the identity cost")
        return msgs, len(msgs)
    for cell in rep["cells"]:
        want = expected["cells"].get(cell["id"])
        if cell["error"]:
            msgs.append("%s: %s" % (cell["id"], cell["error"]))
        elif cell["digest"] != want:
            msgs.append("%s: digest %s != recorded %s"
                        % (cell["id"], cell["digest"], want))
    missing = set(expected["cells"]) - {c["id"] for c in rep["cells"]}
    msgs += ["%s: missing" % cell for cell in sorted(missing)]
    return msgs, min(items, len(msgs))


def measure(workload, seed, seconds, traced_mode):
    """Sample set-up, then repeat while repetitions fit in `seconds`;
    return the checked repetitions."""
    mapper_seed = 1 + seed % MAPPER_SEEDS
    expected = load_expected()[workload][str(mapper_seed)]
    shutil.rmtree(REP_ROOT, ignore_errors=True)
    untraced, traced, failures, setups = [], [], [], []
    attempted = failed = 0
    start = time.monotonic()
    for index in range(SETUP_SAMPLES):
        rep = run_rep(workload, mapper_seed, "setup", index)
        attempted += 1
        if "crash" in rep or rep["errors"]:
            failed += 1
            failures.append("set-up: %s" % rep.get("crash", rep.get(
                "errors")))
        else:
            setups.append(rep["setup_s"])
    # Start a repetition only if it fits in the time left, judged by
    # the last repetition of its kind, so a run never overshoots.
    index, last = 0, {}
    while True:
        mode = ("trace" if traced_mode and len(traced) < len(untraced)
                else "run")
        t0 = time.monotonic()
        rep = run_rep(workload, mapper_seed, mode, index)
        last[mode] = time.monotonic() - t0
        index += 1
        msgs, bad = check_rep(workload, rep, expected)
        attempted += WORKLOADS[workload]["items"]
        failed += bad
        failures += msgs
        if "crash" not in rep:
            (traced if mode == "trace" else untraced).append(rep)
        following = ("trace" if traced_mode and len(traced) < len(untraced)
                     else "run")
        left = seconds - (time.monotonic() - start)
        if untraced and (traced or not traced_mode):
            if last.get(following, last[mode]) > left:
                break
        elif "crash" in rep and left <= 0:
            break  # repetitions keep failing; report what happened
    shutil.rmtree(REP_ROOT, ignore_errors=True)
    if traced and untraced:
        ref = [c["digest"] for c in untraced[0]["cells"]]
        for rep in traced:
            if ([c["digest"] for c in rep["cells"]] != ref or
                    rep["matrix_digest"] != untraced[0]["matrix_digest"]):
                failures.append("traced outputs differ from untraced")
                failed += 1
    return {"workload": workload, "seed": seed, "mapper_seed": mapper_seed,
            "untraced": untraced, "traced": traced, "setups": setups,
            "failures": failures, "attempted": attempted, "failed": failed}


def cell_sums(rep):
    cells = rep["cells"]
    total = {}
    for c in cells:
        for k, v in c.items():
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                total[k] = total.get(k, 0) + v
    return total, len(cells)


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(run):
    """Every end-to-end metric this workload defines (None = n/a)."""
    reps = run["untraced"]
    m = {name: None for name, _ in END_TO_END}
    if not reps:
        return m
    wl = run["workload"]
    m["wall_s"] = statistics.median(r["wall_s"] for r in reps)
    m["setup_s"] = statistics.median(run["setups"] or [0.0])
    m["peak_rss_mb"] = statistics.median(
        r["peak_rss_kb"] / 1024.0 for r in reps)
    m["failed_share"] = ratio(run["failed"], run["attempted"])
    sums, ncells = cell_sums(reps[0])
    if wl == "joint_search":
        m["search_cost"] = reps[0]["search_cost"]
    else:
        m["cells_per_s"] = statistics.median(
            ncells / r["wall_s"] for r in reps)
        m["sim_cycles"] = sums["cycles"]
        m["sim_mcycles_per_s"] = statistics.median(
            sums["cycles"] / r["wall_s"] / 1e6 for r in reps)
    for k, v in reps[0]["design"].items():
        m[k] = v
    return m


def span_stats(trace):
    """Per span name: inclusive seconds, self seconds and durations over
    the whole traced repetition; per layer: self seconds inside the
    timed phase. Self time = a span's duration minus the durations of
    its children (the spans nested in it on its thread)."""
    events = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
    timed = [e for e in events if e["name"] == "bench.timed"]
    lo = timed[0]["ts"] if timed else float("-inf")
    hi = timed[0]["ts"] + timed[0]["dur"] if timed else float("inf")
    by_tid = {}
    for e in events:
        if e["name"] != "bench.timed":
            by_tid.setdefault(e["tid"], []).append(e)
    names, layers = {}, {layer: 0.0 for layer in LAYERS}
    for evs in by_tid.values():
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack, done = [], []
        for e in evs:
            while stack and stack[-1]["ts"] + stack[-1]["dur"] <= e["ts"]:
                done.append(stack.pop())
            if stack:
                stack[-1]["child"] += e["dur"]
            stack.append(dict(e, child=0.0))
        for n in done + stack:
            self_s = max(0.0, n["dur"] - n["child"]) / 1e6
            s = names.setdefault(n["name"], {"incl": 0.0, "self": 0.0,
                                             "durs": []})
            s["incl"] += n["dur"] / 1e6
            s["self"] += self_s
            s["durs"].append(n["dur"] / 1e6)
            layer = LAYER_OF_CATEGORY.get(n["cat"])
            if layer and lo <= n["ts"] <= hi:
                layers[layer] += self_s
    return names, layers


def per_layer(run):
    """Every per-layer metric (0 where the workload skips the layer)."""
    untraced, traced = run["untraced"], run["traced"]
    m = {name: 0.0 for name, _ in PER_LAYER}
    if not untraced or not traced:
        return m
    threads = WORKLOADS[run["workload"]]["threads"]
    e2e = end_to_end(run)
    for name, _ in END_TO_END:
        if name not in GATED and e2e[name] is not None:
            m[name] = e2e[name]

    # Modelled counts: identical in every repetition.
    sums, ncells = cell_sums(untraced[0])
    if ncells:
        m["gpu.sim_cycles"] = sums["cycles"]
        m["gpu.requests"] = sums["requests"]
        m["cache.l1_miss_rate"] = ratio(sums["l1_misses"],
                                        sums["l1_accesses"])
        m["cache.llc_miss_rate"] = ratio(sums["llc_misses"],
                                         sums["llc_accesses"])
        m["noc.latency_sm_cycles"] = sums["noc_latency"] / ncells
        m["dram.activations"] = sums["dram_activations"]
        accesses = sums["dram_reads"] + sums["dram_writes"]
        m["dram.row_hit_rate"] = ratio(
            accesses - min(sums["dram_row_misses"], accesses), accesses)
        m["dram.reads"] = sums["dram_reads"]
        m["dram.writes"] = sums["dram_writes"]
        m["dram.read_latency_avg"] = ratio(sums["dram_latency_sum"],
                                           sums["dram_reads"])
        m["gpu.llc_parallelism"] = sums["llc_par"] / ncells
        m["gpu.channel_parallelism"] = sums["channel_par"] / ncells
        m["gpu.bank_parallelism"] = sums["bank_par"] / ncells
        m["power.dram_w"] = sums["dram_w"] / ncells
        m["power.system_w"] = sums["system_w"] / ncells

    # Program counters, from the untraced (real code path) runs.
    def counter(name):
        return statistics.median(
            r["registry"]["counters"].get(name, 0) for r in untraced)
    m["search.evals"] = counter("search.evaluations")
    m["search.s"] = counter("search.total_us") / 1e6
    m["search.evals_per_s"] = ratio(m["search.evals"], m["search.s"])
    m["search.setup_s"] = counter("search.setup_us") / 1e6
    m["search.anneal_s"] = counter("search.anneal_us") / 1e6
    m["search.polish_s"] = counter("search.polish_us") / 1e6
    m["thread_pool.steals"] = counter("thread_pool.steals")
    m["grid.cells_done"] = counter("grid.cells_done")

    # Span timings, from the traced runs (median over them).
    samples = {}
    for rep in traced:
        names, layers = span_stats(rep["trace"])

        def incl(name):
            return names.get(name, {}).get("incl", 0.0)
        cells = sorted(names.get("harness.cell", {}).get("durs", []))
        gpu_s = names.get("gpu.run", {}).get("self", 0.0)
        stores = names.get("harness.cacheStore", {}).get("durs", [])
        lookups = names.get("harness.cacheLookup", {}).get("durs", [])
        one = {
            "gpu.run_s": gpu_s,
            "gpu.host_ns_per_cycle": ratio(gpu_s * 1e9,
                                           m["gpu.sim_cycles"]),
            "gpu.host_us_per_request": ratio(gpu_s * 1e6,
                                             m["gpu.requests"]),
            "workloads.make_s": incl("workloads.make"),
            "workloads.profile_s": incl("workloads.profile"),
            "workloads.profile_addrs_per_s": ratio(
                rep["probe_addrs"], incl("workloads.profile")),
            "mapping.make_s": incl("mapping.make"),
            "mapping.addrs_per_s": ratio(rep["probe_addrs"],
                                         incl("mapping.apply")),
            "harness.cell_s_p50": statistics.median(cells) if cells
            else 0.0,
            "harness.cell_s_max": cells[-1] if cells else 0.0,
            "harness.pool_busy_share": ratio(
                sum(cells), rep["wall_s"] * threads),
            "harness.cache_store_us": ratio(sum(stores) * 1e6,
                                            len(stores)),
            "harness.cache_lookup_us": ratio(sum(lookups) * 1e6,
                                             len(lookups)),
            "trace.wall_s": rep["wall_s"],
        }
        for layer in LAYERS:
            one[layer + ".self_s"] = layers[layer]
        for k, v in one.items():
            samples.setdefault(k, []).append(v)
    for k, vs in samples.items():
        m[k] = statistics.median(vs)
    m["trace.overhead_s"] = m["trace.wall_s"] - e2e["wall_s"]
    return m


def git_rev():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "none (not a git checkout)"


def source_digest():
    """sha256 over src/ and perfbench/, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, files in sorted(os.walk(os.path.join(ROOT,
                                                                    top))):
            dirnames.sort()
            for f in sorted(files):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def host_facts(run):
    rep = (run["untraced"] or run["traced"] or [{}])[0]
    return {
        "nproc": NPROC,
        "simd": rep.get("simd"),
        "compiler": rep.get("compiler"),
        "build_type": rep.get("build_type"),
        "git_rev": git_rev(),
        "source_digest": source_digest(),
        "scale": WORKLOADS[run["workload"]]["scale"],
        "grid_threads": WORKLOADS[run["workload"]]["threads"],
        "seed": run["seed"],
        "mapper_seed": run["mapper_seed"],
        "reps_untraced": len(run["untraced"]),
        "reps_traced": len(run["traced"]),
    }


def fmt(v):
    if v is None:
        return "n/a"
    if isinstance(v, int) or (isinstance(v, float) and v.is_integer()
                              and abs(v) >= 1e3):
        return "%d" % v
    return "%.6g" % v


def print_table(run, metrics, units):
    print("# %s: %s" % (run["workload"], json.dumps(host_facts(run))))
    reps = run["untraced"]
    for name, unit in units:
        note = ""
        if name in ("wall_s", "setup_s") and reps:
            vals = sorted(run["setups"] if name == "setup_s" else
                          [r[name] for r in reps])
            note = "median of %d %s, range %s .. %s" % (
                len(vals), "samples" if name == "setup_s" else "reps",
                fmt(vals[0]), fmt(vals[-1]))
        if name in PAPER and metrics.get(name) is not None:
            note = ("paper %.2f, rel err %+.1f%% (at bench scale, not "
                    "the paper's problem size)" % (
                        PAPER[name], 100.0 * (metrics[name] / PAPER[name]
                                              - 1.0)))
        print("  %-30s %14s %-10s %s" % (name, fmt(metrics.get(name)),
                                         unit, note))
    for msg in run["failures"][:20]:
        print("  FAILED: " + msg)


def result_line(run, names_units, traced):
    ok = not run["failures"] and run["failed"] == 0 and run["untraced"]
    metrics = {}
    values = per_layer(run) if traced else end_to_end(run)
    for name, unit in names_units:
        metrics[name] = {"value": values.get(name) or 0.0, "unit": unit}
    return {"correct": bool(ok), "attempted": max(1, run["attempted"]),
            "failed": run["failed"], "metrics": metrics}


def bench_units(key):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec[key]]


def record():
    """Re-record every workload's output digests for each mapper seed."""
    out = {}
    for wl in WORKLOADS:
        out[wl] = {}
        for mseed in range(1, MAPPER_SEEDS + 1):
            rep = run_rep(wl, mseed, "run", 0)
            if "crash" in rep or rep["errors"] or any(
                    c["error"] for c in rep["cells"]):
                sys.exit("record: %s seed %d failed: %s"
                         % (wl, mseed, rep.get("crash", rep.get("errors"))))
            out[wl][str(mseed)] = {
                "matrix": rep["matrix_digest"],
                "cells": {c["id"]: c["digest"] for c in rep["cells"]}}
            log("recorded %s mapper seed %d" % (wl, mseed))
    shutil.rmtree(REP_ROOT, ignore_errors=True)
    with open(EXPECTED, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")


def print_all(seed, seconds):
    runs = {}
    for wl in WORKLOADS:
        run = measure(wl, seed, seconds, True)
        runs[wl] = run
        e2e, layer = end_to_end(run), per_layer(run)
        print_table(run, e2e, END_TO_END)
        print_table(run, layer, [u for u in PER_LAYER
                                 if u[0] not in dict(END_TO_END)])
    js, vb, tg = (per_layer(runs[w]) for w in
                  ("joint_search", "valley_base", "table2_grid"))
    print("# north star (host time; sim = simulated SM cycles)")
    print("  mapper addrs/s          %s   (CompiledTransform::apply, "
          "joint_search traces)" % fmt(js["mapping.addrs_per_s"]))
    print("  profiler addrs/s        %s   (profileWorkload, "
          "joint_search traces)" % fmt(js["workloads.profile_addrs_per_s"]))
    print("  search evals/s          %s   (joint_search)"
          % fmt(js["search.evals_per_s"]))
    print("  sim Mcycles/s           %s @1 thread (valley_base), %s @%d "
          "threads (table2_grid)" % (fmt(vb["sim_mcycles_per_s"]),
                                     fmt(tg["sim_mcycles_per_s"]), NPROC))
    print("  grid cells/s            %s @1 thread (valley_base), %s @%d "
          "threads (table2_grid)" % (fmt(vb["cells_per_s"]),
                                     fmt(tg["cells_per_s"]), NPROC))
    ok = all(not r["failures"] for r in runs.values())
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="every workload, every metric, north-star row")
    ap.add_argument("--record", action="store_true",
                    help="re-record perfbench/expected_digests.json")
    args = ap.parse_args()
    if not (args.all or args.record or args.workload):
        ap.error("one of --workload, --all or --record is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    os.chdir(ROOT)
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 3
    if args.record:
        record()
        return 0
    if args.all:
        return print_all(args.seed, args.seconds)

    run = measure(args.workload, args.seed, args.seconds, args.trace == 1)
    key = "per_layer" if args.trace else "end_to_end"
    units = bench_units(key)
    line = result_line(run, units, args.trace == 1)
    if args.trace:
        print_table(run, per_layer(run), PER_LAYER)
    else:
        print_table(run, end_to_end(run), END_TO_END)
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

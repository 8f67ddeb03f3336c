#!/usr/bin/env python3
"""jsmt benchmark: builds the simulator and the jsmtbench program from
source, runs one workload, checks its simulated outputs and prints
every metric.

    python3 jsmtbench/run.py --workload solo-sweep --seed 1 \
        --seconds 35 --trace 0
    python3 jsmtbench/run.py --self-check

Run it from the repository root. The build goes to .bench_build/. The
last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: with --trace 0 the end-to-end
metrics of BENCHMARK.json, with --trace 1 its per-layer metrics,
derived from the host-time spans that program records.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "jsmtbench")
SCRATCH_DIR = os.path.join(ROOT, ".bench_build", "scratch")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUN_TIMEOUT_S = 170


def median(values):
    return statistics.median(values)


def quantile(values, k, n):
    """k-th of the n-quantiles, as statistics.quantiles computes it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=n)[k - 1]


def pct_change(new, base):
    return (new - base) / base * 100.0


# ------------------------------------------------------------------
# Per-layer metrics from spans.

def by_name(spans):
    groups = {}
    for span in spans:
        groups.setdefault(span["name"], []).append(span)
    return groups


def dur(span):
    return span["end"] - span["start"]


def total(spans, arg):
    return sum(span["args"][arg] for span in spans)


def first_group(children, parent_spans):
    """Children of the first parent span that has any."""
    for parent in parent_spans:
        group = [c for c in children if c["parent"] == parent["id"]]
        if group:
            return group
    raise KeyError("no span group")


def per_layer(doc):
    s = by_name(doc["spans"])
    m = {}

    runs = s["core.run"]
    off = [r for r in runs if r["args"]["ht"] == 0]
    on = [r for r in runs if r["args"]["ht"] == 1]
    m["core.ns_per_uop_ht_off"] = (
        sum(map(dur, off)) / total(off, "uops") * 1e9, "ns")
    m["core.ns_per_uop_ht_on"] = (
        sum(map(dur, on)) / total(on, "uops") * 1e9, "ns")
    m["core.ns_per_sim_cycle"] = (
        sum(map(dur, runs)) / total(runs, "cycles") * 1e9, "ns")
    m["core.build_ms"] = (
        median([dur(b) for b in s["core.build"]]) * 1e3, "ms")

    # Exact counts: one solo-sweep trial (every trial is identical,
    # which the digest check enforces).
    t = first_group(runs, s["solo.trial"])
    cyc, kcyc = total(t, "cycles"), total(t, "kcycles")
    instr = total(t, "instr")
    m["core.horizon_skip_pct"] = (total(t, "ff_cycles") / cyc * 100, "%")
    m["core.sim_cycles"] = (cyc, "count")
    m["core.uops_retired"] = (total(t, "uops"), "count")
    m["uarch.ipc"] = (instr / kcyc, "ratio")
    m["uarch.retire0_pct"] = (total(t, "retire0") / kcyc * 100, "%")
    m["uarch.rob_full_per_ki"] = (
        total(t, "rob_full") / instr * 1000, "count/ki")
    m["uarch.fetch_stall_pct"] = (
        total(t, "fetch_stall") / kcyc * 100, "%")
    for name, arg in (("l1d", "l1d_miss"), ("l2", "l2_miss"),
                      ("tc", "tc_miss"), ("dtlb", "dtlb_miss")):
        m["mem.%s_miss_per_ki" % name] = (
            total(t, arg) / instr * 1000, "count/ki")
    m["branch.btb_miss_ratio"] = (
        total(t, "btb_miss") / total(t, "btb_access"), "ratio")
    m["branch.mispredict_per_ki"] = (
        total(t, "mispredict") / instr * 1000, "count/ki")
    m["jvm.gc_runs"] = (total(t, "gc_runs"), "count")
    m["os.ctx_switches_per_mcycle"] = (
        total(t, "ctx_switches") / (cyc / 1e6), "1/Mcycle")
    os_cycles = total(t, "os_cycles")
    m["os.os_cycle_pct"] = (
        os_cycles / (os_cycles + total(t, "user_cycles")) * 100, "%")

    # Profiler overhead and the stage breakdown it reports.
    plain, profiled = s["uarch.plain"], s["uarch.profiled"]
    m["uarch.profile_overhead_pct"] = (pct_change(
        median(map(dur, profiled)), median(map(dur, plain))), "%")
    # fetch_alloc_s includes memory_s; the shares are exclusive.
    wall = sum(map(dur, profiled))
    stages = {
        "retire": total(profiled, "retire_s"),
        "fetch_alloc": total(profiled, "fetch_alloc_s")
        - total(profiled, "memory_s"),
        "memory": total(profiled, "memory_s"),
        "account": total(profiled, "account_s"),
        "fast_forward": total(profiled, "fast_forward_s"),
    }
    stages["other"] = wall - sum(stages.values())
    for stage, seconds in stages.items():
        m["uarch.stage_share." + stage] = (seconds / wall * 100, "%")

    # Substrate ns/op.
    for metric, span in (("mem.cache_access_ns", "micro.cache_access"),
                         ("mem.data_access_ns", "micro.data_access"),
                         ("mem.fetch_line_ns", "micro.fetch_line"),
                         ("branch.btb_access_ns", "micro.btb_access"),
                         ("jvm.code_walker_ns", "micro.code_walker"),
                         ("jvm.data_model_ns", "micro.data_model")):
        m[metric] = (median(
            [dur(r) / r["args"]["ops"] * 1e9 for r in s[span]]), "ns")

    # Allocation layer: serial reference vs parallel stepping.
    chip = s["alloc.run"]
    serial = [r for r in chip if r["args"]["step_threads"] == 1]
    parallel = [r for r in chip if r["args"]["step_threads"] > 1]
    run_serial = median(map(dur, serial))
    run_parallel = median(map(dur, parallel))
    m["alloc.run_s_serial"] = (run_serial, "s")
    m["alloc.run_s_parallel"] = (run_parallel, "s")
    m["alloc.step_scaling"] = (run_serial / run_parallel, "ratio")
    ref = chip[0]["args"]
    for key in ("epochs", "migrations", "steals"):
        m["alloc." + key] = (ref[key], "count")
    m["alloc.chip_ipc"] = (ref["instr"] / ref["cycles"], "ratio")

    # Harness and the pool under it, one batch per traced trial.
    batches = s["exec.batch"]
    cells = s["harness.pair"]
    pair_ms = [dur(c) * 1e3 for c in cells]
    m["harness.solo_ms_p50"] = (
        median([dur(c) * 1e3 for c in s["harness.solo"]]), "ms")
    m["harness.pair_ms_p50"] = (median(pair_ms), "ms")
    m["harness.pair_ms_p90"] = (quantile(pair_ms, 9, 10), "ms")
    m["harness.relaunches"] = (
        total(first_group(cells, batches), "relaunches"), "count")
    busy_pct, tail_idle = [], []
    for batch in batches:
        jobs = batch["args"]["jobs"]
        busy = sum(dur(c) for c in doc["spans"]
                   if c["parent"] == batch["id"])
        busy_pct.append(busy / (jobs * dur(batch)) * 100)
        tail_idle.append(dur(batch) - busy / jobs)
    m["exec.pool_busy_pct"] = (median(busy_pct), "%")
    m["exec.tail_idle_s"] = (median(tail_idle), "s")
    m["exec.run_cache_hits"] = (batches[0]["args"]["hits"], "count")
    m["exec.run_cache_misses"] = (batches[0]["args"]["misses"], "count")

    for metric, span in (("exec.store_save_ms", "exec.store_save"),
                         ("exec.store_load_ms", "exec.store_load"),
                         ("resilience.checkpoint_flush_ms",
                          "resilience.checkpoint_flush")):
        m[metric] = (median(map(dur, s[span])) * 1e3, "ms")

    none = median(map(dur, s["trace.none"]))
    m["trace.sink_off_overhead_pct"] = (
        pct_change(median(map(dur, s["trace.off"])), none), "%")
    m["trace.sink_on_overhead_pct"] = (
        pct_change(median(map(dur, s["trace.on"])), none), "%")
    traced_on = s["trace.on"]
    m["trace.events_per_mcycle"] = (
        total(traced_on, "events") / (total(traced_on, "cycles") / 1e6),
        "1/Mcycle")

    trials = [t for t in doc["trials"] if not t["warmup"]]
    m["bench.trace_overhead_pct"] = (pct_change(
        median([t["wall_s"] for t in trials if t["traced"]]),
        median([t["wall_s"] for t in trials if not t["traced"]])), "%")
    return m


# ------------------------------------------------------------------
# End-to-end metrics from the untraced trials.

def end_to_end_samples(doc):
    trials = [t for t in doc["trials"]
              if not t["warmup"] and not t["traced"]]
    return {
        "wall_s": ([t["wall_s"] for t in trials], "s"),
        "sim_mcps": ([t["cycles"] / t["wall_s"] / 1e6 for t in trials],
                     "Mcycle/s"),
        "setup_s": (doc["setup_s"], "s"),
        "peak_rss_mb": ([doc["peak_rss_mb"]], "MB"),
    }


def print_summary(doc, samples):
    print("workload %s: host_cpus=%d jobs=%d step_workers=%d" % (
        doc["workload"], doc["host_cpus"], doc["jobs"],
        doc["step_workers"]))
    print("sim_digest %s" % doc["sim_digest"])
    for name, (values, unit) in samples.items():
        print("%-12s median %.6g  q1 %.6g  q3 %.6g  n %d  %s" % (
            name, median(values), quantile(values, 1, 4),
            quantile(values, 3, 4), len(values), unit))
    print("failed_frac  %.6g  (%d of %d runs)" % (
        doc["failed"] / doc["attempted"], doc["failed"],
        doc["attempted"]))
    if doc["workload"] == "pair-matrix":
        print("run cache hits/misses per trial: %s" % " ".join(
            "%d/%d" % (t["cache_hits"], t["cache_misses"])
            for t in doc["trials"]))


# ------------------------------------------------------------------
# Contract checks.

def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_spec(spec):
    """Static checks of BENCHMARK.json's metric and workload lists."""
    seen = set()
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[section]:
            name = entry["name"]
            require(NAME_RE.match(name), "metric name %r" % name)
            require(name not in seen, "duplicate name %r" % name)
            seen.add(name)
            if section != "workloads":
                require(UNIT_RE.match(entry["unit"]), "unit of %s" % name)
                require(entry["better"] in ("lower", "higher"), name)


def check_metrics(expected, metrics):
    """Every expected metric is present, finite, with its unit."""
    missing = [e["name"] for e in expected if e["name"] not in metrics]
    extra = set(metrics) - {e["name"] for e in expected}
    if missing or extra:
        raise ValueError("metrics missing %s, unexpected %s" % (
            missing, sorted(extra)))
    for entry in expected:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"] or not math.isfinite(value):
            raise ValueError("metric %s: %r %s" % (entry["name"], value,
                                                   unit))


def require(condition, what):
    if not condition:
        raise AssertionError("self-check failed: " + what)


def self_check():
    """Helpers against hand-computed values, then BENCHMARK.json."""
    ten = list(range(1, 11))
    require(median([3, 1, 2]) == 2, "odd median")
    require(median([4, 1, 3, 2]) == 2.5, "even median")
    require(quantile(ten, 1, 4) == 2.75, "q1 of 1..10")
    require(quantile(ten, 2, 4) == 5.5, "q2 of 1..10")
    require(quantile(ten, 3, 4) == 8.25, "q3 of 1..10")
    require(abs(quantile(ten, 9, 10) - 9.9) < 1e-12, "p90 of 1..10")
    require(quantile([7.0], 3, 4) == 7.0, "quantile of one sample")
    require(pct_change(110.0, 100.0) == 10.0, "pct_change")
    for good in ("wall_s", "uarch.stage_share.fetch_alloc", "a-1"):
        require(NAME_RE.match(good), "name %r accepted" % good)
    for bad in ("", "_x", "a b", "a/b", "x" * 65):
        require(not NAME_RE.match(bad), "name %r rejected" % bad)
    check_spec(load_spec())


# ------------------------------------------------------------------

def build():
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "--build", BUILD_DIR, "-j", jobs]]
    # A build tree that once produced the binary re-configures itself
    # when a CMake file changes; configuring it on every run would
    # only cost time.
    if not os.path.exists(os.path.join(BUILD_DIR, "jsmtbench")):
        steps.insert(0, ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    self_check()
    if args.self_check:
        print("self-check passed")
        return 0
    spec = load_spec()
    if not args.workload:
        parser.error("--workload is required")

    build()
    done = subprocess.run(
        [os.path.join(BUILD_DIR, "jsmtbench"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--scratch", SCRATCH_DIR],
        stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True)
    if done.returncode != 0:
        raise RuntimeError("jsmtbench exited with %d" % done.returncode)
    doc = json.loads(done.stdout)

    samples = end_to_end_samples(doc)
    print_summary(doc, samples)
    if args.trace:
        metrics = per_layer(doc)
        expected = spec["per_layer"]
        for name, (value, unit) in sorted(metrics.items()):
            print("%-34s %.6g %s" % (name, value, unit))
    else:
        metrics = {name: (median(values), unit)
                   for name, (values, unit) in samples.items()}
        expected = spec["end_to_end"]
    check_metrics(expected, metrics)

    print(json.dumps({
        "correct": doc["failed"] == 0 and doc["attempted"] > 0,
        "attempted": int(doc["attempted"]),
        "failed": int(doc["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as error:  # any failure: no result line, exit 1
        print("jsmtbench: %s" % error, file=sys.stderr)
        sys.exit(1)

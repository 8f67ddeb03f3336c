#!/usr/bin/env python3
"""Perf-smoke gate: measure the simulator's throughput and check it
against the last line of the committed baseline, BENCH_throughput.json.

    python3 bench/check_throughput.py              # measure and gate
    python3 bench/check_throughput.py --record ID  # append a baseline

Run it from anywhere after `cmake --preset release && cmake --build
--preset release`. It runs two harnesses:

* jsmtbench (jsmtbench/run.py, which builds itself Release+LTO):
  solo-sweep and pair-matrix untraced, chip4-pinned traced. Each gives
  its sim_digest and median sim_mcps; the traced chip pass adds
  alloc.step_scaling (4-worker over serial wall time) and the
  substrate micros, which are recorded but not gated.
* the disabled-sink probe (build-release/bench/sink_overhead): the
  median overhead of a disabled TraceSink over interleaved pairs (600
  on the solo path, 300 on the 4-core round-robin chip), the cycles
  of its runs, and the chip's Mcycles/s.

Checks, each against the baseline line:

* identity, zero tolerance: every sim_digest and the probe's cycle
  counts. These are properties of the simulator, not the host.
* throughput: each sim_mcps and multicore_mcycles_per_sec may drop by
  at most THROUGHPUT_BAND. Runners differ in clock and contention; the
  band catches structural regressions (losing fast-forward or LTO).
* sink overhead: each median at most SINK_BUDGET_PCT, whatever the
  baseline says.
* step scaling: alloc.step_scaling at least the baseline less
  SCALING_BAND, armed only when both sides have SCALING_MIN_CPUS CPUs;
  a smaller host cannot physically scale.

A gated field missing from the run or from the baseline fails.
Record mode appends the run as a new baseline line tagged with ID.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "BENCH_throughput.json")
PROBE = os.path.join(ROOT, "build-release", "bench", "sink_overhead")

# (workload, traced) jsmtbench passes, and each pass's time window.
PASSES = (("solo-sweep", 0), ("pair-matrix", 0), ("chip4-pinned", 1))
SECONDS = 10
SEED = 1

THROUGHPUT_BAND = 0.50
SINK_BUDGET_PCT = 2.0
SCALING_BAND = 0.35
SCALING_MIN_CPUS = 4

WORKLOADS = [w for w, _ in PASSES]
IDENTITY = ([w + ".correct" for w in WORKLOADS]
            + [w + ".sim_digest" for w in WORKLOADS]
            + ["solo_cycles", "multicore_cycles"])
THROUGHPUT = ([w + ".sim_mcps" for w in WORKLOADS]
              + ["multicore_mcycles_per_sec"])
SINK = ["trace_overhead_pct", "multicore_trace_overhead_pct"]
SCALING = "alloc.step_scaling"
GATED = IDENTITY + THROUGHPUT + SINK + [SCALING, "host_cpus"]
MICROS = ["mem.cache_access_ns", "jvm.code_walker_ns",
          "jvm.data_model_ns"]


def verdict(base, cur):
    """Failure messages for run `cur` against baseline `base`."""
    failures = []
    for key in GATED:
        for side, record in (("run", cur), ("baseline", base)):
            if key not in record:
                failures.append(f"{key}: missing from the {side}")
    present = [k for k in GATED if k in cur and k in base]

    for key in IDENTITY:
        if key in present and cur[key] != base[key]:
            failures.append(f"{key}: {cur[key]} != baseline {base[key]} "
                            "(simulated work must be bit-identical)")
    for key in THROUGHPUT:
        if key in present:
            floor = base[key] * (1.0 - THROUGHPUT_BAND)
            if cur[key] < floor:
                failures.append(
                    f"{key}: {cur[key]:.2f} below floor {floor:.2f} "
                    f"(baseline {base[key]:.2f}, band "
                    f"{THROUGHPUT_BAND:.0%})")
    for key in SINK:
        if key in present and cur[key] > SINK_BUDGET_PCT:
            failures.append(f"{key}: {cur[key]:.2f} exceeds the "
                            f"{SINK_BUDGET_PCT:.1f}% budget")
    if SCALING in present and "host_cpus" in present:
        if min(cur["host_cpus"], base["host_cpus"]) >= SCALING_MIN_CPUS:
            floor = base[SCALING] * (1.0 - SCALING_BAND)
            if cur[SCALING] < floor:
                failures.append(
                    f"{SCALING}: {cur[SCALING]:.2f} below floor "
                    f"{floor:.2f} (baseline {base[SCALING]:.2f}, band "
                    f"{SCALING_BAND:.0%}) on a {cur['host_cpus']}-CPU "
                    "host")
        else:
            print(f"note: host has {cur['host_cpus']} CPUs, baseline "
                  f"{base['host_cpus']}; {SCALING} floor not armed")
    return failures


def jsmtbench(workload, traced):
    """One run.py pass: sim_digest, median sim_mcps, correctness and,
    traced, the recorded per-layer metrics."""
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "jsmtbench", "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(traced)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])
    fields = {workload + ".correct": result["correct"]}
    for line in lines:
        words = line.split()
        if words[:1] == ["sim_digest"]:
            fields[workload + ".sim_digest"] = words[1]
        elif words[:2] == ["sim_mcps", "median"]:
            fields[workload + ".sim_mcps"] = round(float(words[2]), 2)
    if traced:
        for key in [SCALING] + MICROS:
            fields[key] = round(result["metrics"][key]["value"], 3)
    return fields


def measure():
    """Every field of one baseline line, measured now."""
    if not os.path.exists(PROBE):
        raise SystemExit(f"{PROBE} not built: run `cmake --preset "
                         "release && cmake --build --preset release`")
    record = {"host_cpus": os.cpu_count()}
    for workload, traced in PASSES:
        record.update(jsmtbench(workload, traced))
    probe = subprocess.run([PROBE], stdout=subprocess.PIPE, text=True,
                           check=True).stdout
    sys.stdout.write(probe)
    record.update(json.loads(probe))
    return record


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0])
    parser.add_argument("--record", metavar="ID",
                        help="append this run to the baseline file, "
                             "tagged with ID, instead of gating it")
    args = parser.parse_args()

    cur = measure()
    if args.record:
        if not all(cur[w + ".correct"] for w in WORKLOADS):
            raise SystemExit("refusing to record an incorrect run")
        line = json.dumps({"pr": args.record, **cur})
        with open(BASELINE, "a") as f:
            f.write(line + "\n")
        print(f"recorded: {line}")
        return 0

    with open(BASELINE) as f:
        base = json.loads(f.read().strip().splitlines()[-1])
    print(f"\n{'field':<34}{'baseline':>20}{'current':>20}")
    for key in GATED + MICROS:
        print(f"{key:<34}{str(base.get(key, '-')):>20}"
              f"{str(cur.get(key, '-')):>20}")
    print("current:", json.dumps(cur))
    failures = verdict(base, cur)
    if failures:
        print("\nFAIL", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nOK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

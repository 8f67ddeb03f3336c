#!/usr/bin/env python3
"""Compare a fresh micro_simulator_throughput run against the
committed baseline (BENCH_throughput.json) and fail on regressions.

Three classes of check, with very different tolerances:

* Simulated-work identity (cycles, serial_cycles, pairs): zero
  tolerance. These are properties of the simulator, not the host —
  any drift means the workload or the cycle-accurate model changed,
  which is a correctness regression masquerading as a perf delta
  (fast-forward and parallel stepping are required to be
  bit-identical to the cycle-by-cycle serial loop).

* Host-relative throughput (serial_mcycles_per_sec): wide tolerance,
  default 50%. The committed baseline was measured on one machine;
  CI runners differ in clock, cache and contention, so a tight band
  would only measure the runner. The band is chosen to catch
  structural regressions — accidentally disabling fast-forward or
  LTO costs well over 2x — while staying deaf to runner variance.

* Tracing overhead (trace_overhead_pct, multicore_trace_overhead_pct):
  absolute budget, default 2%. Each is the median of the per-pair
  ratios over 7 interleaved plain/disabled-sink pairs measured
  within the same process on the same host, so it is
  machine-independent; negative values (noise) pass.

* Step-thread scaling (step_scaling_4t): wall-clock speedup of the
  4-core stepping engine at 4 workers over the serial reference. The
  floor is the committed baseline's own value less a noise band
  (default 35%), so the gate only asks for what the code has already
  measured. It is enforced only when both the baseline and the
  *current* host report >= 4 CPUs — a 1- or 2-CPU runner cannot
  physically scale, and its honest number would only measure the
  runner. The bench chip uses round-robin allocation. Its
  migrations drain at each epoch edge, so its four cores step in
  four groups, yet its runs on the 4-CPU reference host spread from
  0.8x to 1.4x.

Multicore fields were added after the first baselines were
committed; when the baseline lacks them, those checks are skipped so
old baselines keep validating new builds.

Usage: check_throughput.py BASELINE CURRENT [--tolerance FRAC]
                                            [--trace-budget PCT]
                                            [--scaling-band FRAC]
"""

import argparse
import json
import sys


def load_summary(path):
    """Last JSON line of the file (the bench prints one per run)."""
    with open(path) as f:
        lines = [ln for ln in f.read().splitlines() if ln.strip()]
    if not lines:
        raise SystemExit(f"{path}: empty")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--tolerance", type=float, default=0.50,
                        help="max fractional serial-throughput drop "
                             "vs baseline (default 0.50)")
    parser.add_argument("--trace-budget", type=float, default=2.0,
                        help="max disabled-tracer overhead in "
                             "percent (default 2.0)")
    parser.add_argument("--scaling-band", type=float, default=0.35,
                        help="max fractional step_scaling_4t drop vs "
                             "a baseline measured on >= 4 CPUs "
                             "(default 0.35)")
    args = parser.parse_args()

    base = load_summary(args.baseline)
    cur = load_summary(args.current)
    failures = []

    exact_keys = ["pairs", "scale", "cycles", "serial_cycles"]
    if "multicore_cycles" in base and "multicore_cycles" in cur:
        exact_keys.append("multicore_cycles")
    for key in exact_keys:
        if base[key] != cur[key]:
            failures.append(
                f"{key}: {cur[key]} != baseline {base[key]} "
                "(simulated work must be bit-identical)")

    throughput_keys = ["serial_mcycles_per_sec"]
    if ("multicore_mcycles_per_sec" in base
            and "multicore_mcycles_per_sec" in cur):
        throughput_keys.append("multicore_mcycles_per_sec")
    for key in throughput_keys:
        floor = base[key] * (1.0 - args.tolerance)
        if cur[key] < floor:
            failures.append(
                f"{key}: {cur[key]:.2f} below floor {floor:.2f} "
                f"(baseline {base[key]:.2f}, tolerance "
                f"{args.tolerance:.0%})")

    trace_keys = ["trace_overhead_pct"]
    if "multicore_trace_overhead_pct" in cur:
        trace_keys.append("multicore_trace_overhead_pct")
    for key in trace_keys:
        if cur[key] > args.trace_budget:
            failures.append(
                f"{key}: {cur[key]:.2f} exceeds the "
                f"{args.trace_budget:.1f}% budget")

    # The scaling gate is conditioned on both hosts: the measurement
    # is honest everywhere, but only a baseline taken with real
    # parallelism sets a floor, and only a host with it can be held
    # to that floor.
    if "step_scaling_4t" in base and "step_scaling_4t" in cur:
        host_cpus = int(cur.get("host_cpus", 0))
        base_cpus = int(base.get("host_cpus", 0))
        if host_cpus >= 4 and base_cpus >= 4:
            floor = base["step_scaling_4t"] * (1.0 - args.scaling_band)
            if cur["step_scaling_4t"] < floor:
                failures.append(
                    f"step_scaling_4t: {cur['step_scaling_4t']:.2f}"
                    f" below floor {floor:.2f} (baseline "
                    f"{base['step_scaling_4t']:.2f}, band "
                    f"{args.scaling_band:.0%}) on a {host_cpus}-CPU "
                    "host")
        else:
            print(f"note: host has {host_cpus} CPUs, baseline "
                  f"{base_cpus}; step_scaling_4t floor not enforced")

    print(f"{'metric':<28}{'baseline':>14}{'current':>14}")
    for key in ("cycles", "serial_cycles", "mcycles_per_sec",
                "serial_mcycles_per_sec", "trace_overhead_pct",
                "multicore_cycles", "multicore_mcycles_per_sec",
                "step_scaling_4t", "multicore_trace_overhead_pct",
                "host_cpus"):
        print(f"{key:<28}{base.get(key, '-'):>14}"
              f"{cur.get(key, '-'):>14}")

    if failures:
        print("\nFAIL", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nOK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

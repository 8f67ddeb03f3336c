#!/usr/bin/env python3
"""Interleaved A/B of two versions of jsmt on the jsmtbench workloads.

    python3 tools/ab.py                         # HEAD vs the working tree
    python3 tools/ab.py --base HEAD~1 --change HEAD --pairs 10 \\
        --seconds 5 --workloads chip4-pinned
    python3 tools/ab.py --spans alloc.build --workloads chip4-pinned

It is also CI's throughput gate: each change against its merge-base.
Run it from inside the repository. Each side is copied into its own
directory under .ab_build/ at the repository root: the base with `git
archive`, the change the same way when --change names a revision, else
from the working tree's tracked and untracked, not ignored, files. A
side whose files did not change since the last call keeps its build.
One untimed run per side builds jsmtbench and warms the host; it is
discarded.

Pair i runs both sides back to back, the base first when i is even and
the change first when it is odd, each as `python3 jsmtbench/run.py
--workload W --seed S --seconds T --trace X`; T defaults to the
base's BENCHMARK.json run_seconds. Metrics come from that
run's last line: the end-to-end metrics with --trace 0, the per-layer
ones with --trace 1. With --spans the pass is traced and each metric
is instead the median duration, in ms, of the named host-time span,
read from the jsmtbench program's own output.

Checks, per workload:

* identity: sim_digest must be equal on both sides in every pair,
  unless the change also changes a file under tests/golden/: goldens
  change only on purpose, so a moved golden marks a deliberate model
  change;
* failures: the change may not fail a run the base did not;
* per metric: each side's median and quartiles, the change/base ratio
  of the medians, how many pairs each side won, and a verdict.
  'better' needs the change to win at least WIN_SHARE of the pairs and
  the medians to differ in its favour by more than the base's
  interquartile range; 'worse' is the mirror rule; anything else is
  'unresolved'. An end-to-end metric also reports whether the change's
  median is inside BENCHMARK.json's bound.

Exit status 1 when an identity or failure check fails, when an
end-to-end metric is both 'worse' and outside its bound, or when the
one gated per-layer metric, alloc.step_scaling, is 'worse'. A median outside its
bound that the pairs leave unresolved is printed, not failed: where
the spread is wider than the bound, noise alone could put it there.
"""

import argparse
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile

WIN_SHARE = 0.9
WORKLOADS = ("solo-sweep", "pair-matrix", "chip4-pinned")
STAMP = ".ab_source"
GOLDEN_DIR = "tests/golden/"
# The per-layer metrics a traced pass gates. Both sides share one
# host, so any 'worse' verdict fails.
GATED_PER_LAYER = {"alloc.step_scaling"}


# ------------------------------------------------------------------
# Statistics and the verdict rule.

def quartiles(values):
    """(q1, median, q3), with q1/q3 as statistics.quantiles gives."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def wins(base, change, better):
    """(change wins, base wins) over the pairs; ties count for none."""
    sign = 1.0 if better == "lower" else -1.0
    change_wins = sum(1 for b, c in zip(base, change) if sign * (b - c) > 0)
    base_wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    return change_wins, base_wins


def verdict(base, change, better):
    """'better', 'worse' or 'unresolved' for paired samples."""
    q1, med, q3 = quartiles(base)
    gap = statistics.median(change) - med
    if better == "higher":
        gap = -gap
    change_wins, base_wins = wins(base, change, better)
    needed = WIN_SHARE * len(base)
    if change_wins >= needed and -gap > q3 - q1:
        return "better"
    if base_wins >= needed and gap > q3 - q1:
        return "worse"
    return "unresolved"


def within_bound(base, change, better, bound):
    """Whether the change's median is worse by at most `bound`."""
    worse = statistics.median(change) / statistics.median(base) - 1.0
    if better == "higher":
        worse = -worse
    return worse <= bound


# ------------------------------------------------------------------
# The two source trees.

def git(*args):
    return subprocess.run(["git"] + list(args), check=True,
                          stdout=subprocess.PIPE).stdout


def files_at(rev):
    """{path: (mode, bytes)} of revision `rev`."""
    archive = tarfile.open(fileobj=io.BytesIO(git("archive", rev)))
    return {m.name: (m.mode, archive.extractfile(m).read())
            for m in archive.getmembers() if m.isfile()}


def working_files(root):
    """{path: (mode, bytes)} of the working tree, ignored files left out."""
    listed = git("-C", root, "ls-files", "-z", "--cached", "--others",
                 "--exclude-standard").decode().split("\0")
    out = {}
    for path in filter(None, listed):
        full = os.path.join(root, path)
        if os.path.isfile(full):  # A deleted, still-tracked file is gone.
            with open(full, "rb") as f:
                out[path] = (os.stat(full).st_mode & 0o777, f.read())
    return out


def goldens_differ(base, change):
    """Whether any file under GOLDEN_DIR differs between two trees.

    Only paths and bytes count: `git archive` and the working tree
    give the same file different modes.
    """
    def goldens(files):
        return {path: data for path, (_, data) in files.items()
                if path.startswith(GOLDEN_DIR)}
    return goldens(base) != goldens(change)


def source_hash(files):
    digest = hashlib.sha256()
    for path in sorted(files):
        mode, data = files[path]
        digest.update(("%s\0%o\0%d\0" % (path, mode, len(data))).encode())
        digest.update(data)
    return digest.hexdigest()


def materialize(files, dest):
    """Write `files` to `dest` unless it already holds them, build kept."""
    stamp = os.path.join(dest, STAMP)
    want = source_hash(files)
    if os.path.exists(stamp):
        with open(stamp) as f:
            if f.read() == want:
                return
    if os.path.isdir(dest):
        shutil.rmtree(dest)
    for path, (mode, data) in files.items():
        full = os.path.join(dest, path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "wb") as f:
            f.write(data)
        os.chmod(full, mode)
    with open(stamp, "w") as f:
        f.write(want)


# ------------------------------------------------------------------
# Runs.

class RunFailed(Exception):
    pass


def run_bench(tree, workload, seed, seconds, trace):
    """One run.py call: (sim_digest, failed, attempted, {metric: value})."""
    cmd = [sys.executable, "jsmtbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise RunFailed("%s in %s exited %d:\n%s" % (
            " ".join(cmd), tree, done.returncode, done.stderr[-2000:]))
    lines = done.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines
                  if line.startswith("sim_digest "))
    result = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return digest, result["failed"], result["attempted"], metrics


def run_spans(tree, workload, seed, seconds, spans):
    """One traced jsmtbench call: median ms of each named span."""
    binary = os.path.join(tree, ".bench_build", "jsmtbench", "jsmtbench")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1",
           "--scratch", os.path.join(tree, ".bench_build", "scratch")]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise RunFailed("%s exited %d" % (" ".join(cmd), done.returncode))
    doc = json.loads(done.stdout)
    metrics = {}
    for name in spans:
        durations = [s["end"] - s["start"] for s in doc["spans"]
                     if s["name"] == name]
        if not durations:
            raise RunFailed("no %s span in the %s run" % (name, workload))
        metrics[name] = statistics.median(durations) * 1e3
    return doc["sim_digest"], doc["failed"], doc["attempted"], metrics


# ------------------------------------------------------------------
# Report.

def metric_specs(spec, args):
    """{metric: (better, bound or None)} from BENCHMARK.json `spec`."""
    if args.spans:
        return {name: ("lower", None) for name in args.spans}
    if args.trace:
        return {e["name"]: (e["better"], None) for e in spec["per_layer"]}
    return {e["name"]: (e["better"], e["bound"])
            for e in spec["end_to_end"]}


def report(workload, pairs, specs, goldens_moved):
    """Print one workload's pairs and verdicts; return its problems.

    `goldens_moved` says whether the change changes a golden file,
    which makes a sim_digest mismatch deliberate.
    """
    problems = []
    names = [n for n in specs if n in pairs[0]["base"][3]]
    print("\n## %s: %d pairs (P = base first, C = change first)\n" % (
        workload, len(pairs)))
    print("| pair | %s |" % " | ".join(names))
    print("|---|%s" % ("---|" * len(names)))
    for i, pair in enumerate(pairs):
        cells = ["%.6g / %.6g" % (pair["base"][3][n], pair["change"][3][n])
                 for n in names]
        print("| %d (%s) | %s |" % (i + 1, "C" if i % 2 else "P",
                                    " | ".join(cells)))
    print("\ncells are base / change\n")

    for side in ("base", "change"):
        failed = sum(p[side][1] for p in pairs)
        attempted = sum(p[side][2] for p in pairs)
        print("%s runs failed: %d of %d" % (side, failed, attempted))
    if sum(p["change"][1] for p in pairs) > sum(p["base"][1] for p in pairs):
        problems.append("%s: the change failed more runs" % workload)
    digests = {(p["base"][0], p["change"][0]) for p in pairs}
    same = all(b == c for b, c in digests)
    note = "" if same else "  MISMATCH" + (
        " (goldens changed too: accepted)" if goldens_moved else "")
    print("sim_digest: %s%s" % (", ".join(sorted(
        "%s/%s" % d for d in digests)), note))
    if not same and not goldens_moved:
        problems.append("%s: sim_digest differs and no golden file "
                        "changed" % workload)

    print("\n| metric | base median [q1, q3] | change median [q1, q3] "
          "| ratio | change wins | verdict | bound |")
    print("|---|---|---|---|---|---|---|")
    for name in names:
        better, bound = specs[name]
        base = [p["base"][3][name] for p in pairs]
        change = [p["change"][3][name] for p in pairs]
        bq, cq = quartiles(base), quartiles(change)
        change_wins, _ = wins(base, change, better)
        ratio = cq[1] / bq[1] if bq[1] else float("nan")
        decided = verdict(base, change, better)
        bound_text = "-"
        if bound is not None:
            ok = within_bound(base, change, better, bound)
            bound_text = "ok" if ok else "OUT (%g)" % bound
            if not ok and decided == "worse":
                problems.append("%s: %s worse and outside its bound" % (
                    workload, name))
        elif name in GATED_PER_LAYER and decided == "worse":
            problems.append("%s: %s worse" % (workload, name))
        print("| %s (%s) | %.6g [%.6g, %.6g] | %.6g [%.6g, %.6g] | %.3f "
              "| %d/%d | %s | %s |" % (
                  name, better, bq[1], bq[0], bq[2], cq[1], cq[0], cq[2],
                  ratio, change_wins, len(pairs), decided, bound_text))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--change",
                        help="a revision (default: the working tree)")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        help="run length (default: BENCHMARK.json's)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=lambda s: s.split(","),
                        help="comma-separated span names (traced pass)")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.spans:
        args.trace = 1
    workloads = args.workloads.split(",")
    bad = [w for w in workloads if w not in WORKLOADS]
    if bad:
        parser.error("unknown workload(s) %s" % ", ".join(bad))

    root = git("rev-parse", "--show-toplevel").decode().strip()
    trees = {side: os.path.join(root, ".ab_build", side)
             for side in ("base", "change")}
    base_files = files_at(args.base)
    change_files = (files_at(args.change) if args.change
                    else working_files(root))
    goldens_moved = goldens_differ(base_files, change_files)
    materialize(base_files, trees["base"])
    materialize(change_files, trees["change"])
    with open(os.path.join(trees["base"], "BENCHMARK.json")) as f:
        spec = json.load(f)
    specs = metric_specs(spec, args)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    def run(side, workload):
        if args.spans:
            return run_spans(trees[side], workload, args.seed,
                             args.seconds, args.spans)
        return run_bench(trees[side], workload, args.seed, args.seconds,
                         args.trace)

    print("# A/B: base %s vs change %s; seed %d, %g s per run, trace %d"
          % (args.base, args.change or "working tree", args.seed,
             args.seconds, args.trace))
    problems = []
    try:
        for side in ("base", "change"):  # Build and warm-up, discarded.
            run_bench(trees[side], workloads[0], args.seed, 1, 0)
        for workload in workloads:
            pairs = []
            for i in range(args.pairs):
                order = ("change", "base") if i % 2 else ("base", "change")
                pairs.append({side: run(side, workload) for side in order})
            problems += report(workload, pairs, specs, goldens_moved)
            sys.stdout.flush()
    except RunFailed as error:
        problems.append(str(error))
    for problem in problems:
        print("ab: %s" % problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

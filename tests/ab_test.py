#!/usr/bin/env python3
"""Verdict rules, exit rules and tree copies of tools/ab.py on canned
data."""

import contextlib
import io
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))

import ab  # noqa: E402

# Ten base runs with quartiles 1.0 and 1.2 (IQR 0.2, median 1.1).
BASE = [0.9, 1.0, 1.0, 1.05, 1.1, 1.1, 1.15, 1.2, 1.2, 1.3]


class Verdict(unittest.TestCase):
    def test_quartiles_match_run_py(self):
        self.assertEqual(ab.quartiles(list(range(1, 11))), (2.75, 5.5, 8.25))
        self.assertEqual(ab.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_better_needs_nine_wins_and_a_gap_over_the_iqr(self):
        change = [b * 0.5 for b in BASE]
        self.assertEqual(ab.verdict(BASE, change, "lower"), "better")
        self.assertEqual(ab.verdict(BASE, change, "higher"), "worse")

    def test_eight_wins_are_unresolved(self):
        change = [b * 0.5 for b in BASE]
        change[0] = change[1] = 5.0
        self.assertEqual(ab.wins(BASE, change, "lower"), (8, 2))
        self.assertEqual(ab.verdict(BASE, change, "lower"), "unresolved")

    def test_a_gap_inside_the_iqr_is_unresolved(self):
        change = [b - 0.01 for b in BASE]
        self.assertEqual(ab.wins(BASE, change, "lower"), (10, 0))
        self.assertEqual(ab.verdict(BASE, change, "lower"), "unresolved")

    def test_ties_count_for_neither_side(self):
        self.assertEqual(ab.wins(BASE, BASE, "lower"), (0, 0))
        self.assertEqual(ab.verdict(BASE, BASE, "lower"), "unresolved")

    def test_bound_is_relative_to_the_base_median(self):
        self.assertTrue(ab.within_bound([1.0], [1.25], "lower", 0.25))
        self.assertFalse(ab.within_bound([1.0], [1.3], "lower", 0.25))
        self.assertTrue(ab.within_bound([1.0], [0.8], "higher", 0.25))
        self.assertFalse(ab.within_bound([1.0], [0.7], "higher", 0.25))


def pairs_of(base, change, name="wall_s", digests=("d", "d")):
    """Canned pairs: one metric, no failed runs."""
    return [{"base": (digests[0], 0, 1, {name: b}),
             "change": (digests[1], 0, 1, {name: c})}
            for b, c in zip(base, change)]


def problems(pairs, specs, goldens_moved=False):
    with contextlib.redirect_stdout(io.StringIO()):
        return ab.report("w", pairs, specs, goldens_moved)


class ExitRule(unittest.TestCase):
    WALL = {"wall_s": ("lower", 0.25)}

    def test_digest_mismatch_fails_unless_a_golden_changed(self):
        pairs = pairs_of(BASE, BASE, digests=("a", "b"))
        self.assertEqual(problems(pairs, self.WALL),
                         ["w: sim_digest differs and no golden file "
                          "changed"])
        self.assertEqual(problems(pairs, self.WALL, goldens_moved=True),
                         [])

    def test_goldens_differ_reads_only_the_golden_directory(self):
        tree = {"src/a.cc": (0o644, b"x"),
                "tests/golden/a.json": (0o644, b"1")}
        other_src = dict(tree, **{"src/a.cc": (0o644, b"y")})
        self.assertFalse(ab.goldens_differ(tree, other_src))
        for golden in ({"tests/golden/a.json": (0o644, b"2")},
                       {"tests/golden/b.json": (0o644, b"1")}):
            self.assertTrue(ab.goldens_differ(tree, dict(tree, **golden)))
        deleted = {"src/a.cc": (0o644, b"x")}
        self.assertTrue(ab.goldens_differ(tree, deleted))

    def test_goldens_differ_ignores_file_modes(self):
        # `git archive` writes 0664 where a checkout usually has 0644.
        archived = {"tests/golden/a.json": (0o664, b"1")}
        checked_out = {"tests/golden/a.json": (0o644, b"1")}
        self.assertFalse(ab.goldens_differ(archived, checked_out))

    def test_out_of_bound_but_unresolved_passes(self):
        # Median 1.5x the base's, but the base wins only 8 pairs.
        change = [b * 1.5 for b in BASE]
        change[0] = change[1] = 0.1
        self.assertEqual(ab.verdict(BASE, change, "lower"), "unresolved")
        self.assertFalse(ab.within_bound(BASE, change, "lower", 0.25))
        self.assertEqual(problems(pairs_of(BASE, change), self.WALL), [])

    def test_worse_and_out_of_bound_fails(self):
        change = [b * 2.0 for b in BASE]
        self.assertEqual(problems(pairs_of(BASE, change), self.WALL),
                         ["w: wall_s worse and outside its bound"])

    def test_worse_inside_the_bound_passes(self):
        change = [b * 1.2 for b in BASE]
        self.assertEqual(ab.verdict(BASE, change, "lower"), "worse")
        self.assertEqual(problems(pairs_of(BASE, change), self.WALL), [])

    def test_worse_step_scaling_fails_on_the_verdict_alone(self):
        spec = {"per_layer": [
            {"name": "alloc.step_scaling", "better": "higher"},
            {"name": "core.build_ms", "better": "lower"}]}
        specs = ab.metric_specs(spec, ab.argparse.Namespace(
            spans=None, trace=1))
        self.assertEqual(specs, {"alloc.step_scaling": ("higher", None),
                                 "core.build_ms": ("lower", None)})
        slower = [b / 1.3 for b in BASE]  # 1.3x scaling lost.
        self.assertEqual(
            problems(pairs_of(BASE, slower, "alloc.step_scaling"), specs),
            ["w: alloc.step_scaling worse"])
        # An ungated per-layer metric reports 'worse' but never fails.
        self.assertEqual(
            problems(pairs_of(BASE, [b * 2 for b in BASE],
                              "core.build_ms"), specs), [])
        # Unresolved scaling passes, however far its median moved.
        noisy = list(slower)
        noisy[0] = noisy[1] = 5.0
        self.assertEqual(
            problems(pairs_of(BASE, noisy, "alloc.step_scaling"), specs),
            [])


class Trees(unittest.TestCase):
    def test_materialize_rewrites_only_changed_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            dest = os.path.join(tmp, "side")
            files = {"a.txt": (0o644, b"one"), "d/b.py": (0o755, b"two")}
            ab.materialize(files, dest)
            with open(os.path.join(dest, "d", "b.py"), "rb") as f:
                self.assertEqual(f.read(), b"two")
            self.assertTrue(os.access(os.path.join(dest, "d", "b.py"),
                                      os.X_OK))
            # Same sources: a build product survives.
            built = os.path.join(dest, "built")
            open(built, "w").close()
            ab.materialize(dict(files), dest)
            self.assertTrue(os.path.exists(built))
            # Changed sources: a fresh copy, stale files gone.
            ab.materialize({"a.txt": (0o644, b"three")}, dest)
            self.assertFalse(os.path.exists(built))
            self.assertFalse(os.path.exists(os.path.join(dest, "d")))


if __name__ == "__main__":
    unittest.main()

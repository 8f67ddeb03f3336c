#!/usr/bin/env python3
"""Verdict rules and tree copies of tools/ab.py on canned data."""

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

#!/usr/bin/env python3
"""Verdict rules of bench/check_throughput.py on canned records."""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

import check_throughput as gate  # noqa: E402

BASE = {
    "host_cpus": 4,
    "solo-sweep.correct": True,
    "solo-sweep.sim_digest": "7976f15fb6c0217c",
    "solo-sweep.sim_mcps": 32.0,
    "pair-matrix.correct": True,
    "pair-matrix.sim_digest": "ba775b522068e6d2",
    "pair-matrix.sim_mcps": 190.0,
    "chip4-pinned.correct": True,
    "chip4-pinned.sim_digest": "dcbf301405776959",
    "chip4-pinned.sim_mcps": 13.0,
    "alloc.step_scaling": 1.4,
    "solo_cycles": 431262,
    "multicore_cycles": 1350000,
    "multicore_mcycles_per_sec": 14.0,
    "trace_overhead_pct": 0.1,
    "multicore_trace_overhead_pct": -0.2,
}


class Verdict(unittest.TestCase):
    def fails(self, cur, base=BASE):
        return gate.verdict(base, cur)

    def test_pass(self):
        # Slower by less than the band, faster scaling, noise-negative
        # overheads: all within budget.
        cur = dict(BASE, **{"solo-sweep.sim_mcps": 17.0,
                            "alloc.step_scaling": 1.6,
                            "trace_overhead_pct": -1.5})
        self.assertEqual(self.fails(cur), [])

    def test_sim_digest_mismatch(self):
        cur = dict(BASE, **{"chip4-pinned.sim_digest": "0000000000000000"})
        failures = self.fails(cur)
        self.assertEqual(len(failures), 1)
        self.assertIn("chip4-pinned.sim_digest", failures[0])

    def test_missing_field(self):
        cur = dict(BASE)
        del cur["multicore_trace_overhead_pct"]
        self.assertEqual(
            self.fails(cur),
            ["multicore_trace_overhead_pct: missing from the run"])
        self.assertEqual(
            self.fails(BASE, base=cur),
            ["multicore_trace_overhead_pct: missing from the baseline"])

    def test_throughput_below_band(self):
        cur = dict(BASE, multicore_mcycles_per_sec=6.9)
        failures = self.fails(cur)
        self.assertEqual(len(failures), 1)
        self.assertIn("multicore_mcycles_per_sec: 6.90 below floor 7.00",
                      failures[0])

    def test_sink_overhead_over_budget(self):
        cur = dict(BASE, trace_overhead_pct=2.5)
        failures = self.fails(cur)
        self.assertEqual(len(failures), 1)
        self.assertIn("trace_overhead_pct: 2.50 exceeds", failures[0])

    def test_scaling_below_floor_on_four_cpus(self):
        # Floor 1.4 * 0.65 = 0.91.
        cur = dict(BASE, **{"alloc.step_scaling": 0.9})
        failures = self.fails(cur)
        self.assertEqual(len(failures), 1)
        self.assertIn("alloc.step_scaling: 0.90 below floor 0.91",
                      failures[0])

    def test_scaling_floor_disarmed_on_two_cpus(self):
        cur = dict(BASE, host_cpus=2, **{"alloc.step_scaling": 0.9})
        self.assertEqual(self.fails(cur), [])


if __name__ == "__main__":
    unittest.main()

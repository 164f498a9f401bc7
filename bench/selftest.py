"""Fast self-test of the sweep benchmark on a tiny config (A3, all checks).

usage: python3 bench/selftest.py

Runs the real harness, children and tracer on A3, where one sweep takes
a fraction of a second.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import re
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import read_spans  # noqa: E402
from workloads import WORKLOADS, Workload, _system  # noqa: E402

A3 = Workload(
    name="selftest-a3",
    why="every check on a group of order 24",
    config={"systems": [_system("A3")]},
    pinned=(("A3", "first_difference", "exhaustive", 288),
            ("A3", "cocycle", "exhaustive", 576),
            ("A3", "second_difference", "exhaustive", 27),
            ("A3", "fibers", "exhaustive", 2),
            ("A3", "characters", "exhaustive", 4),
            ("A3", "fixer", "sampled", 420)),
)
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def bench_run(workload: Workload, trace: int, seed: int = run.DEFAULT_SEED):
    """Exit code and parsed last stdout line of one run of ``workload``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload.name, "--seed", str(seed),
                         "--seconds", "0", "--trace", str(trace)],
                        workloads={workload.name: workload})
    return code, json.loads(out.getvalue().splitlines()[-1])


class SelfTest(unittest.TestCase):

    def test_benchmark_json_declares_what_the_code_reports(self):
        with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        self.assertEqual([(w["name"], w["why"]) for w in doc["workloads"]],
                         [(w.name, w.why) for w in WORKLOADS.values()])
        self.assertEqual({m["name"]: m["unit"] for m in doc["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in doc["per_layer"]},
                         run.per_layer_units())
        for metric in doc["end_to_end"] + doc["per_layer"]:
            self.assertTrue(METRIC_NAME.fullmatch(metric["name"]), metric["name"])

    def test_wrong_pinned_count_fails_every_sweep(self):
        pinned = A3.pinned[:-1] + (("A3", "fixer", "sampled", 421),)
        wrong = dataclasses.replace(A3, name="selftest-a3-wrong", pinned=pinned)
        code, result = bench_run(wrong, trace=0)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], result["attempted"])  # fail_frac 1

    def test_untraced_run_passes_with_declared_metrics(self):
        code, result = bench_run(A3, trace=0)
        self.assertEqual(code, 0)
        self.assertEqual((result["correct"], result["failed"]), (True, 0))
        self.assertEqual(list(result["metrics"]), list(run.END_TO_END))
        for name, metric in result["metrics"].items():
            self.assertGreater(metric["value"], 0, name)

    def test_second_seed_gives_the_same_counts(self):
        code, result = bench_run(A3, trace=0, seed=7)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])

    def test_traced_spans_nest_and_self_time_fits(self):
        code, result = bench_run(A3, trace=1)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        metrics = result["metrics"]
        self.assertEqual(list(metrics), list(run.per_layer_units()))
        names, spans = read_spans(str(BENCH.parent / ".benchwork" / "spans"
                                      / A3.name))
        start, end, parent = spans["start"], spans["end"], spans["parent"]
        child_ns = [0] * len(end)
        for s, p in enumerate(parent):
            self.assertLessEqual(start[s], end[s])
            if p >= 0:
                self.assertLess(p, s)
                self.assertTrue(start[p] <= start[s] and end[s] <= end[p])
                child_ns[p] += end[s] - start[s]
        self_ns, total_ns = {}, {}
        for s, idx in enumerate(spans["name"]):
            dur = end[s] - start[s]
            self.assertLessEqual(child_ns[s], dur)
            self_ns[names[idx]] = self_ns.get(names[idx], 0) + dur - child_ns[s]
            total_ns[names[idx]] = total_ns.get(names[idx], 0) + dur
        for name, value in self_ns.items():
            self.assertLessEqual(value, total_ns[name])
            self.assertAlmostEqual(metrics[f"{name}.self_s"]["value"],
                                   value / 1e9, places=9)
        self.assertEqual(metrics["weyl.check_first_difference.calls"]["value"], 288)
        self.assertEqual(metrics["tits.check_cocycle_formula.calls"]["value"], 576)
        self.assertEqual(metrics["fixer.solve.calls"]["value"], 420)


if __name__ == "__main__":
    unittest.main()

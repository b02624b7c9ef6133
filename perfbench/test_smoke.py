#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at reduced size.

    python3 perfbench/test_smoke.py

For each workload, runs `run.py --smoke` untraced and traced and asserts
that the result line carries exactly the metrics BENCHMARK.json names
(end-to-end untraced, per-layer traced) with their units, that every
correctness check ran and passed, and that the traced run wrote a Chrome
trace. A run with a deliberately corrupted expected cost must fail.
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)

COMMON_CHECKS = ["parse_evidence", "parsed_evidence_equals_generated",
                 "answers_nonempty"]
CHECKS = {
    "batch_ground": COMMON_CHECKS + [
        "map_cost_repeatable", "parsed_equals_generated_run",
        "generator_order_clause_count", "composition_equals_run"],
    "serve_rc": [
        "sessions_open", "reads_spend_zero_flips",
        "session_equals_fresh_run_s0", "session_equals_fresh_run_s1",
        "twin_equals_wire_s0", "twin_equals_wire_s1"],
    "learn_rc": COMMON_CHECKS + [
        "learned_weights_repeatable", "fixed_epoch_count",
        "composition_equals_learn", "learned_map_cost_repeatable"],
}
CHECKS["batch_search"] = CHECKS["batch_ground"]
TRACED_CHECKS = {w: ["chrome_trace_written"] for w in CHECKS}
TRACED_CHECKS["serve_rc"].append("tracing_bit_identical")

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(workload, trace, *extra):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    checks = {}
    for line in lines:
        if line.startswith("CHECK "):
            parts = line.split(" ", 3)
            checks.setdefault(parts[1], []).append(parts[2] == "ok")
    return proc, result, checks


class BenchmarkFileTest(unittest.TestCase):
    def test_contract_shape(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds",
                                      "workloads", "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(BENCH["workloads"]) <= 8)
        self.assertEqual({w["name"] for w in BENCH["workloads"]}, set(CHECKS))
        for w in BENCH["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in BENCH["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in BENCH["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in BENCH["end_to_end"] + BENCH["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in BENCH["end_to_end"]))


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace):
        proc, result, checks = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout[-3000:] + proc.stderr[-3000:])
        self.assertTrue(result["correct"])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = BENCH["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        expected = CHECKS[workload] + (TRACED_CHECKS[workload] if trace else [])
        for name in expected:
            self.assertIn(name, checks, "check %s did not run" % name)
        for name, oks in checks.items():
            self.assertTrue(all(oks), "check %s failed" % name)
        return result

    def test_untraced(self):
        for workload in CHECKS:
            with self.subTest(workload=workload):
                self.check_run(workload, 0)

    def test_traced(self):
        for workload in CHECKS:
            with self.subTest(workload=workload):
                self.check_run(workload, 1)
                path = os.path.join(ROOT, ".bench_build", "runs",
                                    "%s-seed7-trace1" % workload,
                                    "trace-%s-seed7.json" % workload)
                with open(path) as f:
                    events = json.load(f)["traceEvents"]
                self.assertTrue(events)
                for e in events:
                    self.assertEqual(e["ph"], "X")
                    self.assertGreaterEqual(e["dur"], 0)
                    self.assertIn("parent", e["args"])
                    self.assertIn("run_id", e["args"])

    def test_corrupted_expected_cost_fails(self):
        for workload in CHECKS:
            with self.subTest(workload=workload):
                proc, result, checks = run(workload, 0, "--corrupt-expected")
                self.assertNotEqual(proc.returncode, 0)
                self.assertFalse(result["correct"])
                self.assertTrue(any(not all(oks) for oks in checks.values()))


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Tests of the repository benchmark itself, at tiny sizes.

Run from the repository root:

    python3 perfbench/test_perfbench.py

They build the benchmark through run.py (as a benchmark run would) and
check its output contract: every metric named in BENCHMARK.json is
emitted with its unit, the digest check trips on a wrong expected or
recorded digest, a refused request counts as a failed operation, and
the benchmark refuses to run without the simulator sources.
"""

import json
import pathlib
import shutil
import subprocess
import sys
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    """Run the benchmark command; returns (exit code, stdout lines)."""
    cmd = list(SPEC["command"]) + list(args)
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    return p.returncode, p.stdout.strip().splitlines()


def result(lines):
    return json.loads(lines[-1])


def tiny(workload, *extra, trace=0):
    return bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--tiny", *extra)


class MetricContract(unittest.TestCase):
    def check_metrics(self, res, spec):
        want = {m["name"]: m["unit"] for m in spec}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in res["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_each_workload_emits_every_end_to_end_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, lines = tiny(w)
                self.assertEqual(code, 0, "\n".join(lines))
                res = result(lines)
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"])
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(res["failed"], 0)
                self.check_metrics(res, SPEC["end_to_end"])
                for name, m in res["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_run_emits_every_per_layer_metric(self):
        code, lines = tiny("grid-default", trace=1)
        self.assertEqual(code, 0, "\n".join(lines))
        res = result(lines)
        self.assertTrue(res["correct"])
        self.check_metrics(res, SPEC["per_layer"])
        for w in WORKLOADS:
            self.assertIn("trace.overhead_frac." + w, res["metrics"])


class CorrectnessGate(unittest.TestCase):
    def test_wrong_expected_digest_fails_the_run(self):
        code, lines = tiny("grid-default", "--expect-digest", "0" * 16)
        self.assertNotEqual(code, 0)
        res = result(lines)
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)
        self.assertTrue(any(l.startswith("FAIL") and "expected" in l for l in lines))

    def test_digest_recorded_by_an_earlier_run_is_checked(self):
        code, lines = tiny("grid-default")
        self.assertEqual(code, 0, "\n".join(lines))
        ledger = list((ROOT / ".bench_build" / "state" / "digests")
                      .glob("*/grid-default-5-tiny"))
        self.assertEqual(len(ledger), 1)
        recorded = ledger[0].read_text()
        try:
            # As if an earlier build of the same configuration had
            # produced other results for this seed.
            ledger[0].write_text("0" * 16 + "\n")
            code, lines = tiny("grid-default")
            self.assertNotEqual(code, 0)
            self.assertFalse(result(lines)["correct"])
            self.assertTrue(any(l.startswith("FAIL") and "earlier run" in l
                                for l in lines))
        finally:
            ledger[0].write_text(recorded)

    def test_refused_request_counts_as_failed(self):
        code, lines = tiny("serve-dse", "--inject-refused", "1")
        self.assertNotEqual(code, 0)
        res = result(lines)
        self.assertEqual(res["failed"], 1)
        frac = [l for l in lines if l.split()[:2] == ["info", "failed_frac"]]
        self.assertEqual(len(frac), 1)
        self.assertAlmostEqual(float(frac[0].split()[2]), 1 / res["attempted"], places=5)

    def test_refuses_to_run_without_the_sources(self):
        bare = ROOT / ".bench_build" / "tests" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, bare / p)
        try:
            code, lines = bench("--workload", WORKLOADS[0], "--seed", "1",
                                "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertFalse(any(l.startswith("{") for l in lines))
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(argv=sys.argv, verbosity=2)

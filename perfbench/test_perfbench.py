#!/usr/bin/env python3
"""The benchmark's own tests: one short round of each workload, run through
perfbench/run.py exactly as a user runs it.

    python3 perfbench/test_perfbench.py        # from the repository root

- smoke: every workload runs, passes its oracles and reports every
  end-to-end metric of BENCHMARK.json with a positive value;
- determinism: the same seed twice gives identical byte counts, RPO and
  restored loss;
- oracle: a restore the driver corrupts on purpose is counted as failed.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("interval-tiered", "delta-stream", "shard-failover")
DETERMINISTIC = ("write_mb_per_ckpt", "far_mb_peak", "rpo_iters", "restored_loss")


def run(workload, seed, *extra):
    """One round of `workload`; returns the parsed result line."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "0", "--rounds", "1", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().split("\n")[-1])


def end_to_end_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)["end_to_end"]]


class PerfbenchTest(unittest.TestCase):
    results = {}

    @classmethod
    def setUpClass(cls):
        for w in WORKLOADS:
            cls.results[w] = (run(w, 7), run(w, 7))

    def test_smoke_every_workload_is_correct_and_reports_every_metric(self):
        names = end_to_end_names()
        for w, (first, _) in self.results.items():
            with self.subTest(workload=w):
                self.assertTrue(first["correct"])
                self.assertEqual(first["failed"], 0)
                self.assertGreater(first["attempted"], 0)
                self.assertEqual(sorted(first["metrics"]), sorted(names))
                for name, m in first["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_same_seed_repeats_byte_counts_rpo_and_loss(self):
        for w, (first, second) in self.results.items():
            for name in DETERMINISTIC:
                with self.subTest(workload=w, metric=name):
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"])

    def test_corrupted_restore_is_counted_as_failed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r = run(w, 7, "--corrupt-restore")
                self.assertFalse(r["correct"])
                self.assertGreaterEqual(r["failed"], 1)


if __name__ == "__main__":
    unittest.main()

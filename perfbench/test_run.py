#!/usr/bin/env python3
"""The benchmark's own test: every workload at its tiny size, two seeds.

    python3 perfbench/test_run.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that counts repeat exactly within a seed, that output digests differ
across seeds, that every output check passes, and that more workers than
cores are refused.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["study", "recover", "serve"]
SEEDS = [1, 2]
# Units whose values are counts: they must repeat exactly within a seed.
COUNT_UNITS = {"count", "bytes"}
# Ratios of counts, which must repeat exactly too.
COUNT_RATIO_SUFFIXES = ("_useful_ratio", "gateway.hit_rate")


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
           "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)


def result(workload, seed, trace):
    done = run(workload, seed, trace)
    assert done.returncode == 0, f"{workload} seed {seed} trace {trace} exited {done.returncode}"
    stamp, res = [json.loads(line) for line in done.stdout.strip().splitlines()[-2:]]
    return stamp, res


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        cls.declared = {
            0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        }
        cls.runs = {
            (w, s, t): result(w, s, t) for w in WORKLOADS for s in SEEDS for t in (0, 1)
        }

    def test_every_metric_is_emitted_with_its_unit(self):
        for (w, s, t), (_, res) in self.runs.items():
            emitted = {name: m["unit"] for name, m in res["metrics"].items()}
            self.assertEqual(emitted, self.declared[t], f"{w} seed {s} trace {t}")
            for name, m in res["metrics"].items():
                self.assertIsInstance(m["value"], (int, float), name)

    def test_outputs_are_correct(self):
        for key, (stamp, res) in self.runs.items():
            self.assertTrue(res["correct"], key)
            self.assertEqual(res["failed"], 0, key)
            self.assertGreaterEqual(res["attempted"], 1, key)
            self.assertEqual(stamp["info"]["failed_frac"], 0, key)

    def test_end_to_end_metrics_are_never_zero(self):
        for (w, s, t), (_, res) in self.runs.items():
            if t == 0:
                for name, m in res["metrics"].items():
                    self.assertGreater(m["value"], 0, f"{w} seed {s}: {name}")

    def test_counts_repeat_within_a_seed(self):
        for w in WORKLOADS:
            _, again = result(w, SEEDS[0], 1)
            _, first = self.runs[(w, SEEDS[0], 1)]
            for name, m in first["metrics"].items():
                if m["unit"] in COUNT_UNITS or name.endswith(COUNT_RATIO_SUFFIXES):
                    self.assertEqual(m["value"], again["metrics"][name]["value"], f"{w}: {name}")

    def test_digests_differ_across_seeds(self):
        for w in WORKLOADS:
            for t in (0, 1):
                a = self.runs[(w, SEEDS[0], t)][0]["digest"]
                b = self.runs[(w, SEEDS[1], t)][0]["digest"]
                self.assertNotEqual(a, b, f"{w} trace {t}")
            # Traced and untraced binaries agree on the output.
            self.assertEqual(self.runs[(w, SEEDS[0], 0)][0]["digest"],
                             self.runs[(w, SEEDS[0], 1)][0]["digest"], w)

    def test_traced_parts_account_for_their_whole(self):
        for s in SEEDS:
            # On recover, the timed steps and checkpoints are part of the
            # staged run of the same rep, so their share is at most 1.
            traced = self.runs[("recover", s, 1)][0]["info"]["traced"]
            self.assertGreater(traced["staged_parts_frac"], 0, s)
            self.assertLessEqual(traced["staged_parts_frac"], 1, s)
            # On serve, the calls that ran study work are part of a replay.
            traced = self.runs[("serve", s, 1)][0]["info"]["traced"]
            self.assertGreater(traced["exec_share"], 0, s)
            self.assertLess(traced["exec_share"], 1, s)

    def test_stamps(self):
        for (w, s, t), (stamp, _) in self.runs.items():
            st = stamp["stamp"]
            self.assertEqual((st["workload"], st["seed"]), (w, s))
            self.assertLessEqual(st["workers"], st["nproc"])
            self.assertIn(st["profile"], ("release", "debug"))
            self.assertGreater(st["scale"], 0)

    def test_more_workers_than_cores_is_refused(self):
        done = run("serve", 1, 0, "--workers", str(os.cpu_count() * 4 + 1))
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""The benchmark's own test: a tiny-scale pass of every workload.

    python3 ripplebench/test_bench.py

For each workload, untraced and traced, it runs the benchmark twice with
one seed at tiny scale (--tiny) and asserts that
  * every metric BENCHMARK.json names is printed, with its unit, and no
    other;
  * no answer differs from the oracle and none fails (correct, failed 0);
  * the exact counters repeat under the seed.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))

# Counts and ratios of counts: functions of the seed, never of the clock.
EXACT = {
    0: ["answered_frac", "hops_mean", "visited_mean", "messages_per_query",
        "bytes_per_query"],
    1: ["store.tuples_scanned", "store.dominance_cmps", "store.heap_pushes",
        "queries.prune_rate", "wire.bytes_encoded", "sim.retries",
        "sim.timeouts", "sim.dup_suppressed", "sim.acks",
        "overlay.route_hops", "cache.hit_rate", "cache.merged_frac",
        "net.frames_sent", "net.bytes_sent", "net.dropped"],
}


def run(workload, trace, seed=3):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    if out.returncode != 0:
        raise AssertionError("%s trace=%d exited %d:\n%s" %
                             (workload, trace, out.returncode, out.stderr))
    return json.loads(out.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    def check(self, workload, trace):
        first = run(workload, trace)
        second = run(workload, trace)
        spec = SPEC["end_to_end" if trace == 0 else "per_layer"]
        want = {m["name"]: m["unit"] for m in spec}
        got = {k: v["unit"] for k, v in first["metrics"].items()}
        self.assertEqual(got, want)
        for res in (first, second):
            self.assertTrue(res["correct"])
            self.assertEqual(res["failed"], 0)
            self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(first["attempted"], second["attempted"])
        for name in EXACT[trace]:
            self.assertEqual(first["metrics"][name]["value"],
                             second["metrics"][name]["value"], name)
        if trace == 1:
            # Every millisecond of a traced query is attributed to a layer.
            frac = first["metrics"]["trace.attributed_frac"]["value"]
            self.assertGreater(frac, 0.9)
            self.assertLess(frac, 1.1)


def add_tests():
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            name = "test_%s_trace%d" % (w["name"].replace("-", "_"), trace)
            setattr(BenchmarkTest, name,
                    lambda self, w=w["name"], t=trace: self.check(w, t))


add_tests()

if __name__ == "__main__":
    unittest.main()

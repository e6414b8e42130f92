#!/usr/bin/env python3
"""The host-cost benchmark's own test, at tiny sizes.

    python3 bench/hostcost/test_hostcost.py

Checks that every workload runs clean on the committed digests, that a
wrong expected digest is caught (error_rate = 1), that every metric named in
BENCHMARK.json is printed exactly once with its unit, that the workloads
separate the layers as documented in README.md, and that the benchmark
fails without a result when the simulator's sources are missing.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # keep the benchmark directory clean
import run as bench  # noqa: E402

SCRATCH = ROOT / ".bench_build" / "hostcost-test"
TIMEOUT_S = 900  # the first call builds


def run_bench(workload, trace, seed=1, root=ROOT):
    cmd = [sys.executable, str(root / "bench" / "hostcost" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=TIMEOUT_S)
    return proc


def copy_benchmark(name):
    """A fresh tree holding only BENCHMARK.json and bench/hostcost."""
    tree = SCRATCH / name
    shutil.rmtree(tree, ignore_errors=True)
    (tree / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", tree)
    shutil.copytree(HERE, tree / "bench" / "hostcost",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tree


def result_of(proc):
    last = proc.stdout.strip().splitlines()[-1]
    return last, json.loads(last)


class HostcostTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(ROOT / "BENCHMARK.json") as f:
            cls.spec = json.load(f)
        cls.results = {}
        for workload in bench.WORKLOADS:
            for trace in (0, 1):
                proc = run_bench(workload, trace)
                cls.results[workload, trace] = (proc, *result_of(proc))

    def test_metric_tables_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(bench.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]},
                         bench.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]},
                         bench.PER_LAYER)

    def test_every_workload_clean_on_committed_digest(self):
        for (workload, trace), (proc, _, res) in self.results.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(proc.returncode, 0, proc.stdout[-2000:])
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreater(res["attempted"], 0)
                self.assertIn("matches", proc.stdout)

    def test_every_metric_printed_once_with_unit(self):
        for (workload, trace), (_, last, res) in self.results.items():
            spec = self.spec["per_layer" if trace else "end_to_end"]
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(set(res), {"correct", "attempted", "failed",
                                            "metrics"})
                self.assertEqual(set(res["metrics"]), {m["name"] for m in spec})
                for m in spec:
                    self.assertEqual(last.count(json.dumps(m["name"]) + ":"), 1,
                                     m["name"])
                    self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"])
                    self.assertIsInstance(res["metrics"][m["name"]]["value"],
                                          (int, float))

    def test_end_to_end_metrics_never_zero(self):
        for workload in bench.WORKLOADS:
            _, _, res = self.results[workload, 0]
            for name, m in res["metrics"].items():
                with self.subTest(workload=workload, metric=name):
                    self.assertGreater(m["value"], 0)

    def test_workloads_separate_the_layers(self):
        def layer(workload, name):
            return self.results[workload, 1][2]["metrics"][name]["value"]

        fleets = ("gpu-fleet", "gpu-fleet-obs")
        for w in bench.WORKLOADS:
            with self.subTest(workload=w):
                self.assertEqual(layer(w, "trace.recorder_spans") > 0, w in fleets)
                self.assertEqual(layer(w, "obs.spans") > 0, w == "gpu-fleet-obs")
                self.assertEqual(layer(w, "serve.iterations") > 0, w == "llm-kv")
                self.assertEqual(layer(w, "serve.preemptions") > 0, w == "llm-kv")
                self.assertEqual(layer(w, "gpu.kernel_launches") > 0,
                                 w != "cpu-burst")
                self.assertGreater(layer(w, "sim.events"), 0)
                self.assertGreater(layer(w, "sim.run_self_s"), 0)
        self.assertEqual(layer("llm-kv", "federation.offered"), 0)
        self.assertGreater(layer("llm-kv", "gpu.kv_grow_failures"), 0)
        self.assertGreater(layer("cpu-burst", "scenario.trace_bytes"), 0)
        self.assertEqual(layer("gpu-fleet-obs", "obs.min_coverage"), 1.0)
        # Observability must not change the fleet's modelled counts.
        for name in ("federation.offered", "federation.shed",
                     "gpu.kernel_launches", "faas.attempts"):
            self.assertEqual(layer("gpu-fleet", name),
                             layer("gpu-fleet-obs", name), name)

    def test_wrong_digest_is_caught(self):
        # A copy of the benchmark whose digests.json is wrong, sharing the
        # build tree that setUpClass already built.
        tree = copy_benchmark("wrong-digest")
        (tree / ".bench_build").symlink_to(ROOT / ".bench_build",
                                           target_is_directory=True)
        digests_file = tree / "bench" / "hostcost" / "digests.json"
        digests = json.loads(digests_file.read_text())
        for size in digests:
            for w in digests[size]:
                digests[size][w] = "0123456789abcdef"
        digests_file.write_text(json.dumps(digests))
        for workload in ("gpu-fleet", "llm-kv"):
            with self.subTest(workload=workload):
                proc = run_bench(workload, 0, root=tree)
                _, res = result_of(proc)
                self.assertEqual(proc.returncode, 1)
                self.assertFalse(res["correct"])
                self.assertEqual(res["failed"], res["attempted"])  # error_rate 1
                self.assertIn("error_rate 1.000000", proc.stdout)
                self.assertIn("digest mismatch", proc.stdout)

    def test_other_seed_is_not_compared_but_checked(self):
        proc = run_bench("cpu-burst", 0, seed=7)
        _, res = result_of(proc)
        self.assertEqual(proc.returncode, 0)
        self.assertTrue(res["correct"])
        self.assertIn("not compared", proc.stdout)

    def test_fails_without_simulator_sources(self):
        bare = copy_benchmark("bare")
        proc = run_bench("gpu-fleet", 0, root=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)

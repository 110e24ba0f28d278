#!/usr/bin/env python3
"""Self-tests of the benchmark: the whole command at a tiny size.

    python3 -m unittest perfbench/test_perfbench.py     (from the repo root)

Checks that every metric named in BENCHMARK.json is printed with its unit,
that the deterministic metrics repeat exactly for one seed, that the
companion layers.json matches BENCHMARK.json, and that the command fails
without printing a result when the simulator sources are absent.
"""

import functools
import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((ROOT / "perfbench/layers.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_cmd(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=900)


@functools.lru_cache(maxsize=None)
def tiny_run(workload, seed, trace, attempt=0):
    """Output lines and parsed result of one tiny run (cached per key)."""
    del attempt  # distinguishes deliberate repeats in the cache key
    proc = run_cmd(ROOT, "--workload", workload, "--seed", str(seed),
                   "--seconds", "0.2", "--trace", str(trace),
                   "--scale", "tiny")
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace}: exit "
                             f"{proc.returncode}\n{proc.stdout[-3000:]}"
                             f"{proc.stderr[-3000:]}")
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


class ContractTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        names = []
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            names.append(m["name"])
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))

    def test_layer_map_matches_benchmark(self):
        e2e = {m["name"] for m in SPEC["end_to_end"]}
        self.assertEqual(set(LAYERS["per_layer"]),
                         {m["name"] for m in SPEC["per_layer"]})
        self.assertEqual(set(LAYERS["workloads"]), set(WORKLOADS))
        self.assertLessEqual(set(LAYERS["deterministic"]), e2e)
        for name, entry in LAYERS["per_layer"].items():
            self.assertLessEqual(set(entry["moves"]), e2e, name)
            self.assertLessEqual(set(entry["on"]), set(WORKLOADS), name)


class TinyRunTest(unittest.TestCase):
    def check_printed(self, lines, result, metrics):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        for m in metrics:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(
                any(l.startswith(f"metric {m['name']} = ") and
                    l.split()[4] == m["unit"] for l in lines), m["name"])
        self.assertEqual(set(result["metrics"]), {m["name"] for m in metrics})

    def test_every_metric_printed_with_unit(self):
        for w in WORKLOADS:
            for trace, metrics in ((0, SPEC["end_to_end"]),
                                   (1, SPEC["per_layer"])):
                with self.subTest(workload=w, trace=trace):
                    lines, result = tiny_run(w, 1, trace)
                    self.check_printed(lines, result, metrics)
            with self.subTest(workload=w, seed=2):
                lines, result = tiny_run(w, 2, 0)
                self.check_printed(lines, result, SPEC["end_to_end"])

    def test_deterministic_metrics_repeat_per_seed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, a = tiny_run(w, 1, 0)
                _, b = tiny_run(w, 1, 0, attempt=1)
                for name in LAYERS["deterministic"]:
                    self.assertEqual(a["metrics"][name], b["metrics"][name],
                                     name)

    def test_provenance_records_pinned_engine_shape(self):
        lines, _ = tiny_run(WORKLOADS[0], 1, 0)
        prov = [l for l in lines if l.startswith("provenance ")]
        self.assertEqual(len(prov), 1)
        p = json.loads(prov[0][len("provenance "):])
        self.assertEqual(p["async_shards"], LAYERS["pinned"]["async_shards"])
        self.assertEqual(p["async_epoch_steps"],
                         LAYERS["pinned"]["async_epoch_steps"])
        self.assertEqual(p["seed"], 1)
        self.assertIn(p["build_type"], ("Release", "RelWithDebInfo"))
        for key in ("nproc", "cpu", "compiler", "commit", "timings"):
            self.assertIn(key, p)

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_cmd(tmp, "--workload", WORKLOADS[0], "--seed", "1",
                           "--seconds", "1", "--trace", "0")
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

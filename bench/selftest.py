"""Self-tests of the benchmark itself (not of the package).

    python3 bench/selftest.py            # all, about three minutes
    python3 bench/selftest.py Static     # the checks that run no workload

Static checks: the declared metric names and units, the pinned reports
against their pinned hashes, and the correctness gate on tampered reports.
Run checks: each workload traced twice gives identical per-layer counts,
its fresh CLI run matches the pinned hash, every printed metric is declared
with a unit, and the benchmark refuses to run without the package.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def bench(workload: str, trace: int, seed: int = 0, root: Path = run.ROOT) -> tuple[int, list[str]]:
    """Run run.py for one invocation; its exit code and stdout lines."""
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        capture_output=True,
        text=True,
        cwd=root,
    )
    return proc.returncode, proc.stdout.splitlines()


class Static(unittest.TestCase):
    def test_declared_metrics(self):
        doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in doc["end_to_end"] + doc["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertTrue(UNIT.fullmatch(m["unit"]), m)
        self.assertEqual([w["name"] for w in doc["workloads"]], list(run.WORKLOADS))

    def test_pinned_reports_hash_to_pins(self):
        for name, workload in run.WORKLOADS.items():
            raw = (run.BENCH / "expected" / f"{name}.json").read_bytes()
            self.assertEqual(run.canonical(raw), raw)
            self.assertEqual(run.report_hash(raw), workload.sha256, name)
            self.assertEqual(run.check(name, workload.bound, 0, raw)[1], [])

    def test_gate_rejects_tampered_reports(self):
        raw = (run.BENCH / "expected" / "census-10k.json").read_bytes()
        doc = json.loads(raw)
        self.assertEqual(run.check("census-10k", 10000, 1, raw)[1], ["exit code 1"])
        wrong = raw.replace(b'"sigma": 12', b'"sigma": 13', 1)
        self.assertNotEqual(run.check("census-10k", 10000, 0, wrong)[1], [])

        # a lower bound: the restriction passes, a missing hit does not
        low = run.restricted("census-10k", 9800, doc)
        text = json.dumps(low).encode()
        self.assertEqual(run.check("census-10k", 9800, 0, text)[1], [])
        low["claims"][0]["evidence"]["hits"].pop()
        self.assertNotEqual(run.check("census-10k", 9800, 0, json.dumps(low).encode())[1], [])

        doc = json.loads((run.BENCH / "expected" / "pqrs-2500.json").read_bytes())
        doc["claims"][0]["status"] = "refuted"
        problems = run.check("pqrs-2500", 2500, 0, json.dumps(doc).encode())[1]
        self.assertIn("pqrs-2500 is refuted", problems)

    def test_seeds(self):
        for workload in run.WORKLOADS.values():
            self.assertEqual(workload.bound_for(0), workload.bound)
            bounds = {workload.bound_for(seed) for seed in range(1, 200)}
            self.assertGreaterEqual(min(bounds), workload.low)
            self.assertLessEqual(max(bounds), workload.bound)
            self.assertGreater(len(bounds), 1)
            self.assertGreaterEqual(workload.low, workload.bound * 0.98)


class Runs(unittest.TestCase):
    def result(self, lines: list[str]) -> dict:
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], "\n".join(lines))
        self.assertEqual(result["failed"], 0)
        for name, m in result["metrics"].items():
            self.assertRegex(name, NAME)
            self.assertTrue(UNIT.fullmatch(m["unit"]), name)
        return result

    def test_traced_counts_repeat_and_pins_match(self):
        declared = run.declared_metrics("per_layer")
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                # each run also checks a fresh untraced CLI run against the pin
                first, second = (self.result(bench(name, 1)[1])["metrics"] for _ in range(2))
                self.assertEqual(list(first), list(declared))
                counts = [m for m, unit in declared.items() if unit == "count"]
                self.assertEqual({m: first[m] for m in counts}, {m: second[m] for m in counts})
                if name == "pqrs-2500":
                    self.assertGreater(first["groups.closure.calls"]["value"], 0)
                if name == "census-10k":
                    self.assertGreater(first["claims.split_metacyclic_specs.total_s"]["value"], 0)

    def test_end_to_end_metrics_printed(self):
        code, lines = bench("theorems-300", 0, seed=3)
        self.assertEqual(code, 0)
        metrics = self.result(lines)["metrics"]
        self.assertEqual(list(metrics), list(run.declared_metrics("end_to_end")))
        self.assertTrue(all(m["value"] > 0 for m in metrics.values()))

    def test_refuses_without_package(self):
        with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".bench-selftest-") as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            code, lines = bench("pqrs-2500", 0, root=Path(tmp))
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()

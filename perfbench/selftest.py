"""Self-tests of the benchmark, on the smoke profile (a few seconds each).

    python3 perfbench/selftest.py

- every workload runs, passes every oracle and matches its golden digests,
  traced and untraced, and the traced run restores srlab untouched;
- a corrupted output file of every kind trips both ``digest_mismatch`` and
  ``error_rate``, so each gate is shown to bite;
- the exact-count guard trips when a count differs between traced runs;
- the nearest-like oracle accepts a table within srlab's own tolerance of
  the optimum, notes but accepts a node at the other local minimum next to
  f = 1/2, and rejects one there outside that band or at no minimum;
- in a directory holding only BENCHMARK.json and the benchmark, the runner
  exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import checks
import run
import spans
import workloads

ROOT = run.ROOT
SCRATCH = run.OUT / "selftest"


def _corrupt(path: Path, kind: str):
    """Change one value of the file so that its oracle must object."""
    if kind == "table":
        payload = json.loads(path.read_text())
        payload["p"][1] = 1.0 - payload["p"][1]
        path.write_text(json.dumps(payload, indent=2) + "\n")
        return
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    column = {"sum": "variance", "dot": "variance", "sqrt": "mu",
              "varbound": "v_empirical", "contour": "e_down"}[kind]
    cells = lines[1].split(",")
    i = header.index(column)
    cells[i] = "nan" if kind == "sqrt" else repr(float(cells[i]) * 10.0 + 1.0)
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


class SmokeRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if run.import_srlab() is None:
            raise unittest.SkipTest(f"no srlab under {run.SRC}")
        if SCRATCH.exists():
            shutil.rmtree(SCRATCH)
        cls.results = {
            name: run.run_benchmark(name, run.DEFAULT_SEED, 0.0, True, "smoke", SCRATCH / name)
            for name in workloads.NAMES
        }

    def test_every_workload_is_correct(self):
        for name, result in self.results.items():
            with self.subTest(workload=name):
                self.assertEqual(result["messages"], [])
                self.assertEqual(result["self_check_issues"], [])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(result["digest_mismatch"], 0)
                self.assertTrue(result["correct"])

    def test_metrics_match_benchmark_json(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        declared_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
        for name, result in self.results.items():
            with self.subTest(workload=name):
                self.assertEqual({k: u for k, (v, u) in result["end_to_end"].items()}, declared_e2e)
                self.assertEqual({k: u for k, (v, u) in result["per_layer"].items()}, declared_layer)
                for metric, (value, unit) in result["end_to_end"].items():
                    self.assertGreater(value, 0.0, metric)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.NAMES))

    def test_traced_layers_cover_their_workload(self):
        layers = {
            "study-bulk": ("rounding.ns_per_element.table", "experiments.varbound_s", "stats.contour_s",
                           "files.rows_written", "distopt.table_s.d1", "streams.draws"),
            "study-small": ("experiments.newton_iters", "experiments.dot_s", "experiments.sqrt_s",
                            "streams.substreams", "rounding.us_per_call", "files.read_s"),
            "optimize": ("distopt.table_s.var-min-ceil", "distopt.objective_evals", "files.bytes_written",
                         "streams.draws"),
        }
        for name, metrics in layers.items():
            per_layer = self.results[name]["per_layer"]
            for metric in metrics:
                self.assertGreater(per_layer[metric][0], 0, f"{name}: {metric}")
        ratio = self.results["optimize"]["per_layer"]["distopt.useful_eval_ratio"][0]
        self.assertAlmostEqual(ratio, 4 / 6)

    def test_corrupted_output_trips_both_gates(self):
        for name in workloads.NAMES:
            wl = workloads.build(name, "smoke")
            out_dir = SCRATCH / name
            for call in wl.setup + wl.calls:
                with self.subTest(workload=name, output=call.out):
                    path = out_dir / call.out
                    original = path.read_bytes()
                    try:
                        _corrupt(path, call.kind)
                        runner = run.Runner(wl, run.DEFAULT_SEED, "smoke", out_dir, None)
                        for each in wl.setup + wl.calls:
                            runner.record(each)
                        runner.check()
                        self.assertGreater(runner.failed / runner.attempted, 0.0)
                        self.assertEqual(runner.digest_mismatch(), 1)
                    finally:
                        path.write_bytes(original)

    def test_wrappers_restored(self):
        srlab = sys.modules["srlab"]
        for module in [srlab] + [sys.modules[f"srlab.{layer}"] for layer in spans.LAYERS]:
            for attr, value in vars(module).items():
                self.assertFalse(
                    callable(value) and hasattr(value, "__wrapped__") and not isinstance(value, type),
                    f"{module.__name__}.{attr} is still wrapped",
                )


class CountGuard(unittest.TestCase):
    def test_guard_trips_on_differing_counts(self):
        same = {name: 7 for name in spans.EXACT_COUNTS}
        self.assertEqual(run.exact_count_issues([same, dict(same)]), [])
        for name in spans.EXACT_COUNTS:
            skewed = dict(same, **{name: 8})
            issues = run.exact_count_issues([same, skewed])
            self.assertEqual(len(issues), 1)
            self.assertIn(name, issues[0])


class NearestLikeOracle(unittest.TestCase):
    N = 1001

    def _check(self, ps):
        payload = {"format_version": 1, "label": "nearest-like", "delta": 1.0,
                   "provenance": {"seed": 0}, "grid": [j / (self.N - 1) for j in range(self.N)], "p": ps}
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            path = Path(tmp) / "nearest-like.json"
            path.write_text(json.dumps(payload))
            spec = {"preset": "nearest-like", "grid_size": self.N, "rows": self.N}
            _, failed, messages = checks.check_table(path, spec, 0, {})
        return failed, [m for m in messages if m.startswith(checks.NOTE)]

    def test_tolerance_and_basin(self):
        def objective(p, j):
            return checks._nearest_like_objective(p, j / (self.N - 1))

        minima = [sorted(checks._nearest_like_minima(j / (self.N - 1))) for j in range(self.N)]
        ps = [min(m, key=lambda p: objective(p, j)) for j, m in enumerate(minima)]
        self.assertEqual(self._check(ps), (0, []))
        # 3.5e-5 off at f = 0.501: 1.1e-9 above the optimum, within srlab's 1e-8
        self.assertEqual(self._check(ps[:501] + [ps[501] + 3.5e-5] + ps[502:]), (0, []))
        # f = 0.499 at the local minimum near p = 0.01, not the global one near
        # p = 0.99 (3.9e-5 above it): inside the tie band, a note and no failure
        self.assertGreater(ps[499], 0.98)
        failed, notes = self._check(ps[:499] + [minima[499][0]] + ps[500:])
        self.assertEqual(failed, 0)
        self.assertEqual(len(notes), 1)
        self.assertIn("f=0.499", notes[0])
        # the same basin at f = 0.4, outside the band, fails
        self.assertEqual(self._check(ps[:400] + [minima[400][0]] + ps[401:])[0], 1)
        # so does a node in the band that is at no minimum
        self.assertEqual(self._check(ps[:499] + [minima[499][0] + 1e-3] + ps[500:])[0], 1)


class BareDirectory(unittest.TestCase):
    def test_fails_without_a_program(self):
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{run.HERE.name}/run.py", "--workload", "optimize", "--seed", "0",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    run.OUT.mkdir(exist_ok=True)
    unittest.main()

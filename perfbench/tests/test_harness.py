"""Tests of the benchmark harness itself, at tiny input sizes.

Run from the repository root:  python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _tmpdir(test: unittest.TestCase) -> Path:
    (HERE / ".work").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=HERE / ".work"))
    test.addCleanup(shutil.rmtree, path, True)
    return path


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0])
        rec = tracer.Recorder(clock=lambda: next(ticks))
        with rec.span("a"):  # 0 .. 10
            with rec.span("b"):  # 1 .. 4
                with rec.span("c"):  # 2 .. 3
                    pass
            with rec.span("b"):  # 5 .. 7
                pass
        self.assertEqual(rec.self_times(), {"a": 5.0, "b": 4.0, "c": 1.0})
        self.assertEqual(rec.covered_time(), 10.0)
        self.assertEqual([s.children for s in rec.spans], [2, 1, 0, 0])

    def test_span_closes_on_exception(self):
        ticks = iter([0.0, 1.0, 2.0, 6.0])
        rec = tracer.Recorder(clock=lambda: next(ticks))
        with self.assertRaises(ZeroDivisionError):
            with rec.span("outer"):
                with rec.span("inner"):
                    1 / 0
        self.assertEqual(rec.self_times(), {"outer": 5.0, "inner": 1.0})


def _bindings() -> dict:
    """Every attribute of every nonmatching module, and ResultCache's methods."""
    import nonmatching.cache

    out = {}
    for mod in tracer._package_modules():
        for name, value in vars(mod).items():
            out[(mod.__name__, name)] = value
    for name, value in vars(nonmatching.cache.ResultCache).items():
        out[("ResultCache", name)] = value
    return out


class TracedPassTest(unittest.TestCase):
    def test_bindings_patched_everywhere_and_restored(self):
        import nonmatching
        import nonmatching.cli
        import nonmatching.homology

        before = _bindings()
        original = nonmatching.homology.reduced_betti
        with tracer.traced(tracer.Recorder()):
            wrapped = nonmatching.homology.reduced_betti
            self.assertIsNot(wrapped, original)
            for mod in ("sweeps", "cli", "morse"):
                self.assertIs(getattr(sys.modules[f"nonmatching.{mod}"], "reduced_betti"),
                              wrapped)
            self.assertIs(nonmatching.reduced_betti, wrapped)
        after = _bindings()
        self.assertEqual(before.keys(), after.keys())
        changed = [k for k in before if before[k] is not after[k]]
        self.assertEqual(changed, [])

    def test_self_times_and_harness_time_add_up_to_wall(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                res = worker.run_pass(workload, 5, _tmpdir(self), 0.0, True, "tiny")
                self.assertEqual(res["failed"], 0, res["errors"])
                layers = res["layers"]
                total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
                self.assertAlmostEqual(total, layers["trace.wall_s"], places=9)
                self.assertGreater(layers["cli.main.calls"], 0)


class SmokeTest(unittest.TestCase):
    def test_every_metric_is_emitted(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        e2e = [m["name"] for m in spec["end_to_end"]]
        layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        self.assertEqual(e2e, [name for name, _ in run.END_TO_END])
        self.assertEqual(layers, tracer.per_layer_metrics())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                passes = run.run_passes(workload, 7, 0, True, "tiny")
                self.assertEqual([p["traced"] for p in passes], [False, True])
                for trace, names in ((False, e2e), (True, [n for n, _ in layers])):
                    result = run.summarize(passes, trace)
                    self.assertTrue(result["correct"], result["errors"])
                    self.assertEqual(list(result["metrics"]), names)


class ChecksCanFireTest(unittest.TestCase):
    def _execute(self, workload: str, expected: dict) -> workloads.Tally:
        import nonmatching as nm
        import nonmatching.cli  # noqa: F401

        plan = workloads.prepare(workload, 3, _tmpdir(self), "tiny")
        return workloads.execute(nm, workload, plan, expected)

    def test_corrupted_betti_table_is_counted(self):
        expected = workloads.load_expected()
        self.assertEqual(self._execute("complexes", expected).failed, 0)
        bad = copy.deepcopy(expected)
        bad["betti"]["k4_k2"]["betti"] = {"2": 2}
        tally = self._execute("complexes", bad)
        self.assertEqual(tally.failed, len(workloads.FIELDS))

    def test_wrong_link_count_is_counted(self):
        bad = workloads.load_expected()
        bad["leray"]["k23_k2_d1"] += 1
        self.assertEqual(self._execute("complexes", bad).failed, 18)

    def test_cold_warm_digest_mismatch_is_counted(self):
        real = workloads._sweep
        seen = set()

        def flaky(nm, suite, seed, cache):
            rc, r = real(nm, suite, seed, cache)
            if suite in seen:
                r["digest"] = "0" * 64
            seen.add(suite)
            return rc, r

        workloads._sweep = flaky
        self.addCleanup(setattr, workloads, "_sweep", real)
        tally = self._execute("suites", workloads.load_expected())
        counts = workloads.load_expected()["suites"]
        self.assertEqual(tally.failed, counts["concentration"] + counts["leray-k2"])

    def test_failed_cases_are_counted_one_by_one(self):
        counts = workloads.load_expected()["suites"]
        seen = set()

        def one_case_fails(nm, suite, seed, cache):
            cached = counts[suite] if suite in seen else 0
            seen.add(suite)
            return 1, {"cases": counts[suite], "failed": 1, "cached": cached,
                       "audited": 0, "digest": "a" * 64}

        real = workloads._sweep
        workloads._sweep = one_case_fails
        self.addCleanup(setattr, workloads, "_sweep", real)
        tally = self._execute("suites", workloads.load_expected())
        self.assertEqual((tally.attempted, tally.failed),
                         (2 * (counts["concentration"] + counts["leray-k2"]), 4))


class SpeedProbeTest(unittest.TestCase):
    def test_probe_samples_and_restores_the_alarm(self):
        import signal
        import time

        before = signal.getsignal(signal.SIGALRM)
        with speed.SpeedProbe(period=0.01) as probe:
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                pass
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertGreater(len(probe.samples), 2)
        self.assertGreaterEqual(probe.spent_wall, sum(probe.samples))

    def test_times_are_scaled_by_the_probe(self):
        ref = speed.REFERENCE_S
        base = {"attempted": 10, "failed": 0, "errors": [], "setup_s": 0.5,
                "peak_rss_mb": 90.0, "traced": False}
        passes = [dict(base, wall_s=4.0, cpu_s=3.0, probe_s=2 * ref),  # host at half speed
                  dict(base, wall_s=2.0, cpu_s=1.5, probe_s=ref)]
        values = {k: v["value"] for k, v in run.summarize(passes, False)["metrics"].items()}
        self.assertEqual(values, {"scaled_wall_s": 2.0, "scaled_cpu_s": 1.5,
                                  "scaled_items_per_s": 5.0, "setup_s": 0.5,
                                  "peak_rss_mb": 90.0})


class ContractTest(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = _tmpdir(self)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "complexes", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

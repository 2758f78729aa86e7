"""Self-test of the benchmark harness, at tiny instance sizes.

    python3 bench/selftest.py

Runs every workload with --size tiny, untraced and traced, and checks that
a deliberately corrupted answer makes the harness fail instead of posting
a number.  Not part of the package's test suite.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import lppairs.search  # noqa: E402
import lppairs.seqio  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace=0, seed=3):
    """Run the harness in process; returns (exit code, result dict, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main([
            "--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace), "--size", "tiny",
        ])
    text = out.getvalue()
    return code, json.loads(text.strip().splitlines()[-1]), text


class TinyWorkloads(unittest.TestCase):
    def test_every_workload_reports_every_metric(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            names = {m["name"] for m in SPEC[key]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, result, _ = bench(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), names)
                    for metric in result["metrics"].values():
                        self.assertIsInstance(metric["value"], (int, float))

    def test_end_to_end_values_are_positive(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                _, result, _ = bench(workload)
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_run_pins_counts(self):
        _, result, _ = bench("census55", trace=1)
        want = run.json.loads((BENCH_DIR / "expected.json").read_text())["instances"]["15"]
        metrics = result["metrics"]
        self.assertEqual(metrics["pairgen.candidates"]["value"],
                         sum(c[0] for c in want["census"].values()))
        self.assertEqual(metrics["bmfm.leaves_held"]["value"], want["leaves_held"])
        self.assertEqual(metrics["bmfm.leaves_streamed"]["value"], want["leaves_streamed"])


class CorruptedAnswers(unittest.TestCase):
    def assertRefused(self, workload, trace=0):
        code, result, text = bench(workload, trace)
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertEqual(result["metrics"], {})
        self.assertNotIn("op_ms_p50 =", text)

    def test_census_with_a_lost_candidate(self):
        real = lppairs.search.compressed_census

        def lossy(length, delta, *args):
            cands, pairs, expanded = real(length, delta, *args)
            return cands[:-1], pairs, expanded

        with mock.patch.object(lppairs.search, "compressed_census", lossy):
            self.assertRefused("census55")
            self.assertRefused("census55", trace=1)

    def test_search_with_a_lost_record(self):
        real = lppairs.search.run_search

        def lossy(*args, **kwargs):
            records, summary = real(*args, **kwargs)
            return records[:-1], summary

        with mock.patch.object(lppairs.search, "run_search", lossy):
            self.assertRefused("search33")

    def test_resume_that_changes_the_archive(self):
        real = lppairs.seqio.write_archive

        def skewed(path, records, summary):
            real(path, records, dict(summary, note="resumed") if "resumed" in str(path) else summary)

        with mock.patch.object(lppairs.seqio, "write_archive", skewed):
            self.assertRefused("pipeline_small")

    def test_crash_is_a_failure(self):
        def broken(*args, **kwargs):
            raise lppairs.search.InvariantViolation("injected")

        with mock.patch.object(lppairs.search, "run_task", broken):
            self.assertRefused("search33", trace=1)


class Checkout(unittest.TestCase):
    def test_refuses_without_sources(self):
        bare = ROOT / ".bench_build" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "census55", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

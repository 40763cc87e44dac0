"""Tests of the benchmark's own logic.

From the repository root::

    python3 perfbench/selftest.py

They run every workload on a small plan (three problems, one level, one
temperature), so the whole file takes seconds.
"""

from __future__ import annotations

import dataclasses
import json
import random
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import compare  # noqa: E402
import known  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.eval.harness import SweepConfig  # noqa: E402
from repro.models.mutations import broken_completion, cosmetic_variant  # noqa: E402
from repro.problems import ALL_PROBLEMS, PromptLevel, get_problem  # noqa: E402

SMALL = SweepConfig(temperatures=(0.1,), levels=(PromptLevel.LOW,),
                    problem_numbers=(1, 6, 15))
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class WorkdirCase(unittest.TestCase):
    def setUp(self):
        run.WORK_ROOT.mkdir(exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="selftest-",
                                        dir=run.WORK_ROOT)

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def small(self, cls):
        workload = cls(0, self.workdir, config=SMALL)
        workload.setup()
        workload.close()
        return workload

    def sweep(self, workload, tracer=None):
        prepared = workload.prepare()
        try:
            if tracer is not None:
                tracer.install()
            try:
                return workload.run(prepared)
            finally:
                if tracer is not None:
                    tracer.uninstall()
        finally:
            workload.finish(prepared)


class AccountingTest(WorkdirCase):
    def test_self_times_and_unattributed_add_up_to_the_wall(self):
        for cls in workloads.WORKLOADS.values():
            with self.subTest(workload=cls.name):
                workload = self.small(cls)
                tracer = tracing.Tracer()
                begin = run.perf_counter()
                self.sweep(workload, tracer)
                wall = run.perf_counter() - begin
                metrics = tracer.metrics(wall)
                attributed = sum(metrics[name]
                                 for name in tracing.SELF_TIME_METRICS)
                self.assertAlmostEqual(
                    attributed + metrics["unattributed_s"], wall, places=9)
                self.assertGreaterEqual(metrics["unattributed_s"], 0.0)
                self.assertGreater(metrics["evaluator.calls"], 0)

    def test_wrappers_are_removed_after_a_traced_sweep(self):
        import repro.verilog.parser as parser

        original = parser.tokenize
        tracer = tracing.Tracer()
        tracer.install()
        self.assertIsNot(parser.tokenize, original)
        tracer.uninstall()
        self.assertIs(parser.tokenize, original)


class KnownAnswerTest(WorkdirCase):
    def test_classifier_follows_the_origin_of_the_text(self):
        rng = random.Random(7)
        for problem in ALL_PROBLEMS:
            for _ in range(8):
                self.assertEqual(known.known_verdict(
                    problem, cosmetic_variant(problem.canonical_body, rng)),
                    known.PASS)
                for variant in problem.wrong_variants:
                    self.assertEqual(known.known_verdict(
                        problem, cosmetic_variant(variant.body, rng)),
                        known.TEST_FAIL)
                self.assertEqual(known.known_verdict(
                    problem, broken_completion(problem.canonical_body, rng)),
                    known.COMPILE_ERROR)

    def test_functional_answers_agree_with_the_classifier(self):
        backend = workloads.FunctionalBackend(seed=3)
        config = workloads.FUNCTIONAL_CONFIG
        for job in workloads.Session(backend=backend).plan(config).jobs[:40]:
            problem = get_problem(job.problem)
            texts = backend.generate(job.model, problem.prompt(job.level),
                                     job.generation_config())
            for index, completion in enumerate(texts):
                self.assertEqual(
                    backend.choose(job.model, problem, job.level, index,
                                   job.n)[1],
                    known.known_verdict(problem, completion.text))

    def test_a_planted_wrong_verdict_is_flagged(self):
        workload = self.small(workloads.PaperSweep)
        reference = workload.reference()
        records = list(self.sweep(workload).sweep.records)
        self.assertEqual(known.count_mismatches(records, reference), 0)
        planted = list(records)
        planted[5] = dataclasses.replace(
            planted[5], compiled=not planted[5].compiled)
        self.assertEqual(known.count_mismatches(planted, reference), 1)
        self.assertEqual(known.count_mismatches(records[:-1], reference), 1)


class ParityTest(WorkdirCase):
    def test_fleet_records_equal_the_serial_sweep(self):
        serial = self.sweep(self.small(workloads.PaperSweep)).sweep.records
        fleet = self.sweep(self.small(workloads.FleetCold)).sweep.records
        self.assertEqual(fleet, serial)


class MetricNamesTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_names_use_only_allowed_characters(self):
        names = [m for m, _, _ in tracing.PER_LAYER]
        names += [m for m, _ in run.END_TO_END] + list(run.WORKLOAD_NAMES)
        for section in ("workloads", "end_to_end", "per_layer"):
            names += [entry["name"] for entry in self.spec[section]]
        for name in names:
            self.assertRegex(name, NAME_RE)

    def test_benchmark_json_lists_what_the_runner_reports(self):
        self.assertEqual([m["name"] for m in self.spec["per_layer"]],
                         [m for m, _, _ in tracing.PER_LAYER])
        self.assertEqual([m["name"] for m in self.spec["end_to_end"]],
                         [m for m, _ in run.END_TO_END])
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOAD_NAMES))

    def test_self_time_metrics_are_per_layer_metrics(self):
        names = {m for m, _, _ in tracing.PER_LAYER}
        self.assertLessEqual(set(tracing.SELF_TIME_METRICS), names)


class CompareTest(unittest.TestCase):
    def runs(self, values):
        return list(enumerate(values))

    def test_marks(self):
        base = self.runs([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])
        faster = self.runs([80, 81, 79, 80, 82, 78, 80, 81, 79, 80])
        slower = self.runs([130, 131, 129, 130, 132, 128, 130, 131, 129, 130])
        noisy = self.runs([60, 140, 100, 70, 130, 90, 110, 65, 135, 100])
        self.assertEqual(compare.judge(base, faster, 0.1, "lower")[1],
                         "better")
        self.assertEqual(compare.judge(base, slower, 0.1, "lower")[1],
                         "worse")
        self.assertEqual(compare.judge(base, base, 0.1, "lower")[1],
                         "within bound")
        self.assertEqual(compare.judge(base, noisy, 0.1, "lower")[1],
                         "unresolved")
        self.assertEqual(compare.judge(base, slower, 0.1, "higher")[1],
                         "better")


class EntryPointTest(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH_DIR, Path(bare) / BENCH_DIR.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload",
                 "paper-sweep", "--seed", "0", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()

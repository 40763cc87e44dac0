"""Tests for the job-based sweep service (repro.eval.jobs + repro.api)."""

import pytest

from repro import Session
from repro.backends import BackendError, LocalZooBackend, StubBackend
from repro.eval import (
    Evaluator,
    Executor,
    RetryPolicy,
    Sweep,
    SweepConfig,
    SweepExecutor,
    SweepPlanner,
)
from repro.eval.harness import CompletionRecord
from repro.models import GenerationConfig, make_model
from repro.problems import Difficulty, PromptLevel

SMALL = SweepConfig(
    temperatures=(0.1, 0.5),
    completions_per_prompt=(3,),
    levels=(PromptLevel.LOW, PromptLevel.MEDIUM),
    problem_numbers=(1, 2, 13),
)


def small_models():
    return [
        make_model("codegen-6b", fine_tuned=True),
        make_model("j1-large-7b", fine_tuned=True),
    ]


class TestPlanner:
    def test_job_count_arithmetic(self):
        plan = SweepPlanner(LocalZooBackend(small_models())).plan(SMALL)
        # 2 models x 3 problems x 2 levels x 2 temperatures x 1 n
        assert len(plan.jobs) == 24
        assert plan.skipped == []
        assert plan.completions_planned == 24 * 3

    def test_n25_skipped_with_reason(self):
        config = SweepConfig(
            temperatures=(0.1,),
            completions_per_prompt=(1, 25),
            levels=(PromptLevel.LOW,),
            problem_numbers=(1, 2),
        )
        plan = SweepPlanner(LocalZooBackend(small_models())).plan(config)
        # j1 loses its two n=25 jobs, codegen keeps everything
        assert len(plan.jobs) == 2 * 2 * 2 - 2
        assert len(plan.skipped) == 2
        skip = plan.skipped[0]
        assert skip.model == "j1-large-7b-ft"
        assert skip.n == 25
        assert "n=25" in skip.reason

    def test_max_tokens_clamped_to_capability(self):
        plan = SweepPlanner(LocalZooBackend(small_models())).plan(SMALL)
        by_model = {job.model: job.max_tokens for job in plan.jobs}
        assert by_model["codegen-6b-ft"] == 300
        assert by_model["j1-large-7b-ft"] == 256  # Table I cap

    def test_invalid_temperature_becomes_skip(self):
        config = SweepConfig(
            temperatures=(-1.0,),
            completions_per_prompt=(1,),
            levels=(PromptLevel.LOW,),
            problem_numbers=(1,),
        )
        plan = SweepPlanner(StubBackend()).plan(config)
        assert plan.jobs == []
        assert "temperature" in plan.skipped[0].reason

    @pytest.mark.parametrize("temperature", [
        float("nan"), float("inf"), float("-inf"),
    ])
    def test_non_finite_temperature_becomes_skip(self, temperature):
        with pytest.raises(ValueError, match="finite"):
            GenerationConfig(temperature=temperature)
        config = SweepConfig(
            temperatures=(temperature, 0.1),
            completions_per_prompt=(1,),
            levels=(PromptLevel.LOW,),
            problem_numbers=(1,),
        )
        plan = SweepPlanner(StubBackend()).plan(config)
        assert [job.temperature for job in plan.jobs] == [0.1]
        assert len(plan.skipped) == 1
        assert "temperature must be finite" in plan.skipped[0].reason

    def test_explicit_model_subset(self):
        backend = LocalZooBackend(small_models())
        plan = SweepPlanner(backend).plan(SMALL, models=["codegen-6b-ft"])
        assert {job.model for job in plan.jobs} == {"codegen-6b-ft"}

    def test_identity_on_jobs(self):
        plan = SweepPlanner(LocalZooBackend(small_models())).plan(SMALL)
        job = next(j for j in plan.jobs if j.model == "codegen-6b-ft")
        assert job.base_model == "codegen-6b"
        assert job.fine_tuned is True


class TestExecutor:
    def test_serial_parallel_record_parity(self):
        backend = LocalZooBackend(small_models())
        plan = SweepPlanner(backend).plan(SMALL)
        serial = SweepExecutor(backend, workers=1).run(plan)
        for workers in (4, 8):
            parallel = SweepExecutor(backend, workers=workers).run(plan)
            assert serial.sweep.records == parallel.sweep.records

    def test_session_parallel_parity(self):
        backend = LocalZooBackend(small_models())
        serial = Session(backend=backend).run_sweep(SMALL)
        parallel = Session(backend=backend, workers=4).run_sweep(SMALL)
        assert serial.sweep.records == parallel.sweep.records

    def test_default_config_parity(self):
        """Acceptance: full default SweepConfig, serial == workers>1.

        Two variants (one with the n=25 capability quirk) keep the
        runtime reasonable; all 17 problems x 3 levels x 5 temperatures
        are exercised.
        """
        backend = LocalZooBackend(small_models())
        config = SweepConfig()
        serial = Session(backend=backend, workers=1).run_sweep(config)
        parallel = Session(backend=backend, workers=8).run_sweep(config)
        assert serial.sweep.records == parallel.sweep.records
        assert len(serial.sweep) == 2 * 17 * 3 * 5 * 10

    def test_per_job_error_capture(self):
        from repro.models import match_prompt_to_problem

        class FlakyBackend(StubBackend):
            def generate(self, model, prompt, config):
                matched = match_prompt_to_problem(prompt)
                if matched is not None and matched[0].number == 2:
                    raise RuntimeError("boom")
                return super().generate(model, prompt, config)

        backend = FlakyBackend()
        config = SweepConfig(
            temperatures=(0.1,),
            completions_per_prompt=(2,),
            levels=(PromptLevel.LOW,),
            problem_numbers=(1, 2),
        )
        result = SweepExecutor(backend, workers=2).run(
            SweepPlanner(backend).plan(config)
        )
        assert len(result.errors) == 1
        assert result.errors[0].job.problem == 2
        assert "boom" in result.errors[0].error
        # the healthy job still produced its records
        assert {r.problem for r in result.sweep.records} == {1}
        assert result.stats["jobs_failed"] == 1

    def test_progress_callback_counts_jobs(self):
        backend = StubBackend()
        seen = []
        config = SweepConfig(
            temperatures=(0.1,),
            completions_per_prompt=(1,),
            levels=(PromptLevel.LOW,),
            problem_numbers=(1, 2, 3),
        )
        plan = SweepPlanner(backend).plan(config)
        SweepExecutor(
            backend, workers=2, progress=lambda d, t, j: seen.append((d, t))
        ).run(plan)
        assert sorted(seen) == [(1, 3), (2, 3), (3, 3)]

    def test_stats_shape(self):
        backend = StubBackend()
        result = SweepExecutor(backend, workers=3).run(
            SweepPlanner(backend).plan(
                SweepConfig(
                    temperatures=(0.1,),
                    completions_per_prompt=(2,),
                    levels=(PromptLevel.LOW,),
                    problem_numbers=(1,),
                )
            )
        )
        stats = result.stats
        assert stats["backend"] == "stub"
        assert stats["workers"] == 3
        assert stats["jobs"] == 1
        assert stats["records"] == 2
        assert set(stats["evaluator_cache"]) == {"hits", "misses", "entries"}
        assert stats["elapsed_seconds"] >= 0

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            SweepExecutor(StubBackend(), workers=0)

    def test_shared_evaluator_cache_accumulates(self):
        backend = StubBackend()
        evaluator = Evaluator()
        config = SweepConfig(
            temperatures=(0.1, 0.3),
            completions_per_prompt=(2,),
            levels=(PromptLevel.LOW,),
            problem_numbers=(1,),
        )
        SweepExecutor(backend, evaluator=evaluator, workers=4).run(
            SweepPlanner(backend).plan(config)
        )
        info = evaluator.cache_info
        # one unique completion text per problem: everything else hits
        assert info["entries"] == 1
        assert info["hits"] >= 1


class TestBatching:
    def test_batched_executor_record_parity(self):
        """Jobs run one generate call each: no batch grouping, no batch stat.

        A four-thread sweep still reproduces the serial records exactly.
        """
        backend = LocalZooBackend(small_models())
        plan = SweepPlanner(backend).plan(SMALL)
        plain = SweepExecutor(backend, workers=1).run(plan)
        threaded = SweepExecutor(backend, workers=4).run(plan)
        assert threaded.sweep.records == plain.sweep.records
        assert threaded.stats["workers"] == 4
        assert "batch_size" not in threaded.stats


class TestSessionFacade:
    def test_session_run_sweep(self):
        session = Session(backend=LocalZooBackend(small_models()), workers=2)
        result = session.run_sweep(SMALL)
        assert len(result.sweep) == 24 * 3
        assert result.stats["workers"] == 2

    def test_session_evaluate_model_by_name(self):
        session = Session(backend="stub")
        result = session.evaluate_model("stub", problem_numbers=(1, 2), n=2)
        assert len(result.sweep) == 2 * 3 * 2  # problems x levels x n

    def test_evaluate_model_skips_a_nan_temperature(self):
        session = Session(backend="zoo")
        result = session.evaluate_model(
            "codegen-2b-ft", temperature=float("nan"), n=2,
        )
        assert result.sweep.records == [] and result.errors == []
        assert len(result.skipped) == 17 * 3  # problems x levels
        assert all("finite" in skip.reason for skip in result.skipped)

    def test_session_evaluate_model_instance(self):
        # an instance is served by a local zoo, then named
        session = Session(backend=LocalZooBackend([make_model("codegen-2b")]))
        result = session.evaluate_model(
            "codegen-2b-pt", problem_numbers=(1,), n=2,
            levels=(PromptLevel.LOW,),
        )
        assert {r.model for r in result.sweep.records} == {"codegen-2b-pt"}

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_evaluate_model_instance_runs_on_session_executor(
        self, executor
    ):
        session = Session(
            backend=LocalZooBackend([make_model("codegen-2b")]),
            executor=executor,
            workers=2,
        )
        by_instance = session.evaluate_model(
            "codegen-2b-pt", problem_numbers=(1, 2), n=2
        )
        by_name = Session(executor=executor, workers=2).evaluate_model(
            "codegen-2b-pt", problem_numbers=(1, 2), n=2
        )
        assert by_instance.stats["executor"] == executor
        assert by_instance.stats["workers"] == 2
        assert by_instance.sweep.records == by_name.sweep.records

    def test_evaluate_model_instance_honours_session_retry(self):
        from repro.models import LanguageModel

        class FlakyOnce(LanguageModel):
            name = "flaky-once"

            def __init__(self):
                self.inner = make_model("codegen-2b")
                self.seen = set()

            def generate(self, prompt, config):
                if prompt not in self.seen:
                    self.seen.add(prompt)
                    raise BackendError("transient")
                return self.inner.generate(prompt, config)

        session = Session(
            backend=LocalZooBackend([FlakyOnce()]),
            retry=RetryPolicy(max_attempts=2),
        )
        result = session.evaluate_model(
            "flaky-once", problem_numbers=(1,), n=2,
            levels=(PromptLevel.LOW,),
        )
        assert result.errors == []
        assert result.stats["attempts"] == 2
        assert len(result.sweep) == 2

    def test_session_shares_evaluator_across_runs(self):
        session = Session(backend="stub")
        session.evaluate_model("stub", problem_numbers=(1,), n=2)
        before = session.cache_info["misses"]
        session.evaluate_model("stub", problem_numbers=(1,), n=2)
        assert session.cache_info["misses"] == before

    def test_evaluate_model_instance_honours_session_repair_budget(self):
        # an instance served by a local zoo runs through the session's
        # repair loop, exactly as the same model named on the default zoo
        model = make_model("codegen-2b", fine_tuned=True)
        served = Session(repair_budget=2, backend=LocalZooBackend([model]))
        by_name = Session(repair_budget=2)
        args = dict(problem_numbers=(1, 2, 6), n=5)
        by_instance = served.evaluate_model("codegen-2b-ft", **args)
        named = by_name.evaluate_model("codegen-2b-ft", **args)
        assert by_instance.sweep.records == named.sweep.records
        for result in (by_instance, named):
            assert sum(r.passed for r in result.sweep.records) == 33
            assert result.stats["backend"] == "repair(zoo)"
        with pytest.raises(TypeError, match=r"LocalZooBackend\(\[model\]\)"):
            served.evaluate_model(model)

    def test_negative_repair_budget_rejected(self):
        with pytest.raises(ValueError, match="repair_budget"):
            Session(repair_budget=-3)


TINY = SweepConfig(
    temperatures=(0.1,),
    completions_per_prompt=(2,),
    levels=(PromptLevel.LOW,),
    problem_numbers=(1, 2),
)


class CountingFlaky(StubBackend):
    """Raises BackendError ``failures`` times per job, then succeeds."""

    def __init__(self, failures=0):
        super().__init__()
        self.failures = failures
        self.attempts_by_prompt = {}

    def generate(self, model, prompt, config):
        seen = self.attempts_by_prompt.get(prompt, 0) + 1
        self.attempts_by_prompt[prompt] = seen
        if seen <= self.failures:
            raise BackendError(f"transient #{seen}")
        return super().generate(model, prompt, config)


class TestRetryPolicy:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_seconds=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.5)

    def test_transient_errors_retried_to_success(self):
        backend = CountingFlaky(failures=2)
        delays = []
        plan = SweepPlanner(backend).plan(TINY)
        result = SweepExecutor(
            backend,
            retry=RetryPolicy(max_attempts=3, backoff_seconds=0.5),
            sleep=delays.append,
        ).run(plan)
        assert result.errors == []
        assert len(result.sweep) == 2 * 2
        # two jobs x two failed attempts each, doubling backoff
        assert delays == [0.5, 1.0, 0.5, 1.0]
        assert result.stats["attempts"] == 2 * 3

    def test_exhausted_retries_record_attempt_count(self):
        backend = CountingFlaky(failures=99)
        plan = SweepPlanner(backend).plan(TINY)
        slept = []
        result = SweepExecutor(
            backend,
            retry=RetryPolicy(max_attempts=3, backoff_seconds=1.0),
            sleep=slept.append,
        ).run(plan)
        assert len(result.errors) == 2
        assert all(e.attempts == 3 for e in result.errors)
        assert all("transient" in e.error for e in result.errors)
        assert slept == [1.0, 2.0, 1.0, 2.0]

    def test_non_backend_errors_fail_fast(self):
        class Broken(StubBackend):
            def generate(self, model, prompt, config):
                raise RuntimeError("logic bug")

        backend = Broken()
        plan = SweepPlanner(backend).plan(TINY)
        slept = []
        result = SweepExecutor(
            backend,
            retry=RetryPolicy(max_attempts=5, backoff_seconds=1.0),
            sleep=slept.append,
        ).run(plan)
        assert slept == []  # no retries for non-transient failures
        assert all(e.attempts == 1 for e in result.errors)

    def test_no_policy_means_single_attempt(self):
        backend = CountingFlaky(failures=1)
        plan = SweepPlanner(backend).plan(TINY)
        result = SweepExecutor(backend).run(plan)
        assert len(result.errors) == 2
        assert all(e.attempts == 1 for e in result.errors)

    def test_partial_flakiness_isolates_failures_with_attempts(self):
        class OnlyProblemTwoFails(StubBackend):
            def generate(self, model, prompt, config):
                from repro.models import match_prompt_to_problem

                matched = match_prompt_to_problem(prompt)
                if matched is not None and matched[0].number == 2:
                    raise BackendError("transient p2")
                return super().generate(model, prompt, config)

        backend = OnlyProblemTwoFails()
        plan = SweepPlanner(backend).plan(TINY)
        result = SweepExecutor(
            backend,
            retry=RetryPolicy(max_attempts=2),
            sleep=lambda _s: None,
        ).run(plan)
        assert len(result.errors) == 1
        assert result.errors[0].job.problem == 2
        assert result.errors[0].attempts == 2
        assert len(result.sweep) == 2  # problem 1's records survive


class TestJobObserver:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_sees_each_job_start_then_finish(self, workers):
        backend = StubBackend()
        plan = SweepPlanner(backend).plan(SMALL)
        seen = []
        result = SweepExecutor(
            backend, workers=workers,
            observer=lambda *call: seen.append(call),
        ).run(plan)
        started = {index: at for at, (index, _job, outcome, _s)
                   in enumerate(seen) if outcome is None}
        finished = {index: at for at, (index, _job, outcome, _s)
                    in enumerate(seen) if outcome is not None}
        everything = set(range(len(plan.jobs)))
        assert set(started) == set(finished) == everything
        assert all(started[index] < finished[index] for index in everything)
        assert all(job == plan.jobs[index] for index, job, *_ in seen)
        assert all(seconds >= 0 for *_, seconds in seen)
        records = [
            record
            for index in sorted(everything)
            for record in seen[finished[index]][2][0]
        ]
        assert records == result.sweep.records

    def test_refused_start_stops_the_run(self):
        calls = []

        class Counting(StubBackend):
            def generate(self, model, prompt, config):
                calls.append(prompt)
                return super().generate(model, prompt, config)

        def observer(index, job, outcome, seconds):
            if outcome is None and index == 2:
                raise ConnectionResetError("stop")

        backend = Counting()
        plan = SweepPlanner(backend).plan(SMALL)
        with pytest.raises(ConnectionResetError):
            SweepExecutor(backend, observer=observer).run(plan)
        assert len(calls) == 2  # jobs 0 and 1 ran; job 2 never started


class TestExecutorInterface:
    def test_sweep_executor_is_an_executor(self):
        assert isinstance(SweepExecutor(StubBackend()), Executor)

    def test_plan_subset(self):
        backend = LocalZooBackend(small_models())
        plan = SweepPlanner(backend).plan(SMALL)
        sub = plan.subset([0, 2], [])
        assert sub.jobs == [plan.jobs[0], plan.jobs[2]]
        assert sub.skipped == []
        assert sub.config is plan.config


def _record(**kw):
    base = dict(
        model="m-ft", base_model="m", fine_tuned=True, problem=1,
        difficulty=Difficulty.BASIC, level=PromptLevel.LOW, temperature=0.1,
        n=10, sample_index=0, compiled=True, passed=True,
        inference_seconds=1.0,
    )
    base.update(kw)
    return CompletionRecord(**base)


class TestSweepIndexInvalidation:
    def test_append_invalidates_index(self):
        sweep = Sweep(records=[_record()])
        assert len(sweep.group("m-ft", Difficulty.BASIC, PromptLevel.LOW, 0.1, 10)) == 1
        sweep.append(_record(sample_index=1))
        assert len(sweep.group("m-ft", Difficulty.BASIC, PromptLevel.LOW, 0.1, 10)) == 2

    def test_extend_invalidates_index(self):
        sweep = Sweep()
        sweep.extend([_record(), _record(sample_index=1)])
        assert len(sweep.group("m-ft", Difficulty.BASIC, PromptLevel.LOW, 0.1, 10)) == 2
        sweep.extend([_record(sample_index=2)])
        assert len(sweep.group("m-ft", Difficulty.BASIC, PromptLevel.LOW, 0.1, 10)) == 3

    def test_same_length_replacement_via_invalidate(self):
        sweep = Sweep(records=[_record(passed=True)])
        assert sweep.rate(
            sweep.group("m-ft", Difficulty.BASIC, PromptLevel.LOW, 0.1, 10)
        ) == 1.0
        # in-place replacement keeps the length: explicit invalidation hook
        sweep.records[0] = _record(passed=False)
        sweep.invalidate_index()
        assert sweep.rate(
            sweep.group("m-ft", Difficulty.BASIC, PromptLevel.LOW, 0.1, 10)
        ) == 0.0

    def test_legacy_direct_append_still_seen(self):
        sweep = Sweep(records=[_record()])
        sweep.group("m-ft", Difficulty.BASIC, PromptLevel.LOW, 0.1, 10)
        sweep.records.append(_record(sample_index=1))  # legacy pattern
        assert len(sweep.group("m-ft", Difficulty.BASIC, PromptLevel.LOW, 0.1, 10)) == 2

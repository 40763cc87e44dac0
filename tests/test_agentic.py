"""Tests for the agentic generate → test → repair subsystem
(repro.agentic): transcripts, feedback formatting, the repairable zoo,
the RepairingBackend adapter, executor/shard/streaming parity, warm
verdict-store chains, and the pass@k-vs-budget metrics."""


from dataclasses import replace

import pytest

from repro.agentic import (
    RepairConfig,
    RepairingBackend,
    Transcript,
    format_feedback,
    repair_completion,
)
from repro.api import Session
from repro.backends import LocalZooBackend
from repro.eval import (
    Evaluator,
    SweepConfig,
    SweepExecutor,
    SweepPlanner,
    VerdictStore,
    pass_at_k_by_problem,
    repair_budget_curve,
)
from repro.eval.export import error_from_dict, error_to_dict, record_to_dict
from repro.eval.jobs import GenerationJob, failure_from_exception, make_job_error
from repro.eval.pipeline import CompletionEvaluation
from repro.models import make_model
from repro.models.base import REPAIR_FEEDBACK_MARKER, GenerationConfig
from repro.problems import PromptLevel, get_problem

#: A weak model (near-zero pass rate at t=0.5) with a certain repair:
#: every error-conditioned re-query emits the canonical solution.
MODEL = "megatron-355m"


def repair_zoo(repair_rate=1.0):
    return LocalZooBackend([make_model(MODEL, repair_rate=repair_rate)])


SMALL = SweepConfig(
    temperatures=(0.5,),
    completions_per_prompt=(3,),
    levels=(PromptLevel.MEDIUM,),
    problem_numbers=(1, 2, 3),
)


def repair_sweep(budget, repair_rate=1.0, **session):
    """SMALL swept with ``budget`` repair rounds per failing sample."""
    return Session(
        repair_zoo(repair_rate), repair=RepairConfig(budget=budget),
        **session,
    ).run_sweep(SMALL)


def export_rows(result):
    """The lossless export view — the byte-parity comparison basis."""
    return [record_to_dict(r) for r in result.sweep.records]


# ----------------------------------------------------------------------
# Transcripts
# ----------------------------------------------------------------------
class TestTranscript:
    def test_start_and_grow(self):
        t = Transcript.start("module top();")
        t.add_assistant("assign y = a;")
        t.add_user("// fix it")
        assert t.prompt == "module top();"
        assert len(t) == 3
        assert t.rounds == 1
        assert t.messages() == [
            {"role": "user", "content": "module top();"},
            {"role": "assistant", "content": "assign y = a;"},
            {"role": "user", "content": "// fix it"},
        ]

    def test_flatten_starts_with_prompt(self):
        t = Transcript.start("module top();")
        t.add_assistant("body")
        flat = t.flatten()
        assert flat.startswith("module top();")
        assert "body" in flat

    def test_same_completion_different_history_hashes_differ(self):
        a = Transcript.start("p")
        a.add_assistant("final code")
        b = Transcript.start("p")
        b.add_assistant("broken")
        b.add_user("// feedback")
        b.add_assistant("final code")
        assert a.transcript_hash != b.transcript_hash

    def test_hash_is_deterministic(self):
        def build():
            t = Transcript.start("p")
            t.add_assistant("x")
            return t.transcript_hash

        assert build() == build()

    def test_role_content_framing_is_unambiguous(self):
        a = Transcript.start("x\ny")
        b = Transcript.start("x")
        b.add_user("y")
        assert a.transcript_hash != b.transcript_hash


# ----------------------------------------------------------------------
# Feedback formatting
# ----------------------------------------------------------------------
class TestFormatFeedback:
    def test_parse_stage_quotes_diagnostics(self):
        evaluation = CompletionEvaluation(
            compiled=False,
            passed=False,
            compile_errors=("line 3:1: unexpected token",),
            stage="parse",
            error_line=3,
        )
        text = format_feedback(evaluation, round_index=1)
        assert text.startswith(REPAIR_FEEDBACK_MARKER)
        assert "syntax error" in text
        assert "unexpected token" in text

    def test_all_lines_are_comments(self):
        evaluation = CompletionEvaluation(
            compiled=False, passed=False,
            compile_errors=("a", "b", "c", "d", "e"), stage="elaborate",
        )
        text = format_feedback(evaluation, round_index=2, max_errors=2)
        assert all(line.startswith("//") for line in text.splitlines())
        assert "(+3 more" in text

    def test_testbench_wording(self):
        ran = CompletionEvaluation(
            compiled=True, passed=False, sim_finished=True, stage="testbench"
        )
        assert "mismatches" in format_feedback(ran, round_index=1)
        hung = CompletionEvaluation(
            compiled=True, passed=False, sim_finished=False, stage="testbench"
        )
        assert "did not finish" in format_feedback(hung, round_index=1)

    def test_lint_findings_appended(self):
        evaluation = CompletionEvaluation(
            compiled=True, passed=False, stage="testbench", sim_finished=True
        )
        text = format_feedback(
            evaluation, round_index=1, lint=["line 2: [W1] blocking assign"]
        )
        assert "lint: line 2: [W1] blocking assign" in text

    def test_feedback_is_invisible_to_prompt_matching(self):
        from repro.models import match_prompt_to_problem

        problem = get_problem(1)
        prompt = problem.prompt(PromptLevel.MEDIUM)
        evaluation = CompletionEvaluation(
            compiled=False, passed=False, stage="parse",
            compile_errors=("bad",),
        )
        grown = (
            prompt + "\nbroken body\n"
            + format_feedback(evaluation, round_index=1)
        )
        matched = match_prompt_to_problem(grown)
        assert matched is not None
        assert matched[0].number == problem.number


# ----------------------------------------------------------------------
# The repairable zoo failure mode
# ----------------------------------------------------------------------
class TestRepairableZoo:
    def test_marker_triggers_repair_at_rate_one(self):
        model = make_model(MODEL, repair_rate=1.0)
        problem = get_problem(1)
        prompt = problem.prompt(PromptLevel.MEDIUM)
        config = GenerationConfig(temperature=0.5, n=1)
        evaluator = Evaluator()
        plain = model.generate(prompt, config)[0]
        marked = model.generate(
            prompt + f"\n{REPAIR_FEEDBACK_MARKER}: fix it", config
        )[0]
        assert not evaluator.evaluate(
            problem, plain.text, PromptLevel.MEDIUM
        ).passed
        assert evaluator.evaluate(
            problem, marked.text, PromptLevel.MEDIUM
        ).passed

    def test_rate_zero_reprompt_behaves_like_fresh_query(self):
        model = make_model(MODEL, repair_rate=0.0)
        prompt = get_problem(1).prompt(PromptLevel.MEDIUM)
        marked = prompt + f"\n{REPAIR_FEEDBACK_MARKER}: fix it"
        config = GenerationConfig(temperature=0.5, n=2)
        texts = [c.text for c in model.generate(marked, config)]
        # deterministic: identical re-query, identical completions
        assert texts == [c.text for c in model.generate(marked, config)]

    def test_fresh_prompts_identical_to_plain_zoo(self):
        plain = make_model(MODEL)
        repairable = make_model(MODEL, repair_rate=1.0)
        prompt = get_problem(2).prompt(PromptLevel.MEDIUM)
        config = GenerationConfig(temperature=0.5, n=3)
        assert [c.text for c in plain.generate(prompt, config)] == [
            c.text for c in repairable.generate(prompt, config)
        ]

    def test_repair_rate_validated(self):
        with pytest.raises(ValueError, match="repair_rate"):
            make_model(MODEL, repair_rate=1.5)

    def test_zoo_repair_backend_registered(self):
        from repro.backends import create_backend

        backend = create_backend("zoo-repair")
        assert backend.name == "zoo-repair"
        assert "megatron-355m-pt" in backend.models()


# ----------------------------------------------------------------------
# The repair loop
# ----------------------------------------------------------------------
class TestRepairLoop:
    def _chain(self, budget, repair_rate=1.0, problem_number=1):
        backend = repair_zoo(repair_rate)
        model = backend.models()[0]
        problem = get_problem(problem_number)
        prompt = problem.prompt(PromptLevel.MEDIUM)
        config = GenerationConfig(temperature=0.5, n=1)
        completion = backend.generate(model, prompt, config)[0]
        return repair_completion(
            backend, model, problem, PromptLevel.MEDIUM, prompt,
            completion, config, RepairConfig(budget=budget), Evaluator(),
        )

    def test_budget_zero_never_reprompts(self):
        outcome = self._chain(budget=0)
        assert len(outcome.attempts) == 1
        assert outcome.rounds_used == 0
        assert not outcome.passed

    def test_failing_chain_repairs_within_budget(self):
        outcome = self._chain(budget=2)
        assert outcome.passed
        assert outcome.rounds_used >= 1
        assert outcome.attempts[-1].passed
        # transcript alternates prompt, attempt, (feedback, attempt)...
        assert outcome.transcript.rounds == len(outcome.attempts)

    def test_passing_sample_is_never_repaired(self):
        # stub-canonical passes round 0; the chain must stop there
        from repro.backends import create_backend

        backend = create_backend("stub-canonical")
        model = backend.models()[0]
        problem = get_problem(1)
        prompt = problem.prompt(PromptLevel.MEDIUM)
        config = GenerationConfig(temperature=0.5, n=1)
        completion = backend.generate(model, prompt, config)[0]
        outcome = repair_completion(
            backend, model, problem, PromptLevel.MEDIUM, prompt,
            completion, config, RepairConfig(budget=3), Evaluator(),
        )
        assert outcome.passed and outcome.rounds_used == 0
        assert outcome.completion.text == completion.text

    def test_repair_spend_accumulates_inference_seconds(self):
        outcome = self._chain(budget=2)
        assert outcome.completion.inference_seconds == pytest.approx(
            sum(a.inference_seconds for a in outcome.attempts)
        )

    def test_attempt_hashes_recorded_per_round(self):
        outcome = self._chain(budget=2)
        hashes = [a.transcript_hash for a in outcome.attempts]
        assert len(set(hashes)) == len(hashes)


# ----------------------------------------------------------------------
# RepairingBackend: the Backend-protocol adapter
# ----------------------------------------------------------------------
class TestRepairingBackend:
    def test_budget_zero_matches_inner_backend(self):
        inner = repair_zoo()
        wrapped = RepairingBackend(repair_zoo(), repair=RepairConfig(budget=0))
        prompt = get_problem(1).prompt(PromptLevel.MEDIUM)
        config = GenerationConfig(temperature=0.5, n=3)
        model = inner.models()[0]
        assert [c.text for c in inner.generate(model, prompt, config)] == [
            c.text for c in wrapped.generate(model, prompt, config)
        ]

    def test_budget_strictly_improves_pass_rate(self):
        base = repair_sweep(0)
        repaired = repair_sweep(2)
        passed = lambda result: sum(  # noqa: E731
            r.passed for r in result.sweep.records
        )
        assert passed(repaired) > passed(base)

    def test_pass_count_monotone_in_budget(self):
        counts = []
        for budget in (0, 1, 2):
            result = repair_sweep(budget, repair_rate=0.5)
            counts.append(sum(r.passed for r in result.sweep.records))
        assert counts == sorted(counts)

    def test_off_benchmark_prompts_pass_through(self):
        wrapped = RepairingBackend(repair_zoo(), repair=RepairConfig(budget=2))
        config = GenerationConfig(temperature=0.5, n=1)
        out = wrapped.generate(
            wrapped.models()[0], "module not_a_benchmark(input x);", config
        )
        assert len(out) == 1  # no crash, unrepaired pass-through

    def test_plan_parity_with_inner_backend(self):
        inner = repair_zoo()
        wrapped = RepairingBackend(repair_zoo(), repair=RepairConfig(budget=2))
        assert SweepPlanner(inner).plan(SMALL).jobs == \
            SweepPlanner(wrapped).plan(SMALL).jobs

    def test_attempt_log_collects_only_when_armed(self):
        wrapped = RepairingBackend(repair_zoo(), repair=RepairConfig(budget=1))
        prompt = get_problem(1).prompt(PromptLevel.MEDIUM)
        config = GenerationConfig(temperature=0.5, n=1)
        model = wrapped.models()[0]
        wrapped.generate(model, prompt, config)
        assert wrapped.drain_attempt_events() == []
        wrapped.start_attempt_log()
        wrapped.generate(model, prompt, config)
        events = wrapped.drain_attempt_events()
        assert len(events) >= 2  # initial fail + at least one repair
        first = events[0]
        assert first["model"] == model and first["problem"] == 1
        assert first["round"] == 0
        assert isinstance(first["transcript_hash"], str)
        assert events[-1]["verdict"] == "pass"
        wrapped.stop_attempt_log()
        wrapped.generate(model, prompt, config)
        assert wrapped.drain_attempt_events() == []


# ----------------------------------------------------------------------
# Repair sweeps and attempt histories
# ----------------------------------------------------------------------
class TestRepairSweeps:
    def test_session_repair_sweep_plans_the_plain_plan(self):
        backend = repair_zoo()
        session = Session(backend, repair=RepairConfig(budget=2))
        assert isinstance(session.backend, RepairingBackend)
        assert session.plan(SMALL).jobs == SweepPlanner(backend).plan(
            SMALL).jobs
        result = session.run_sweep(SMALL)
        assert len(result.sweep.records) == sum(
            job.n for job in session.plan(SMALL).jobs)

    def test_repair_completion_returns_histories(self):
        backend = repair_zoo()
        model = backend.models()[0]
        problem = get_problem(1)
        prompt = problem.prompt(PromptLevel.MEDIUM)
        config = GenerationConfig(temperature=0.5, n=2)
        outcomes = [
            repair_completion(
                backend, model, problem, PromptLevel.MEDIUM, prompt,
                completion, config, RepairConfig(budget=2), Evaluator(),
            )
            for completion in backend.generate(model, prompt, config)
        ]
        assert len(outcomes) == 2
        for outcome in outcomes:
            assert 1 <= len(outcome.attempts) <= 3  # budget 2
            final = Evaluator().evaluate(
                problem, outcome.completion.text, PromptLevel.MEDIUM)
            assert final.passed == outcome.passed


# ----------------------------------------------------------------------
# Distributed parity: executors, shards, coordinator, streaming
# ----------------------------------------------------------------------
class TestRepairSweepParity:
    def serial(self):
        return repair_sweep(2)

    def test_thread_pool_matches_serial(self):
        threaded = repair_sweep(2, workers=3)
        assert export_rows(threaded) == export_rows(self.serial())

    def test_process_pool_matches_serial(self, tmp_path):
        from repro.service.process import ProcessPoolSweepExecutor

        wrapped = RepairingBackend(
            repair_zoo(), repair=RepairConfig(budget=2),
            store=str(tmp_path / "verdicts"),
        )
        plan = SweepPlanner(wrapped).plan(SMALL)
        result = ProcessPoolSweepExecutor(wrapped, workers=2).run(plan)
        assert export_rows(result) == export_rows(self.serial())

    def test_sharded_repair_sweep_merges_to_serial_order(self):
        from repro.service import ShardPlanner, merge_shard_results

        wrapped = RepairingBackend(repair_zoo(), repair=RepairConfig(budget=2))
        plan = SweepPlanner(wrapped).plan(SMALL)
        shards = ShardPlanner(2).split(plan)
        results = [
            SweepExecutor(
                RepairingBackend(repair_zoo(), repair=RepairConfig(budget=2)),
                evaluator=Evaluator(),
            ).run(shard.plan)
            for shard in shards
        ]
        merged = merge_shard_results(shards, results)
        assert export_rows(merged) == export_rows(self.serial())

    def test_two_coordinator_workers_merge_to_serial_order(self, tmp_path):
        from repro.service import (
            ServiceApp,
            ShardCoordinator,
            in_process_transport,
            run_worker,
        )

        sessions = [
            Session(
                backend=repair_zoo(),
                repair_budget=2,
                store=str(tmp_path / f"store-{i}"),
            )
            for i in range(2)
        ]
        coordinator = ShardCoordinator(
            sessions[0].plan_shards(2, SMALL), lease_seconds=60
        )
        for i, session in enumerate(sessions):
            run_worker(
                transport=in_process_transport(
                    ServiceApp(session, coordinator=coordinator)
                ),
                session=session,
                worker_id=f"worker-{i}",
                max_idle_polls=3,
            )
        assert coordinator.done
        assert export_rows(coordinator.result()) == export_rows(self.serial())


# ----------------------------------------------------------------------
# Warm store: transcript-hash keyed repair chains
# ----------------------------------------------------------------------
class TestRepairWarmStore:
    def test_warm_store_skips_all_resimulation(self, tmp_path):
        store_dir = str(tmp_path / "verdicts")
        cold = repair_sweep(2, store=store_dir)
        assert cold.stats["evaluator_cache"]["misses"] > 0
        warm = repair_sweep(2, store=store_dir)
        assert warm.stats["evaluator_cache"]["misses"] == 0
        assert warm.stats["evaluator_cache"]["store_hits"] > 0
        assert export_rows(warm) == export_rows(cold)

    def test_attempt_verdicts_keyed_by_transcript_hash(self, tmp_path):
        store = VerdictStore(str(tmp_path / "verdicts"))
        backend = repair_zoo()
        model = backend.models()[0]
        problem = get_problem(1)
        prompt = problem.prompt(PromptLevel.MEDIUM)
        config = GenerationConfig(temperature=0.5, n=1)
        completion = backend.generate(model, prompt, config)[0]
        outcome = repair_completion(
            backend, model, problem, PromptLevel.MEDIUM, prompt,
            completion, config, RepairConfig(budget=2), Evaluator(),
            store=store,
        )
        for attempt in outcome.attempts:
            stored = store.get(problem.number, attempt.transcript_hash)
            assert stored is not None
            assert stored.passed == attempt.passed


# ----------------------------------------------------------------------
# NDJSON streaming: attempt frames
# ----------------------------------------------------------------------
class TestAttemptStreaming:
    def test_stream_emits_attempt_frames_and_reassembles(self):
        from repro.service.aio.events import assemble_stream_result, emit_sweep

        wrapped = RepairingBackend(repair_zoo(), repair=RepairConfig(budget=2))
        plan = SweepPlanner(wrapped).plan(SMALL)
        frames = []
        emit_sweep(plan, frames.append, wrapped,
                   evaluator=wrapped.evaluator, workers=2)
        attempts = [f for f in frames if f["event"] == "attempt"]
        assert attempts, "repair rounds should surface as attempt frames"
        assert {"model", "problem", "round", "verdict",
                "transcript_hash"} <= set(attempts[0])
        serial = repair_sweep(2)
        assembled = assemble_stream_result(frames)
        assert export_rows(assembled) == export_rows(serial)

    def test_attempt_frame_round_trips_the_codec(self):
        from repro.service.aio.events import (
            attempt_frame,
            decode_frame,
            encode_frame,
        )

        frame = attempt_frame({
            "model": "m", "problem": 1, "temperature": 0.5,
            "sample_index": 0, "round": 1, "verdict": "pass",
            "stage": "", "transcript_hash": "00deadbeef00cafe",
        })
        assert decode_frame(encode_frame(frame)) == frame

    def test_stopped_log_leaks_nothing_into_next_run(self):
        from repro.service.aio import emit_sweep

        def hang_up(frame):
            if frame["event"] == "record":
                raise ConnectionResetError("client went away")

        wrapped = RepairingBackend(repair_zoo(), repair=RepairConfig(budget=1))
        plan = SweepPlanner(wrapped).plan(SMALL)
        prompt = get_problem(1).prompt(PromptLevel.MEDIUM)
        # emit_sweep() stop_attempt_log()s in its finally, whether the
        # sweep completes or its stream is cut: nothing collects after
        for emit in (lambda frame: None, hang_up):
            try:
                emit_sweep(plan, emit, wrapped, evaluator=wrapped.evaluator)
            except ConnectionResetError:
                assert emit is hang_up
            wrapped.generate(
                wrapped.models()[0], prompt,
                GenerationConfig(temperature=0.5, n=1),
            )
            assert wrapped.drain_attempt_events() == []


# ----------------------------------------------------------------------
# Structured JobError fields
# ----------------------------------------------------------------------
class TestStructuredJobErrors:
    def test_failure_classification(self):
        from repro.backends import BackendError

        cases = [
            (BackendError("down"), "backend"),
            (RuntimeError("surprise"), ""),
            (ValueError("bad config"), ""),
        ]
        for exc, stage in cases:
            failure = failure_from_exception(exc)
            assert failure.stage == stage
            assert failure.exception == type(exc).__name__
            assert str(exc) in failure.message

    def test_make_job_error_from_failure(self):
        job = GenerationJob(
            model="m", base_model="m", fine_tuned=False, problem=1,
            level=PromptLevel.LOW, temperature=0.1, n=1, max_tokens=300,
        )
        from repro.backends import BackendError

        structured = make_job_error(
            job, failure_from_exception(BackendError("down")), attempts=2
        )
        assert structured.stage == "backend"
        assert structured.exception == "BackendError"
        assert structured.error == "BackendError: down"
        assert structured.attempts == 2

    def test_error_codec_round_trip_is_lossless(self):
        job = GenerationJob(
            model="m", base_model="m", fine_tuned=False, problem=3,
            level=PromptLevel.HIGH, temperature=0.7, n=5, max_tokens=200,
        )
        from repro.backends import BackendError

        error = make_job_error(
            job, failure_from_exception(BackendError("boom")), attempts=3,
        )
        assert error_from_dict(error_to_dict(error)) == error

    def test_legacy_error_dicts_still_decode(self):
        job = GenerationJob(
            model="m", base_model="m", fine_tuned=False, problem=1,
            level=PromptLevel.LOW, temperature=0.1, n=1, max_tokens=300,
        )
        row = error_to_dict(make_job_error(
            job, failure_from_exception(RuntimeError("old-style")),
            attempts=1))
        bare = dict(row)
        for key in ("stage", "exception"):
            bare.pop(key)
        decoded = error_from_dict(bare)
        assert decoded.error == "RuntimeError: old-style"
        assert decoded.stage == "" and decoded.exception == ""
        # rows written when job errors still carried Verilog fields
        old = dict(row, stage="parse", line=5, code="comb-loop",
                   path="dut.y")
        assert error_from_dict(old) == replace(
            error_from_dict(row), stage="parse")

    def test_failing_job_carries_stage_through_sweep(self):
        class Down(LocalZooBackend):
            def generate(self, model, prompt, config):
                from repro.backends import BackendError

                raise BackendError("synthetic")

        backend = Down([make_model(MODEL)])
        result = SweepExecutor(backend, evaluator=Evaluator()).run(
            SweepPlanner(backend).plan(SMALL)
        )
        assert result.errors
        assert all(e.stage == "backend" for e in result.errors)
        assert all(e.exception == "BackendError" for e in result.errors)


# ----------------------------------------------------------------------
# Metrics: pass@k vs repair budget
# ----------------------------------------------------------------------
class TestRepairMetrics:
    def test_pass_at_k_by_problem(self):
        class R:
            def __init__(self, problem, passed):
                self.problem = problem
                self.passed = passed

        records = [R(1, True), R(1, False), R(2, False), R(2, False)]
        # P1: pass@1 over (n=2, c=1) = 0.5; P2: 0.0 -> mean 0.25
        assert pass_at_k_by_problem(records, k=1) == pytest.approx(0.25)
        # k clamps to the group size
        assert pass_at_k_by_problem(records, k=10) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            pass_at_k_by_problem(records, k=0)

    def test_repair_budget_curve_shape_and_lift(self):
        class R:
            def __init__(self, problem, passed, compiled=True):
                self.problem = problem
                self.passed = passed
                self.compiled = compiled

        sweeps = {
            0: [R(1, False, compiled=False), R(2, False)],
            2: [R(1, True), R(2, False)],
        }
        rows = repair_budget_curve(sweeps, k=1)
        assert [row["budget"] for row in rows] == [0, 2]
        base, top = rows
        assert base["lift"] == 0.0 and base["lift_per_budget"] == 0.0
        assert top["pass_at_k"] == pytest.approx(0.5)
        assert top["lift"] == pytest.approx(0.5)
        assert top["lift_per_budget"] == pytest.approx(0.25)
        assert base["compile_rate"] == pytest.approx(0.5)

    def test_session_repair_curve_improves_on_zoo_repair(self, tmp_path):
        session = Session(
            backend=repair_zoo(), store=str(tmp_path / "verdicts")
        )
        out = session.repair_curve(budgets=(0, 2), config=SMALL)
        rows = {row["budget"]: row for row in out["curve"]}
        assert rows[2]["pass_at_k"] > rows[0]["pass_at_k"]
        assert rows[2]["lift"] > 0

    def test_session_repair_budget_wraps_backend(self):
        session = Session(backend=repair_zoo(), repair_budget=2)
        assert isinstance(session.backend, RepairingBackend)
        assert session.backend.repair.budget == 2
        plain = Session(backend=repair_zoo())
        assert not isinstance(plain.backend, RepairingBackend)

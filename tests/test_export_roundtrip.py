"""Round-trip tests for the export codecs (repro.eval.export): record
tables, full sweep results with skip/error metadata, and the job/config
wire schema the service + shard layers share."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import LocalZooBackend, StubBackend
from repro.eval import (
    SweepConfig,
    SweepExecutor,
    SweepPlanner,
    load_sweep_json,
    load_sweep_result_json,
    save_sweep,
    save_sweep_result,
    sweep_result_to_json,
    sweep_to_csv,
    sweep_to_json,
)
from repro.eval.export import (
    RUN_COLUMNS,
    RUN_FIELDS,
    config_from_dict,
    config_to_dict,
    error_from_dict,
    error_to_dict,
    job_from_dict,
    job_to_dict,
    skip_from_dict,
    skip_to_dict,
    sweep_result_from_dict,
    sweep_result_to_dict,
)
from repro.eval.harness import CompletionRecord, Sweep
from repro.eval.jobs import GenerationJob, JobError, SkippedJob, SweepResult
from repro.models import make_model, match_prompt_to_problem
from repro.problems import Difficulty, PromptLevel

CONFIG = SweepConfig(
    temperatures=(0.1, 0.5),
    completions_per_prompt=(2, 25),
    levels=(PromptLevel.LOW, PromptLevel.MEDIUM),
    problem_numbers=(1, 2),
)


def run_small():
    backend = LocalZooBackend(
        [
            make_model("codegen-6b", fine_tuned=True),
            make_model("j1-large-7b", fine_tuned=True),  # n=25 skips
        ]
    )
    plan = SweepPlanner(backend).plan(CONFIG)
    return SweepExecutor(backend).run(plan), plan


class TestSweepRoundTrip:
    def test_save_sweep_load_sweep_json_parity(self, tmp_path):
        result, _plan = run_small()
        path = str(tmp_path / "records.json")
        save_sweep(result.sweep, path)
        restored = load_sweep_json(open(path, encoding="utf-8").read())
        # JSON rounds inference_seconds to 6 digits; re-serialization is
        # the fixed point and must be identical
        assert sweep_to_json(restored) == sweep_to_json(result.sweep)
        assert len(restored) == len(result.sweep)
        first, again = result.sweep.records[0], restored.records[0]
        assert (first.model, first.problem, first.level) == (
            again.model, again.problem, again.level,
        )

    def test_csv_and_json_agree_on_rows(self):
        result, _plan = run_small()
        csv_lines = sweep_to_csv(result.sweep).strip().splitlines()
        rows = json.loads(sweep_to_json(result.sweep))
        assert len(csv_lines) - 1 == len(rows)  # minus header


class TestSweepResultRoundTrip:
    def test_full_result_round_trip_with_skips(self, tmp_path):
        result, _plan = run_small()
        assert result.skipped, "fixture should produce n=25 skips"
        path = str(tmp_path / "result.json")
        save_sweep_result(result, path)
        restored = load_sweep_result_json(open(path, encoding="utf-8").read())
        assert restored.skipped == result.skipped
        assert restored.errors == result.errors
        assert sweep_to_json(restored.sweep) == sweep_to_json(result.sweep)
        assert restored.stats["backend"] == result.stats["backend"]

    def test_round_trip_preserves_error_metadata(self):
        class FlakyBackend(StubBackend):
            def generate(self, model, prompt, config):
                matched = match_prompt_to_problem(prompt)
                if matched is not None and matched[0].number == 2:
                    raise RuntimeError("boom")
                return super().generate(model, prompt, config)

        backend = FlakyBackend()
        plan = SweepPlanner(backend).plan(
            SweepConfig(
                temperatures=(0.1,),
                completions_per_prompt=(2,),
                levels=(PromptLevel.LOW,),
                problem_numbers=(1, 2),
            )
        )
        result = SweepExecutor(backend).run(plan)
        assert len(result.errors) == 1
        restored = load_sweep_result_json(sweep_result_to_json(result))
        assert restored.errors == result.errors
        assert restored.errors[0].job == result.errors[0].job
        assert restored.errors[0].attempts == 1
        assert "boom" in restored.errors[0].error

    def test_save_sweep_result_requires_json(self, tmp_path):
        result, _plan = run_small()
        with pytest.raises(ValueError, match=".json"):
            save_sweep_result(result, str(tmp_path / "result.csv"))


class TestWireCodecs:
    def test_job_codec_round_trip(self):
        _result, plan = run_small()
        for job in plan.jobs:
            assert job_from_dict(job_to_dict(job)) == job

    def test_skip_codec_round_trip(self):
        _result, plan = run_small()
        assert plan.skipped
        for skip in plan.skipped:
            assert skip_from_dict(skip_to_dict(skip)) == skip

    def test_error_codec_round_trip_and_attempts_default(self):
        _result, plan = run_small()
        error = JobError(job=plan.jobs[0], error="x: y", attempts=3)
        assert error_from_dict(error_to_dict(error)) == error
        legacy = error_to_dict(error)
        del legacy["attempts"]  # pre-retry files have no attempts field
        assert error_from_dict(legacy).attempts == 1

    def test_config_codec_round_trip(self):
        assert config_from_dict(config_to_dict(CONFIG)) == CONFIG
        assert config_from_dict(config_to_dict(SweepConfig())) == SweepConfig()

    def test_config_from_partial_dict_uses_defaults(self):
        config = config_from_dict({"temperatures": [0.2]})
        assert config.temperatures == (0.2,)
        assert config.levels == SweepConfig().levels
        assert config.problem_numbers == SweepConfig().problem_numbers


# ----------------------------------------------------------------------
# The job-run layout of a whole result's records
# ----------------------------------------------------------------------
_JOB_FIELDS = {
    "model": st.sampled_from(["codegen-2b-ft", "codegen-2b-pt", "stub"]),
    "base_model": st.sampled_from(["codegen-2b", "stub"]),
    "fine_tuned": st.booleans(),
    "problem": st.integers(1, 3),
    "level": st.sampled_from(list(PromptLevel)),
    "temperature": st.sampled_from([0.1, 0.5, 1.0]),
    "n": st.sampled_from([1, 10]),
}

_records = st.lists(
    st.builds(
        CompletionRecord,
        difficulty=st.sampled_from(list(Difficulty)),
        # small indices so runs of consecutive samples form and break
        sample_index=st.integers(0, 4),
        compiled=st.booleans(),
        passed=st.booleans(),
        inference_seconds=st.floats(
            min_value=0, max_value=1e6, allow_nan=False
        ),
        **_JOB_FIELDS,
    ),
    max_size=40,
)

_skips = st.lists(st.builds(
    SkippedJob, reason=st.text(max_size=20),
    **{k: _JOB_FIELDS[k] for k in ("model", "problem", "level",
                                   "temperature", "n")},
), max_size=3)

_errors = st.lists(st.builds(
    JobError,
    job=st.builds(GenerationJob, max_tokens=st.integers(1, 512),
                  **_JOB_FIELDS),
    error=st.text(max_size=20),
    attempts=st.integers(1, 3),
    stage=st.sampled_from(["", "backend", "sim"]),
), max_size=3)

_stats = st.dictionaries(
    st.sampled_from(["backend", "jobs", "records", "elapsed_seconds"]),
    st.one_of(st.integers(0, 10**6), st.text(max_size=8)),
)


def _expected_runs(records) -> int:
    """Runs break on any job-field change and any sample_index gap."""
    runs = 0
    previous = None
    for record in records:
        if previous is None or (
            [getattr(record, f) for f in RUN_FIELDS]
            != [getattr(previous, f) for f in RUN_FIELDS]
            or record.sample_index != previous.sample_index + 1
        ):
            runs += 1
        previous = record
    return runs


class TestJobRunLayout:
    @settings(max_examples=200, deadline=None)
    @given(records=_records, skipped=_skips, errors=_errors, stats=_stats)
    def test_result_round_trips_through_job_runs(
        self, records, skipped, errors, stats
    ):
        result = SweepResult(
            sweep=Sweep(records=records), skipped=skipped, errors=errors,
            stats=stats,
        )
        payload = json.loads(json.dumps(sweep_result_to_dict(result)))
        assert payload["records"]["columns"] == list(RUN_COLUMNS)
        assert len(payload["records"]["runs"]) == _expected_runs(records)
        restored = sweep_result_from_dict(payload)
        assert restored.sweep.records == records
        assert [r.inference_seconds for r in restored.sweep.records] == [
            r.inference_seconds for r in records
        ]
        assert restored.skipped == skipped
        assert restored.errors == errors
        assert restored.stats == stats

    def test_one_run_per_job_of_a_sweep(self):
        result, plan = run_small()
        runs = sweep_result_to_dict(result)["records"]["runs"]
        assert len(runs) == len(plan.jobs)
        assert [(run[8], len(run[9])) for run in runs] == [
            (0, job.n) for job in plan.jobs
        ]
        assert all(set(run[9] + run[10]) <= {"0", "1"} for run in runs)

    def test_empty_result_round_trips(self):
        payload = sweep_result_to_dict(SweepResult(sweep=Sweep(records=[])))
        assert payload["records"] == {"columns": list(RUN_COLUMNS),
                                      "runs": []}
        assert sweep_result_from_dict(payload).sweep.records == []

    def test_row_list_of_older_versions_is_refused(self):
        result, _plan = run_small()
        payload = sweep_result_to_dict(result)
        payload["records"] = json.loads(sweep_to_json(result.sweep))
        with pytest.raises(ValueError, match="not job runs"):
            sweep_result_from_dict(payload)
        # an empty row list is refused too: the layout is checked, not
        # guessed from the first entry
        payload["records"] = []
        with pytest.raises(ValueError, match="not job runs"):
            sweep_result_from_dict(payload)

    @pytest.mark.parametrize("column, bad", [
        (9, lambda size: "1" * (size + 1)),  # more verdicts than seconds
        (10, lambda size: "2" * size),       # not a '0'/'1' bit string
        (11, lambda size: []),               # an empty run
    ])
    def test_malformed_runs_are_refused(self, column, bad):
        result, _plan = run_small()
        payload = sweep_result_to_dict(result)
        run = payload["records"]["runs"][0]
        run[column] = bad(len(run[11]))
        with pytest.raises(ValueError):
            sweep_result_from_dict(payload)

    def test_short_run_entry_is_refused(self):
        result, _plan = run_small()
        payload = sweep_result_to_dict(result)
        payload["records"]["runs"][0] = payload["records"]["runs"][0][:11]
        with pytest.raises(ValueError, match="12 columns"):
            sweep_result_from_dict(payload)

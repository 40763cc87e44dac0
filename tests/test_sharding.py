"""Tests for sharded sweeps (repro.service.sharding): split, merge,
manifest round-trips, and the serial-parity invariant."""

import pytest

from repro.backends import LocalZooBackend, StubBackend
from repro.eval import SweepConfig, SweepExecutor, SweepPlanner
from repro.models import make_model, match_prompt_to_problem
from repro.problems import PromptLevel
from repro.service import (
    PlanShard,
    ShardPlanner,
    job_ranges,
    load_shard_manifest,
    load_shard_result,
    merge_shard_files,
    merge_shard_results,
    save_shard_result,
    shard_manifest_to_json,
    split_result_by_job,
)

# two models (one with the n=25 capability quirk) so shards carry skips
CONFIG = SweepConfig(
    temperatures=(0.1, 0.5),
    completions_per_prompt=(2, 25),
    levels=(PromptLevel.LOW,),
    problem_numbers=(1, 2, 13),
)


def zoo():
    return LocalZooBackend(
        [
            make_model("codegen-6b", fine_tuned=True),
            make_model("j1-large-7b", fine_tuned=True),
        ]
    )


class TestShardPlanner:
    def test_split_covers_plan_exactly(self):
        backend = zoo()
        plan = SweepPlanner(backend).plan(CONFIG)
        shards = ShardPlanner(4).split(plan)
        assert len(shards) == 4
        assert sum(len(s.plan.jobs) for s in shards) == len(plan.jobs)
        assert sum(len(s.plan.skipped) for s in shards) == len(plan.skipped)
        seen = sorted(i for s in shards for i in s.job_indices)
        assert seen == list(range(len(plan.jobs)))

    def test_split_is_deterministic(self):
        backend = zoo()
        plan = SweepPlanner(backend).plan(CONFIG)
        first = ShardPlanner(3).split(plan)
        second = ShardPlanner(3).split(plan)
        assert [s.job_indices for s in first] == [s.job_indices for s in second]
        assert [s.plan.jobs for s in first] == [s.plan.jobs for s in second]

    def test_more_shards_than_jobs_yields_empty_shards(self):
        backend = StubBackend()
        plan = SweepPlanner(backend).plan(
            SweepConfig(
                temperatures=(0.1,),
                completions_per_prompt=(1,),
                levels=(PromptLevel.LOW,),
                problem_numbers=(1,),
            )
        )
        shards = ShardPlanner(5).split(plan)
        assert [len(s) for s in shards] == [1, 0, 0, 0, 0]

    def test_num_shards_validated(self):
        with pytest.raises(ValueError):
            ShardPlanner(0)


class TestJobRanges:
    def test_paper_plan_cuts_into_the_fleet_leases(self):
        # the seed-0 paper sweep: 1,122 jobs, no skips, 22 leases of <=51
        plan = SweepPlanner(LocalZooBackend(seed=0)).plan(
            SweepConfig(temperatures=(0.1, 0.5))
        )
        assert (len(plan.jobs), len(plan.skipped)) == (1122, 0)
        units = job_ranges(plan, 51)
        assert [unit.job_indices for unit in units] == [
            tuple(range(start, min(start + 51, 1122)))
            for start in range(0, 1122, 51)
        ]
        assert len(units) == 22
        assert [(u.shard_index, u.num_shards) for u in units] == [
            (index, 22) for index in range(22)
        ]
        assert [job for u in units for job in u.plan.jobs] == plan.jobs

    def test_each_skip_lands_in_exactly_one_range(self):
        plan = SweepPlanner(zoo()).plan(CONFIG)
        assert plan.skipped
        units = job_ranges(plan, 5)
        assert [i for u in units for i in u.skip_indices] == list(
            range(len(plan.skipped))
        )
        assert [s for u in units for s in u.plan.skipped] == plan.skipped

    def test_a_plan_of_skips_only_is_one_unit(self):
        plan = SweepPlanner(zoo()).plan(CONFIG)
        only_skips = plan.subset((), range(len(plan.skipped)))
        units = job_ranges(only_skips, 4)
        assert len(units) == 1
        assert units[0].job_indices == ()
        assert units[0].plan.skipped == plan.skipped

    def test_size_validated(self):
        plan = SweepPlanner(zoo()).plan(CONFIG)
        with pytest.raises(ValueError, match="size"):
            job_ranges(plan, 0)


class TestMergeParity:
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 7])
    def test_merge_equals_serial_run(self, num_shards):
        """Acceptance: K-shard merge == serial run, records/skips/errors."""
        backend = zoo()
        plan = SweepPlanner(backend).plan(CONFIG)
        serial = SweepExecutor(backend).run(plan)

        shards = ShardPlanner(num_shards).split(plan)
        results = [SweepExecutor(zoo()).run(s.plan) for s in shards]
        merged = merge_shard_results(shards, results)

        assert merged.sweep.records == serial.sweep.records
        assert merged.skipped == serial.skipped
        assert merged.errors == serial.errors
        assert merged.stats["shards"] == num_shards
        assert merged.stats["records"] == len(serial.sweep)

    def test_merge_preserves_errors_in_plan_order(self):
        class FlakyBackend(StubBackend):
            def generate(self, model, prompt, config):
                matched = match_prompt_to_problem(prompt)
                if matched is not None and matched[0].number == 2:
                    raise RuntimeError("boom")
                return super().generate(model, prompt, config)

        backend = FlakyBackend()
        config = SweepConfig(
            temperatures=(0.1, 0.3),
            completions_per_prompt=(2,),
            levels=(PromptLevel.LOW,),
            problem_numbers=(1, 2, 3),
        )
        plan = SweepPlanner(backend).plan(config)
        serial = SweepExecutor(backend).run(plan)
        assert len(serial.errors) == 2  # problem 2 at both temperatures

        shards = ShardPlanner(2).split(plan)
        results = [SweepExecutor(FlakyBackend()).run(s.plan) for s in shards]
        merged = merge_shard_results(shards, results)
        assert merged.errors == serial.errors
        assert merged.sweep.records == serial.sweep.records

    def test_merge_keeps_job_error_attempts_through_files(self, tmp_path):
        """Shard results carrying JobError entries (with retry attempts)
        survive the file round-trip and merge in serial plan order."""
        from repro.backends import BackendError
        from repro.eval import RetryPolicy

        class Transient(StubBackend):
            def generate(self, model, prompt, config):
                matched = match_prompt_to_problem(prompt)
                if matched is not None and matched[0].number == 2:
                    raise BackendError("transient")
                return super().generate(model, prompt, config)

        config = SweepConfig(
            temperatures=(0.1, 0.3),
            completions_per_prompt=(2,),
            levels=(PromptLevel.LOW,),
            problem_numbers=(1, 2, 3),
        )
        plan = SweepPlanner(Transient()).plan(config)
        shards = ShardPlanner(2).split(plan)
        paths = []
        for shard in shards:
            result = SweepExecutor(
                Transient(),
                retry=RetryPolicy(max_attempts=3),
                sleep=lambda _s: None,
            ).run(shard.plan)
            path = str(tmp_path / f"shard{shard.shard_index}.json")
            save_shard_result(shard, result, path)
            paths.append(path)
        merged = merge_shard_files(paths)
        assert len(merged.errors) == 2  # problem 2 at both temperatures
        assert all(error.job.problem == 2 for error in merged.errors)
        assert all(error.attempts == 3 for error in merged.errors)
        # errors appear in serial plan order despite round-robin shards
        assert [e.job.temperature for e in merged.errors] == [0.1, 0.3]
        assert merged.stats["jobs_failed"] == 2
        assert len(merged.sweep) == 2 * 2 * 2  # problems 1,3 x temps x n

    def test_mismatched_lengths_rejected(self):
        backend = StubBackend()
        plan = SweepPlanner(backend).plan(
            SweepConfig(
                temperatures=(0.1,),
                completions_per_prompt=(1,),
                levels=(PromptLevel.LOW,),
                problem_numbers=(1, 2),
            )
        )
        shards = ShardPlanner(2).split(plan)
        results = [SweepExecutor(backend).run(shards[0].plan)]
        with pytest.raises(ValueError, match="shards but"):
            merge_shard_results(shards, results)

    def test_incomplete_shard_set_rejected(self):
        backend = StubBackend()
        plan = SweepPlanner(backend).plan(
            SweepConfig(
                temperatures=(0.1,),
                completions_per_prompt=(1,),
                levels=(PromptLevel.LOW,),
                problem_numbers=(1, 2, 3),
            )
        )
        shards = ShardPlanner(2).split(plan)
        results = [SweepExecutor(backend).run(s.plan) for s in shards]
        with pytest.raises(ValueError, match="incomplete"):
            merge_shard_results(shards[:1], results[:1])

    def test_result_not_matching_plan_rejected(self):
        backend = StubBackend()
        plan = SweepPlanner(backend).plan(
            SweepConfig(
                temperatures=(0.1,),
                completions_per_prompt=(2,),
                levels=(PromptLevel.LOW,),
                problem_numbers=(1, 2),
            )
        )
        shards = ShardPlanner(2).split(plan)
        truncated = SweepExecutor(backend).run(shards[1].plan)
        truncated.sweep.records.pop()
        with pytest.raises(ValueError, match="does not match"):
            split_result_by_job(shards[1].plan, truncated)


class TestManifestRoundTrip:
    def test_manifest_json_round_trip(self):
        backend = zoo()
        plan = SweepPlanner(backend).plan(CONFIG)
        shard = ShardPlanner(3).split(plan)[1]
        restored = load_shard_manifest(shard_manifest_to_json(shard))
        assert restored == shard  # frozen dataclasses compare by value

    def test_shard_result_file_round_trip(self, tmp_path):
        backend = zoo()
        plan = SweepPlanner(backend).plan(CONFIG)
        shard = ShardPlanner(2).split(plan)[0]
        result = SweepExecutor(backend).run(shard.plan)
        path = str(tmp_path / "shard0.json")
        save_shard_result(shard, result, path)
        loaded_shard, loaded_result = load_shard_result(path)
        assert loaded_shard == shard
        assert len(loaded_result.sweep) == len(result.sweep)
        assert loaded_result.skipped == result.skipped

    def test_file_merge_parity_with_serial(self, tmp_path):
        """Acceptance: shard → serialize → load → merge == serial export."""
        from repro.eval.export import sweep_to_json

        backend = zoo()
        plan = SweepPlanner(backend).plan(CONFIG)
        serial = SweepExecutor(backend).run(plan)

        paths = []
        for shard in ShardPlanner(3).split(plan):
            result = SweepExecutor(zoo()).run(shard.plan)
            path = str(tmp_path / f"shard{shard.shard_index}.json")
            save_shard_result(shard, result, path)
            paths.append(path)
        merged = merge_shard_files(paths)
        # the wire format rounds inference_seconds; compare exports
        assert sweep_to_json(merged.sweep) == sweep_to_json(serial.sweep)
        assert merged.skipped == serial.skipped
        assert merged.errors == serial.errors

    def test_save_requires_json_extension(self, tmp_path):
        backend = StubBackend()
        plan = SweepPlanner(backend).plan(
            SweepConfig(
                temperatures=(0.1,),
                completions_per_prompt=(1,),
                levels=(PromptLevel.LOW,),
                problem_numbers=(1,),
            )
        )
        shard = ShardPlanner(1).split(plan)[0]
        result = SweepExecutor(backend).run(shard.plan)
        with pytest.raises(ValueError, match=".json"):
            save_shard_result(shard, result, str(tmp_path / "shard.csv"))

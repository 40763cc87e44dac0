"""Shard a SweepPlan across machines and merge the results losslessly.

The sweep is embarrassingly parallel at job granularity, so distribution
is a partition of the planner's flat job list: :class:`ShardPlanner`
deals jobs (and skip records) round-robin into ``num_shards``
:class:`PlanShard`s — strided assignment balances the per-model cost
differences that contiguous blocks would concentrate — while
:func:`job_ranges` cuts contiguous ranges of a fixed job count for
fine-grained leasing.  Each shard carries the original plan positions
of its jobs and skips.  The offline :func:`merge_shard_results` and the
:class:`~repro.service.coordinator.ShardCoordinator` share one check,
:func:`check_partition` (the complete shard set of one partition, each
position claimed once), and one fill, :func:`unit_slots` (a unit's
result checked against its plan and keyed by plan position), then build
through :func:`~repro.eval.jobs.assemble_result`.  The invariant (and
the acceptance check) is::

    merge(run(shard) for shard in split(plan)) == run(plan)

record-for-record, regardless of shard count or which executor ran each
shard.

Shard manifests serialize through the :mod:`repro.eval.export` codecs,
so a shard can be handed to another machine as JSON, executed there, and
its result shipped back the same way (:func:`save_shard_result` /
:func:`load_shard_result`, consumed by ``python -m repro merge``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..eval.export import (
    config_from_dict,
    config_to_dict,
    job_from_dict,
    job_to_dict,
    skip_from_dict,
    skip_to_dict,
    sweep_result_from_dict,
    sweep_result_to_dict,
)
from ..eval.jobs import JobError, SweepPlan, SweepResult, assemble_result


@dataclass(frozen=True)
class PlanShard:
    """One deterministic slice of a SweepPlan, with its origin indices."""

    shard_index: int
    num_shards: int
    job_indices: tuple[int, ...]
    skip_indices: tuple[int, ...]
    plan: SweepPlan

    def __len__(self) -> int:
        return len(self.plan.jobs)


class ShardPlanner:
    """Partition a plan into N shards; deterministic and order-preserving."""

    def __init__(self, num_shards: int):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards

    def split(self, plan: SweepPlan) -> list[PlanShard]:
        """Round-robin the jobs/skips into ``num_shards`` sub-plans."""
        shards = []
        for index in range(self.num_shards):
            job_indices = tuple(range(index, len(plan.jobs), self.num_shards))
            skip_indices = tuple(
                range(index, len(plan.skipped), self.num_shards)
            )
            shards.append(
                PlanShard(
                    shard_index=index,
                    num_shards=self.num_shards,
                    job_indices=job_indices,
                    skip_indices=skip_indices,
                    plan=plan.subset(job_indices, skip_indices),
                )
            )
        return shards


def job_ranges(plan: SweepPlan, size: int) -> list[PlanShard]:
    """Cut ``plan`` into contiguous ranges of at most ``size`` jobs.

    The ranges keep plan order, so a worker that stalls on one holds at
    most ``size`` jobs; the plan's skips travel with the first range.
    """
    if size < 1:
        raise ValueError("job range size must be >= 1")
    starts = range(0, len(plan.jobs), size) or range(1)
    units = []
    for index, start in enumerate(starts):
        job_indices = tuple(range(start, min(start + size, len(plan.jobs))))
        skip_indices = tuple(range(len(plan.skipped))) if index == 0 else ()
        units.append(PlanShard(index, len(starts), job_indices, skip_indices,
                               plan.subset(job_indices, skip_indices)))
    return units


def split_result_by_job(
    plan: SweepPlan, result: SweepResult
) -> list["list | JobError"]:
    """Attribute a result's records/errors back to the plan's jobs.

    Relies on two executor invariants: records appear in plan order with
    exactly ``job.n`` records per successful job, and the error list
    preserves plan order.  A result whose skips are not the plan's
    (missing, extra or different) does not match the plan either.
    """
    if list(result.skipped) != list(plan.skipped):
        raise ValueError("result does not match plan: its skips differ")
    errors = list(result.errors)
    records = result.sweep.records
    position = 0
    outcomes: list = []
    for job in plan.jobs:
        if errors and errors[0].job == job:
            outcomes.append(errors.pop(0))
            continue
        chunk = records[position : position + job.n]
        if len(chunk) != job.n:
            raise ValueError(
                f"result does not match plan: job {job} expected {job.n} "
                f"records, found {len(chunk)}"
            )
        position += job.n
        outcomes.append(list(chunk))
    if errors or position != len(records):
        raise ValueError(
            "result does not match plan: "
            f"{len(errors)} unmatched errors, "
            f"{len(records) - position} unmatched records"
        )
    return outcomes


def check_partition(units: Sequence[PlanShard]) -> None:
    """``ValueError`` unless ``units`` are the complete shard set of one
    partition: one ``num_shards``, every index ``0..num_shards-1`` once,
    and every job and skip position of the plan claimed by one unit."""
    if not units:
        raise ValueError("empty shard set: nothing to merge or coordinate")
    num_units = units[0].num_shards
    indices = sorted(unit.shard_index for unit in units)
    jobs = sorted(i for unit in units for i in unit.job_indices)
    skips = sorted(i for unit in units for i in unit.skip_indices)
    if (
        indices != list(range(num_units))
        or any(unit.num_shards != num_units for unit in units)
        or jobs != list(range(len(jobs)))
        or skips != list(range(len(skips)))
    ):
        missing = sorted(set(range(num_units)) - set(indices))
        raise ValueError(
            f"incomplete shard set: {len(units)} units with indices "
            f"{indices} of num_shards={num_units} (missing shard indices "
            f"{missing}); the complete shard set of one partition must "
            f"claim each job and skip position once"
        )


def unit_slots(unit: PlanShard, result: SweepResult) -> tuple[dict, dict]:
    """``(jobs, skips)``: one unit's outcomes keyed by plan position, for
    :func:`~repro.eval.jobs.assemble_result`; ``ValueError`` when the
    result does not match the unit's plan (:func:`split_result_by_job`).
    """
    outcomes = split_result_by_job(unit.plan, result)
    return (
        dict(zip(unit.job_indices, outcomes)),
        dict(zip(unit.skip_indices, result.skipped)),
    )


def merge_shard_results(
    shards: Sequence[PlanShard], results: Sequence[SweepResult]
) -> SweepResult:
    """Recombine shard results into one serial-order SweepResult.

    ``shards[i]`` must be the manifest that produced ``results[i]``.
    The shard set must be complete (:func:`check_partition`: every
    original plan position covered exactly once) so the merge is
    provably lossless.
    """
    if len(shards) != len(results):
        raise ValueError(
            f"{len(shards)} shards but {len(results)} results"
        )
    check_partition(shards)
    jobs, skips = {}, {}
    for shard, result in zip(shards, results):
        unit_jobs, unit_skips = unit_slots(shard, result)
        jobs.update(unit_jobs)
        skips.update(unit_skips)
    return assemble_result(jobs, skips, merged_stats(
        [result.stats for result in results], shards[0].num_shards
    ))


def merge_cache_counters(caches: "Sequence[dict] | Iterable[dict]") -> dict:
    """Sum numeric counters across evaluator-cache dicts (fleet totals).

    Non-numeric (and bool) values are skipped, so a foreign executor's
    decorated stats cannot break a merge.  Shared by the shard merge
    and :class:`~repro.service.process.ProcessPoolSweepExecutor`'s
    per-worker aggregation — one definition of "how cache counters
    combine".
    """
    merged: dict = {}
    for cache in caches:
        if not isinstance(cache, dict):
            continue
        for key, value in cache.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            merged[key] = merged.get(key, 0) + value
    return merged


def merged_stats(
    shard_stats: Sequence[dict], num_shards: int, executor: str = "sharded"
) -> dict:
    """The stats of a result merged from units, before the counts: every
    key a single-executor result carries —
    ``workers`` (the widest pool any shard ran with) and
    ``evaluator_cache`` (numeric totals across shards) included — so
    code that prints either never has to care whether a result was
    merged or ran in one process.
    """
    shard_stats = [dict(stats) for stats in shard_stats]
    return {
        "backend": shard_stats[0].get("backend", "?") if shard_stats else "?",
        "executor": executor,
        "shards": num_shards,
        "workers": max(
            (
                int(s.get("workers", 0))
                for s in shard_stats
                if isinstance(s.get("workers"), (int, float))
            ),
            default=0,
        ),
        "evaluator_cache": merge_cache_counters(
            stats.get("evaluator_cache") for stats in shard_stats
        ),
        "elapsed_seconds": sum(
            s.get("elapsed_seconds", 0.0) for s in shard_stats
        ),
        "shard_stats": shard_stats,
    }


# ----------------------------------------------------------------------
# Manifest + shard-run serialization (the eval/export wire schema)
# ----------------------------------------------------------------------
def shard_to_dict(shard: PlanShard) -> dict:
    return {
        "shard_index": shard.shard_index,
        "num_shards": shard.num_shards,
        "job_indices": list(shard.job_indices),
        "skip_indices": list(shard.skip_indices),
        "config": config_to_dict(shard.plan.config),
        "jobs": [job_to_dict(job) for job in shard.plan.jobs],
        "skipped": [skip_to_dict(skip) for skip in shard.plan.skipped],
    }


def shard_from_dict(row: dict) -> PlanShard:
    return PlanShard(
        shard_index=int(row["shard_index"]),
        num_shards=int(row["num_shards"]),
        job_indices=tuple(int(i) for i in row["job_indices"]),
        skip_indices=tuple(int(i) for i in row["skip_indices"]),
        plan=SweepPlan(
            jobs=[job_from_dict(job) for job in row["jobs"]],
            skipped=[skip_from_dict(skip) for skip in row["skipped"]],
            config=config_from_dict(row["config"]),
        ),
    )


def shard_manifest_to_json(shard: PlanShard, indent: int | None = None) -> str:
    return json.dumps(shard_to_dict(shard), indent=indent)


def load_shard_manifest(payload: str) -> PlanShard:
    return shard_from_dict(json.loads(payload))


def save_shard_result(shard: PlanShard, result: SweepResult, path: str) -> None:
    """Write one executed shard (manifest + result) for a later merge."""
    if not path.endswith(".json"):
        raise ValueError(f"shard results export to .json, got {path!r}")
    payload = {
        "manifest": shard_to_dict(shard),
        "result": sweep_result_to_dict(result),
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload))


def load_shard_result(path: str) -> tuple[PlanShard, SweepResult]:
    """Read a :func:`save_shard_result` file back."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    return (
        shard_from_dict(payload["manifest"]),
        sweep_result_from_dict(payload["result"]),
    )


def merge_shard_files(paths: Sequence[str]) -> SweepResult:
    """Load executed-shard files and merge them (the CLI merge path)."""
    shards = []
    results = []
    for path in paths:
        shard, result = load_shard_result(path)
        shards.append(shard)
        results.append(result)
    return merge_shard_results(shards, results)


__all__ = [
    "PlanShard",
    "ShardPlanner",
    "check_partition",
    "job_ranges",
    "load_shard_manifest",
    "load_shard_result",
    "merge_cache_counters",
    "merge_shard_files",
    "merge_shard_results",
    "merged_stats",
    "save_shard_result",
    "shard_from_dict",
    "shard_manifest_to_json",
    "shard_to_dict",
    "split_result_by_job",
    "unit_slots",
]

"""Shard coordinator: lease-based work distribution with streaming merge.

Sharding makes a sweep distributable, but on its own each worker must
be told its ``--shard-index`` by hand and results are merged offline
from files.  :class:`ShardCoordinator` removes both: one process owns a
complete partition of the plan into
:class:`~repro.service.sharding.PlanShard` units and serves them to
*pull-based* workers over the wire routes (mounted on
:class:`~repro.service.server.ServiceApp` and the asyncio server):

* ``POST /shard/next``    — lease the next pending work unit;
* ``POST /shard/result``  — submit one executed unit's result;
* ``GET  /shard/status``  — progress: unit states, records merged.

The coordinator serves the units it is given; where the plan is cut is
the caller's choice.  :meth:`ShardPlanner.split
<repro.service.sharding.ShardPlanner.split>` gives K strided shards;
:func:`~repro.service.sharding.job_ranges` gives contiguous ranges of
at most N jobs, so one straggling worker holds at most N jobs hostage
and an expired lease re-balances just that range.  Either way a unit is
an ordinary manifest, so workers need no awareness of the cut.

Results are merged *as they stream in*, through the same pieces as
:func:`~repro.service.sharding.merge_shard_results`: the unit set passes
:func:`~repro.service.sharding.check_partition`, each submission is
validated and keyed by plan position with
:func:`~repro.service.sharding.unit_slots`, and :meth:`result` assembles
through :func:`~repro.eval.jobs.assemble_result`, so the final
:class:`~repro.eval.jobs.SweepResult` is record-for-record identical to
a serial run — the shard-merge invariant, made incremental.

Fault tolerance is lease-based: every handout carries a deadline; a
worker that vanishes simply never submits, and once its lease expires
the unit is re-served to the next ``/shard/next`` caller.  Submissions
are validated against the unit's plan (records, errors and skips)
before they are merged.  Lease records are pruned rather than kept
forever: live leases plus a bounded tail of superseded (expired) ones
are remembered exactly, and any other well-formed lease id naming an
already-DONE unit is still acknowledged as a duplicate — a long-lived
fleet's lease churn cannot grow the coordinator without bound.

All methods speak wire-native dicts (the :mod:`repro.eval.export`
codecs), so the HTTP layer stays a dumb JSON shim and in-process tests
drive the identical schema.
"""

from __future__ import annotations

import collections
import re
import threading
import time
from typing import Callable, Sequence

from ..eval.export import sweep_result_from_dict, sweep_result_to_dict
from ..eval.jobs import SweepResult, assemble_result
from ..obs import REGISTRY, record_span
from .sharding import (
    PlanShard,
    check_partition,
    merged_stats,
    shard_from_dict,
    shard_to_dict,
    unit_slots,
)

PENDING = "pending"
LEASED = "leased"
DONE = "done"

#: how many superseded (expired) leases are remembered *per unit*; a
#: lease that sat through this many further expiries of its own unit is
#: forgotten (its submit becomes "unknown lease"), while a DONE unit's
#: leases are dropped entirely and late submits fall back to the
#: well-formed-id duplicate path.  Per-unit (not global) so churn on
#: one unit can never evict another unit's still-salvageable lease;
#: total lease memory stays bounded by cap x incomplete units.
SUPERSEDED_LEASE_CAP = 4

_LEASE_ID_RE = re.compile(r"^lease-\d+-s(\d+)$")


class ShardCoordinator:
    """Serve a complete partition of one plan to pull-based workers;
    merge inline.

    ``shards`` are the work units: every unit of one partition (same
    ``num_shards``, indices ``0..num_shards-1``) covering each job and
    skip position of the plan exactly once — a
    :class:`~repro.service.sharding.ShardPlanner` split or a
    :func:`~repro.service.sharding.job_ranges` cut.  ``lease_seconds``
    bounds how long a handed-out unit may stay unsubmitted before it is
    re-served; ``clock`` is injectable (monotonic seconds) so tests can
    expire leases without waiting.
    """

    def __init__(
        self,
        shards: Sequence[PlanShard],
        lease_seconds: float = 300.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        check_partition(shards)
        if lease_seconds <= 0:
            raise ValueError("lease_seconds must be > 0")
        self.lease_seconds = lease_seconds
        self.clock = clock
        self.units = {shard.shard_index: shard for shard in shards}
        self.num_units = shards[0].num_shards
        self._lock = threading.Lock()
        self._job_slots: dict[int, object] = {}
        self._skip_slots: dict[int, object] = {}
        self._state = {index: PENDING for index in self.units}
        # live leases only (one per LEASED unit): lease_id -> (unit
        # index, worker_id, deadline); expired leases move to the
        # bounded _superseded tail so a slow worker's late submission
        # is still recognised, and a DONE unit's leases are dropped
        # entirely (late submits resolve via the well-formed-id path)
        self._leases: dict[str, tuple[int, str, float]] = {}
        self._superseded: "collections.OrderedDict[str, tuple[int, str, float]]" = (
            collections.OrderedDict()
        )
        self._live_lease: dict[int, str] = {}
        self._lease_counter = 0
        self._results: dict[int, SweepResult] = {}
        self._submitted_by: dict[int, str] = {}
        # per-worker merge aggregates (units/jobs/records/busy seconds/
        # store hits): the signal adaptive lease sizing will feed on
        self._worker_stats: dict[str, dict] = {}
        self._reclaimed = 0

    # ------------------------------------------------------------------
    # Wire API (dict in, dict out — ServiceApp routes call these)
    # ------------------------------------------------------------------
    def next_shard(self, worker_id: str = "anonymous") -> dict:
        """Lease the next pending work unit to ``worker_id``.

        Returns ``{"shard": <manifest>, "lease_id", "shard_index",
        "lease_seconds"}`` when work is available; otherwise ``{"shard":
        None, "done": <bool>, "retry_after": <seconds>}`` — ``done``
        means the whole sweep is merged and the worker can exit, a
        ``retry_after`` hint means every remaining unit is leased to
        someone else right now.
        """
        with self._lock:
            self._reclaim_expired()
            for index in sorted(self._state):
                if self._state[index] is not PENDING:
                    continue
                self._lease_counter += 1
                lease_id = f"lease-{self._lease_counter}-s{index}"
                deadline = self.clock() + self.lease_seconds
                self._leases[lease_id] = (index, worker_id, deadline)
                self._live_lease[index] = lease_id
                self._state[index] = LEASED
                return {
                    "shard": shard_to_dict(self.units[index]),
                    "shard_index": index,
                    "lease_id": lease_id,
                    "lease_seconds": self.lease_seconds,
                    "done": False,
                }
            if all(state is DONE for state in self._state.values()):
                return {"shard": None, "done": True, "retry_after": 0.0}
            now = self.clock()
            remaining = [
                deadline - now
                for index, lease_id in self._live_lease.items()
                if self._state[index] is LEASED
                for (_, _, deadline) in (self._leases[lease_id],)
            ]
            return {
                "shard": None,
                "done": False,
                "retry_after": max(0.05, min(remaining, default=0.05)),
            }

    def submit_result(self, lease_id: str, result: dict) -> dict:
        """Merge one executed unit submitted under ``lease_id``.

        The result payload is :func:`sweep_result_to_dict` output for
        the leased unit's plan.  A submission that does not match the
        plan (wrong record counts, unmatched errors) is rejected with
        ``ValueError`` and the unit stays leased — the worker is
        broken, and the lease clock is already running.
        """
        with self._lock:
            index, _worker = self._resolve_lease_locked(lease_id)
            if self._state[index] is DONE:
                return self._duplicate_locked(index)
        # decode + validate outside the lock: this is CPU work
        # proportional to unit size, and holding the lock through it
        # would stall every /shard/next poll in the fleet
        shard_result, slots = self._decode(index, result)
        with self._lock:
            if self._state[index] is DONE:  # raced a concurrent submit
                return self._duplicate_locked(index)
            entry = self._leases.get(lease_id) or self._superseded.get(
                lease_id
            )
            worker_id = entry[1] if entry is not None else "unknown"
            self._commit_locked(index, worker_id, shard_result, slots)
            return {
                "accepted": True,
                "duplicate": False,
                "shard_index": index,
                "worker_id": worker_id,
                "done": self._done_locked(),
                "remaining": self._remaining_locked(),
            }

    def _decode(
        self, index: int, result: dict
    ) -> tuple[SweepResult, tuple[dict, dict]]:
        """Unit ``index``'s submitted result and its position-keyed
        :func:`~repro.service.sharding.unit_slots`; ``ValueError`` when
        the result does not match the unit's plan."""
        shard_result = sweep_result_from_dict(result)
        return shard_result, unit_slots(self.units[index], shard_result)

    def _commit_locked(
        self, index: int, worker_id: str, shard_result: SweepResult,
        slots: tuple[dict, dict],
    ) -> None:
        """Merge a validated result into the slots and mark unit DONE."""
        jobs, skips = slots
        self._job_slots.update(jobs)
        self._skip_slots.update(skips)
        self._results[index] = shard_result
        self._submitted_by[index] = worker_id
        self._state[index] = DONE
        self._retire_unit_leases_locked(index)
        self._observe_merge_locked(index, worker_id, shard_result)

    # ------------------------------------------------------------------
    @staticmethod
    def _stats_store_hits(stats: dict) -> int:
        """store_hits buried in an executor's stats dict (0 if absent)."""
        cache = stats.get("evaluator_cache")
        if isinstance(cache, dict):
            try:
                return int(cache.get("store_hits", 0))
            except (TypeError, ValueError):
                return 0
        return 0

    def status(self) -> dict:
        """Progress snapshot: per-unit progress, merged records, leases.

        Beyond lease states, each unit row reports its job/record/error
        counts once submitted; ``store_hits`` aggregates the verdict
        -store hits every submitted unit's executor reported — the
        fleet-wide measure of how much simulation the shared cache
        saved.

        Submitted unit rows additionally report per-lease throughput
        (``elapsed_seconds``/``jobs_per_second``), and ``workers``
        aggregates units/jobs/records/store-hits/busy-seconds and
        throughput per worker — the observed-throughput signal the
        adaptive-lease-sizing roadmap item needs.
        """
        with self._lock:
            self._reclaim_expired()
            states = {
                state: sum(1 for s in self._state.values() if s is state)
                for state in (PENDING, LEASED, DONE)
            }
            now = self.clock()
            leases = []
            for index, lease_id in sorted(self._live_lease.items()):
                if self._state[index] is not LEASED:
                    continue
                _, worker_id, deadline = self._leases[lease_id]
                leases.append({
                    "lease_id": lease_id,
                    "shard_index": index,
                    "worker_id": worker_id,
                    "expires_in": round(deadline - now, 3),
                })
            shard_rows = []
            jobs_done = 0
            store_hits = 0
            for index in sorted(self.units):
                unit = self.units[index]
                row = {
                    "shard_index": index,
                    "state": self._state[index],
                    "jobs": len(unit.plan.jobs),
                    "skips": len(unit.plan.skipped),
                }
                result = self._results.get(index)
                if result is not None:
                    jobs_done += len(unit.plan.jobs)
                    store_hits += self._stats_store_hits(result.stats)
                    try:
                        busy = float(
                            result.stats.get("elapsed_seconds", 0.0)
                        )
                    except (TypeError, ValueError):
                        busy = 0.0
                    row.update(
                        records=len(result.sweep),
                        errors=len(result.errors),
                        worker_id=self._submitted_by.get(index),
                        elapsed_seconds=round(busy, 6),
                        jobs_per_second=round(
                            len(unit.plan.jobs) / busy, 4
                        ) if busy > 0 else 0.0,
                    )
                shard_rows.append(row)
            return {
                "num_units": self.num_units,
                "pending": states[PENDING],
                "leased": states[LEASED],
                "done": states[DONE],
                "complete": self._done_locked(),
                "records_merged": sum(
                    len(outcome)
                    for outcome in self._job_slots.values()
                    if isinstance(outcome, list)
                ),
                "jobs_total": sum(
                    len(unit.plan.jobs) for unit in self.units.values()
                ),
                "jobs_done": jobs_done,
                "store_hits": store_hits,
                "shards": shard_rows,
                "leases": leases,
                "leases_reclaimed": self._reclaimed,
                "workers": self._worker_rows_locked(),
            }

    # ------------------------------------------------------------------
    # Local API (the coordinating process)
    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        with self._lock:
            return self._done_locked()

    def result(self) -> SweepResult:
        """The streamed-merge SweepResult (requires every unit done)."""
        with self._lock:
            if not self._done_locked():
                raise ValueError(
                    f"coordinator incomplete: {self._remaining_locked()} "
                    f"of {self.num_units} units outstanding"
                )
            merged = assemble_result(
                self._job_slots,
                self._skip_slots,
                merged_stats(
                    [self._results[index].stats
                     for index in sorted(self._results)],
                    self.num_units,
                    executor="coordinated",
                ),
            )
            merged.stats["leases_reclaimed"] = self._reclaimed
            return merged

    # ------------------------------------------------------------------
    # Checkpointing (restart a coordinator without re-running units)
    # ------------------------------------------------------------------
    def state_to_dict(self) -> dict:
        """Serialize units + completed results (leases do not survive:
        an in-flight lease on restart just expires into a re-serve)."""
        with self._lock:
            return {
                "lease_seconds": self.lease_seconds,
                "shards": [
                    shard_to_dict(self.units[index])
                    for index in sorted(self.units)
                ],
                "completed": {
                    str(index): sweep_result_to_dict(result)
                    for index, result in sorted(self._results.items())
                },
            }

    @classmethod
    def from_state(
        cls,
        state: dict,
        clock: Callable[[], float] = time.monotonic,
    ) -> "ShardCoordinator":
        """Rebuild from :meth:`state_to_dict`: completed units are
        validated and merged as a submission would be; every other unit
        comes back pending, with no lease issued."""
        unknown = sorted(set(state) - {"lease_seconds", "shards", "completed"})
        if unknown:
            # e.g. a job-range count: the completed units it numbers
            # are not the units listed under "shards"
            raise ValueError(
                f"checkpoint has fields a coordinator does not restore: "
                f"{unknown}; start a fresh checkpoint"
            )
        coordinator = cls(
            [shard_from_dict(row) for row in state["shards"]],
            lease_seconds=float(state.get("lease_seconds", 300.0)),
            clock=clock,
        )
        for index, result in sorted(
            state.get("completed", {}).items(), key=lambda kv: int(kv[0])
        ):
            shard_result, slots = coordinator._decode(int(index), result)
            with coordinator._lock:
                coordinator._commit_locked(
                    int(index), "restore", shard_result, slots
                )
        return coordinator

    # ------------------------------------------------------------------
    def _resolve_lease_locked(self, lease_id: str) -> tuple[int, str]:
        """(unit index, worker_id) that ``lease_id`` submits for.

        Live and recently-superseded leases resolve exactly.  A pruned
        lease — its unit completed, or it aged off the superseded tail
        — is still honoured when it is well-formed and names a DONE
        unit: the late worker only needs a duplicate ack to move on.
        Anything else is an unknown lease.
        """
        lease_id = str(lease_id)
        entry = self._leases.get(lease_id) or self._superseded.get(lease_id)
        if entry is not None:
            return entry[0], entry[1]
        match = _LEASE_ID_RE.match(lease_id)
        if match:
            index = int(match.group(1))
            if index in self.units and self._state[index] is DONE:
                return index, "unknown"
        raise ValueError(f"unknown lease {lease_id!r}")

    def _observe_merge_locked(
        self, index: int, worker_id: str, shard_result: SweepResult
    ) -> None:
        """Fold one committed unit into the per-worker aggregates.

        ``busy_seconds`` is the executor-reported wall clock of the
        unit (``stats["elapsed_seconds"]``), so per-worker throughput
        reflects time actually spent executing, not merge latency.
        """
        unit = self.units[index]
        try:
            busy = float(shard_result.stats.get("elapsed_seconds", 0.0))
        except (TypeError, ValueError):
            busy = 0.0
        jobs = len(unit.plan.jobs)
        store_hits = self._stats_store_hits(shard_result.stats)
        row = self._worker_stats.setdefault(
            worker_id,
            {"units": 0, "jobs": 0, "records": 0, "errors": 0,
             "store_hits": 0, "busy_seconds": 0.0},
        )
        row["units"] += 1
        row["jobs"] += jobs
        row["records"] += len(shard_result.sweep)
        row["errors"] += len(shard_result.errors)
        row["store_hits"] += store_hits
        row["busy_seconds"] += busy
        REGISTRY.inc("coordinator_units_merged", worker=worker_id)
        REGISTRY.inc(
            "coordinator_records_merged", len(shard_result.sweep),
            worker=worker_id,
        )
        if busy > 0:
            REGISTRY.observe("unit_seconds", busy, worker=worker_id)
        record_span(
            "unit", busy, worker=worker_id, unit=index, jobs=jobs,
            records=len(shard_result.sweep),
            errors=len(shard_result.errors), store_hits=store_hits,
        )

    def _worker_rows_locked(self) -> list[dict]:
        """Per-worker throughput rows for ``status()`` (sorted)."""
        rows = []
        for worker_id in sorted(self._worker_stats):
            stats = self._worker_stats[worker_id]
            busy = stats["busy_seconds"]
            rows.append(
                {
                    "worker_id": worker_id,
                    **stats,
                    "busy_seconds": round(busy, 6),
                    "jobs_per_second": round(stats["jobs"] / busy, 4)
                    if busy > 0 else 0.0,
                }
            )
        return rows

    def _retire_unit_leases_locked(self, index: int) -> None:
        """Drop every lease record for a DONE unit — late submits for
        it resolve through the well-formed-id duplicate path instead of
        a dictionary that grows with lease churn."""
        live = self._live_lease.pop(index, None)
        if live is not None:
            self._leases.pop(live, None)
        for lease_id in [
            lid for lid, entry in self._leases.items() if entry[0] == index
        ]:
            del self._leases[lease_id]
        for lease_id in [
            lid
            for lid, entry in self._superseded.items()
            if entry[0] == index
        ]:
            del self._superseded[lease_id]

    def _duplicate_locked(self, index: int) -> dict:
        return {
            "accepted": False,
            "duplicate": True,
            "shard_index": index,
            "done": self._done_locked(),
            "remaining": self._remaining_locked(),
        }

    def _reclaim_expired(self) -> None:
        now = self.clock()
        for index, lease_id in list(self._live_lease.items()):
            if self._state[index] is not LEASED:
                continue
            entry = self._leases[lease_id]
            if entry[2] <= now:
                self._state[index] = PENDING
                self._live_lease.pop(index, None)
                # remember the superseded lease (bounded per unit) so
                # the slow worker's eventual submission is recognised
                del self._leases[lease_id]
                self._superseded[lease_id] = entry
                unit_leases = [
                    lid
                    for lid, e in self._superseded.items()
                    if e[0] == index
                ]
                for lid in unit_leases[:-SUPERSEDED_LEASE_CAP]:
                    del self._superseded[lid]
                self._reclaimed += 1

    def _done_locked(self) -> bool:
        return all(state is DONE for state in self._state.values())

    def _remaining_locked(self) -> int:
        return sum(1 for state in self._state.values() if state is not DONE)

    def __repr__(self) -> str:
        status = self.status()
        return (
            f"ShardCoordinator(units={self.num_units}, "
            f"done={status['done']}, leased={status['leased']}, "
            f"pending={status['pending']})"
        )


# ----------------------------------------------------------------------
# Checkpoint files (restart `repro coordinate` without losing shards)
# ----------------------------------------------------------------------
def save_checkpoint(coordinator: ShardCoordinator, path: str) -> None:
    """Write the coordinator state to ``path`` atomically.

    Temp-file + ``os.replace``, so a coordinator killed mid-write leaves
    the previous checkpoint intact — a restart never reads a torn file.
    """
    import json
    import os

    payload = json.dumps(coordinator.state_to_dict())
    temp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write(payload)
        os.replace(temp, path)
    except OSError:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise


def load_checkpoint(
    path: str,
    clock: Callable[[], float] = time.monotonic,
) -> ShardCoordinator:
    """Rebuild a coordinator from a :func:`save_checkpoint` file.

    Completed units come back merged (their submissions replay through
    the normal validation path); units that were pending or leased at
    save time come back pending — an in-flight lease does not survive a
    restart, it is simply re-served.
    """
    import json

    with open(path, encoding="utf-8") as handle:
        state = json.load(handle)
    return ShardCoordinator.from_state(state, clock=clock)


__all__ = [
    "SUPERSEDED_LEASE_CAP",
    "ShardCoordinator",
    "load_checkpoint",
    "save_checkpoint",
]

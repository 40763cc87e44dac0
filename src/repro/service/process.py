"""Process-pool sweep executor for CPU-bound generation/evaluation.

Generation and evaluation are pure Python, so the thread-pool
:class:`~repro.eval.jobs.SweepExecutor` gives record parity but no
speedup — the GIL serializes the compile/simulate work.  This variant
fans the same plan out over ``concurrent.futures.ProcessPoolExecutor``
worker *processes* instead: the backend (which must pickle — the zoo and
stub backends do) is shipped to each worker once via the pool
initializer, each worker builds its own
:class:`~repro.eval.pipeline.Evaluator`, and job outcomes stream back
in plan order so results are byte-identical to a serial run.

In-memory evaluator caches are per-process; pass a
:class:`~repro.eval.store.VerdictStore` (``store=...``) to give every
worker a shared on-disk verdict cache instead of rebuilding the
compile/simulate work per process.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor

from ..backends.base import Backend, BackendError
from ..eval.jobs import (
    Executor,
    GenerationJob,
    JobOutcome,
    ProgressCallback,
    RetryPolicy,
    SweepPlan,
    SweepResult,
    executor_result,
    run_job_with_retry,
)
from ..eval.pipeline import Evaluator
from .sharding import merge_cache_counters

# Per-worker state, installed once by the pool initializer.
_WORKER_BACKEND: Backend | None = None
_WORKER_EVALUATOR: Evaluator | None = None
_WORKER_RETRY: RetryPolicy | None = None


def _init_worker(payload: bytes) -> None:
    global _WORKER_BACKEND, _WORKER_EVALUATOR, _WORKER_RETRY
    (_WORKER_BACKEND, _WORKER_RETRY, store, analysis,
     compile_sim) = pickle.loads(payload)
    _WORKER_EVALUATOR = Evaluator(store=store, analysis=analysis,
                                  compile_sim=compile_sim)


def _run_job(job: GenerationJob) -> tuple[JobOutcome, int, dict]:
    """One job plus this worker's identity and running cache counters.

    The cache_info snapshot rides back with every outcome so the
    coordinating process can report fleet-wide totals: counters are
    monotonic, so the *last* snapshot seen from each worker pid is that
    worker's final tally.
    """
    outcome = run_job_with_retry(
        _WORKER_BACKEND, _WORKER_EVALUATOR, job, _WORKER_RETRY
    )
    return outcome, os.getpid(), dict(_WORKER_EVALUATOR.cache_info)


class ProcessPoolSweepExecutor(Executor):
    """Run a :class:`SweepPlan` across worker processes.

    ``workers`` defaults to the machine's CPU count.  The retry policy
    applies inside each worker (with real ``time.sleep`` backoff — the
    injectable-sleep seam is a thread-executor testing affordance).
    Progress callbacks fire on the coordinating process, in plan order.
    """

    def __init__(
        self,
        backend: Backend,
        workers: int | None = None,
        retry: RetryPolicy | None = None,
        progress: ProgressCallback | None = None,
        store=None,
        analysis: bool = True,
        compile_sim: bool = True,
    ):
        workers = workers if workers is not None else os.cpu_count() or 1
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.backend = backend
        self.workers = workers
        self.retry = retry or RetryPolicy()
        self.progress = progress
        self.store = store
        self.analysis = analysis
        self.compile_sim = compile_sim
        try:
            self._payload = pickle.dumps(
                (backend, self.retry, store, analysis, compile_sim)
            )
        except Exception as exc:  # noqa: BLE001 — report the real cause
            raise BackendError(
                f"backend {backend.name!r} cannot be shipped to worker "
                f"processes (not picklable): {exc}"
            ) from exc

    def run(self, plan: SweepPlan) -> SweepResult:
        started = time.perf_counter()
        total = len(plan.jobs)
        outcomes: list[JobOutcome] = []
        # worker pid -> last cache_info snapshot seen (== final tally)
        worker_caches: dict[int, dict] = {}
        if total:
            chunksize = max(1, total // (self.workers * 4))
            with ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(self._payload,),
            ) as pool:
                for index, (outcome, pid, cache_info) in enumerate(
                    pool.map(_run_job, plan.jobs, chunksize=chunksize)
                ):
                    outcomes.append(outcome)
                    worker_caches[pid] = cache_info
                    if self.progress is not None:
                        self.progress(index + 1, total, plan.jobs[index])
        return executor_result(
            plan,
            outcomes,
            stats={
                "backend": self.backend.name,
                "executor": "process",
                "workers": self.workers,
                "evaluator_cache": merge_cache_counters(
                    worker_caches.values()
                ),
                "elapsed_seconds": time.perf_counter() - started,
            },
        )

"""Stable top-level service facade for generation and evaluation.

The one import most users need::

    from repro.api import Session

    with Session(backend="zoo", workers=4) as session:
        result = session.run_sweep()      # SweepResult
    print(result.stats, len(result.skipped))

A :class:`Session` binds a backend (by name or instance), a shared
thread-safe evaluator and a worker count, then serves sweeps and
single-model evaluations through the job planner/executor of
:mod:`repro.eval.jobs`; closing it (or leaving its ``with`` block)
closes the verdict store's segment and the backend's connections.
Every in-process sweep runs through a :class:`Session`; to evaluate
:class:`~repro.models.LanguageModel` instances, serve them from a local
zoo::

    session = Session(backend=LocalZooBackend([model]))
    result = session.evaluate_model(model.name, problem_numbers=(1, 2))
"""

from __future__ import annotations

from typing import Sequence

from .backends import Backend, resolve_backend
from .eval.harness import Sweep, SweepConfig
from .eval.jobs import (
    Executor,
    ProgressCallback,
    RetryPolicy,
    SweepExecutor,
    SweepPlan,
    SweepPlanner,
    SweepResult,
)
from .eval.pipeline import Evaluator
from .eval.store import resolve_store
from .models.base import Completion, GenerationConfig

EXECUTORS = ("thread", "process")


class Session:
    """A configured generation/evaluation service handle.

    Parameters
    ----------
    backend:
        A :class:`~repro.backends.Backend` instance, a registered
        backend name (``"zoo"``, ``"stub"``, ``"http"``, ...), or
        ``None`` for the default local zoo.
    evaluator:
        Shared across every run of this session, so verdict caching
        accumulates between calls.
    workers:
        Worker-pool width for sweep execution (1 = serial).
    executor:
        ``"thread"`` (default; shared evaluator cache, GIL-bound, and
        ``workers`` requests in flight against a latency-bound remote
        backend) or ``"process"`` (worker processes — real parallelism
        for CPU-bound sweeps; the backend must pickle).
    retry:
        A :class:`~repro.eval.jobs.RetryPolicy` for transient backend
        failures (``None`` = no retries).
    store:
        A :class:`~repro.eval.store.VerdictStore` (or a directory path)
        shared across processes and runs: verdicts persist to disk, so
        process-pool workers, coordinator workers and later sessions
        skip re-compiling completions any of them has seen before.
    repair_budget:
        When > 0, the session's backend is wrapped in a
        :class:`~repro.agentic.RepairingBackend`: every failing sample
        gets up to this many error-conditioned repair rounds (the
        agentic generate → test → repair loop) before its final verdict.
        Everything downstream — executors, sharding, streaming — is
        unchanged; the sweep simply sees the post-repair completions.
    repair:
        A full :class:`~repro.agentic.RepairConfig` when the defaults
        (feedback length, lint hints) need tuning; its ``budget`` wins
        over ``repair_budget``.
    analysis:
        Run the netlist static-analysis gate inside the evaluator
        (default True); only consulted when ``evaluator`` is None —
        an explicit evaluator brings its own setting.
    compile_sim:
        Run bench simulations on the netlist→closure engine
        (:mod:`repro.verilog.codegen`; default True).  Verdicts are
        identical to the interpreter's, so the flag is purely a speed
        switch; like ``analysis`` it is only consulted when
        ``evaluator`` is None.
    """

    def __init__(
        self,
        backend: Backend | str | None = None,
        evaluator: Evaluator | None = None,
        workers: int = 1,
        progress: ProgressCallback | None = None,
        executor: str = "thread",
        retry: RetryPolicy | None = None,
        store=None,
        repair_budget: int = 0,
        repair=None,
        analysis: bool = True,
        compile_sim: bool = True,
    ):
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; choose from {EXECUTORS}"
            )
        if repair_budget < 0:
            raise ValueError(
                f"repair_budget must be >= 0, got {repair_budget}"
            )
        self.backend = resolve_backend(backend)
        self.store = resolve_store(store)
        if evaluator is None:
            evaluator = Evaluator(store=self.store, analysis=analysis,
                                  compile_sim=compile_sim)
        elif self.store is not None and evaluator.store is None:
            evaluator.store = self.store
        self.evaluator = evaluator
        if repair is None and repair_budget > 0:
            from .agentic import RepairConfig

            repair = RepairConfig(budget=repair_budget)
        self.repair = repair
        if repair is not None and repair.budget > 0:
            from .agentic import RepairingBackend

            self.backend = RepairingBackend(
                self.backend,
                repair=repair,
                evaluator=self.evaluator,
                store=self.store,
            )
        self.workers = workers
        self.progress = progress
        self.executor = executor
        self.retry = retry

    # ------------------------------------------------------------------
    def models(self) -> list[str]:
        """Model variants the session's backend serves."""
        return self.backend.models()

    def generate(
        self,
        model: str,
        prompt: str,
        temperature: float = 0.1,
        n: int = 10,
        max_tokens: int = 300,
    ) -> list[Completion]:
        """Raw completions for one prompt (no evaluation)."""
        config = GenerationConfig(
            temperature=temperature, n=n, max_tokens=max_tokens
        )
        return self.backend.generate(model, prompt, config)

    def plan(
        self,
        config: SweepConfig | None = None,
        models: Sequence[str] | None = None,
    ) -> SweepPlan:
        """Expand a sweep into jobs without running it."""
        return SweepPlanner(self.backend).plan(config, models=models)

    def make_executor(self, backend: Backend | None = None) -> Executor:
        """The executor this session is configured for.

        ``backend`` overrides the session backend for this executor
        only (used by :meth:`repair_curve` to run the same sweep at
        several repair budgets).
        """
        backend = backend if backend is not None else self.backend
        if self.executor == "process":
            from .service.process import ProcessPoolSweepExecutor

            return ProcessPoolSweepExecutor(
                backend,
                workers=self.workers,
                retry=self.retry,
                progress=self.progress,
                store=self.store,
                analysis=self.evaluator.analysis,
                compile_sim=self.evaluator.compile_sim,
            )
        return SweepExecutor(
            backend,
            evaluator=self.evaluator,
            workers=self.workers,
            progress=self.progress,
            retry=self.retry,
        )

    def run_plan(self, plan: SweepPlan) -> SweepResult:
        """Execute a previously built plan."""
        return self.make_executor().run(plan)

    def run_sweep(
        self,
        config: SweepConfig | None = None,
        models: Sequence[str] | None = None,
    ) -> SweepResult:
        """Plan and execute a full sweep (Fig. 1) on this session."""
        return self.run_plan(self.plan(config, models=models))

    def evaluate_model(
        self,
        model: str,
        problem_numbers: tuple[int, ...] | None = None,
        temperature: float = 0.1,
        n: int = 10,
        levels: tuple | None = None,
    ) -> SweepResult:
        """One served model at one temperature over selected problems.

        To evaluate a :class:`~repro.models.LanguageModel` instance,
        serve it: ``Session(backend=LocalZooBackend([model]))`` and pass
        ``model.name``.
        """
        if not isinstance(model, str):
            raise TypeError(
                f"evaluate_model takes a served model name, not a "
                f"{type(model).__name__}; serve an instance with "
                f"Session(backend=LocalZooBackend([model])) and pass "
                f"model.name"
            )
        config = SweepConfig(
            temperatures=(temperature,),
            completions_per_prompt=(n,),
            problem_numbers=problem_numbers or SweepConfig().problem_numbers,
            levels=levels or SweepConfig().levels,
        )
        return self.run_sweep(config, models=[model])

    def repair_curve(
        self,
        budgets: Sequence[int] = (0, 1, 2),
        config: SweepConfig | None = None,
        models: Sequence[str] | None = None,
        k: int = 1,
    ) -> dict:
        """Run the same sweep at each repair budget; report the curve.

        The agentic workload's headline: pass@k *versus repair budget*.
        Each budget runs one full sweep over the session's raw backend
        (budget 0 = no repair loop at all), all sharing this session's
        evaluator and verdict store, so later budgets reuse cached
        verdicts for every first-round completion.  Returns::

            {"results": {budget: SweepResult, ...},
             "curve":   [{"budget", "k", "records", "pass_rate",
                          "compile_rate", "pass_at_k", "lift",
                          "lift_per_budget"}, ...]}
        """
        from .agentic import RepairConfig, RepairingBackend
        from .eval.metrics import repair_budget_curve

        raw = getattr(self.backend, "inner", self.backend)
        results: dict[int, SweepResult] = {}
        for budget in sorted(set(int(b) for b in budgets)):
            if budget < 0:
                raise ValueError("repair budgets must be >= 0")
            if budget == 0:
                backend = raw
            else:
                base = self.repair or RepairConfig()
                backend = RepairingBackend(
                    raw,
                    repair=RepairConfig(
                        budget=budget,
                        max_feedback_errors=base.max_feedback_errors,
                        include_lint=base.include_lint,
                    ),
                    evaluator=self.evaluator,
                    store=self.store,
                )
            plan = SweepPlanner(backend).plan(config, models=models)
            results[budget] = self.make_executor(backend).run(plan)
        curve = repair_budget_curve(
            {budget: result.sweep.records
             for budget, result in results.items()},
            k=k,
        )
        return {"results": results, "curve": curve}

    # ------------------------------------------------------------------
    # Distributed entrypoints (repro.service)
    # ------------------------------------------------------------------
    def serve(self, host: str = "127.0.0.1", port: int = 8076):
        """An :class:`~repro.service.aio.server.AsyncEvalService` over
        this session: the JSON routes plus the NDJSON sweep stream
        (``POST /sweep/stream``, read by :meth:`stream_sweep`).  Not
        yet listening — use ``start()``/``stop()`` (daemon thread) or
        ``start_async()`` inside an event loop.
        """
        from .service.aio import AsyncEvalService

        return AsyncEvalService(self, host=host, port=port)

    def stream_sweep(
        self,
        config: SweepConfig | None = None,
        models: Sequence[str] | None = None,
        url: str | None = None,
        on_event=None,
        concurrency: int | None = None,
        timeout: float = 300.0,
    ) -> SweepResult:
        """Run a sweep on a remote streaming service, observing it live.

        ``url`` names the :class:`AsyncEvalService` endpoint; when the
        session's backend is already a service client, its URL is the
        default.  Every event frame is forwarded to ``on_event`` as it
        arrives; the return value is the losslessly reassembled
        :class:`~repro.eval.jobs.SweepResult` (exact record parity with
        a serial run of the same plan server-side).
        """
        if url is None:
            url = getattr(self.backend, "url", None)
            if url is None:
                raise ValueError(
                    "stream_sweep needs a service url (or a session "
                    "backend that carries one, e.g. backend='service')"
                )
        from .service import stream_sweep

        return stream_sweep(
            url,
            config=config,
            models=models,
            on_event=on_event,
            concurrency=concurrency,
            timeout=timeout,
        )

    def plan_shards(
        self,
        num_shards: int,
        config: SweepConfig | None = None,
        models: Sequence[str] | None = None,
    ):
        """Plan a sweep and split it into ``num_shards`` deterministic
        shards (see :mod:`repro.service.sharding`); run one with
        :meth:`run_plan` on ``shard.plan``, merge with
        :func:`~repro.service.sharding.merge_shard_results`."""
        from .service.sharding import ShardPlanner

        return ShardPlanner(num_shards).split(self.plan(config, models=models))

    def coordinate(
        self,
        num_shards: int,
        config: SweepConfig | None = None,
        models: Sequence[str] | None = None,
        host: str = "127.0.0.1",
        port: int = 8076,
        lease_seconds: float = 300.0,
        lease_jobs: int | None = None,
    ):
        """Plan a sweep, cut it into units, and serve them to pull workers.

        Returns an :class:`~repro.service.aio.server.AsyncEvalService`
        whose app carries a
        :class:`~repro.service.coordinator.ShardCoordinator` (reachable
        as ``service.coordinator``).  Not yet listening — call
        ``start()``; point workers at the URL
        with :meth:`work` (or ``python -m repro work --url ...``), and
        read the streamed-merge result from
        ``service.coordinator.result()`` once ``coordinator.done``.

        The coordinator serves the units it is given: ``num_shards``
        strided shards, or with ``lease_jobs=N`` contiguous ranges of
        at most N jobs (``num_shards`` is then unused), so one
        straggler re-balances finely.
        """
        from .service.aio import AsyncEvalService
        from .service.coordinator import ShardCoordinator
        from .service.sharding import ShardPlanner, job_ranges

        plan = self.plan(config, models=models)
        coordinator = ShardCoordinator(
            job_ranges(plan, lease_jobs) if lease_jobs is not None
            else ShardPlanner(num_shards).split(plan),
            lease_seconds=lease_seconds,
        )
        return AsyncEvalService(
            self, host=host, port=port, coordinator=coordinator
        )

    def work(
        self,
        url: str | None = None,
        transport=None,
        worker_id: str | None = None,
        poll_seconds: float = 0.5,
        max_idle_polls: int | None = None,
    ) -> dict:
        """Serve a coordinator as a pull-based worker until it is done.

        Work units execute on *this* session's configuration (backend,
        executor, workers, retry, verdict store); returns
        the worker summary dict from
        :func:`~repro.service.client.run_worker`.  With the thread
        executor, ``workers`` bounds how many of a unit's jobs are in
        flight at once, which hides a remote generation backend's
        latency.
        """
        from .service.client import run_worker

        return run_worker(
            url=url,
            transport=transport,
            session=self,
            worker_id=worker_id,
            poll_seconds=poll_seconds,
            max_idle_polls=max_idle_polls,
        )

    # ------------------------------------------------------------------
    @property
    def cache_info(self) -> dict:
        """The shared evaluator's cache statistics."""
        return self.evaluator.cache_info

    def close(self) -> None:
        """Close the verdict store's files and the backend's connections.

        Idempotent, and the session stays usable: a later put opens a
        new store segment and a later request a new connection.
        """
        if self.store is not None:
            self.store.close()
        self.backend.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def metrics(self) -> list[dict]:
        """A snapshot of the process :mod:`repro.obs` registry — the
        same rows ``GET /metrics`` serves (stage timings, job latency,
        cache hit counters accumulate across everything this process
        ran, not just this session)."""
        from .obs import REGISTRY

        return REGISTRY.snapshot()

    def __repr__(self) -> str:
        return (
            f"Session(backend={self.backend.name!r}, "
            f"executor={self.executor!r}, workers={self.workers})"
        )


__all__ = [
    "EXECUTORS",
    "RetryPolicy",
    "Session",
    "Sweep",
    "SweepConfig",
    "SweepResult",
]

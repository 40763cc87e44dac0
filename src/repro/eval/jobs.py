"""Job-based sweep service: planner and parallel executors.

The paper's Fig.-1 sweep is a cross product
(model x problem x level x temperature x n).  :class:`SweepPlanner`
expands a :class:`~repro.eval.harness.SweepConfig` into a flat list of
:class:`GenerationJob`s up front, consulting each backend's capability
claims so that unsupported combinations (e.g. J1's rejected n=25,
Sec. IV-B) become explicit :class:`SkippedJob` records instead of
silently swallowed exceptions.  :class:`SweepExecutor` then runs the
jobs — serially or through a ``concurrent.futures`` thread pool — against
a shared thread-safe :class:`~repro.eval.pipeline.Evaluator`, with
per-job error capture, a configurable :class:`RetryPolicy` for transient
backend failures, progress callbacks, and a per-job observer hook.

Every executor implements the :class:`Executor` interface (``run(plan)
-> SweepResult``); :class:`~repro.service.process.ProcessPoolSweepExecutor`
is the process-pool variant for CPU-bound sweeps that the GIL would
otherwise serialize.  The job-level helpers (:func:`evaluate_job`,
:func:`run_job_with_retry`) are module-level functions so process
workers can share them with the thread pool.

Job expansion follows the legacy loop's nesting order, and
:func:`assemble_result` is the one builder of a :class:`SweepResult`:
the thread and process executors, the shard merge, the coordinator and
the streamed sweep all hand it outcomes keyed by plan position, so a
parallel, sharded or streamed run produces byte-identical record lists
to a serial one (the acceptance parity check).
"""

from __future__ import annotations

import abc
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

from ..backends.base import Backend, BackendError
from ..models.base import GenerationConfig
from ..obs import REGISTRY, job_tags, observe_stage, record_span
from ..problems import Problem, PromptLevel, get_problem
from .harness import CompletionRecord, Sweep, SweepConfig
from .pipeline import Evaluator


@dataclass(frozen=True)
class GenerationJob:
    """One (model, problem, level, temperature, n) generation unit."""

    model: str
    base_model: str
    fine_tuned: bool
    problem: int
    level: PromptLevel
    temperature: float
    n: int
    max_tokens: int

    def generation_config(self) -> GenerationConfig:
        return GenerationConfig(
            temperature=self.temperature, n=self.n, max_tokens=self.max_tokens
        )


@dataclass(frozen=True)
class SkippedJob:
    """A combination the planner excluded, with the visible reason."""

    model: str
    problem: int
    level: PromptLevel
    temperature: float
    n: int
    reason: str


@dataclass(frozen=True)
class JobError:
    """A job that failed at runtime; the sweep carries on without it.

    ``attempts`` counts how many times the executor tried the job before
    giving up (1 unless a :class:`RetryPolicy` allowed retries).

    The structured fields classify the failure without string scraping:
    ``stage`` is ``"backend"`` when generation failed and ``""``
    otherwise, and ``exception`` is the raising exception's class name.
    A completion that fails to compile or simulate is a verdict
    (:class:`~repro.eval.pipeline.CompletionEvaluation`), never a job
    error, so no Verilog stage or source line appears here.

    ``attempt_seconds`` is the per-attempt elapsed wall clock (one entry
    per attempt, in order) and ``backoff_seconds`` the total backoff the
    retry policy scheduled between them — together they make retry
    storms visible in traces instead of hiding behind a bare count.
    Both are observational wall-clock metadata and excluded from
    equality, so serial/sharded/streamed runs of the same plan still
    compare record-for-record identical (the parity invariant).
    """

    job: GenerationJob
    error: str
    attempts: int = 1
    stage: str = ""
    exception: str = ""
    attempt_seconds: tuple[float, ...] = field(default=(), compare=False)
    backoff_seconds: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class JobFailure:
    """Structured failure payload carried inside a :data:`JobOutcome`.

    Executors build one via :func:`failure_from_exception`, so
    :func:`executor_result` can populate the structured
    :class:`JobError` fields.
    """

    message: str
    stage: str = ""
    exception: str = ""
    attempt_seconds: tuple[float, ...] = field(default=(), compare=False)
    backoff_seconds: float = field(default=0.0, compare=False)

    def __str__(self) -> str:
        return self.message


def failure_from_exception(exc: BaseException) -> JobFailure:
    """Classify an exception into a :class:`JobFailure`: backend
    trouble is stage ``"backend"``, anything else stage ``""``."""
    return JobFailure(
        message=f"{type(exc).__name__}: {exc}",
        stage="backend" if isinstance(exc, BackendError) else "",
        exception=type(exc).__name__,
    )


def make_job_error(
    job: GenerationJob, failure: JobFailure, attempts: int
) -> JobError:
    """The :class:`JobError` of ``job`` failing with ``failure``."""
    return JobError(
        job=job,
        error=failure.message,
        attempts=attempts,
        stage=failure.stage,
        exception=failure.exception,
        attempt_seconds=failure.attempt_seconds,
        backoff_seconds=failure.backoff_seconds,
    )


@dataclass(frozen=True)
class RetryPolicy:
    """Retry transient backend failures with deterministic backoff.

    Only :class:`~repro.backends.base.BackendError` is considered
    transient (a flaky remote endpoint); anything else — evaluator bugs,
    invalid configs — fails the job on the first attempt.  The delay
    before retry ``k`` (1-based) is
    ``backoff_seconds * backoff_multiplier ** (k - 1)``; executors take
    an injectable ``sleep`` so tests can assert the schedule without
    waiting it out.
    """

    max_attempts: int = 1
    backoff_seconds: float = 0.0
    backoff_multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_seconds < 0:
            raise ValueError("backoff_seconds must be >= 0")
        if self.backoff_multiplier < 1:
            raise ValueError("backoff_multiplier must be >= 1")

    def delay(self, failures: int) -> float:
        """Seconds to wait after the ``failures``-th failed attempt."""
        return self.backoff_seconds * self.backoff_multiplier ** (failures - 1)


@dataclass
class SweepPlan:
    """Planner output: what will run and what was skipped, and why."""

    jobs: list[GenerationJob] = field(default_factory=list)
    skipped: list[SkippedJob] = field(default_factory=list)
    config: SweepConfig = field(default_factory=SweepConfig)

    def __len__(self) -> int:
        return len(self.jobs)

    @property
    def completions_planned(self) -> int:
        return sum(job.n for job in self.jobs)

    def subset(
        self,
        job_indices: Sequence[int],
        skip_indices: Sequence[int] = (),
    ) -> SweepPlan:
        """A sub-plan holding the selected jobs/skips (the shard hook).

        Indices are positions into ``jobs``/``skipped``; the sub-plan
        preserves their relative order, so executing it yields records
        in the same order a serial run would produce for those jobs.
        """
        return SweepPlan(
            jobs=[self.jobs[i] for i in job_indices],
            skipped=[self.skipped[i] for i in skip_indices],
            config=self.config,
        )


class SweepPlanner:
    """Expand a :class:`SweepConfig` into a flat job list for a backend."""

    def __init__(self, backend: Backend):
        self.backend = backend

    def plan(
        self,
        config: SweepConfig | None = None,
        models: Sequence[str] | None = None,
    ) -> SweepPlan:
        """Jobs for ``models`` (default: everything the backend serves).

        Expansion follows the legacy harness nesting order — model,
        problem, level, temperature, n — so executor output stays
        record-for-record comparable with the old serial loop.
        """
        config = config or SweepConfig()
        names = list(models) if models is not None else self.backend.models()
        plan = SweepPlan(config=config)
        problems = config.problems()
        for name in names:
            capabilities = self.backend.capabilities(name)
            base_model, fine_tuned = self.backend.identity(name)
            max_tokens = min(config.max_tokens, capabilities.max_tokens)
            for problem in problems:
                for level in config.levels:
                    for temperature in config.temperatures:
                        for n in config.completions_per_prompt:
                            reason = self._unsupported_reason(
                                name, capabilities, temperature, n, max_tokens
                            )
                            if reason is not None:
                                plan.skipped.append(
                                    SkippedJob(
                                        model=name,
                                        problem=problem.number,
                                        level=level,
                                        temperature=temperature,
                                        n=n,
                                        reason=reason,
                                    )
                                )
                                continue
                            plan.jobs.append(
                                GenerationJob(
                                    model=name,
                                    base_model=base_model,
                                    fine_tuned=fine_tuned,
                                    problem=problem.number,
                                    level=level,
                                    temperature=temperature,
                                    n=n,
                                    max_tokens=max_tokens,
                                )
                            )
        return plan

    @staticmethod
    def _unsupported_reason(
        model: str,
        capabilities,
        temperature: float,
        n: int,
        max_tokens: int,
    ) -> str | None:
        if n == 25 and not capabilities.supports_n25:
            return f"{model} does not support n=25 (paper Sec. IV-B)"
        try:
            GenerationConfig(temperature=temperature, n=n, max_tokens=max_tokens)
        except ValueError as exc:
            return str(exc)
        return None


ProgressCallback = Callable[[int, int, GenerationJob], None]

#: (records, failure or None, attempts) for one executed job;
#: ``None`` in the failure slot means the job succeeded.
JobOutcome = tuple[list[CompletionRecord], "JobFailure | None", int]

#: ``observer(index, job, outcome, seconds)`` watches a
#: :class:`SweepExecutor` run job by job; ``index`` is the job's plan
#: position and ``outcome`` is ``None`` when the job starts.
JobObserver = Callable[[int, GenerationJob, "JobOutcome | None", float], None]


@dataclass
class SweepResult:
    """Executor output: records plus everything that did not happen."""

    sweep: Sweep
    skipped: list[SkippedJob] = field(default_factory=list)
    errors: list[JobError] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.sweep)


# ----------------------------------------------------------------------
# Job-level helpers (module-level so process-pool workers can use them)
# ----------------------------------------------------------------------
def evaluate_job(
    backend: Backend, evaluator: Evaluator, job: GenerationJob
) -> list[CompletionRecord]:
    """Generate and evaluate one job (no error capture)."""
    problem = get_problem(job.problem)
    started = time.perf_counter()
    completions = backend.generate(
        job.model, problem.prompt(job.level), job.generation_config()
    )
    observe_stage(
        "generate",
        time.perf_counter() - started,
        problem=job.problem,
        model=job.model,
    )
    records = []
    for index, completion in enumerate(completions):
        outcome = evaluator.evaluate(problem, completion.text, job.level)
        records.append(
            CompletionRecord(
                model=job.model,
                base_model=job.base_model,
                fine_tuned=job.fine_tuned,
                problem=problem.number,
                difficulty=problem.difficulty,
                level=job.level,
                temperature=job.temperature,
                n=job.n,
                sample_index=index,
                compiled=outcome.compiled,
                passed=outcome.passed,
                inference_seconds=completion.inference_seconds,
            )
        )
    return records


def run_job_with_retry(
    backend: Backend,
    evaluator: Evaluator,
    job: GenerationJob,
    retry: RetryPolicy | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> JobOutcome:
    """Run one job under a retry policy; never raises.

    Each job runs inside its own trace context (:func:`job_tags`), so
    every span recorded below — generation, evaluator stages, repair
    rounds — carries the job's model/problem.  Attempt wall clock and
    scheduled backoff land on the :class:`JobFailure` (and from there
    the :class:`JobError`), and the whole job feeds the always-on
    ``job_seconds`` latency histogram.
    """
    retry = retry or RetryPolicy()
    attempt_seconds: list[float] = []
    backoff_total = 0.0
    job_started = time.perf_counter()
    outcome: JobOutcome | None = None
    with job_tags(model=job.model, problem=job.problem):
        for attempt in range(1, retry.max_attempts + 1):
            attempt_started = time.perf_counter()
            try:
                records = evaluate_job(backend, evaluator, job)
                attempt_seconds.append(time.perf_counter() - attempt_started)
                outcome = (records, None, attempt)
                break
            except BackendError as exc:  # transient: retry with backoff
                attempt_seconds.append(time.perf_counter() - attempt_started)
                if attempt < retry.max_attempts:
                    delay = retry.delay(attempt)
                    backoff_total += delay
                    if delay > 0:
                        sleep(delay)
                    continue
                outcome = ([], _timed_failure(
                    exc, attempt_seconds, backoff_total), attempt)
                break
            except Exception as exc:  # noqa: BLE001 — per-job isolation
                attempt_seconds.append(time.perf_counter() - attempt_started)
                outcome = ([], _timed_failure(
                    exc, attempt_seconds, backoff_total), attempt)
                break
    assert outcome is not None
    seconds = time.perf_counter() - job_started
    REGISTRY.observe("job_seconds", seconds)
    record_span(
        "job",
        seconds,
        model=job.model,
        problem=job.problem,
        level=str(job.level.value),
        outcome="error" if outcome[1] is not None else "ok",
        attempts=outcome[2],
    )
    return outcome


def _timed_failure(
    exc: BaseException, attempt_seconds: Sequence[float], backoff: float
) -> JobFailure:
    """Classify ``exc`` and attach the retry-loop timing observations."""
    failure = failure_from_exception(exc)
    return replace(
        failure,
        attempt_seconds=tuple(attempt_seconds),
        backoff_seconds=backoff,
    )


def assemble_result(
    jobs: Mapping[int, "list[CompletionRecord] | JobError"],
    skipped: Mapping[int, SkippedJob],
    stats: dict,
) -> SweepResult:
    """Build a :class:`SweepResult` from outcomes keyed by plan position.

    ``jobs`` maps job positions to records or a :class:`JobError`,
    ``skipped`` skip positions to skips; both must run gap-free from 0
    (``ValueError`` otherwise).  Records, errors and skips come out in
    plan order, and ``stats`` gains the counts ``jobs``,
    ``jobs_failed``, ``jobs_skipped`` and ``records``.
    """
    for name, slots in (("job", jobs), ("skip", skipped)):
        if set(slots) != set(range(len(slots))):
            missing = set(range(max(slots) + 1)) - set(slots)
            raise ValueError(
                f"incomplete result: {name} positions {sorted(missing)} "
                f"missing (positions must run gap-free from 0)"
            )
    sweep = Sweep()
    errors: list[JobError] = []
    for index in range(len(jobs)):
        outcome = jobs[index]
        if isinstance(outcome, JobError):
            errors.append(outcome)
        else:
            sweep.extend(outcome)
    stats = dict(stats)
    stats.update(jobs=len(jobs), jobs_failed=len(errors),
                 jobs_skipped=len(skipped), records=len(sweep))
    skips = [skipped[index] for index in range(len(skipped))]
    return SweepResult(sweep=sweep, skipped=skips, errors=errors, stats=stats)


def executor_result(
    plan: SweepPlan, outcomes: Sequence[JobOutcome], stats: dict
) -> SweepResult:
    """Plan-ordered executor outcomes through :func:`assemble_result`,
    plus the ``attempts`` total the executors report."""
    result = assemble_result({
        index: records if failure is None
        else make_job_error(job, failure, attempts)
        for index, (job, (records, failure, attempts))
        in enumerate(zip(plan.jobs, outcomes))
    }, dict(enumerate(plan.skipped)), stats)
    result.stats["attempts"] = sum(outcome[2] for outcome in outcomes)
    return result


class Executor(abc.ABC):
    """Common interface every sweep executor variant implements."""

    @abc.abstractmethod
    def run(self, plan: SweepPlan) -> SweepResult:
        """Execute every job; capture per-job failures instead of dying."""


class SweepExecutor(Executor):
    """Run a :class:`SweepPlan` through a thread pool.

    ``workers <= 1`` runs the jobs inline; anything higher fans out over
    a thread pool (generation and evaluation are pure Python but the
    evaluator cache is shared and thread-safe, so identical completions
    are only compiled once across the whole pool).  Results are
    reassembled in plan order regardless of completion order.

    ``observer`` (a :data:`JobObserver`) is called with ``outcome=None``
    as each job starts, then with the job's outcome and wall seconds as
    it finishes.  Calls are serialized under one lock.  An exception
    from the observer ends the run: it propagates out of :meth:`run`,
    and a job whose start it refuses never generates (jobs already in
    flight finish first).
    """

    def __init__(
        self,
        backend: Backend,
        evaluator: Evaluator | None = None,
        workers: int = 1,
        progress: ProgressCallback | None = None,
        retry: RetryPolicy | None = None,
        sleep: Callable[[float], None] = time.sleep,
        observer: JobObserver | None = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.backend = backend
        self.evaluator = evaluator or Evaluator()
        self.workers = workers
        self.progress = progress
        self.retry = retry or RetryPolicy()
        self.sleep = sleep
        self.observer = observer

    def run(self, plan: SweepPlan) -> SweepResult:
        """Execute every job; capture per-job failures instead of dying."""
        started = time.perf_counter()
        total = len(plan.jobs)
        done = 0
        lock = threading.Lock()
        observer = self.observer

        def attempt(index: int, job: GenerationJob) -> JobOutcome:
            nonlocal done
            if observer is not None:
                with lock:
                    observer(index, job, None, 0.0)
            job_started = time.perf_counter()
            outcome = run_job_with_retry(
                self.backend, self.evaluator, job, self.retry, self.sleep
            )
            seconds = time.perf_counter() - job_started
            if observer is not None or self.progress is not None:
                with lock:
                    done += 1
                    if observer is not None:
                        observer(index, job, outcome, seconds)
                    if self.progress is not None:
                        self.progress(done, total, job)
            return outcome

        if self.workers == 1:
            outcomes = list(map(attempt, range(total), plan.jobs))
        else:
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                outcomes = list(pool.map(attempt, range(total), plan.jobs))

        return executor_result(
            plan,
            outcomes,
            stats={
                "backend": self.backend.name,
                "executor": "thread",
                "workers": self.workers,
                "evaluator_cache": dict(self.evaluator.cache_info),
                "elapsed_seconds": time.perf_counter() - started,
            },
        )

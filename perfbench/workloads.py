"""The benchmark's workloads, built on the program's public API.

Each workload has three phases:

* ``setup()`` - program set-up the user pays once: backend, session,
  plan and, for the fleet, a coordinator start (timed as ``setup_s``;
  ``close()`` then releases what it started);
* ``reference()`` - the benchmark's own known answers: every record the
  sweep must produce, built from the backend's completions and the
  known-answer rules, never from the evaluator;
* iterations - ``prepare()`` (untimed: fresh evaluator, coordinator,
  store), ``run()`` (timed: the sweep itself) and ``finish()``.

Importing this module imports the program; the runner re-imports both
when it measures set-up.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
from time import perf_counter

from repro.api import Session
from repro.backends import Backend, LocalZooBackend
from repro.eval.harness import CompletionRecord, SweepConfig
from repro.eval.pipeline import Evaluator
from repro.eval.store import VerdictStore
from repro.models.base import Completion
from repro.problems import ALL_PROBLEMS, PromptLevel, get_problem

from known import PASS, TEST_FAIL, VERDICT_FIELDS, known_verdict

#: the paper's Fig. 1 sweep: 11 zoo variants x 2 temperatures x 3 levels
#: x 17 problems x n=10 = 11,220 records
PAPER_CONFIG = SweepConfig(temperatures=(0.1, 0.5))
#: 2 models x 17 problems x 3 levels x n=10 = 1,020 evaluations
FUNCTIONAL_CONFIG = SweepConfig(temperatures=(0.1,))
#: jobs per fleet lease: the paper sweep's 1,122 jobs become 22 leases
LEASE_JOBS = 51


class LatencyProbe(Evaluator):
    """An evaluator that times every call the in-memory cache missed.

    Those calls are fresh evaluations, or verdict-store reads when a
    warm store answers them; ``samples`` collects (input, start,
    seconds), the input being the problem number and completion text.
    """

    def __init__(self, samples: list, **kwargs):
        super().__init__(**kwargs)
        self.samples = samples

    def evaluate(self, problem, completion, level=PromptLevel.LOW):
        hits = self.cache_hits
        started = perf_counter()
        result = super().evaluate(problem, completion, level)
        elapsed = perf_counter() - started
        if self.cache_hits == hits:
            self.samples.append(((problem.number, completion), started,
                                 elapsed))
        return result


class FunctionalBackend(Backend):
    """Serves only completions that compile, each text distinct.

    Every completion is a problem's canonical body or one of its wrong
    variants under a seeded comment line, so the evaluator's cache never
    hits and the answer is known by construction.
    """

    name = "functional"
    MODELS = ("bodies-a", "bodies-b")

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._prompts = {
            problem.prompt(level): (problem, level)
            for problem in ALL_PROBLEMS for level in PromptLevel
        }
        self._levels = list(PromptLevel)

    def models(self) -> list[str]:
        return list(self.MODELS)

    def choose(self, model, problem, level, index, n):
        """(body, verdict) of completion ``index`` of one request."""
        bodies = [(problem.canonical_body, PASS)]
        bodies += [(v.body, TEST_FAIL) for v in problem.wrong_variants]
        slot = (self.MODELS.index(model) * len(self._levels)
                + self._levels.index(level)) * n + index
        return bodies[(slot + self.seed) % len(bodies)]

    def generate(self, model, prompt, config):
        problem, level = self._prompts[prompt]
        completions = []
        for index in range(config.n):
            body, _ = self.choose(model, problem, level, index, config.n)
            tag = hashlib.blake2b(
                f"{self.seed}|{model}|{problem.number}|{level.value}|"
                f"{config.temperature}|{index}".encode(), digest_size=8,
            ).hexdigest()
            text = f"// sample {tag}\n{body}"
            completions.append(Completion(text=text, tokens=len(text) // 4))
        return completions


class Workload:
    """One workload at one seed; see the module docstring."""

    name = ""
    #: the sweep this workload runs (tests pass a smaller one)
    CONFIG = PAPER_CONFIG

    def __init__(self, seed: int, workdir: str,
                 config: SweepConfig | None = None):
        self.seed = seed
        self.workdir = workdir
        self.config = config or self.CONFIG
        self.samples: list[tuple[tuple[int, str], float, float]] = []
        #: Session progress callback for the sweeps (the host-speed probe)
        self.progress = None

    def make_backend(self) -> Backend:
        return LocalZooBackend(seed=self.seed)

    def expected_verdict(self, job, index, completion) -> str:
        return known_verdict(get_problem(job.problem), completion.text)

    def setup(self) -> None:
        self.backend = self.make_backend()
        self.plan = Session(backend=self.backend).plan(self.config)

    def reference(self) -> list:
        """Every record the sweep must produce, in plan order."""
        records = []
        for job in self.plan.jobs:
            problem = get_problem(job.problem)
            completions = self.backend.generate(
                job.model, problem.prompt(job.level), job.generation_config())
            for index, completion in enumerate(completions):
                compiled, passed = VERDICT_FIELDS[
                    self.expected_verdict(job, index, completion)]
                records.append(CompletionRecord(
                    model=job.model, base_model=job.base_model,
                    fine_tuned=job.fine_tuned, problem=problem.number,
                    difficulty=problem.difficulty, level=job.level,
                    temperature=job.temperature, n=job.n,
                    sample_index=index, compiled=compiled, passed=passed,
                    inference_seconds=completion.inference_seconds,
                ))
        return records

    def evaluator(self, **kwargs) -> LatencyProbe:
        return LatencyProbe(self.samples, **kwargs)

    def prepare(self):
        return Session(backend=self.backend, evaluator=self.evaluator(),
                       progress=self.progress)

    def run(self, session):
        return session.run_plan(self.plan)

    def finish(self, prepared) -> None:
        pass

    def close(self) -> None:
        """Release what ``setup()`` started (outside the set-up timing)."""


class PaperSweep(Workload):
    """The paper's sweep on the calibrated zoo: serial, no store."""

    name = "paper-sweep"


class Functional(Workload):
    """Every completion compiles and is distinct; the cache never hits."""

    name = "functional"
    CONFIG = FUNCTIONAL_CONFIG

    def make_backend(self) -> Backend:
        return FunctionalBackend(self.seed)

    def expected_verdict(self, job, index, completion) -> str:
        problem = get_problem(job.problem)
        return self.backend.choose(job.model, problem, job.level, index,
                                   job.n)[1]


class FleetCold(Workload):
    """The paper sweep leased out by a localhost coordinator to one
    worker on the main thread; every verdict is computed and written to
    a fresh, empty verdict store."""

    name = "fleet-cold"

    def setup(self) -> None:
        super().setup()
        self.service = self.start_coordinator()

    def close(self) -> None:
        self.service.stop()

    def start_coordinator(self):
        service = Session(backend=self.backend).coordinate(
            1, self.config, port=0, lease_jobs=LEASE_JOBS)
        service.start()
        return service

    def prepare(self):
        service = self.start_coordinator()
        store = VerdictStore(
            tempfile.mkdtemp(prefix="store-", dir=self.workdir))
        worker = Session(backend=self.backend,
                         evaluator=self.evaluator(store=store), store=store,
                         progress=self.progress)
        return service, worker

    def run(self, prepared):
        service, worker = prepared
        worker.work(url=service.url, poll_seconds=0.05)
        return service.coordinator.result()

    def finish(self, prepared) -> None:
        service, worker = prepared
        service.stop()
        shutil.rmtree(worker.store.path, ignore_errors=True)


WORKLOADS = {w.name: w for w in (PaperSweep, Functional, FleetCold)}

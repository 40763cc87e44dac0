"""Per-completion evaluation: compile gate + functional test bench.

Mirrors the paper's analysis pipeline (Fig. 1, step 8): truncate the
completion, compile it with the Verilog frontend (Icarus stand-in), and —
when it compiles — simulate the problem's test bench and grep the output
for the pass marker.

Evaluations are cached by (problem, truncated completion text): the paper
notes LLMs "tend to provide similar responses when several completions
per prompt are requested", so the cache collapses most of the sweep's
work, exactly like memoizing ``iverilog`` runs on identical files.  The
prompt level stays out of the key: the MEDIUM and HIGH prompts are the
LOW prompt plus comment lines, so the verdict is the same and only the
source lines past the prompt move.  Cached and stored evaluations keep
LOW-prompt line numbers, and :meth:`Evaluator.evaluate` shifts them to
the requested level's numbering on the way out.

Each prompt is lexed and parsed once per evaluator
(:func:`~repro.verilog.parser.prompt_prefix`); a fresh evaluation lexes
and parses only the completion, from the line after the prompt's.
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass, replace

from ..models.base import stable_hash
from ..obs import REGISTRY, observe_stage
from ..obs.profile import SimProfiler, maybe_sim_profiler, record_profile
from ..problems import PASS_MARKER, Problem, PromptLevel
from ..problems.spec import completion_source
from ..verilog import (
    Finding,
    SourceUnit,
    analyze_design,
    compile_design,
    error_findings,
    lint_source_unit,  # noqa: F401 - unused; perfbench/tracing.py wraps it
    simulate_unit,
)
from ..verilog.compile import prepare_bench
from ..verilog.elaborate import BenchTemplate
from ..verilog.parser import PromptPrefix, prompt_prefix
from .truncate import truncate_completion


@dataclass(frozen=True, slots=True)
class CompletionEvaluation:
    """Verdict for one completion.

    ``stage`` names the phase that rejected it — ``"parse"``,
    ``"elaborate"``, ``"analysis"`` (static netlist gate), ``"sim"``
    (runtime crash inside the bench) or ``"testbench"`` (ran but failed
    the checks); ``""`` on a pass.  ``error_line`` is the first
    diagnostic's source line when the frontend knew it (0 otherwise).
    Both exist so repair prompts and reports read structured fields
    instead of scraping error strings.

    ``findings`` carries the netlist analysis results
    (:class:`~repro.verilog.analyze.Finding`) for any completion that
    reached elaboration; warnings/infos are advisory and never flip the
    verdict, error findings short-circuit at ``stage="analysis"``.
    """

    compiled: bool
    passed: bool
    compile_errors: tuple[str, ...] = ()
    sim_finished: bool = False
    stage: str = ""
    error_line: int = 0
    findings: tuple[Finding, ...] = ()

    @property
    def verdict(self) -> str:
        if not self.compiled:
            return "compile-error"
        return "pass" if self.passed else "test-fail"


#: the source line a compile error or finding string starts with
_LINE_PREFIX = re.compile(r"^((?:runtime: )?line )(\d+)")

#: the line test benches are parsed from: past any completion's last
#: line, so one parsed and elaborated bench serves every completion and
#: its lines are moved to follow the completion's when reported
_BENCH_LINE = 1 << 31


def _move_line(after: int, delta: int):
    """``re.sub`` replacement moving a ``line N`` prefix past ``after``
    by ``delta``."""

    def move(match: re.Match) -> str:
        number = int(match.group(2))
        return match.group(1) + str(
            number + delta if number > after else number)

    return move


def _shift_lines(evaluation: CompletionEvaluation, after: int,
                 delta: int) -> CompletionEvaluation:
    """``evaluation`` with every source line past ``after`` moved by
    ``delta``: ``error_line``, the ``line N`` of each compile error and
    each finding's line."""
    line = evaluation.error_line
    errors, findings = evaluation.compile_errors, evaluation.findings
    if not delta or (line <= after and not errors and not findings):
        return evaluation
    move = _move_line(after, delta)
    return CompletionEvaluation(
        compiled=evaluation.compiled, passed=evaluation.passed,
        compile_errors=tuple(_LINE_PREFIX.sub(move, error, count=1)
                             for error in errors),
        sim_finished=evaluation.sim_finished, stage=evaluation.stage,
        error_line=line + delta if line > after else line,
        findings=tuple(replace(finding, line=finding.line + delta)
                       if finding.line > after else finding
                       for finding in findings),
    )


def _moved_report(report, after: int, delta: int):
    """``report`` with its line and the ``line N`` of each error moved
    by ``delta`` when past ``after``."""
    if report.line > after:
        report.line += delta
    move = _move_line(after, delta)
    report.errors = [_LINE_PREFIX.sub(move, error, count=1)
                     for error in report.errors]
    return report


@dataclass(frozen=True, slots=True)
class _Prompt:
    """What an evaluator keeps per prompt text: how many source lines
    the prompt takes in :meth:`Problem.full_source`, and the prompt
    parsed once for each completion's parse to continue from (None when
    it cannot be; see :func:`~repro.verilog.parser.prompt_prefix`)."""

    lines: int
    prefix: PromptPrefix | None


class Evaluator:
    """Caching compile+simulate evaluator.

    Thread-safe: the cache is guarded by a lock so one instance can be
    shared across a :class:`~repro.eval.jobs.SweepExecutor` worker pool.
    Two workers racing on the same uncached key may both evaluate it
    (evaluation is pure, so both compute the identical verdict); the
    lock only protects the cache dict and the hit/miss counters.  Each
    problem's test bench is parsed, elaborated and lowered once into a
    template that one simulation uses at a time (see
    :meth:`_run_bench`).  Idle templates wait in a per-problem pool: a
    worker checks one out under the lock and builds another when all
    are in use, so concurrent workers never share one.

    ``store`` is an optional :class:`~repro.eval.store.VerdictStore`
    consulted between the in-memory cache and a real compile+simulate:
    a hit there costs one small file read instead of a simulation, and
    every fresh verdict is written back, so evaluators in other
    processes (process-pool workers, coordinator workers, later runs)
    share the work.
    """

    def __init__(
        self,
        max_time: int = 1_000_000,
        max_steps: int = 2_000_000,
        store=None,
        analysis: bool = True,
        compile_sim: bool = True,
    ):
        self.max_time = max_time
        self.max_steps = max_steps
        self.store = store
        #: run bench simulations on the netlist→closure engine
        #: (:mod:`repro.verilog.codegen`); verdicts are identical to the
        #: interpreter's by construction, so the flag never enters cache
        #: keys.
        self.compile_sim = compile_sim
        #: run the netlist static-analysis pass between elaboration and
        #: simulation; error findings reject the design at
        #: stage="analysis" without ever starting the bench
        self.analysis = analysis
        self._cache: dict[tuple[int, int], CompletionEvaluation] = {}
        #: per prompt text; see :meth:`_prompt`
        self._prompts: dict[str, _Prompt] = {}
        #: idle test bench templates by problem number; see
        #: :meth:`_run_bench`
        self._templates: dict[int, list[BenchTemplate]] = {}
        self._lock = threading.Lock()
        self.cache_hits = 0
        self.cache_misses = 0
        self.store_hits = 0

    def evaluate(
        self,
        problem: Problem,
        completion: str,
        level: PromptLevel = PromptLevel.LOW,
    ) -> CompletionEvaluation:
        """Evaluate one completion against ``problem``.

        ``level`` selects the prompt the completion is appended to, and
        the returned line numbers are those of that level's
        ``problem.full_source``.  The cache key ignores the level: the
        three prompts differ only in comments, so cached evaluations
        keep LOW-prompt line numbers and are shifted per level.
        """
        truncated = truncate_completion(completion)
        key = (problem.number, stable_hash(truncated))
        low_lines = self._prompt(problem, PromptLevel.LOW).lines
        delta = self._prompt(problem, level).lines - low_lines
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self.cache_hits += 1
                REGISTRY.inc("evaluator_cache", result="hit")
                return _shift_lines(cached, low_lines, delta)
        if self.store is not None:
            stored = self.store.get(*key)
            if stored is not None:
                with self._lock:
                    self.store_hits += 1
                    self._cache[key] = stored
                REGISTRY.inc("evaluator_cache", result="store_hit")
                return _shift_lines(stored, low_lines, delta)
        with self._lock:
            self.cache_misses += 1
        REGISTRY.inc("evaluator_cache", result="miss")
        result = self._evaluate_uncached(problem, truncated, level)
        low = _shift_lines(result, low_lines + delta, -delta)
        with self._lock:
            self._cache[key] = low
        if self.store is not None:
            self.store.put(*key, low)
        return result

    def _evaluate_uncached(
        self, problem: Problem, truncated: str, level: PromptLevel
    ) -> CompletionEvaluation:
        prefix = self._prompt(problem, level).prefix
        source = (problem.full_source(truncated, level) if prefix is None
                  else completion_source(truncated))
        report = compile_design(source, top=problem.module_name,
                                prefix=prefix)
        self._observe_report(problem, report, design=True)
        if not report.ok:
            return CompletionEvaluation(
                compiled=False, passed=False,
                compile_errors=tuple(report.errors),
                stage=report.stage, error_line=report.line,
            )
        findings: tuple[Finding, ...] = ()
        if self.analysis:
            findings = self._analyze(problem, report)
            gate = error_findings(findings)
            if gate:
                first = gate[0]
                # a comb loop would spin the simulator to its iteration
                # limit; reject here in milliseconds instead.  The
                # verdict booleans match what simulation would conclude
                # (compiled, not passed), keeping record parity with
                # unanalyzed sweeps.
                return CompletionEvaluation(
                    compiled=True, passed=False,
                    compile_errors=tuple(str(f) for f in gate),
                    stage="analysis", error_line=first.line,
                    findings=findings,
                )
        # None unless profiling is enabled AND a trace sink is installed,
        # in which case the bench simulation attributes its wall time to
        # netlist constructs and publishes one `profile` frame per run.
        profiler = maybe_sim_profiler()
        bench_report, sim = self._run_bench(problem, report.unit, profiler)
        self._observe_report(problem, bench_report, design=False)
        if profiler is not None:
            record_profile(
                profiler, problem=problem.number,
                sim_seconds=bench_report.sim_seconds,
                engine="compiled" if bench_report.sim_engine is not None
                else "interpreter",
            )
        if not bench_report.ok or sim is None:
            # compiles standalone but dies inside the bench (e.g. runaway
            # loop): counts as compiled, not passed
            return CompletionEvaluation(
                compiled=True, passed=False,
                compile_errors=tuple(bench_report.errors),
                stage=bench_report.stage if bench_report.stage == "sim"
                else "testbench",
                error_line=bench_report.line,
                findings=findings,
            )
        passed = sim.finished and PASS_MARKER in sim.text
        return CompletionEvaluation(
            compiled=True, passed=passed, sim_finished=sim.finished,
            stage="" if passed else "testbench",
            findings=findings,
        )

    def _prompt(self, problem: Problem, level: PromptLevel) -> _Prompt:
        """The entry of ``level``'s prompt, built on first use.

        Building one lexes and parses the prompt; that time is observed
        as the ``parse`` stage of the evaluation that built it.  Two
        workers racing on a new prompt may both build it (the entries
        are equal); the first one stored is kept.
        """
        text = problem.prompts[level]
        entry = self._prompts.get(text)
        if entry is None:
            started = time.perf_counter()
            source = problem.prompt_source(level)
            built = _Prompt(source.count("\n"), prompt_prefix(source))
            observe_stage("parse", time.perf_counter() - started,
                          problem=problem.number)
            with self._lock:
                entry = self._prompts.setdefault(text, built)
        return entry

    def _run_bench(self, problem: Problem, unit: SourceUnit, profiler):
        """Simulate the completion's parsed ``unit`` under the test bench.

        Equivalent to ``run_simulation(problem.bench_source(...))``
        without parsing the completion again, and without parsing,
        elaborating or lowering the test bench again either: the bench
        source is the completion's source, a newline and
        ``problem.testbench``, so its modules are the completion's
        followed by the test bench's.  The test bench is parsed from
        :data:`_BENCH_LINE` once per problem and its ``tb`` kept as a
        template (:func:`~repro.verilog.compile.prepare_bench`); each
        run grafts the completion in as ``dut``.  Every line past the
        completion is then moved to follow it, as if the bench had been
        parsed from the line after the completion's last: the report's
        line and the ``line N`` of its errors, and ``profiler``'s
        construct keys.

        Building a template is billed to the run that needed it, as
        test bench parse and elaboration time and as engine time.
        """
        number = problem.number
        with self._lock:
            idle = self._templates.get(number)
            bench = idle.pop() if idle else None
        built = None
        if bench is None:
            built, bench = prepare_bench(
                problem.testbench, _BENCH_LINE, compile_sim=self.compile_sim
            )
        after, delta = unit.eof_line, unit.eof_line + 1 - _BENCH_LINE
        if built is not None and not built.ok:
            return _moved_report(built, after, delta), None
        bench_unit = built.unit if bench is None else bench.unit
        ran = None if profiler is None else SimProfiler()
        report, sim = simulate_unit(
            SourceUnit(modules=unit.modules + bench_unit.modules,
                       eof_line=bench_unit.eof_line),
            top="tb", max_time=self.max_time, max_steps=self.max_steps,
            profiler=ran, compile_sim=self.compile_sim, bench=bench,
        )
        if bench is not None:
            with self._lock:
                self._templates.setdefault(number, []).append(bench)
        if built is not None:
            report.parse_seconds += built.parse_seconds
            report.elaborate_seconds += built.elaborate_seconds
            report.engine_seconds += built.engine_seconds
        if ran is not None:
            moved = SimProfiler()
            moved.constructs = {
                (path, kind, line + delta if line > after else line): row
                for (path, kind, line), row in ran.constructs.items()
            }
            profiler.merge(moved)
        return _moved_report(report, after, delta), sim

    def _analyze(self, problem: Problem, report) -> tuple[Finding, ...]:
        """Netlist analysis + defect-class counters for one design.

        Advisory robustness: an analyzer crash degrades to "no
        findings" rather than failing the evaluation — only the
        structured error findings themselves may gate.
        """
        started = time.perf_counter()
        try:
            findings = tuple(analyze_design(report.design, report.unit))
        except Exception:
            findings = ()
        observe_stage(
            "analysis", time.perf_counter() - started,
            problem=problem.number,
        )
        for finding in findings:
            REGISTRY.inc("analysis_findings_total", code=finding.code)
        return findings

    @staticmethod
    def _observe_report(problem: Problem, report, design: bool) -> None:
        """Always-on per-problem stage timers off a CompileReport.

        Design compiles profile as ``parse``/``elaborate``; the bench
        run profiles its compile side as ``testbench`` (grafting the
        completion into the test bench, plus parsing and elaborating
        the test bench when the run built its template), the compiled
        engine's construction as ``engine`` (the completion's processes,
        plus the test bench's when the run built its template) and the
        simulation as ``sim``.
        """
        number = problem.number
        if design:
            if report.parse_seconds:
                observe_stage("parse", report.parse_seconds, problem=number)
            if report.elaborate_seconds:
                observe_stage(
                    "elaborate", report.elaborate_seconds, problem=number
                )
        else:
            bench_compile = report.parse_seconds + report.elaborate_seconds
            if bench_compile:
                observe_stage("testbench", bench_compile, problem=number)
            if report.engine_seconds:
                observe_stage("engine", report.engine_seconds, problem=number)
            if report.sim_seconds:
                observe_stage("sim", report.sim_seconds, problem=number)

    @property
    def cache_info(self) -> dict:
        info = {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "entries": len(self._cache),
        }
        if self.store is not None:
            info["store_hits"] = self.store_hits
        return info

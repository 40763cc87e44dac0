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
source lines past the prompt move.  Every completion is therefore
evaluated after the LOW prompt, every kept verdict has LOW-prompt line
numbers, and :meth:`Evaluator.evaluate` moves the lines past that
prompt on the way out when MEDIUM or HIGH asked.

The LOW prompt is lexed and parsed once per evaluator
(:func:`~repro.verilog.parser.prompt_prefix`); a fresh evaluation lexes
and parses only the completion, from the line after the prompt's.

Completions that differ only in comments or blank space past their
last token are still different texts.  So a completion that misses the
text cache and the store is lexed once, and its tokens are looked up in
a token memo: the key is the problem and a 64-bit digest of every
token's kind, text, line and column, EOF included.  Because the
positions are in the key, a memo hit has the same error text and lines
as a fresh run would.  The memo keeps only verdicts the front end
decides (stage ``parse``, ``elaborate`` or ``analysis``), never a
simulated one.  It lives in the evaluator and is never persisted.  A
completion that does not lex bypasses it.  On a miss, the parser takes
the same tokens, so no completion is lexed twice.  A memo hit is
counted as ``token_hits``, fills the text cache and is written to the
store under its text key, like a fresh verdict.

A completion that fails a gate gets a verdict naming the stage, not a
job error.  Each front-end stage's failure becomes a report through
:func:`~repro.verilog.compile.failed_report`, and a failed report
becomes a verdict through :func:`_failed`.
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
    LexError,
    SourceUnit,
    analyze_design,
    compile_design,
    error_findings,
    lint_source_unit,  # noqa: F401 - unused; perfbench/tracing.py wraps it
    simulate_unit,
)
from ..verilog.compile import failed_report, prepare_bench
from ..verilog.elaborate import BenchTemplate
from ..verilog.lexer import Token
from ..verilog.parser import PromptPrefix, lex, prompt_prefix
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


#: the stages of the verdicts the token memo keeps: decided by the
#: front end and the static analysis, before any simulation
_MEMO_STAGES = frozenset(("parse", "elaborate", "analysis"))


def _token_digest(tokens: list[Token]) -> int:
    """64-bit digest of every token's kind, text, line and column, the
    EOF token's included.  Python's ``hash`` is salted per process,
    which is as long as a memo lives."""
    return hash(tuple([(token.kind, token.text, token.line, token.column)
                       for token in tokens]))


def _moved_report(report, after: int, delta: int):
    """``report`` with its line and the ``line N`` of each error moved
    by ``delta`` when past ``after``."""
    if report.line > after:
        report.line += delta
    move = _move_line(after, delta)
    report.errors = [_LINE_PREFIX.sub(move, error, count=1)
                     for error in report.errors]
    return report


def _failed(report, compiled: bool,
            findings: tuple[Finding, ...] = ()) -> CompletionEvaluation:
    """The verdict of a failed report: of the design's compile when not
    ``compiled``, else of its test bench run.  A design that compiles
    but dies inside the bench (a runaway loop, say) counts as compiled,
    not passed, at stage ``sim``; any other bench failure is stage
    ``testbench``."""
    stage = report.stage
    if compiled and stage != "sim":
        stage = "testbench"
    return CompletionEvaluation(
        compiled=compiled, passed=False,
        compile_errors=tuple(report.errors), stage=stage,
        error_line=report.line, findings=findings,
    )


@dataclass(frozen=True, slots=True)
class _Prompt:
    """What an evaluator keeps per problem: how many source lines the
    LOW prompt takes in :meth:`Problem.full_source`, the LOW prompt
    parsed once for each completion's parse to continue from (None when
    it cannot be; see :func:`~repro.verilog.parser.prompt_prefix`), and
    how many lines more each level's prompt takes."""

    lines: int
    prefix: PromptPrefix | None
    extra: dict[PromptLevel, int]


class Evaluator:
    """Caching compile+simulate evaluator.

    Thread-safe: the cache and the token memo are guarded by a lock so
    one instance can be shared across a
    :class:`~repro.eval.jobs.SweepExecutor` worker pool.  Two workers
    racing on the same uncached key may both evaluate it (evaluation is
    pure, so both compute the identical verdict); the lock only protects
    the cache and memo dicts and the counters.  The lexer's line cache
    (``_lines``, one per evaluator) is shared by the workers without
    the lock: each lookup and store is one dict operation, and two
    workers racing on a line store equal token tuples.
    ``cache_misses`` counts the evaluations that ran; a text-cache hit,
    a store hit and a memo hit count as ``cache_hits``, ``store_hits``
    and ``token_hits``.  Each problem's test bench is parsed,
    elaborated and lowered once into a template that one simulation
    uses at a time (see :meth:`_run_bench`).  Idle templates wait in a
    per-problem pool: a worker checks one out under the lock and builds
    another when all are in use, so concurrent workers never share one.

    The cache, the store and the memo hold one verdict per completion,
    with LOW-prompt line numbers (see :meth:`evaluate`).  ``store`` is
    an optional :class:`~repro.eval.store.VerdictStore` consulted
    between the in-memory cache and the token memo:
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
        #: (problem, text hash) -> LOW verdict
        self._cache: dict[tuple[int, int], CompletionEvaluation] = {}
        #: (problem, token digest) -> LOW verdict of a parse, elaborate
        #: or analysis stage failure; see :meth:`_evaluate_uncached`
        self._memo: dict[tuple[int, int], CompletionEvaluation] = {}
        #: (line number, line text) -> that line's tokens; the lexer's
        #: line cache (see :func:`~repro.verilog.lexer.tokenize`)
        self._lines: dict[tuple[int, str], tuple[Token, ...]] = {}
        #: per problem number; see :meth:`_prompt`
        self._prompts: dict[int, _Prompt] = {}
        #: idle test bench templates by problem number; see
        #: :meth:`_run_bench`
        self._templates: dict[int, list[BenchTemplate]] = {}
        self._lock = threading.Lock()
        self.cache_hits = 0
        self.cache_misses = 0
        self.token_hits = 0
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
        three prompts differ only in comment lines, so the verdict is
        computed and kept after the LOW prompt and its lines past that
        prompt are moved here, for MEDIUM and HIGH.
        """
        truncated = truncate_completion(completion)
        key = (problem.number, stable_hash(truncated))
        with self._lock:
            low = self._cache.get(key)
            if low is not None:
                self.cache_hits += 1
        if low is not None:
            REGISTRY.inc("evaluator_cache", result="hit")
        elif self.store is not None and (
                low := self.store.get(*key)) is not None:
            with self._lock:
                self.store_hits += 1
                low = self._cache.setdefault(key, low)
            REGISTRY.inc("evaluator_cache", result="store_hit")
        else:
            low = self._evaluate_uncached(problem, truncated)
            with self._lock:
                self._cache[key] = low
            if self.store is not None:
                self.store.put(*key, low)
        if level is PromptLevel.LOW:
            return low
        prompt = self._prompt(problem)
        return _shift_lines(low, prompt.lines, prompt.extra[level])

    def _evaluate_uncached(self, problem: Problem,
                           truncated: str) -> CompletionEvaluation:
        """The LOW verdict of a completion that neither the text cache
        nor the store holds.

        The completion is lexed once: after the LOW prompt's prefix, or
        with the whole source from line 1 when the prompt has none.
        When the token memo holds a front-end verdict of the same tokens
        at the same positions, that verdict answers it; otherwise the
        tokens are parsed, and the design elaborated, analyzed and
        simulated.  A completion that does not lex bypasses the memo.
        """
        prefix = self._prompt(problem).prefix
        source = (problem.full_source(truncated) if prefix is None
                  else completion_source(truncated))
        started = time.perf_counter()
        try:
            tokens = lex(source, prefix=prefix, lines=self._lines)
        except LexError as exc:
            report = failed_report(
                "parse", exc, parse_seconds=time.perf_counter() - started)
            self._observe_report(problem, report, design=True)
            self._count_miss()
            return _failed(report, compiled=False)
        lexed = time.perf_counter() - started
        memo_key = (problem.number, _token_digest(tokens))
        with self._lock:
            memo = self._memo.get(memo_key)
            if memo is not None:
                self.token_hits += 1
        if memo is not None:
            REGISTRY.inc("evaluator_cache", result="token_hit")
            observe_stage("parse", lexed, problem=problem.number)
            return memo
        self._count_miss()
        result = self._run(problem, tokens, prefix, lexed)
        if result.stage in _MEMO_STAGES:
            with self._lock:
                self._memo.setdefault(memo_key, result)
        return result

    def _count_miss(self) -> None:
        """Count one evaluation that runs."""
        with self._lock:
            self.cache_misses += 1
        REGISTRY.inc("evaluator_cache", result="miss")

    def _run(self, problem: Problem, tokens: list[Token],
             prefix: PromptPrefix | None,
             lexed: float) -> CompletionEvaluation:
        """Compile ``tokens``, which took ``lexed`` seconds to lex, after
        ``prefix`` and, when they compile, analyze and simulate the
        design."""
        report = compile_design(tokens, top=problem.module_name,
                                prefix=prefix)
        report.parse_seconds += lexed
        self._observe_report(problem, report, design=True)
        if not report.ok:
            return _failed(report, compiled=False)
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
        if sim is None:  # the bench did not build, or the design died in it
            return _failed(bench_report, compiled=True, findings=findings)
        passed = sim.finished and PASS_MARKER in sim.text
        return CompletionEvaluation(
            compiled=True, passed=passed, sim_finished=sim.finished,
            stage="" if passed else "testbench",
            findings=findings,
        )

    def _prompt(self, problem: Problem) -> _Prompt:
        """The entry of ``problem``'s prompts, built on first use.

        Building one lexes and parses the LOW prompt; that time is
        observed as the ``parse`` stage of the evaluation that built it.
        Two workers racing on a new problem may both build it (the
        entries are equal); the first one stored is kept.
        """
        entry = self._prompts.get(problem.number)
        if entry is None:
            started = time.perf_counter()
            source = problem.prompt_source(PromptLevel.LOW)
            lines = source.count("\n")
            built = _Prompt(lines, prompt_prefix(source), {
                level: problem.prompt_source(level).count("\n") - lines
                for level in PromptLevel})
            observe_stage("parse", time.perf_counter() - started,
                          problem=problem.number)
            with self._lock:
                entry = self._prompts.setdefault(problem.number, built)
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
            "token_hits": self.token_hits,
            "entries": len(self._cache),
        }
        if self.store is not None:
            info["store_hits"] = self.store_hits
        return info

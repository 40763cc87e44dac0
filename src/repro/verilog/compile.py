"""Icarus-Verilog-like driver: the compile and run gates of the pipeline.

The paper compiles each LLM completion with ``iverilog`` and, when that
succeeds, simulates it against a test bench.  This module provides the
same two entry points over our own frontend:

* :func:`check_syntax` — lex + parse only (fast structural gate), of a
  whole source or of the text after a prompt parsed once; given tokens
  the caller lexed already, parse only;
* :func:`compile_design` — lex + parse + elaborate a top module;
* :func:`run_simulation` — compile and simulate, returning printed output;
* :func:`simulate_unit` — the same from an already parsed unit, so a
  caller that parsed the design and the test bench separately (the
  evaluator) elaborates and runs them without parsing again;
* :func:`prepare_bench` — parse a test bench and elaborate and lower its
  top module once, as a template that :func:`simulate_unit` grafts each
  design into.

Failure reports carry the *stage* that rejected the design ("parse",
"elaborate" or "sim") and the first diagnostic's source line, so
downstream consumers (the evaluator's verdicts, the agentic repair
loop's re-prompts) never scrape the message strings.  A front-end stage
turns its failure into a report in one place, :func:`failed_report`;
no :class:`~repro.verilog.errors.VerilogError` leaves this module.

Every report also carries per-stage wall clock (``parse_seconds``,
``elaborate_seconds``, ``engine_seconds``, ``sim_seconds``) measured
here, at the stage boundary, so the evaluator's always-on profile
(:mod:`repro.obs`) reads timings off the report instead of re-wrapping
the frontend — the verilog layer itself stays observability-free.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

# CompiledEngine is looked up per call: perfbench/tracing.py wraps it
from . import codegen
from .ast import SourceUnit
from .elaborate import BenchTemplate, Design, elaborate
from .errors import VerilogError
from .lexer import Token
from .parser import PromptPrefix, parse
from .sim import SimResult, simulate


@dataclass
class CompileReport:
    """Result of a compile attempt (success or diagnostics).

    ``stage`` names the phase that produced ``errors`` ("parse",
    "elaborate", "sim"; "" on clean success) and ``line`` is the first
    error's source line when the frontend knew it (0 otherwise).
    """

    ok: bool
    errors: list[str] = field(default_factory=list)
    unit: SourceUnit | None = None
    design: Design | None = None
    stage: str = ""
    line: int = 0
    parse_seconds: float = 0.0
    elaborate_seconds: float = 0.0
    engine_seconds: float = 0.0
    sim_seconds: float = 0.0
    #: Compiled-engine plan summary when ``run_simulation`` ran with
    #: ``compile_sim=True``; None on the pure-interpreter path.
    sim_engine: dict | None = None

    @property
    def error_text(self) -> str:
        return "\n".join(self.errors)


#: what a stage reports when its input nests deeper than Python's stack
_TOO_DEEP = {"parse": "expression nesting too deep",
             "elaborate": "elaboration recursion limit"}


def failed_report(stage: str, exc: VerilogError | RecursionError,
                  **fields) -> CompileReport:
    """The report of ``stage`` failing with ``exc``: a
    :class:`~repro.verilog.errors.VerilogError`'s text and line, or the
    stage's fixed message for a ``RecursionError``.  ``fields`` are the
    report's other fields (its unit and stage timings)."""
    if isinstance(exc, VerilogError):
        return CompileReport(ok=False, errors=[str(exc)], stage=stage,
                             line=exc.line, **fields)
    return CompileReport(ok=False, errors=[_TOO_DEEP[stage]], stage=stage,
                         **fields)


def check_syntax(source: str | list[Token], first_line: int = 1,
                 prefix: PromptPrefix | None = None) -> CompileReport:
    """Parse-only check, the cheapest 'does it compile' gate.

    ``first_line`` numbers the source's first line (see
    :func:`~repro.verilog.lexer.tokenize`).  With ``prefix``,
    ``source`` is the text after a prompt parsed once.  ``source`` may
    also be tokens the caller lexed already (see
    :func:`~repro.verilog.parser.parse`).
    """
    started = time.perf_counter()
    try:
        unit = parse(source, first_line, prefix=prefix)
    except (VerilogError, RecursionError) as exc:
        return failed_report("parse", exc,
                             parse_seconds=time.perf_counter() - started)
    return CompileReport(
        ok=True, unit=unit, parse_seconds=time.perf_counter() - started
    )


def compile_design(source: str | list[Token], top: str | None = None,
                   prefix: PromptPrefix | None = None) -> CompileReport:
    """Full compile: parse and elaborate ``top`` (default: last module).

    Elaboration catches the class of errors Icarus reports beyond syntax:
    undeclared identifiers, bad port connections, width-less parameters,
    unknown modules.  ``source`` and ``prefix`` are passed to
    :func:`check_syntax`.
    """
    report = check_syntax(source, prefix=prefix)
    if not report.ok:
        return report
    assert report.unit is not None
    return _elaborate_unit(report.unit, top, report.parse_seconds)


def _elaborate_unit(
    unit: SourceUnit, top: str | None, parse_seconds: float,
    bench: BenchTemplate | None = None,
) -> CompileReport:
    if top is None:
        top = unit.modules[-1].name
    started = time.perf_counter()
    try:
        design = elaborate(unit, top, bench=bench)
    except (VerilogError, RecursionError) as exc:
        return failed_report(
            "elaborate", exc, unit=unit, parse_seconds=parse_seconds,
            elaborate_seconds=time.perf_counter() - started,
        )
    return CompileReport(
        ok=True,
        unit=unit,
        design=design,
        parse_seconds=parse_seconds,
        elaborate_seconds=time.perf_counter() - started,
    )


def run_simulation(
    source: str,
    top: str | None = None,
    max_time: int = 1_000_000,
    max_steps: int = 2_000_000,
    profiler=None,
    compile_sim: bool = False,
) -> tuple[CompileReport, SimResult | None]:
    """Compile then simulate; returns (compile report, sim result or None).

    Parses ``source`` and hands the unit to :func:`simulate_unit`, which
    documents the other arguments.
    """
    report = check_syntax(source)
    if not report.ok:
        return report, None
    assert report.unit is not None
    return simulate_unit(
        report.unit, top, max_time=max_time, max_steps=max_steps,
        profiler=profiler, compile_sim=compile_sim,
        parse_seconds=report.parse_seconds,
    )


def simulate_unit(
    unit: SourceUnit,
    top: str | None = None,
    max_time: int = 1_000_000,
    max_steps: int = 2_000_000,
    profiler=None,
    compile_sim: bool = False,
    parse_seconds: float = 0.0,
    bench: BenchTemplate | None = None,
) -> tuple[CompileReport, SimResult | None]:
    """Elaborate a parsed unit and simulate it; returns (compile report,
    sim result or None), as :func:`run_simulation` does.

    ``bench`` is a template of ``top`` from :func:`prepare_bench` whose
    modules are ``unit``'s last: only the template's instances are then
    elaborated and lowered, and the template is reset when the run
    ends, however it ends.  The outcome is the same as without it.

    ``parse_seconds`` is what parsing ``unit`` cost, copied into the
    report.  ``profiler`` is passed through to the simulator untouched
    (see :class:`repro.obs.profile.SimProfiler`); this keeps the
    injection point at the same stage boundary as the timing fields.

    ``compile_sim=True`` lowers the elaborated design to closures first
    (:class:`repro.verilog.codegen.CompiledEngine`, timed as
    ``engine_seconds``) and runs the fast engine; a process the compiler
    can't cover, or whose lowering raises, falls back to the
    interpreter on its own — verdicts are identical either way.  The
    engine's plan summary, fallbacks included, lands in
    ``report.sim_engine``.
    """
    try:
        report = _elaborate_unit(unit, top, parse_seconds, bench)
        if not report.ok:
            return report, None
        assert report.design is not None
        engine = None
        if compile_sim:
            started = time.perf_counter()
            engine = codegen.CompiledEngine(
                report.design,
                base=bench.engine if bench is not None else None,
            )
            report.sim_engine = engine.plan()
            report.engine_seconds = time.perf_counter() - started
        started = time.perf_counter()
        try:
            result = simulate(report.design, max_time=max_time,
                              max_steps=max_steps, profiler=profiler,
                              engine=engine)
        except VerilogError as exc:
            report.errors = [f"runtime: {exc}"]
            report.stage = "sim"
            report.line = exc.line
            report.sim_seconds = time.perf_counter() - started
            return report, None
        report.sim_seconds = time.perf_counter() - started
        return report, result
    finally:
        if bench is not None:
            bench.reset()


def prepare_bench(
    source: str,
    first_line: int,
    compile_sim: bool = False,
    top: str = "tb",
) -> tuple[CompileReport, BenchTemplate | None]:
    """Parse a test bench and build its template for :func:`simulate_unit`.

    ``first_line`` numbers the bench's first line, as in
    :func:`check_syntax`.  The template is ``top`` elaborated with its instances deferred
    (:class:`~repro.verilog.elaborate.BenchTemplate`) and, with
    ``compile_sim``, its processes lowered to closures.  The report
    times the parse, the elaboration and the lowering.  It fails only
    when the bench does not parse.  A bench whose top module does not
    elaborate on its own gets no template: the report then carries the
    parsed unit, for :func:`simulate_unit` to elaborate in full with
    each design, which reports the error as it always has.
    """
    report = check_syntax(source, first_line)
    if not report.ok:
        return report, None
    assert report.unit is not None
    started = time.perf_counter()
    try:
        bench = BenchTemplate(report.unit, top)
    except (VerilogError, RecursionError):
        return report, None
    finally:
        report.elaborate_seconds = time.perf_counter() - started
    if compile_sim:
        started = time.perf_counter()
        bench.engine = codegen.CompiledEngine(bench.design)
        report.engine_seconds = time.perf_counter() - started
    return report, bench

"""Icarus-Verilog-like driver: the compile and run gates of the pipeline.

The paper compiles each LLM completion with ``iverilog`` and, when that
succeeds, simulates it against a test bench.  This module provides the
same two entry points over our own frontend:

* :func:`check_syntax` — lex + parse only (fast structural gate);
* :func:`compile_design` — lex + parse + elaborate a top module;
* :func:`run_simulation` — compile and simulate, returning printed output.

Failure reports carry the *stage* that rejected the design ("parse",
"elaborate" or "sim") and the first diagnostic's source line, so
downstream consumers (structured :class:`~repro.eval.jobs.JobError`
fields, the agentic repair loop's re-prompts) never scrape the message
strings.

Every report also carries per-stage wall clock (``parse_seconds``,
``elaborate_seconds``, ``sim_seconds``) measured here, at the stage
boundary, so the evaluator's always-on profile (:mod:`repro.obs`) reads
timings off the report instead of re-wrapping the frontend — the
verilog layer itself stays observability-free.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .ast import SourceUnit
from .elaborate import Design, elaborate
from .errors import VerilogError
from .parser import parse
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
    sim_seconds: float = 0.0
    #: Compiled-engine plan summary when ``run_simulation`` ran with
    #: ``compile_sim=True`` and engine construction succeeded; None on
    #: the pure-interpreter path.
    sim_engine: dict | None = None

    @property
    def error_text(self) -> str:
        return "\n".join(self.errors)


def check_syntax(source: str) -> CompileReport:
    """Parse-only check, the cheapest 'does it compile' gate."""
    started = time.perf_counter()
    try:
        unit = parse(source)
    except VerilogError as exc:
        return CompileReport(
            ok=False, errors=[str(exc)], stage="parse", line=exc.line,
            parse_seconds=time.perf_counter() - started,
        )
    except RecursionError:
        return CompileReport(
            ok=False, errors=["expression nesting too deep"], stage="parse",
            parse_seconds=time.perf_counter() - started,
        )
    return CompileReport(
        ok=True, unit=unit, parse_seconds=time.perf_counter() - started
    )


def compile_design(source: str, top: str | None = None) -> CompileReport:
    """Full compile: parse and elaborate ``top`` (default: last module).

    Elaboration catches the class of errors Icarus reports beyond syntax:
    undeclared identifiers, bad port connections, width-less parameters,
    unknown modules.
    """
    report = check_syntax(source)
    if not report.ok:
        return report
    assert report.unit is not None
    if top is None:
        top = report.unit.modules[-1].name
    started = time.perf_counter()
    try:
        design = elaborate(report.unit, top)
    except VerilogError as exc:
        return CompileReport(
            ok=False,
            errors=[str(exc)],
            unit=report.unit,
            stage="elaborate",
            line=exc.line,
            parse_seconds=report.parse_seconds,
            elaborate_seconds=time.perf_counter() - started,
        )
    except RecursionError:
        return CompileReport(
            ok=False,
            errors=["elaboration recursion limit"],
            unit=report.unit,
            stage="elaborate",
            parse_seconds=report.parse_seconds,
            elaborate_seconds=time.perf_counter() - started,
        )
    return CompileReport(
        ok=True,
        unit=report.unit,
        design=design,
        parse_seconds=report.parse_seconds,
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

    ``profiler`` is passed through to the simulator untouched (see
    :class:`repro.obs.profile.SimProfiler`); this keeps the injection
    point at the same stage boundary as the timing fields.

    ``compile_sim=True`` lowers the elaborated design to closures first
    (:class:`repro.verilog.codegen.CompiledEngine`) and runs the fast
    engine; processes the compiler can't cover fall back per process to
    the interpreter, and any engine-construction failure falls back to
    fully interpreted execution — verdicts are identical either way.
    The engine's plan summary lands in ``report.sim_engine``.
    """
    report = compile_design(source, top)
    if not report.ok:
        return report, None
    assert report.design is not None
    engine = None
    if compile_sim:
        from .codegen import CompiledEngine

        try:
            engine = CompiledEngine(report.design)
        except Exception:
            engine = None  # fully interpreted run; behavior unchanged
        else:
            report.sim_engine = engine.plan()
    started = time.perf_counter()
    try:
        result = simulate(report.design, max_time=max_time,
                          max_steps=max_steps, profiler=profiler,
                          engine=engine)
    except VerilogError as exc:
        return (
            CompileReport(
                ok=True,
                errors=[f"runtime: {exc}"],
                unit=report.unit,
                design=report.design,
                stage="sim",
                line=exc.line,
                parse_seconds=report.parse_seconds,
                elaborate_seconds=report.elaborate_seconds,
                sim_seconds=time.perf_counter() - started,
                sim_engine=report.sim_engine,
            ),
            None,
        )
    report.sim_seconds = time.perf_counter() - started
    return report, result

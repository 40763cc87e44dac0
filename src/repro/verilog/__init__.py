"""A Verilog-2001-subset compiler and event-driven simulator.

This package is the reproduction's substitute for Icarus Verilog: it
provides the "does it compile" and "does it pass the test bench" gates of
the paper's evaluation pipeline.

Quick example::

    from repro.verilog import run_simulation

    report, result = run_simulation(source_with_testbench, top="tb")
    assert report.ok and "PASS" in result.text
"""

from .analyze import (
    FINDING_CODES,
    Finding,
    analyze_design,
    analyze_source,
    check_design,
    error_findings,
    finding_from_dict,
    finding_to_dict,
    infer_top,
)
from .ast import SourceUnit
from .compile import (
    CompileReport,
    check_syntax,
    compile_design,
    run_simulation,
    simulate_unit,
)
from .elaborate import Design, Scope, Signal, elaborate
from .errors import (
    AnalysisError,
    ElaborationError,
    LexError,
    ParseError,
    SimulationError,
    VerilogError,
)
from .lexer import Token, tokenize
from .parser import parse
from .lint import LintWarning, lint_module, lint_source_unit
from .codegen import CompiledEngine
from .sim import SimResult, Simulator, simulate
from .values import Vec
from .vcd import VcdRecorder
from .writer import write_expr, write_module, write_source_unit, write_stmt

__all__ = [
    "AnalysisError",
    "CompileReport",
    "Design",
    "ElaborationError",
    "FINDING_CODES",
    "Finding",
    "LexError",
    "LintWarning",
    "ParseError",
    "Scope",
    "SimResult",
    "SimulationError",
    "SourceUnit",
    "Signal",
    "Simulator",
    "Token",
    "Vec",
    "VcdRecorder",
    "VerilogError",
    "analyze_design",
    "analyze_source",
    "check_design",
    "check_syntax",
    "compile_design",
    "elaborate",
    "error_findings",
    "finding_from_dict",
    "finding_to_dict",
    "infer_top",
    "parse",
    "CompiledEngine",
    "run_simulation",
    "simulate_unit",
    "lint_module",
    "lint_source_unit",
    "simulate",
    "tokenize",
    "write_expr",
    "write_module",
    "write_source_unit",
    "write_stmt",
]

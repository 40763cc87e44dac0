"""A Verilog-2001-subset compiler and event-driven simulator.

This package is the reproduction's substitute for Icarus Verilog: it
provides the "does it compile" and "does it pass the test bench" gates of
the paper's evaluation pipeline.

Quick example::

    from repro.verilog import run_simulation

    report, result = run_simulation(source_with_testbench, top="tb")
    assert report.ok and "PASS" in result.text

The facade is lazy (:mod:`repro._lazy`): a name loads its submodule on
first use, so ``import repro.verilog.parser`` loads the compiler's own
modules and nothing of the evaluator, backends or models.  The evaluator
imports the compile → simulate stack it runs at module level; the
writer loads only when asked for.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".analyze": (
        "FINDING_CODES",
        "Finding",
        "analyze_design",
        "analyze_source",
        "error_findings",
        "finding_from_dict",
        "finding_to_dict",
        "infer_top",
    ),
    ".ast": ("SourceUnit",),
    ".compile": (
        "CompileReport",
        "check_syntax",
        "compile_design",
        "run_simulation",
        "simulate_unit",
    ),
    ".elaborate": ("Design", "Scope", "Signal", "elaborate"),
    ".errors": (
        "ElaborationError",
        "LexError",
        "ParseError",
        "SimulationError",
        "VerilogError",
    ),
    ".lexer": ("Token", "tokenize"),
    ".parser": ("parse",),
    ".lint": ("LintWarning", "lint_module", "lint_source_unit"),
    ".codegen": ("CompiledEngine",),
    ".sim": ("SimResult", "Simulator", "simulate"),
    ".values": ("Vec",),
    ".vcd": ("VcdRecorder",),
    ".writer": ("write_expr", "write_module", "write_source_unit", "write_stmt"),
})

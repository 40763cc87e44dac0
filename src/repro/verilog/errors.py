"""Exception hierarchy for the Verilog frontend and simulator.

Mirrors the failure classes that Icarus Verilog reports in the paper's
pipeline: lexical/syntax errors (compile gate), elaboration errors
(hierarchy/parameter problems), and runtime simulation errors.
"""

from __future__ import annotations


class VerilogError(Exception):
    """Base class for all errors raised by :mod:`repro.verilog`."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.message = message
        self.line = line
        self.column = column
        super().__init__(self._format())

    def _format(self) -> str:
        if self.line:
            return f"line {self.line}:{self.column}: {self.message}"
        return self.message


class LexError(VerilogError):
    """Raised when the character stream cannot be tokenized."""


class ParseError(VerilogError):
    """Raised when the token stream is not a valid Verilog description."""


class ElaborationError(VerilogError):
    """Raised when a parsed design cannot be elaborated into a hierarchy.

    Examples: instantiating an unknown module, connecting an unknown port,
    redeclaring a signal, or referencing an undeclared identifier.
    """


class SimulationError(VerilogError):
    """Raised when a legal design misbehaves at runtime.

    Examples: exceeding the simulation step limit (a zero-delay loop) or
    an out-of-range memory word select in a context we cannot x-out.
    """

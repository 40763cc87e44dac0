"""AST node definitions for the Verilog subset.

Nodes are plain dataclasses; the parser builds them and the elaborator /
simulator consume them.  Every node carries a source line for diagnostics.
They are slotted: an evaluator keeps many parsed test benches alive.
"""

from __future__ import annotations

from dataclasses import dataclass, field


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
@dataclass(slots=True)
class Expr:
    line: int = 0


@dataclass(slots=True)
class Number(Expr):
    """A literal; width/base resolved at parse time."""

    value_bits: str = "0"  # MSB-first bit string with 0/1/x/z
    width: int = 32
    signed: bool = False
    sized: bool = False  # explicit size given (8'hFF) vs bare decimal


@dataclass(slots=True)
class StringLit(Expr):
    text: str = ""


@dataclass(slots=True)
class Identifier(Expr):
    name: str = ""


@dataclass(slots=True)
class BitSelect(Expr):
    base: Expr | None = None
    index: Expr | None = None


@dataclass(slots=True)
class PartSelect(Expr):
    base: Expr | None = None
    msb: Expr | None = None
    lsb: Expr | None = None


@dataclass(slots=True)
class IndexedPartSelect(Expr):
    """``base[start +: width]`` / ``base[start -: width]``."""

    base: Expr | None = None
    start: Expr | None = None
    width: Expr | None = None
    ascending: bool = True


@dataclass(slots=True)
class Unary(Expr):
    op: str = ""
    operand: Expr | None = None


@dataclass(slots=True)
class Binary(Expr):
    op: str = ""
    lhs: Expr | None = None
    rhs: Expr | None = None


@dataclass(slots=True)
class Ternary(Expr):
    cond: Expr | None = None
    if_true: Expr | None = None
    if_false: Expr | None = None


@dataclass(slots=True)
class Concat(Expr):
    parts: list[Expr] = field(default_factory=list)


@dataclass(slots=True)
class Replicate(Expr):
    count: Expr | None = None
    value: Expr | None = None


@dataclass(slots=True)
class FunctionCall(Expr):
    name: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass(slots=True)
class SystemCall(Expr):
    """``$signed(...)``, ``$unsigned(...)``, ``$time``, ``$random``..."""

    name: str = ""
    args: list[Expr] = field(default_factory=list)


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------
@dataclass(slots=True)
class Stmt:
    line: int = 0


@dataclass(slots=True)
class Block(Stmt):
    """``begin ... end`` (optionally named)."""

    name: str | None = None
    stmts: list[Stmt] = field(default_factory=list)


@dataclass(slots=True)
class Assign(Stmt):
    """Procedural assignment, blocking (=) or nonblocking (<=)."""

    target: Expr | None = None
    value: Expr | None = None
    nonblocking: bool = False
    delay: Expr | None = None  # intra-assignment delay  #d a = b


@dataclass(slots=True)
class If(Stmt):
    cond: Expr | None = None
    then_stmt: Stmt | None = None
    else_stmt: Stmt | None = None


@dataclass(slots=True)
class CaseItem:
    exprs: list[Expr] = field(default_factory=list)  # empty => default
    body: Stmt | None = None


@dataclass(slots=True)
class Case(Stmt):
    kind: str = "case"  # case | casez | casex
    subject: Expr | None = None
    items: list[CaseItem] = field(default_factory=list)


@dataclass(slots=True)
class For(Stmt):
    init: Stmt | None = None
    cond: Expr | None = None
    step: Stmt | None = None
    body: Stmt | None = None


@dataclass(slots=True)
class While(Stmt):
    cond: Expr | None = None
    body: Stmt | None = None


@dataclass(slots=True)
class Repeat(Stmt):
    count: Expr | None = None
    body: Stmt | None = None


@dataclass(slots=True)
class Forever(Stmt):
    body: Stmt | None = None


@dataclass(slots=True)
class DelayStmt(Stmt):
    """``#delay stmt_or_null``."""

    delay: Expr | None = None
    body: Stmt | None = None


@dataclass(slots=True)
class EventControl(Stmt):
    """``@(...) stmt`` or ``@* stmt``."""

    senses: list["SenseItem"] = field(default_factory=list)  # empty => @*
    body: Stmt | None = None


@dataclass(slots=True)
class Wait(Stmt):
    cond: Expr | None = None
    body: Stmt | None = None


@dataclass(slots=True)
class SysTaskCall(Stmt):
    name: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass(slots=True)
class TaskCall(Stmt):
    name: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass(slots=True)
class NullStmt(Stmt):
    pass


@dataclass(slots=True)
class Disable(Stmt):
    target: str = ""


# ----------------------------------------------------------------------
# Module items
# ----------------------------------------------------------------------
@dataclass(slots=True)
class SenseItem:
    """One entry of a sensitivity list."""

    edge: str | None = None  # None | 'posedge' | 'negedge'
    expr: Expr | None = None


@dataclass(slots=True)
class Range:
    """``[msb:lsb]`` — both bounds constant expressions."""

    msb: Expr | None = None
    lsb: Expr | None = None


@dataclass(slots=True)
class NetDecl:
    """wire/reg/integer declaration (one name per decl after parsing)."""

    kind: str = "wire"  # wire | reg | integer | genvar
    name: str = ""
    range: Range | None = None
    array: Range | None = None  # memory dimension
    signed: bool = False
    init: Expr | None = None  # reg r = 0;
    line: int = 0


@dataclass(slots=True)
class Port:
    direction: str = "input"  # input | output | inout
    name: str = ""
    range: Range | None = None
    net_kind: str = "wire"  # wire | reg
    signed: bool = False
    line: int = 0


@dataclass(slots=True)
class ParamDecl:
    name: str = ""
    value: Expr | None = None
    is_local: bool = False
    line: int = 0


@dataclass(slots=True)
class ContinuousAssign:
    target: Expr | None = None
    value: Expr | None = None
    line: int = 0


@dataclass(slots=True)
class AlwaysBlock:
    body: Stmt | None = None
    line: int = 0


@dataclass(slots=True)
class InitialBlock:
    body: Stmt | None = None
    line: int = 0


@dataclass(slots=True)
class PortConnection:
    name: str | None = None  # None for positional
    expr: Expr | None = None


@dataclass(slots=True)
class Instance:
    module_name: str = ""
    instance_name: str = ""
    connections: list[PortConnection] = field(default_factory=list)
    param_overrides: list[PortConnection] = field(default_factory=list)
    line: int = 0


@dataclass(slots=True)
class FunctionDecl:
    """A Verilog ``function`` (single return value, no timing controls)."""

    name: str = ""
    range: Range | None = None
    signed: bool = False
    inputs: list[Port] = field(default_factory=list)
    decls: list[NetDecl] = field(default_factory=list)
    body: Stmt | None = None
    line: int = 0


@dataclass(slots=True)
class Module:
    name: str = ""
    ports: list[Port] = field(default_factory=list)
    params: list[ParamDecl] = field(default_factory=list)
    decls: list[NetDecl] = field(default_factory=list)
    assigns: list[ContinuousAssign] = field(default_factory=list)
    always_blocks: list[AlwaysBlock] = field(default_factory=list)
    initial_blocks: list[InitialBlock] = field(default_factory=list)
    instances: list[Instance] = field(default_factory=list)
    functions: list[FunctionDecl] = field(default_factory=list)
    line: int = 0


@dataclass(slots=True)
class SourceUnit:
    """A parsed compilation unit (one or more modules).

    ``eof_line`` is the line of the lexer's end-of-source token, so
    text appended after ``source + "\n"`` starts on line
    ``eof_line + 1``.
    """

    modules: list[Module] = field(default_factory=list)
    eof_line: int = 0

    def module(self, name: str) -> Module | None:
        for mod in self.modules:
            if mod.name == name:
                return mod
        return None

"""AST node definitions for the Verilog subset, and their traversal.

Nodes are plain dataclasses; the parser builds them and the elaborator /
simulator consume them.  Every node carries a source line for diagnostics.
They are slotted: an evaluator keeps many parsed test benches alive.

This module is also the one place that knows which fields of a node
hold child expressions and statements: :func:`child_exprs`,
:func:`child_stmts` and :func:`walk_stmts` serve every pass that only
needs to visit the tree (name collection, case and branch discovery,
lint), and :func:`lvalue_names` / :func:`assigned_names` the ones that
need assignment targets.  A node kind added here is added to those
functions too; ``tests/test_ast_walk.py`` fails until it is.  Passes
that do different work per node kind (the simulator, the closure
compiler, the writer) keep their own dispatch.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
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


# ----------------------------------------------------------------------
# Traversal
# ----------------------------------------------------------------------
def child_exprs(node) -> Sequence[Expr]:
    """Direct sub-expressions of an expression or statement, in source
    (field declaration) order.

    A statement's are the expressions it holds itself: an ``Assign``'s
    target, value and intra-assignment delay, a ``Case``'s subject and
    item labels, an ``EventControl``'s sense expressions; not those of
    its child statements.  Leaves, unknown objects and ``None`` have
    none.  The result may be the node's own list: do not mutate it.
    """
    t = type(node)
    if t is Identifier or t is Number:  # most nodes are leaves
        return ()
    if t is Binary:
        return (node.lhs, node.rhs)
    if t is BitSelect:
        return (node.base, node.index)
    if t is Unary:
        return (node.operand,)
    if t is Ternary:
        return (node.cond, node.if_true, node.if_false)
    if t is Concat:
        return node.parts
    if t is PartSelect:
        return (node.base, node.msb, node.lsb)
    if t is IndexedPartSelect:
        return (node.base, node.start, node.width)
    if t is Replicate:
        return (node.count, node.value)
    if t is SystemCall or t is FunctionCall:
        return node.args
    if t is Assign:
        if node.delay is None:
            return (node.target, node.value)
        return (node.target, node.value, node.delay)
    if t is If or t is For or t is While or t is Wait:
        return (node.cond,)
    if t is Case:
        return [node.subject] + [
            expr for item in node.items for expr in item.exprs
        ]
    if t is EventControl:
        return [sense.expr for sense in node.senses]
    if t is SysTaskCall or t is TaskCall:
        return node.args
    if t is DelayStmt:
        return (node.delay,)
    if t is Repeat:
        return (node.count,)
    return ()


def child_stmts(node) -> Sequence[Stmt]:
    """Direct child statements of a statement, in source order (a
    ``Case``'s are its item bodies; an ``If`` without ``else`` has one).
    The result may be the node's own list: do not mutate it."""
    t = type(node)
    if t is Block:
        return node.stmts
    if t is If:
        if node.else_stmt is None:
            return (node.then_stmt,)
        return (node.then_stmt, node.else_stmt)
    if t is Case:
        return [item.body for item in node.items]
    if t is For:
        return (node.init, node.step, node.body)
    if (t is EventControl or t is DelayStmt or t is Forever or t is While
            or t is Repeat or t is Wait):
        return (node.body,)
    return ()


def walk_stmts(stmt: Stmt | None) -> Iterator[Stmt]:
    """``stmt`` and every statement under it, pre-order (a statement
    before its children, children in source order); ``None`` yields
    nothing."""
    stack = [stmt]
    while stack:
        node = stack.pop()
        if node is None:
            continue
        yield node
        stack.extend(reversed(child_stmts(node)))


def lvalue_names(target: Expr | None, into: set[str]) -> None:
    """Add the names an lvalue writes to ``into``: the base identifier
    of each selected or concatenated part (not its index names)."""
    t = type(target)
    if t is Identifier:
        into.add(target.name)
    elif t is BitSelect or t is PartSelect or t is IndexedPartSelect:
        lvalue_names(target.base, into)
    elif t is Concat:
        for part in target.parts:
            lvalue_names(part, into)


def assigned_names(stmt: Stmt | None) -> set[str]:
    """Names any procedural assignment in ``stmt``'s tree writes."""
    names: set[str] = set()
    for node in walk_stmts(stmt):
        if type(node) is Assign:
            lvalue_names(node.target, names)
    return names

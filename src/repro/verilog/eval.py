"""Expression evaluation over four-state values.

The evaluator is shared by constant contexts (parameter values, ranges),
continuous assignments and procedural code.  A *scope* resolves names to
signals, parameters or functions (see :mod:`repro.verilog.elaborate`); a
*context* provides simulation-time services (``$time``, ``$random``) and
is ``None`` during constant evaluation.

Width semantics follow the IEEE 1364 two-step rule: every expression has a
*self-determined* size (:func:`size_of`) and operands of arithmetic,
bitwise and comparison operators are evaluated in a *context width* that
is the maximum of the operand sizes (and, for assignments, the lvalue
width).  This is what makes ``{cout, sum} == a + b`` keep the carry bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import ast, values
from .errors import ElaborationError
from .values import Vec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .elaborate import Scope, Signal

# Operators whose operands take the surrounding context width.
_CONTEXT_OPS = frozenset(["+", "-", "*", "/", "%", "&", "|", "^", "~^", "^~"])
# Comparisons: operands sized to max of the two sides, result is 1 bit.
_COMPARE_OPS = frozenset(["==", "!=", "===", "!==", "<", "<=", ">", ">="])
# Shift/power: left operand takes context, right is self-determined.
_SHIFT_OPS = frozenset(["<<", ">>", "<<<", ">>>", "**"])
_LOGICAL_OPS = frozenset(["&&", "||"])

_BINARY_FUNCS = {
    "+": values.add,
    "-": values.sub,
    "*": values.mul,
    "/": values.div,
    "%": values.mod,
    "**": values.power,
    "&": values.bit_and,
    "|": values.bit_or,
    "^": values.bit_xor,
    "~^": values.bit_xnor,
    "^~": values.bit_xnor,
    "<<": values.shift_left,
    ">>": values.shift_right,
    "<<<": values.arith_shift_left,
    ">>>": values.arith_shift_right,
    "==": values.eq,
    "!=": values.neq,
    "===": values.case_eq,
    "!==": values.case_neq,
    "<": values.lt,
    "<=": values.le,
    ">": values.gt,
    ">=": values.ge,
    "&&": values.logical_and,
    "||": values.logical_or,
}

_UNARY_FUNCS = {
    "+": values.unary_plus,
    "-": values.negate,
    "!": values.logical_not,
    "~": values.bit_not,
    "&": values.reduce_and,
    "~&": values.reduce_nand,
    "|": values.reduce_or,
    "~|": values.reduce_nor,
    "^": values.reduce_xor,
    "~^": values.reduce_xnor,
    "^~": values.reduce_xnor,
}

_CONTEXT_UNARY = frozenset(["+", "-", "~"])


def _string_to_vec(text: str) -> Vec:
    """LRM string-literal value: 8 bits per character, MSB first."""
    if not text:
        return Vec.from_int(0, 8)
    value = 0
    for ch in text:
        value = (value << 8) | (ord(ch) & 0xFF)
    return Vec.from_int(value, 8 * len(text))


# ----------------------------------------------------------------------
# Self-determined sizes (LRM table 5-22)
# ----------------------------------------------------------------------
def size_of(expr: ast.Expr, scope: "Scope", const) -> int:
    """Self-determined bit size of an expression.

    ``const(expr, scope) -> int`` folds the select bounds, replication
    counts and function ranges a size depends on.  The interpreter
    passes :func:`eval_const`; the compiled engine passes a folder that
    refuses to read signals, so a size that depends on one is left to
    the interpreter at run time.
    """
    if isinstance(expr, ast.Number):
        return expr.width
    if isinstance(expr, ast.StringLit):
        return max(8, 8 * len(expr.text))
    if isinstance(expr, ast.Identifier):
        resolved = scope.resolve(expr.name)
        if resolved is None:
            raise ElaborationError(
                f"undeclared identifier {expr.name!r}", expr.line
            )
        kind, payload = resolved
        if kind == "param":
            return payload.width
        if kind == "signal":
            return payload.width
        raise ElaborationError(f"{expr.name!r} is not a value", expr.line)
    if isinstance(expr, ast.BitSelect):
        signal = _signal_of(expr.base, scope)
        if signal is not None and signal.memory is not None:
            return signal.width
        return 1
    if isinstance(expr, ast.PartSelect):
        return abs(const(expr.msb, scope) - const(expr.lsb, scope)) + 1
    if isinstance(expr, ast.IndexedPartSelect):
        return const(expr.width, scope)
    if isinstance(expr, ast.Unary):
        if expr.op in _CONTEXT_UNARY:
            return size_of(expr.operand, scope, const)
        return 1
    if isinstance(expr, ast.Binary):
        if expr.op in _CONTEXT_OPS:
            return max(size_of(expr.lhs, scope, const),
                       size_of(expr.rhs, scope, const))
        if expr.op in _SHIFT_OPS:
            return size_of(expr.lhs, scope, const)
        return 1  # comparisons and logical ops
    if isinstance(expr, ast.Ternary):
        return max(size_of(expr.if_true, scope, const),
                   size_of(expr.if_false, scope, const))
    if isinstance(expr, ast.Concat):
        return sum(size_of(part, scope, const) for part in expr.parts)
    if isinstance(expr, ast.Replicate):
        return const(expr.count, scope) * size_of(expr.value, scope, const)
    if isinstance(expr, ast.SystemCall):
        if expr.name in ("$signed", "$unsigned"):
            return size_of(sole_arg(expr), scope, const)
        if expr.name in ("$time", "$stime", "$realtime"):
            return 64
        return 32
    if isinstance(expr, ast.FunctionCall):
        resolved = scope.resolve(expr.name)
        if resolved is None or resolved[0] != "func":
            raise ElaborationError(f"unknown function {expr.name!r}", expr.line)
        func = resolved[1]
        if func.range is None:
            return 1
        return abs(const(func.range.msb, scope)
                   - const(func.range.lsb, scope)) + 1
    raise ElaborationError(f"cannot size {type(expr).__name__}", expr.line)


#: System functions that take exactly one argument (see :func:`sole_arg`)
ONE_ARG_CALLS = frozenset(["$signed", "$unsigned", "$clog2"])


def sole_arg(call: ast.SystemCall) -> ast.Expr:
    """The argument of a call to one of :data:`ONE_ARG_CALLS`.

    Any other argument count is an elaboration error at the call's
    line.  Elaboration checks every process and function up front, so
    a design that reaches simulation has no such call.
    """
    if len(call.args) != 1:
        raise ElaborationError(
            f"{call.name} takes one argument, got {len(call.args)}",
            call.line,
        )
    return call.args[0]


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------
def eval_expr(
    expr: ast.Expr, scope: "Scope", ctx=None, width: int | None = None
) -> Vec:
    """Evaluate an expression to a :class:`Vec`.

    ``width`` is the context width imposed by the surrounding operator or
    assignment; ``None`` means self-determined.  Raises
    :class:`ElaborationError` for unresolvable names — the error class the
    compile gate reports for undeclared identifiers.
    """
    # Profiler hook: the simulator carries a per-run eval counter only
    # when a profiler is attached; constant evaluation passes ctx=None
    # and the unprofiled simulator carries None, so the disabled path
    # is a single short-circuited check.
    if ctx is not None and ctx._profile_evals is not None:
        ctx._profile_evals[0] += 1
    if isinstance(expr, ast.Number):
        return Vec.from_bits(expr.value_bits, expr.signed)
    if isinstance(expr, ast.StringLit):
        return _string_to_vec(expr.text)
    if isinstance(expr, ast.Identifier):
        return _eval_identifier(expr, scope)
    if isinstance(expr, ast.Unary):
        if expr.op in _CONTEXT_UNARY:
            inner = max(width or 0, size_of(expr.operand, scope, eval_const))
            operand = eval_expr(expr.operand, scope, ctx, inner).resize(inner)
            return _UNARY_FUNCS[expr.op](operand)
        return _UNARY_FUNCS[expr.op](eval_expr(expr.operand, scope, ctx))
    if isinstance(expr, ast.Binary):
        return _eval_binary(expr, scope, ctx, width)
    if isinstance(expr, ast.Ternary):
        return _eval_ternary(expr, scope, ctx, width)
    if isinstance(expr, ast.Concat):
        return values.concat([eval_expr(p, scope, ctx) for p in expr.parts])
    if isinstance(expr, ast.Replicate):
        count = eval_expr(expr.count, scope, ctx).to_unsigned()
        if count is None or count < 1:
            raise ElaborationError("bad replication count", expr.line)
        return values.replicate(count, eval_expr(expr.value, scope, ctx))
    if isinstance(expr, ast.BitSelect):
        return _eval_bit_select(expr, scope, ctx)
    if isinstance(expr, ast.PartSelect):
        return _eval_part_select(expr, scope, ctx)
    if isinstance(expr, ast.IndexedPartSelect):
        return _eval_indexed_part_select(expr, scope, ctx)
    if isinstance(expr, ast.SystemCall):
        return _eval_system_call(expr, scope, ctx)
    if isinstance(expr, ast.FunctionCall):
        return _eval_function_call(expr, scope, ctx)
    raise ElaborationError(f"cannot evaluate {type(expr).__name__}", expr.line)


def eval_sized(expr: ast.Expr, scope: "Scope", ctx, target_width: int) -> Vec:
    """Evaluate an assignment RHS in the context of an lvalue width."""
    context = max(target_width, size_of(expr, scope, eval_const))
    return eval_expr(expr, scope, ctx, context)


def eval_const(expr: ast.Expr, scope: "Scope") -> int:
    """Evaluate a constant expression to a known integer (ranges, params)."""
    result = eval_expr(expr, scope).to_int()
    if result is None:
        raise ElaborationError("constant expression has x/z bits", expr.line)
    return result


def _eval_binary(
    expr: ast.Binary, scope: "Scope", ctx, width: int | None
) -> Vec:
    op = expr.op
    func = _BINARY_FUNCS[op]
    if op in _CONTEXT_OPS:
        context = max(width or 0, size_of(expr.lhs, scope, eval_const),
                      size_of(expr.rhs, scope, eval_const))
        lhs = eval_expr(expr.lhs, scope, ctx, context).resize(context)
        rhs = eval_expr(expr.rhs, scope, ctx, context).resize(context)
        return func(lhs, rhs)
    if op in _COMPARE_OPS:
        context = max(size_of(expr.lhs, scope, eval_const),
                      size_of(expr.rhs, scope, eval_const))
        lhs = eval_expr(expr.lhs, scope, ctx, context).resize(context)
        rhs = eval_expr(expr.rhs, scope, ctx, context).resize(context)
        return func(lhs, rhs)
    if op in _SHIFT_OPS:
        context = max(width or 0, size_of(expr.lhs, scope, eval_const))
        lhs = eval_expr(expr.lhs, scope, ctx, context).resize(context)
        rhs = eval_expr(expr.rhs, scope, ctx)
        return func(lhs, rhs)
    # logical && / ||: operands self-determined
    return func(
        eval_expr(expr.lhs, scope, ctx), eval_expr(expr.rhs, scope, ctx)
    )


def _eval_identifier(expr: ast.Identifier, scope: "Scope") -> Vec:
    resolved = scope.resolve(expr.name)
    if resolved is None:
        raise ElaborationError(f"undeclared identifier {expr.name!r}", expr.line)
    kind, payload = resolved
    if kind == "param":
        return payload
    if kind == "signal":
        signal = payload
        if signal.memory is not None:
            raise ElaborationError(
                f"memory {expr.name!r} used without an index", expr.line
            )
        return signal.value
    raise ElaborationError(f"{expr.name!r} is not a value", expr.line)


def _eval_ternary(expr: ast.Ternary, scope: "Scope", ctx, width: int | None) -> Vec:
    cond = eval_expr(expr.cond, scope, ctx)
    context = max(
        width or 0,
        size_of(expr.if_true, scope, eval_const),
        size_of(expr.if_false, scope, eval_const),
    )
    # the result is always `context` wide, even when the chosen arm is
    # narrower (a ternary's width is static: max of both arms, LRM 5.4.1)
    if cond.truthy():
        return eval_expr(expr.if_true, scope, ctx, context).resize(context)
    if cond.is_definitely_zero():
        return eval_expr(expr.if_false, scope, ctx, context).resize(context)
    # ambiguous condition: bitwise-merge both arms (LRM 5.1.13)
    true_v = eval_expr(expr.if_true, scope, ctx, context).resize(context)
    false_v = eval_expr(expr.if_false, scope, ctx, context).resize(context)
    mask = (1 << context) - 1
    same = ~(true_v.aval ^ false_v.aval) & ~true_v.bval & ~false_v.bval & mask
    aval = (true_v.aval & same) | (~same & mask)
    return Vec(context, aval, ~same & mask)


def _signal_of(base: ast.Expr, scope: "Scope") -> "Signal | None":
    if isinstance(base, ast.Identifier):
        resolved = scope.resolve(base.name)
        if resolved and resolved[0] == "signal":
            return resolved[1]
    return None


def _eval_bit_select(expr: ast.BitSelect, scope: "Scope", ctx) -> Vec:
    signal = _signal_of(expr.base, scope)
    index = eval_expr(expr.index, scope, ctx).to_int()
    if signal is not None and signal.memory is not None:
        return signal.read_word(index)
    if signal is not None:
        return values.select_bit(signal.value, signal.bit_offset(index))
    base = eval_expr(expr.base, scope, ctx)
    return values.select_bit(base, index)


def _eval_part_select(expr: ast.PartSelect, scope: "Scope", ctx) -> Vec:
    signal = _signal_of(expr.base, scope)
    msb = eval_expr(expr.msb, scope, ctx).to_int()
    lsb = eval_expr(expr.lsb, scope, ctx).to_int()
    if msb is None or lsb is None:
        raise ElaborationError("part-select bounds must be known", expr.line)
    if signal is not None:
        if signal.memory is not None:
            raise ElaborationError("part-select on memory", expr.line)
        hi = signal.bit_offset(msb)
        lo = signal.bit_offset(lsb)
        if hi is None or lo is None:
            return Vec.unknown(abs(msb - lsb) + 1)
        return values.select_part(signal.value, hi, lo)
    base = eval_expr(expr.base, scope, ctx)
    return values.select_part(base, msb, lsb)


def _eval_indexed_part_select(
    expr: ast.IndexedPartSelect, scope: "Scope", ctx
) -> Vec:
    signal = _signal_of(expr.base, scope)
    start = eval_expr(expr.start, scope, ctx).to_int()
    width = eval_expr(expr.width, scope, ctx).to_int()
    if width is None or width < 1:
        raise ElaborationError("indexed part-select width must be known", expr.line)
    if start is None:
        return Vec.unknown(width)
    if signal is not None and signal.memory is None:
        lo_index = start if expr.ascending else start - width + 1
        lo = signal.bit_offset(lo_index)
        if lo is None:
            return Vec.unknown(width)
        return values.select_part(signal.value, lo + width - 1, lo)
    base = eval_expr(expr.base, scope, ctx)
    lo = start if expr.ascending else start - width + 1
    return values.select_part(base, lo + width - 1, lo)


def _eval_system_call(expr: ast.SystemCall, scope: "Scope", ctx) -> Vec:
    name = expr.name
    if name == "$signed":
        return eval_expr(sole_arg(expr), scope, ctx).as_signed()
    if name == "$unsigned":
        return eval_expr(sole_arg(expr), scope, ctx).as_unsigned()
    if name == "$clog2":
        return values.clog2(eval_expr(sole_arg(expr), scope, ctx))
    if name in ("$time", "$stime", "$realtime"):
        if ctx is None:
            raise ElaborationError("$time in constant context", expr.line)
        return Vec.from_int(ctx.now, 64)
    if name == "$random":
        if ctx is None:
            raise ElaborationError("$random in constant context", expr.line)
        return Vec.from_int(ctx.next_random(), 32, True)
    raise ElaborationError(f"unsupported system function {name!r}", expr.line)


def _eval_function_call(expr: ast.FunctionCall, scope: "Scope", ctx) -> Vec:
    resolved = scope.resolve(expr.name)
    if resolved is None or resolved[0] != "func":
        raise ElaborationError(f"unknown function {expr.name!r}", expr.line)
    func = resolved[1]
    if len(expr.args) != len(func.inputs):
        raise ElaborationError(
            f"function {expr.name!r} expects {len(func.inputs)} args, "
            f"got {len(expr.args)}",
            expr.line,
        )
    args = [eval_expr(arg, scope, ctx) for arg in expr.args]
    # Local import: elaborate depends on eval for constants.
    from .elaborate import make_function_scope

    local = make_function_scope(func, scope, args)
    _exec_function_body(func.body, local, ctx)
    result = local.resolve(func.name)
    assert result is not None and result[0] == "signal"
    return result[1].value


def _exec_function_body(stmt: ast.Stmt, scope: "Scope", ctx) -> None:
    """Synchronous statement executor for function bodies (no timing)."""
    if isinstance(stmt, ast.Block):
        for child in stmt.stmts:
            _exec_function_body(child, scope, ctx)
    elif isinstance(stmt, ast.Assign):
        if stmt.nonblocking:
            raise ElaborationError("nonblocking assign in function", stmt.line)
        from .elaborate import lvalue_width, store_to_lvalue

        value = eval_sized(stmt.value, scope, ctx,
                           lvalue_width(stmt.target, scope, eval_const))
        store_to_lvalue(stmt.target, value, scope, ctx)
    elif isinstance(stmt, ast.If):
        if eval_expr(stmt.cond, scope, ctx).truthy():
            _exec_function_body(stmt.then_stmt, scope, ctx)
        elif stmt.else_stmt is not None:
            _exec_function_body(stmt.else_stmt, scope, ctx)
    elif isinstance(stmt, ast.Case):
        body = case_arm(stmt, scope, ctx)
        if body is not None:
            _exec_function_body(body, scope, ctx)
    elif isinstance(stmt, ast.For):
        _exec_function_body(stmt.init, scope, ctx)
        guard = 0
        while eval_expr(stmt.cond, scope, ctx).truthy():
            _exec_function_body(stmt.body, scope, ctx)
            _exec_function_body(stmt.step, scope, ctx)
            guard += 1
            if guard > 1_000_000:
                raise ElaborationError("runaway for-loop in function", stmt.line)
    elif isinstance(stmt, ast.While):
        guard = 0
        while eval_expr(stmt.cond, scope, ctx).truthy():
            _exec_function_body(stmt.body, scope, ctx)
            guard += 1
            if guard > 1_000_000:
                raise ElaborationError("runaway while-loop in function", stmt.line)
    elif isinstance(stmt, ast.NullStmt):
        pass
    else:
        raise ElaborationError(
            f"{type(stmt).__name__} not allowed in function body", stmt.line
        )


def case_matches(kind: str, subject: Vec, label: Vec) -> bool:
    """Case-item matching for case/casez/casex."""
    width = max(subject.width, label.width)
    a, b = subject.resize(width), label.resize(width)
    mask = (1 << width) - 1
    if kind == "case":
        return a.aval == b.aval and a.bval == b.bval
    if kind == "casez":
        ignore = (a.bval & ~a.aval) | (b.bval & ~b.aval)  # z bits either side
    else:  # casex
        ignore = a.bval | b.bval
    care = mask & ~ignore
    return (a.aval & care) == (b.aval & care) and (a.bval & care) == (b.bval & care)


def case_arm(stmt: ast.Case, scope: "Scope", ctx) -> ast.Stmt | None:
    """The body a case statement runs: the first item with a label that
    matches the subject, else the default's; None when neither exists.
    Labels are evaluated in source order and only up to the match."""
    subject = eval_expr(stmt.subject, scope, ctx)
    default = None
    for item in stmt.items:
        if not item.exprs:
            default = item
            continue
        for label_expr in item.exprs:
            label = eval_expr(label_expr, scope, ctx)
            if case_matches(stmt.kind, subject, label):
                return item.body
    return None if default is None else default.body


def collect_reads(node, into: set[str] | None = None) -> set[str]:
    """Names read by an expression or statement (for @* and assigns).

    For statements, assignment *targets* are excluded but their index
    expressions are included, matching LRM implicit-sensitivity rules.
    An intra-assignment delay (``a = #d b``) is not a read either: it
    is evaluated when the statement runs, not watched.
    """
    reads: set[str] = set() if into is None else into
    if isinstance(node, ast.Stmt):
        for stmt in ast.walk_stmts(node):
            if type(stmt) is ast.Assign:
                _expr_reads(stmt.value, reads)
                collect_target_index_reads(stmt.target, reads)
            else:
                for expr in ast.child_exprs(stmt):
                    _expr_reads(expr, reads)
    else:
        _expr_reads(node, reads)
    return reads


def _expr_reads(expr: ast.Expr | None, reads: set[str]) -> None:
    if type(expr) is ast.Identifier:
        reads.add(expr.name)
    else:
        for child in ast.child_exprs(expr):
            _expr_reads(child, reads)


def collect_target_index_reads(target: ast.Expr | None, into: set[str]) -> None:
    """Add the names an lvalue's index and bound expressions read to
    ``into`` (its base names are written, not read)."""
    t = type(target)
    if t is ast.BitSelect or t is ast.PartSelect or t is ast.IndexedPartSelect:
        base, *indices = ast.child_exprs(target)
        collect_target_index_reads(base, into)
        for index in indices:
            _expr_reads(index, into)
    elif t is ast.Concat:
        for part in target.parts:
            collect_target_index_reads(part, into)

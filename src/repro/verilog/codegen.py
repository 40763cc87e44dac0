"""Netlist→closure compiler: a fast-path execution engine for the simulator.

Walks an elaborated :class:`~repro.verilog.elaborate.Design` once and
lowers each process to Python closures:

* expression trees become width-resolved callables ``fn(sim) -> Vec``
  with context widths, resizes and constant subtrees folded at compile
  time (:func:`_compile4` mirrors :func:`repro.verilog.eval.eval_expr`
  exactly — same widths, same x/z semantics, same error messages);
* blocking/nonblocking stores are pre-bound to their target
  :class:`~repro.verilog.elaborate.Signal` with part-select offsets and
  concat splits precomputed (mirroring ``store_to_lvalue``);
* sensitivity lists become persistent ``_SenseEntry`` objects with the
  waiter-registration signal list and a fast re-eval closure attached,
  so suspension no longer re-runs ``collect_reads`` + scope resolution.

Compiled processes are plain generators speaking the interpreter's
suspension protocol (``("delay", ticks)`` / ``("wait", entries)``), so
:class:`~repro.verilog.sim.Simulator` runs compiled and interpreted
processes side by side in one event loop and the step/work runaway
guards keep identical counts and messages.  Any construct the compiler
does not cover raises :class:`_Unsupported` during engine construction
and that *process* falls back to the interpreter — never the whole
design.

One engine drives one simulation run: sense entries and their ``last``
values live in the compiled closures, exactly as a ``Simulator`` owns
its interpreted processes.  (Re-simulating a mutated ``Design`` is
already unsupported upstream — signals carry run state.)
"""

from __future__ import annotations

from . import ast, values
from .elaborate import Design, ProcessSpec, Scope, Signal
from .errors import ElaborationError, SimulationError
from .eval import (
    _BINARY_FUNCS,
    _COMPARE_OPS,
    _CONTEXT_OPS,
    _CONTEXT_UNARY,
    _SHIFT_OPS,
    _UNARY_FUNCS,
    _string_to_vec,
    case_matches,
    collect_reads,
    eval_expr,
)
from .sim import _FinishSim, _SenseEntry, render_value
from .values import Vec

__all__ = ["CompiledEngine"]


class _Unsupported(Exception):
    """Raised at compile time: lower this process via the interpreter."""


# ----------------------------------------------------------------------
# Static (compile-time) constant folding
# ----------------------------------------------------------------------
def _is_param_const(expr: ast.Expr, scope: Scope) -> bool:
    """True when ``expr`` reads only parameters and literals.

    The interpreter's ``eval_const``/``size_of`` calls inside hot paths
    *can* read signals at runtime (e.g. dynamic part-select bounds); such
    expressions are not static and the process falls back.
    """
    if isinstance(expr, (ast.SystemCall, ast.FunctionCall)):
        return False
    for child in _children_of(expr):
        if not _is_param_const(child, scope):
            return False
    if isinstance(expr, ast.Identifier):
        resolved = scope.resolve(expr.name)
        return resolved is not None and resolved[0] == "param"
    return True


def _children_of(expr: ast.Expr) -> list[ast.Expr]:
    if isinstance(expr, ast.Unary):
        return [expr.operand]
    if isinstance(expr, ast.Binary):
        return [expr.lhs, expr.rhs]
    if isinstance(expr, ast.Ternary):
        return [expr.cond, expr.if_true, expr.if_false]
    if isinstance(expr, ast.Concat):
        return list(expr.parts)
    if isinstance(expr, ast.Replicate):
        return [expr.count, expr.value]
    if isinstance(expr, ast.BitSelect):
        return [expr.base, expr.index]
    if isinstance(expr, ast.PartSelect):
        return [expr.base, expr.msb, expr.lsb]
    if isinstance(expr, ast.IndexedPartSelect):
        return [expr.base, expr.start, expr.width]
    if isinstance(expr, (ast.SystemCall, ast.FunctionCall)):
        return list(expr.args)
    return []


def _static_const(expr: ast.Expr, scope: Scope) -> int:
    """Fold a compile-time constant, or raise :class:`_Unsupported`."""
    if expr is None or not _is_param_const(expr, scope):
        raise _Unsupported("non-constant expression in sized position")
    value = eval_expr(expr, scope).to_int()
    if value is None:
        raise ElaborationError("constant expression has x/z bits", expr.line)
    return value


def _static_size(expr: ast.Expr, scope: Scope) -> int:
    """Mirror of :func:`repro.verilog.eval.size_of` that refuses to read
    runtime state (raises :class:`_Unsupported` instead)."""
    if isinstance(expr, ast.Number):
        return expr.width
    if isinstance(expr, ast.StringLit):
        return max(8, 8 * len(expr.text))
    if isinstance(expr, ast.Identifier):
        resolved = scope.resolve(expr.name)
        if resolved is None or resolved[0] not in ("param", "signal"):
            raise _Unsupported(f"cannot size identifier {expr.name!r}")
        return resolved[1].width
    if isinstance(expr, ast.BitSelect):
        signal = _signal_of(expr.base, scope)
        if signal is not None and signal.memory is not None:
            return signal.width
        return 1
    if isinstance(expr, ast.PartSelect):
        return abs(_static_const(expr.msb, scope)
                   - _static_const(expr.lsb, scope)) + 1
    if isinstance(expr, ast.IndexedPartSelect):
        return _static_const(expr.width, scope)
    if isinstance(expr, ast.Unary):
        if expr.op in _CONTEXT_UNARY:
            return _static_size(expr.operand, scope)
        return 1
    if isinstance(expr, ast.Binary):
        if expr.op in _CONTEXT_OPS:
            return max(_static_size(expr.lhs, scope),
                       _static_size(expr.rhs, scope))
        if expr.op in _SHIFT_OPS:
            return _static_size(expr.lhs, scope)
        return 1
    if isinstance(expr, ast.Ternary):
        return max(_static_size(expr.if_true, scope),
                   _static_size(expr.if_false, scope))
    if isinstance(expr, ast.Concat):
        return sum(_static_size(part, scope) for part in expr.parts)
    if isinstance(expr, ast.Replicate):
        return (_static_const(expr.count, scope)
                * _static_size(expr.value, scope))
    if isinstance(expr, ast.SystemCall):
        if expr.name in ("$signed", "$unsigned"):
            if not expr.args:
                raise _Unsupported(f"{expr.name} without arguments")
            return _static_size(expr.args[0], scope)
        if expr.name in ("$time", "$stime", "$realtime"):
            return 64
        return 32
    if isinstance(expr, ast.FunctionCall):
        resolved = scope.resolve(expr.name)
        if resolved is None or resolved[0] != "func":
            raise _Unsupported(f"unknown function {expr.name!r}")
        func = resolved[1]
        if func.range is None:
            return 1
        return abs(_static_const(func.range.msb, scope)
                   - _static_const(func.range.lsb, scope)) + 1
    raise _Unsupported(f"cannot size {type(expr).__name__}")


def _signal_of(base: ast.Expr, scope: Scope) -> Signal | None:
    if isinstance(base, ast.Identifier):
        resolved = scope.resolve(base.name)
        if resolved and resolved[0] == "signal":
            return resolved[1]
    return None


# ----------------------------------------------------------------------
# Four-state lowering (exact eval_expr mirror)
# ----------------------------------------------------------------------
def _const_fn(vec: Vec):
    return lambda sim: vec


def _fit(fn, natural: int | None, context: int):
    """Apply the interpreter's ``.resize(context)`` on an operand,
    elided when the operand's width is statically equal already."""
    if natural == context:
        return fn
    return lambda sim: fn(sim).resize(context)


def _compile4(expr: ast.Expr, scope: Scope, width: int | None):
    """Lower ``expr`` to ``fn(sim) -> Vec`` under context ``width``.

    Returns ``(fn, natural_width)`` where ``natural_width`` is the static
    width of the produced vector (``None`` when runtime-dependent).
    Raises :class:`_Unsupported` for trees the compiler does not cover.
    """
    if isinstance(expr, ast.Number):
        vec = Vec.from_bits(expr.value_bits, expr.signed)
        return _const_fn(vec), vec.width
    if isinstance(expr, ast.StringLit):
        vec = _string_to_vec(expr.text)
        return _const_fn(vec), vec.width
    if isinstance(expr, ast.Identifier):
        resolved = scope.resolve(expr.name)
        if resolved is None:
            raise _Unsupported(f"undeclared identifier {expr.name!r}")
        kind, payload = resolved
        if kind == "param":
            return _const_fn(payload), payload.width
        if kind != "signal" or payload.memory is not None:
            raise _Unsupported(f"cannot read {expr.name!r} directly")
        signal = payload
        return (lambda sim: signal.value), signal.width
    if isinstance(expr, ast.Unary):
        return _compile4_unary(expr, scope, width)
    if isinstance(expr, ast.Binary):
        return _compile4_binary(expr, scope, width)
    if isinstance(expr, ast.Ternary):
        return _compile4_ternary(expr, scope, width)
    if isinstance(expr, ast.Concat):
        parts = [_compile4(part, scope, None) for part in expr.parts]
        fns = [fn for fn, _ in parts]
        widths = [w for _, w in parts]
        natural = sum(widths) if all(w is not None for w in widths) else None
        concat = values.concat
        return (lambda sim: concat([fn(sim) for fn in fns])), natural
    if isinstance(expr, ast.Replicate):
        return _compile4_replicate(expr, scope)
    if isinstance(expr, ast.BitSelect):
        return _compile4_bit_select(expr, scope)
    if isinstance(expr, ast.PartSelect):
        return _compile4_part_select(expr, scope)
    if isinstance(expr, ast.IndexedPartSelect):
        return _compile4_indexed(expr, scope)
    if isinstance(expr, ast.SystemCall):
        return _compile4_system_call(expr, scope)
    if isinstance(expr, ast.FunctionCall):
        return _compile4_function_call(expr, scope)
    raise _Unsupported(f"cannot compile {type(expr).__name__}")


def _compile4_unary(expr: ast.Unary, scope: Scope, width: int | None):
    func = _UNARY_FUNCS.get(expr.op)
    if func is None:
        raise _Unsupported(f"unary operator {expr.op!r}")
    if expr.op in _CONTEXT_UNARY:
        inner = max(width or 0, _static_size(expr.operand, scope))
        operand = _fit(*_compile4(expr.operand, scope, inner), inner)
        return (lambda sim: func(operand(sim))), inner
    operand, _ = _compile4(expr.operand, scope, None)
    return (lambda sim: func(operand(sim))), 1


def _compile4_binary(expr: ast.Binary, scope: Scope, width: int | None):
    op = expr.op
    func = _BINARY_FUNCS.get(op)
    if func is None:
        raise _Unsupported(f"binary operator {op!r}")
    if op in _CONTEXT_OPS:
        context = max(width or 0, _static_size(expr.lhs, scope),
                      _static_size(expr.rhs, scope))
        lhs = _fit(*_compile4(expr.lhs, scope, context), context)
        rhs = _fit(*_compile4(expr.rhs, scope, context), context)
        return (lambda sim: func(lhs(sim), rhs(sim))), context
    if op in _COMPARE_OPS:
        context = max(_static_size(expr.lhs, scope),
                      _static_size(expr.rhs, scope))
        lhs = _fit(*_compile4(expr.lhs, scope, context), context)
        rhs = _fit(*_compile4(expr.rhs, scope, context), context)
        return (lambda sim: func(lhs(sim), rhs(sim))), 1
    if op in _SHIFT_OPS:
        context = max(width or 0, _static_size(expr.lhs, scope))
        lhs = _fit(*_compile4(expr.lhs, scope, context), context)
        rhs, rhs_w = _compile4(expr.rhs, scope, None)
        if op == "**":
            # values.power re-unifies widths, so the result can exceed
            # the lhs context when the exponent is wider.
            natural = max(context, rhs_w) if rhs_w is not None else None
        else:
            natural = context
        return (lambda sim: func(lhs(sim), rhs(sim))), natural
    # logical && / ||: operands self-determined
    lhs, _ = _compile4(expr.lhs, scope, None)
    rhs, _ = _compile4(expr.rhs, scope, None)
    return (lambda sim: func(lhs(sim), rhs(sim))), 1


def _compile4_ternary(expr: ast.Ternary, scope: Scope, width: int | None):
    context = max(width or 0, _static_size(expr.if_true, scope),
                  _static_size(expr.if_false, scope))
    cond, _ = _compile4(expr.cond, scope, None)
    true_fn = _fit(*_compile4(expr.if_true, scope, context), context)
    false_fn = _fit(*_compile4(expr.if_false, scope, context), context)
    mask = (1 << context) - 1

    def run(sim):
        chooser = cond(sim)
        if chooser.truthy():
            return true_fn(sim)
        if chooser.is_definitely_zero():
            return false_fn(sim)
        true_v = true_fn(sim)
        false_v = false_fn(sim)
        same = (~(true_v.aval ^ false_v.aval)
                & ~true_v.bval & ~false_v.bval & mask)
        return Vec(context, (true_v.aval & same) | (~same & mask),
                   ~same & mask)

    return run, context


def _compile4_replicate(expr: ast.Replicate, scope: Scope):
    value_fn, value_w = _compile4(expr.value, scope, None)
    replicate = values.replicate
    if _is_param_const(expr.count, scope):
        count = eval_expr(expr.count, scope).to_unsigned()
        if count is None or count < 1:
            # the interpreter raises on every evaluation; keep its path
            raise _Unsupported("constant bad replication count")
        natural = count * value_w if value_w is not None else None
        return (lambda sim: replicate(count, value_fn(sim))), natural
    count_fn, _ = _compile4(expr.count, scope, None)
    line = expr.line

    def run(sim):
        count = count_fn(sim).to_unsigned()
        if count is None or count < 1:
            raise ElaborationError("bad replication count", line)
        return replicate(count, value_fn(sim))

    return run, None


def _compile4_bit_select(expr: ast.BitSelect, scope: Scope):
    signal = _signal_of(expr.base, scope)
    select_bit = values.select_bit
    index_const = _is_param_const(expr.index, scope)
    if not index_const:
        index_fn, _ = _compile4(expr.index, scope, None)
    if signal is not None and signal.memory is not None:
        if index_const:
            address = eval_expr(expr.index, scope).to_int()
            return (lambda sim: signal.read_word(address)), signal.width

        def run_word(sim):
            return signal.read_word(index_fn(sim).to_int())

        return run_word, signal.width
    if signal is not None:
        if index_const:
            offset = signal.bit_offset(eval_expr(expr.index, scope).to_int())
            return (lambda sim: select_bit(signal.value, offset)), 1

        def run_bit(sim):
            return select_bit(signal.value,
                              signal.bit_offset(index_fn(sim).to_int()))

        return run_bit, 1
    base_fn, _ = _compile4(expr.base, scope, None)
    if index_const:
        index = eval_expr(expr.index, scope).to_int()
        return (lambda sim: select_bit(base_fn(sim), index)), 1

    def run(sim):
        index = index_fn(sim).to_int()
        return select_bit(base_fn(sim), index)

    return run, 1


def _compile4_part_select(expr: ast.PartSelect, scope: Scope):
    signal = _signal_of(expr.base, scope)
    select_part = values.select_part
    line = expr.line
    bounds_const = (_is_param_const(expr.msb, scope)
                    and _is_param_const(expr.lsb, scope))
    if signal is not None and signal.memory is not None:
        raise _Unsupported("part-select on memory")
    if bounds_const:
        msb = eval_expr(expr.msb, scope).to_int()
        lsb = eval_expr(expr.lsb, scope).to_int()
        if msb is None or lsb is None:
            raise _Unsupported("x/z part-select bounds")
        natural = abs(msb - lsb) + 1
        if signal is not None:
            hi, lo = signal.bit_offset(msb), signal.bit_offset(lsb)
            if hi is None or lo is None:
                unknown = Vec.unknown(natural)
                return _const_fn(unknown), natural
            return (lambda sim: select_part(signal.value, hi, lo)), natural
        base_fn, _ = _compile4(expr.base, scope, None)
        return (lambda sim: select_part(base_fn(sim), msb, lsb)), natural
    msb_fn, _ = _compile4(expr.msb, scope, None)
    lsb_fn, _ = _compile4(expr.lsb, scope, None)
    if signal is not None:
        def run_signal(sim):
            msb = msb_fn(sim).to_int()
            lsb = lsb_fn(sim).to_int()
            if msb is None or lsb is None:
                raise ElaborationError(
                    "part-select bounds must be known", line
                )
            hi, lo = signal.bit_offset(msb), signal.bit_offset(lsb)
            if hi is None or lo is None:
                return Vec.unknown(abs(msb - lsb) + 1)
            return select_part(signal.value, hi, lo)

        return run_signal, None
    base_fn, _ = _compile4(expr.base, scope, None)

    def run(sim):
        msb = msb_fn(sim).to_int()
        lsb = lsb_fn(sim).to_int()
        if msb is None or lsb is None:
            raise ElaborationError("part-select bounds must be known", line)
        return select_part(base_fn(sim), msb, lsb)

    return run, None


def _compile4_indexed(expr: ast.IndexedPartSelect, scope: Scope):
    signal = _signal_of(expr.base, scope)
    select_part = values.select_part
    ascending = expr.ascending
    line = expr.line
    start_fn, _ = _compile4(expr.start, scope, None)
    width_fn, _ = _compile4(expr.width, scope, None)
    natural = None
    if _is_param_const(expr.width, scope):
        known = eval_expr(expr.width, scope).to_int()
        if known is not None and known >= 1:
            natural = known
    if signal is not None and signal.memory is None:
        def run_signal(sim):
            start = start_fn(sim).to_int()
            width = width_fn(sim).to_int()
            if width is None or width < 1:
                raise ElaborationError(
                    "indexed part-select width must be known", line
                )
            if start is None:
                return Vec.unknown(width)
            lo_index = start if ascending else start - width + 1
            lo = signal.bit_offset(lo_index)
            if lo is None:
                return Vec.unknown(width)
            return select_part(signal.value, lo + width - 1, lo)

        return run_signal, natural
    base_fn, _ = _compile4(expr.base, scope, None)

    def run(sim):
        start = start_fn(sim).to_int()
        width = width_fn(sim).to_int()
        if width is None or width < 1:
            raise ElaborationError(
                "indexed part-select width must be known", line
            )
        if start is None:
            return Vec.unknown(width)
        lo = start if ascending else start - width + 1
        return select_part(base_fn(sim), lo + width - 1, lo)

    return run, natural


def _compile4_system_call(expr: ast.SystemCall, scope: Scope):
    name = expr.name
    if name in ("$signed", "$unsigned"):
        if not expr.args:
            raise _Unsupported(f"{name} without arguments")
        arg_fn, arg_w = _compile4(expr.args[0], scope, None)
        if name == "$signed":
            return (lambda sim: arg_fn(sim).as_signed()), arg_w
        return (lambda sim: arg_fn(sim).as_unsigned()), arg_w
    if name == "$clog2":
        if not expr.args:
            raise _Unsupported("$clog2 without arguments")
        arg_fn, _ = _compile4(expr.args[0], scope, None)

        def run_clog2(sim):
            operand = arg_fn(sim).to_unsigned()
            if operand is None:
                return Vec.unknown(32)
            bits = 0
            while (1 << bits) < operand:
                bits += 1
            return Vec.from_int(bits, 32, True)

        return run_clog2, 32
    if name in ("$time", "$stime", "$realtime"):
        from_int = Vec.from_int
        return (lambda sim: from_int(sim.now, 64)), 64
    if name == "$random":
        from_int = Vec.from_int
        return (lambda sim: from_int(sim.next_random(), 32, True)), 32
    raise _Unsupported(f"system function {name!r}")


def _compile4_function_call(expr: ast.FunctionCall, scope: Scope):
    resolved = scope.resolve(expr.name)
    if resolved is None or resolved[0] != "func":
        raise _Unsupported(f"unknown function {expr.name!r}")
    func = resolved[1]
    if len(expr.args) != len(func.inputs):
        raise _Unsupported(f"bad arity for function {expr.name!r}")
    natural = None
    try:
        if func.range is None:
            natural = 1
        else:
            natural = abs(_static_const(func.range.msb, scope)
                          - _static_const(func.range.lsb, scope)) + 1
    except _Unsupported:
        natural = None
    # Delegate to the interpreter's evaluator: function bodies execute a
    # private scope statement-by-statement and are rarely hot enough to
    # justify their own lowering.
    return (lambda sim: eval_expr(expr, scope, sim)), natural


# ----------------------------------------------------------------------
# Statement and process lowering
# ----------------------------------------------------------------------
class _ProcessCompiler:
    """Compiles one :class:`ProcessSpec` into a generator factory."""

    def __init__(self, design: Design):
        self.design = design

    # -- expressions ---------------------------------------------------
    def cond_fn(self, expr: ast.Expr, scope: Scope):
        """``fn(sim) -> bool`` mirroring ``eval_expr(cond).truthy()``."""
        fn, _ = _compile4(expr, scope, None)
        return lambda sim: fn(sim).truthy()

    def delay_fn(self, expr: ast.Expr | None, scope: Scope):
        """Mirror of ``Simulator._eval_delay``."""
        if expr is None:
            return lambda sim: 0
        if _is_param_const(expr, scope):
            ticks = eval_expr(expr, scope).to_unsigned()
            ticks = 0 if ticks is None else ticks
            return lambda sim: ticks
        fn, _ = _compile4(expr, scope, None)

        def run(sim):
            ticks = fn(sim).to_unsigned()
            return 0 if ticks is None else ticks

        return run

    # -- lvalues -------------------------------------------------------
    def lvalue_width(self, target: ast.Expr, scope: Scope) -> int:
        """Static mirror of ``elaborate.lvalue_width``."""
        if isinstance(target, ast.Identifier):
            return self._lvalue_signal(target, scope).width
        if isinstance(target, ast.BitSelect):
            return 1
        if isinstance(target, ast.PartSelect):
            return abs(_static_const(target.msb, scope)
                       - _static_const(target.lsb, scope)) + 1
        if isinstance(target, ast.IndexedPartSelect):
            return _static_const(target.width, scope)
        if isinstance(target, ast.Concat):
            return sum(self.lvalue_width(part, scope)
                       for part in target.parts)
        raise _Unsupported(f"bad lvalue {type(target).__name__}")

    def _lvalue_signal(self, base: ast.Expr, scope: Scope) -> Signal:
        if not isinstance(base, ast.Identifier):
            raise _Unsupported("nested lvalue selects")
        resolved = scope.resolve(base.name)
        if resolved is None or resolved[0] != "signal":
            raise _Unsupported(f"cannot assign to {base.name!r}")
        return resolved[1]

    def store_fn(self, target: ast.Expr, scope: Scope):
        """``fn(sim, value)`` mirroring ``store_to_lvalue`` with the
        target resolution and static offsets precomputed."""
        if isinstance(target, ast.Identifier):
            signal = self._lvalue_signal(target, scope)
            if signal.memory is not None:
                raise _Unsupported("assignment to whole memory")
            sig_w, sig_s = signal.width, signal.signed

            def store_ident(sim, value):
                sim.commit(signal, value.resize(sig_w, sig_s))

            return store_ident
        if isinstance(target, ast.BitSelect):
            return self._store_bit_select(target, scope)
        if isinstance(target, ast.PartSelect):
            signal = self._lvalue_signal(target.base, scope)
            msb = _static_const(target.msb, scope)
            lsb = _static_const(target.lsb, scope)
            hi, lo = signal.bit_offset(msb), signal.bit_offset(lsb)
            if hi is None or lo is None:
                return lambda sim, value: None
            insert_part = values.insert_part

            def store_part(sim, value):
                sim.commit(
                    signal, insert_part(signal.value, hi, lo, value)
                )

            return store_part
        if isinstance(target, ast.IndexedPartSelect):
            return self._store_indexed(target, scope)
        if isinstance(target, ast.Concat):
            widths = [self.lvalue_width(part, scope)
                      for part in target.parts]
            total = sum(widths)
            subs = [self.store_fn(part, scope) for part in target.parts]
            select_part = values.select_part
            pieces = []
            offset = total
            for sub, part_w in zip(subs, widths):
                offset -= part_w
                pieces.append((sub, offset + part_w - 1, offset))

            def store_concat(sim, value):
                value = value.resize(total)
                for sub, hi, lo in pieces:
                    sub(sim, select_part(value, hi, lo))

            return store_concat
        raise _Unsupported(f"unsupported lvalue {type(target).__name__}")

    def _store_bit_select(self, target: ast.BitSelect, scope: Scope):
        signal = self._lvalue_signal(target.base, scope)
        index_const = _is_param_const(target.index, scope)
        if not index_const:
            index_fn, _ = _compile4(target.index, scope, None)
        insert_part = values.insert_part
        if signal.memory is not None:
            lo_addr, hi_addr = signal.array_lo, signal.array_hi
            sig_w, sig_s = signal.width, signal.signed
            memory = signal.memory
            if index_const:
                address = eval_expr(target.index, scope).to_int()

                def store_const_word(sim, value):
                    if address is not None and lo_addr <= address <= hi_addr:
                        memory[address] = value.resize(sig_w, sig_s)
                        sim.commit(signal, signal.value, memory_write=True)

                return store_const_word

            def store_word(sim, value):
                address = index_fn(sim).to_int()
                if address is not None and lo_addr <= address <= hi_addr:
                    memory[address] = value.resize(sig_w, sig_s)
                    sim.commit(signal, signal.value, memory_write=True)

            return store_word
        if index_const:
            offset = signal.bit_offset(eval_expr(target.index, scope).to_int())
            if offset is None:
                return lambda sim, value: None

            def store_const_bit(sim, value):
                sim.commit(
                    signal,
                    insert_part(signal.value, offset, offset, value),
                )

            return store_const_bit

        def store_bit(sim, value):
            offset = signal.bit_offset(index_fn(sim).to_int())
            if offset is None:
                return
            sim.commit(
                signal, insert_part(signal.value, offset, offset, value)
            )

        return store_bit

    def _store_indexed(self, target: ast.IndexedPartSelect, scope: Scope):
        signal = self._lvalue_signal(target.base, scope)
        width = _static_const(target.width, scope)
        start_fn, _ = _compile4(target.start, scope, None)
        ascending = target.ascending
        insert_part = values.insert_part

        def store_indexed(sim, value):
            start = start_fn(sim).to_int()
            if start is None:
                return
            lo_index = start if ascending else start - width + 1
            lo = signal.bit_offset(lo_index)
            if lo is None:
                return
            sim.commit(
                signal,
                insert_part(signal.value, lo + width - 1, lo, value),
            )

        return store_indexed

    # -- statements ----------------------------------------------------
    # Each statement lowers to ("sync", fn(sim)) for code that can never
    # suspend, or ("gen", genfn) where genfn(sim) is a generator whose
    # return value is the interpreter's "suspended" flag.  Work bumps and
    # their line attribution mirror Simulator._exec exactly, so runaway
    # guards fire with identical counts and messages.

    def stmt_item(self, stmt: ast.Stmt, scope: Scope):
        bump = _bump_for(stmt.line)
        if isinstance(stmt, ast.Block):
            return self._compile_block(stmt, scope, bump)
        if isinstance(stmt, ast.Assign):
            return self._compile_assign(stmt, scope, bump)
        if isinstance(stmt, ast.If):
            return self._compile_if(stmt, scope, bump)
        if isinstance(stmt, ast.Case):
            return self._compile_case(stmt, scope, bump)
        if isinstance(stmt, ast.For):
            return self._compile_for(stmt, scope, bump)
        if isinstance(stmt, ast.While):
            return self._compile_while(stmt, scope, bump)
        if isinstance(stmt, ast.Repeat):
            return self._compile_repeat(stmt, scope, bump)
        if isinstance(stmt, ast.Forever):
            return self._compile_forever(stmt, scope, bump)
        if isinstance(stmt, ast.DelayStmt):
            return self._compile_delay_stmt(stmt, scope, bump)
        if isinstance(stmt, ast.EventControl):
            return self._compile_event_control(stmt, scope, bump)
        if isinstance(stmt, ast.Wait):
            return self._compile_wait(stmt, scope, bump)
        if isinstance(stmt, ast.SysTaskCall):
            return self._compile_sys_task(stmt, scope, bump)
        if isinstance(stmt, ast.NullStmt):
            return "sync", bump
        # Disable/TaskCall raise at execution time in the interpreter;
        # fall back so the error surfaces identically.
        raise _Unsupported(f"statement {type(stmt).__name__}")

    def _compile_block(self, stmt: ast.Block, scope: Scope, bump):
        items = [self.stmt_item(child, scope) for child in stmt.stmts]
        if all(kind == "sync" for kind, _ in items):
            fns = tuple(fn for _, fn in items)

            def run(sim):
                bump(sim)
                for fn in fns:
                    fn(sim)

            return "sync", run
        parts = tuple((kind == "gen", fn) for kind, fn in items)

        def gen(sim):
            bump(sim)
            suspended = False
            for is_gen, fn in parts:
                if is_gen:
                    suspended = (yield from fn(sim)) or suspended
                else:
                    fn(sim)
            return suspended

        return "gen", gen

    def _compile_assign(self, stmt: ast.Assign, scope: Scope, bump):
        target_width = self.lvalue_width(stmt.target, scope)
        context = max(target_width, _static_size(stmt.value, scope))
        value_fn, _ = _compile4(stmt.value, scope, context)
        store = self.store_fn(stmt.target, scope)
        if stmt.nonblocking:
            has_delay = stmt.delay is not None
            delay_fn = (self.delay_fn(stmt.delay, scope)
                        if has_delay else None)

            def run_nba(sim):
                bump(sim)
                value = value_fn(sim)
                delay = delay_fn(sim) if has_delay else 0

                def apply_update():
                    store(sim, value)

                if sim._profiler is not None:
                    apply_update = sim._profile_nba(apply_update)
                if delay:
                    sim._schedule_at(delay, apply_update)
                else:
                    sim._nba.append(apply_update)

            return "sync", run_nba
        if stmt.delay is not None:
            delay_fn = self.delay_fn(stmt.delay, scope)

            def gen_delayed(sim):
                bump(sim)
                value = value_fn(sim)
                yield ("delay", delay_fn(sim))
                store(sim, value)
                return True

            return "gen", gen_delayed

        def run(sim):
            bump(sim)
            store(sim, value_fn(sim))

        return "sync", run

    def _compile_if(self, stmt: ast.If, scope: Scope, bump):
        cond = self.cond_fn(stmt.cond, scope)
        then_item = self.stmt_item(stmt.then_stmt, scope)
        else_item = (self.stmt_item(stmt.else_stmt, scope)
                     if stmt.else_stmt is not None else None)
        if then_item[0] == "sync" and (else_item is None
                                       or else_item[0] == "sync"):
            then_fn = then_item[1]
            else_fn = else_item[1] if else_item is not None else None

            def run(sim):
                bump(sim)
                if cond(sim):
                    then_fn(sim)
                elif else_fn is not None:
                    else_fn(sim)

            return "sync", run
        then_gen = _to_gen(then_item)
        else_gen = _to_gen(else_item) if else_item is not None else None

        def gen(sim):
            bump(sim)
            if cond(sim):
                return (yield from then_gen(sim))
            if else_gen is None:
                return False
            return (yield from else_gen(sim))

        return "gen", gen

    def _compile_case(self, stmt: ast.Case, scope: Scope, bump):
        kind = stmt.kind
        subject_fn, _ = _compile4(stmt.subject, scope, None)
        items = []  # (label_fns, body_index) in source order
        bodies = []
        default_index = -1
        for item in stmt.items:
            body_index = len(bodies)
            bodies.append(self.stmt_item(item.body, scope))
            if not item.exprs:
                default_index = body_index
                continue
            label_fns = tuple(
                _compile4(label, scope, None)[0] for label in item.exprs
            )
            items.append((label_fns, body_index))
        items = tuple(items)

        def select(sim) -> int:
            """Index of the body to run, or -1 (mirrors _exec_case)."""
            subject = subject_fn(sim)
            for label_fns, body_index in items:
                for label_fn in label_fns:
                    if case_matches(kind, subject, label_fn(sim)):
                        return body_index
            return default_index

        if all(kind_ == "sync" for kind_, _ in bodies):
            body_fns = tuple(fn for _, fn in bodies)

            def run(sim):
                bump(sim)
                chosen = select(sim)
                if chosen >= 0:
                    body_fns[chosen](sim)

            return "sync", run
        body_gens = tuple(_to_gen(item) for item in bodies)

        def gen(sim):
            bump(sim)
            chosen = select(sim)
            if chosen < 0:
                return False
            return (yield from body_gens[chosen](sim))

        return "gen", gen

    def _compile_for(self, stmt: ast.For, scope: Scope, bump):
        init_item = self.stmt_item(stmt.init, scope)
        cond = self.cond_fn(stmt.cond, scope)
        body_item = self.stmt_item(stmt.body, scope)
        step_item = self.stmt_item(stmt.step, scope)
        if all(kind == "sync" for kind, _ in
               (init_item, body_item, step_item)):
            init_fn, body_fn, step_fn = (
                init_item[1], body_item[1], step_item[1]
            )

            def run(sim):
                bump(sim)
                init_fn(sim)
                while cond(sim):
                    body_fn(sim)
                    step_fn(sim)
                    bump(sim)

            return "sync", run
        init_gen = _to_gen(init_item)
        body_gen = _to_gen(body_item)
        step_gen = _to_gen(step_item)

        def gen(sim):
            bump(sim)
            suspended = yield from init_gen(sim)
            while cond(sim):
                suspended = (yield from body_gen(sim)) or suspended
                suspended = (yield from step_gen(sim)) or suspended
                bump(sim)
            return suspended

        return "gen", gen

    def _compile_while(self, stmt: ast.While, scope: Scope, bump):
        cond = self.cond_fn(stmt.cond, scope)
        body_item = self.stmt_item(stmt.body, scope)
        if body_item[0] == "sync":
            body_fn = body_item[1]

            def run(sim):
                bump(sim)
                while cond(sim):
                    body_fn(sim)
                    bump(sim)

            return "sync", run
        body_gen = body_item[1]

        def gen(sim):
            bump(sim)
            suspended = False
            while cond(sim):
                suspended = (yield from body_gen(sim)) or suspended
                bump(sim)
            return suspended

        return "gen", gen

    def _compile_repeat(self, stmt: ast.Repeat, scope: Scope, bump):
        count4, _ = _compile4(stmt.count, scope, None)
        body_item = self.stmt_item(stmt.body, scope)
        if body_item[0] == "sync":
            body_fn = body_item[1]

            def run(sim):
                bump(sim)
                count = count4(sim).to_unsigned() or 0
                for _ in range(count):
                    body_fn(sim)

            return "sync", run
        body_gen = body_item[1]

        def gen(sim):
            bump(sim)
            count = count4(sim).to_unsigned() or 0
            suspended = False
            for _ in range(count):
                suspended = (yield from body_gen(sim)) or suspended
            return suspended

        return "gen", gen

    def _compile_forever(self, stmt: ast.Forever, scope: Scope, bump):
        body_item = self.stmt_item(stmt.body, scope)
        line = stmt.line
        if body_item[0] == "sync":
            body_fn = body_item[1]

            def gen_sync(sim):
                bump(sim)
                body_fn(sim)
                raise SimulationError(
                    "forever loop without timing control", line
                )
                yield  # pragma: no cover - marks this as a generator

            return "gen", gen_sync
        body_gen = body_item[1]

        def gen(sim):
            bump(sim)
            while True:
                suspended = yield from body_gen(sim)
                if not suspended:
                    raise SimulationError(
                        "forever loop without timing control", line
                    )

        return "gen", gen

    def _compile_delay_stmt(self, stmt: ast.DelayStmt, scope: Scope, bump):
        delay_fn = self.delay_fn(stmt.delay, scope)
        body_item = self.stmt_item(stmt.body, scope)
        body_sync = body_item[0] == "sync"
        body_fn = body_item[1]

        def gen(sim):
            bump(sim)
            yield ("delay", delay_fn(sim))
            if body_sync:
                body_fn(sim)
            else:
                yield from body_fn(sim)
            return True

        return "gen", gen

    def _sense_signals(self, expr: ast.Expr, scope: Scope) -> list[Signal]:
        """The signals a suspended sense registers its waiter on."""
        signals = []
        for name in collect_reads(expr):
            resolved = scope.resolve(name)
            if resolved and resolved[0] == "signal":
                signals.append(resolved[1])
        return signals

    def _compile_event_control(
        self, stmt: ast.EventControl, scope: Scope, bump
    ):
        entries: list[_SenseEntry] = []
        prep = []  # (entry, refresh_fn) for non-memory entries
        if stmt.senses:
            for sense in stmt.senses:
                fn, _ = _compile4(sense.expr, scope, None)
                entry = _SenseEntry(
                    expr=sense.expr, scope=scope, edge=sense.edge,
                    last=Vec.unknown(1),
                    signals=self._sense_signals(sense.expr, scope),
                    compiled=fn,
                )
                entries.append(entry)
                prep.append((entry, fn))
        else:
            # @* — implicit sensitivity on everything the body reads
            for name in sorted(collect_reads(stmt.body)):
                resolved = scope.resolve(name)
                if not resolved or resolved[0] != "signal":
                    continue
                signal = resolved[1]
                if signal.memory is not None:
                    entries.append(
                        _SenseEntry(
                            expr=None, scope=scope, edge=None,
                            last=Vec.unknown(1), memory_signal=signal,
                            signals=[signal],
                        )
                    )
                    continue
                fn = _signal_reader(signal)
                entry = _SenseEntry(
                    expr=ast.Identifier(name=name), scope=scope,
                    edge=None, last=Vec.unknown(1), signals=[signal],
                    compiled=fn,
                )
                entries.append(entry)
                prep.append((entry, fn))
        prep = tuple(prep)
        body_item = self.stmt_item(stmt.body, scope)
        body_sync = body_item[0] == "sync"
        body_fn = body_item[1]

        def gen(sim):
            bump(sim)
            for entry, refresh in prep:
                entry.last = refresh(sim)
            yield ("wait", entries)
            if body_sync:
                body_fn(sim)
            else:
                yield from body_fn(sim)
            return True

        return "gen", gen

    def _compile_wait(self, stmt: ast.Wait, scope: Scope, bump):
        cond4, _ = _compile4(stmt.cond, scope, None)
        entry = _SenseEntry(
            expr=stmt.cond, scope=scope, edge=None, last=Vec.unknown(1),
            signals=self._sense_signals(stmt.cond, scope), compiled=cond4,
        )
        body_item = self.stmt_item(stmt.body, scope)
        body_sync = body_item[0] == "sync"
        body_fn = body_item[1]

        def gen(sim):
            bump(sim)
            while not cond4(sim).truthy():
                entry.last = cond4(sim)
                yield ("wait", [entry])
            if body_sync:
                body_fn(sim)
            else:
                yield from body_fn(sim)
            return True

        return "gen", gen

    # -- system tasks --------------------------------------------------
    def _compile_sys_task(self, stmt: ast.SysTaskCall, scope: Scope, bump):
        name = stmt.name
        if name in ("$display", "$write", "$strobe"):
            text_fn = self._format_fn(stmt.args, scope)

            def run_display(sim):
                bump(sim)
                sim.output.append(text_fn(sim))

            return "sync", run_display
        if name in ("$error", "$warning", "$fatal"):
            text_fn = self._format_fn(stmt.args, scope)
            fatal = name == "$fatal"

            def run_severity(sim):
                bump(sim)
                sim.output.append(text_fn(sim))
                if fatal:
                    raise _FinishSim()

            return "sync", run_severity
        if name in ("$finish", "$stop"):
            def run_finish(sim):
                bump(sim)
                raise _FinishSim()

            return "sync", run_finish
        # $monitor, $dump*, $readmem*, $timeformat and unknown tasks run
        # through the interpreter's handler (identical behavior/errors).
        def run_delegate(sim):
            bump(sim)
            sim._exec_system_task(stmt, scope)

        return "sync", run_delegate

    def _format_fn(self, args: list[ast.Expr], scope: Scope):
        """Compile-time mirror of ``Simulator._format_args``."""
        if not args:
            return lambda sim: ""
        if isinstance(args[0], ast.StringLit):
            ops = self._format_ops(args[0].text, args[1:], scope)
            if len(ops) == 1:
                return ops[0]
            return lambda sim: "".join(op(sim) for op in ops)
        arg_fns = [_compile4(arg, scope, None)[0] for arg in args]
        render = render_value
        return lambda sim: " ".join(
            render(fn(sim), "d") for fn in arg_fns
        )

    def _format_ops(self, fmt: str, args: list[ast.Expr], scope: Scope):
        """Parse a format string once, mirroring ``_format_string``."""
        top = self.design.top
        render = render_value
        ops = []
        literal: list[str] = []

        def flush() -> None:
            if literal:
                text = "".join(literal)
                literal.clear()
                ops.append(lambda sim, text=text: text)

        arg_iter = iter(args)
        index = 0
        while index < len(fmt):
            ch = fmt[index]
            if ch == "\\" and index + 1 < len(fmt):
                escape = fmt[index + 1]
                literal.append(
                    {"n": "\n", "t": "\t", "\\": "\\", '"': '"'}.get(
                        escape, escape
                    )
                )
                index += 2
                continue
            if ch != "%":
                literal.append(ch)
                index += 1
                continue
            index += 1
            if index >= len(fmt):
                break
            while index < len(fmt) and fmt[index].isdigit():
                index += 1  # field width is parsed and ignored
            conv = fmt[index] if index < len(fmt) else "d"
            index += 1
            if conv == "%":
                literal.append("%")
                continue
            if conv == "m":
                literal.append(scope.path or top)
                continue
            try:
                arg = next(arg_iter)
            except StopIteration:
                literal.append("%" + conv)
                continue
            fn, _ = _compile4(arg, scope, None)
            flush()
            if conv == "t":
                ops.append(
                    lambda sim, fn=fn: str(fn(sim).to_unsigned() or 0)
                )
            else:
                ops.append(
                    lambda sim, fn=fn, conv=conv.lower():
                    render(fn(sim), conv)
                )
        flush()
        if not ops:
            return [lambda sim: ""]
        return ops

    # -- processes -----------------------------------------------------
    def compile_process(self, spec: ProcessSpec):
        """Lower one process to a generator factory ``factory(sim)``."""
        if spec.kind == "assign":
            return self._compile_assign_process(spec)
        if spec.kind == "always":
            return self._compile_always_process(spec)
        return self._compile_initial_process(spec)

    def _compile_assign_process(self, spec: ProcessSpec):
        assert spec.value is not None and spec.target is not None
        target_scope = spec.target_scope or spec.scope
        target_width = self.lvalue_width(spec.target, target_scope)
        context = max(target_width, _static_size(spec.value, spec.scope))
        value_fn, _ = _compile4(spec.value, spec.scope, context)
        store = self.store_fn(spec.target, target_scope)
        entries: list[_SenseEntry] = []
        refresh = []
        for name in sorted(collect_reads(spec.value)):
            resolved = spec.scope.resolve(name)
            if not resolved or resolved[0] != "signal":
                continue
            signal = resolved[1]
            if signal.memory is not None:
                entries.append(
                    _SenseEntry(
                        expr=None, scope=spec.scope, edge=None,
                        last=Vec.unknown(1), memory_signal=signal,
                        signals=[signal],
                    )
                )
                continue
            fn = _signal_reader(signal)
            entries.append(
                _SenseEntry(
                    expr=ast.Identifier(name=name), scope=spec.scope,
                    edge=None, last=Vec.unknown(1), signals=[signal],
                    compiled=fn,
                )
            )
            refresh.append((entries[-1], fn))
        refresh = tuple(refresh)

        def gen(sim):
            while True:
                store(sim, value_fn(sim))
                if not entries:
                    return  # constant assign: run once
                for entry, fn in refresh:
                    entry.last = fn(sim)
                yield ("wait", entries)

        return gen

    def _compile_always_process(self, spec: ProcessSpec):
        assert spec.body is not None
        item = self.stmt_item(spec.body, spec.scope)
        line = spec.line
        if item[0] == "sync":
            body_fn = item[1]

            def gen_sync(sim):
                body_fn(sim)
                raise SimulationError(
                    "always block without timing control never suspends",
                    line,
                )
                yield  # pragma: no cover - marks this as a generator

            return gen_sync
        body_gen = item[1]

        def gen(sim):
            while True:
                suspended = yield from body_gen(sim)
                if not suspended:
                    raise SimulationError(
                        "always block without timing control never "
                        "suspends",
                        line,
                    )

        return gen

    def _compile_initial_process(self, spec: ProcessSpec):
        assert spec.body is not None
        item = self.stmt_item(spec.body, spec.scope)
        if item[0] == "gen":
            return item[1]
        body_fn = item[1]

        def gen(sim):
            body_fn(sim)
            return
            yield  # pragma: no cover - marks this as a generator

        return gen


def _signal_reader(signal: Signal):
    return lambda sim: signal.value


def _bump_for(line: int):
    """Per-statement work-guard bump, mirroring ``Simulator._bump_work``."""

    def bump(sim):
        sim._work += 1
        if sim._work > 500_000:
            raise SimulationError(
                f"runaway zero-time loop at time {sim.now}", line
            )

    return bump


def _to_gen(item):
    """Normalize a ("sync"|"gen", fn) statement item to a generator fn."""
    kind, fn = item
    if kind == "gen":
        return fn

    def gen(sim):
        fn(sim)
        return False
        yield  # pragma: no cover - marks this as a generator

    return gen


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
class CompiledEngine:
    """Pre-compiled process factories pluggable into ``Simulator``.

    Build once per elaborated ``Design`` and pass as
    ``Simulator(design, engine=...)``.  Processes the compiler cannot
    lower (or whose compilation raises) fall back to the interpreter
    individually; both kinds coexist in one event loop.

    An engine instance is bound to its ``Design`` object and — because
    sense entries are allocated per compiled statement — must not be
    shared across concurrently running simulations of the same design
    object.  The evaluation pipeline re-elaborates per run, so each run
    gets a fresh design + engine pair.
    """

    #: one four-state lowering; perfbench's tracer still reads this flag
    two_state = False

    def __init__(self, design: Design) -> None:
        self.design = design
        self.fallbacks: list[tuple[str, int, str]] = []
        self._factories: dict[int, object] = {}
        compiler = _ProcessCompiler(design)
        compiled = 0
        for spec in design.processes:
            try:
                factory = compiler.compile_process(spec)
            except _Unsupported as exc:
                self._factories[id(spec)] = None
                self.fallbacks.append((spec.kind, spec.line, str(exc)))
                continue
            except Exception as exc:
                # Compile-time surprise: let the interpreter raise (or
                # not) at runtime exactly as it always has.
                self._factories[id(spec)] = None
                self.fallbacks.append(
                    (spec.kind, spec.line,
                     f"{type(exc).__name__}: {exc}")
                )
                continue
            self._factories[id(spec)] = factory
            compiled += 1
        self.compiled_count = compiled

    def factory_for(self, spec: ProcessSpec):
        """The ``Simulator._make_process`` seam: factory or None."""
        return self._factories.get(id(spec))

    def plan(self) -> dict:
        """JSON-serializable summary (``CompileReport.sim_engine``)."""
        return {
            "version": 1,
            "processes": len(self.design.processes),
            "compiled": self.compiled_count,
            "fallbacks": [
                {"kind": kind, "line": line, "reason": reason}
                for kind, line, reason in self.fallbacks
            ],
        }

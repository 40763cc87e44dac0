"""Design elaboration: modules -> flat hierarchy of signals and processes.

Elaboration resolves parameters (including instance overrides), creates a
:class:`Signal` for every net/reg/integer/memory, flattens the instance
hierarchy by connecting child ports with implicit continuous assignments,
and collects the processes (always/initial/continuous assigns) that the
simulator will run.  Errors raised here are what the evaluation pipeline
counts as compile failures beyond pure syntax.

A test bench is fixed while the design under it changes, so its top
module can be elaborated once as a :class:`BenchTemplate` with its
instances deferred; ``elaborate(unit, top, bench=template)`` then
elaborates only those instances against each design.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ast, values
from .errors import ElaborationError
from .eval import collect_reads, eval_const, eval_expr, eval_sized
from .values import Vec


class Signal:
    """A flattened net/variable (or memory) with its current value."""

    __slots__ = (
        "name", "width", "signed", "kind", "msb", "lsb",
        "value", "memory", "array_lo", "array_hi", "waiters",
    )

    def __init__(
        self,
        name: str,
        width: int,
        signed: bool = False,
        kind: str = "wire",
        msb: int | None = None,
        lsb: int | None = None,
        array: tuple[int, int] | None = None,
    ):
        self.name = name
        self.width = width
        self.signed = signed
        self.kind = kind
        self.msb = msb if msb is not None else width - 1
        self.lsb = lsb if lsb is not None else 0
        self.waiters: list = []
        if array is not None:
            self.array_lo, self.array_hi = min(array), max(array)
            self.memory: dict[int, Vec] | None = {}
            self.value = Vec.unknown(width, signed)
        else:
            self.array_lo = self.array_hi = 0
            self.memory = None
            self.value = Vec.unknown(width, signed)

    def bit_offset(self, index: int | None) -> int | None:
        """Map a declared bit index to an LSB-relative offset."""
        if index is None:
            return None
        if self.msb >= self.lsb:
            offset = index - self.lsb
        else:
            offset = self.lsb - index
        return offset if 0 <= offset < self.width else None

    def read_word(self, address: int | None) -> Vec:
        """Read a memory word; unknown/out-of-range address yields x."""
        assert self.memory is not None
        if address is None or not self.array_lo <= address <= self.array_hi:
            return Vec.unknown(self.width, self.signed)
        return self.memory.get(address, Vec.unknown(self.width, self.signed))

    def __repr__(self) -> str:
        return f"Signal({self.name}, width={self.width}, kind={self.kind})"


@dataclass
class Scope:
    """Name-resolution environment for one module instance."""

    path: str  # hierarchical prefix, '' for top
    signals: dict[str, Signal] = field(default_factory=dict)
    params: dict[str, Vec] = field(default_factory=dict)
    functions: dict[str, ast.FunctionDecl] = field(default_factory=dict)
    parent: "Scope | None" = None  # only used by function-local scopes

    def resolve(self, name: str):
        if name in self.signals:
            return ("signal", self.signals[name])
        if name in self.params:
            return ("param", self.params[name])
        if name in self.functions:
            return ("func", self.functions[name])
        if self.parent is not None:
            return self.parent.resolve(name)
        return None


@dataclass
class ProcessSpec:
    """One runnable entity for the simulator."""

    kind: str  # 'always' | 'initial' | 'assign'
    scope: Scope
    body: ast.Stmt | None = None  # for always/initial
    target: ast.Expr | None = None  # for assign
    value: ast.Expr | None = None  # for assign
    target_scope: Scope | None = None  # assign may straddle scopes (ports)
    line: int = 0


@dataclass
class Design:
    """A fully elaborated design ready to simulate."""

    top: str
    signals: list[Signal] = field(default_factory=list)
    processes: list[ProcessSpec] = field(default_factory=list)
    scopes: dict[str, Scope] = field(default_factory=dict)  # path -> scope

    def signal(self, path: str) -> Signal:
        """Look up a signal by hierarchical name, e.g. ``"dut.q"``."""
        scope_path, _, local = path.rpartition(".")
        scope = self.scopes.get(scope_path)
        if scope is None or local not in scope.signals:
            raise KeyError(f"no signal {path!r} in design")
        return scope.signals[local]


# ----------------------------------------------------------------------
# Lvalue stores (shared with function execution and the simulator)
# ----------------------------------------------------------------------
def store_to_lvalue(
    target: ast.Expr, value: Vec, scope: Scope, ctx=None, commit=None
) -> None:
    """Write ``value`` into a procedural lvalue.

    ``commit`` is the simulator's change-propagation callback
    ``commit(signal, new_value)``; when None (constant/function context)
    the signal value is updated in place without waking waiters.
    """

    def apply(signal: Signal, new_value: Vec) -> None:
        if commit is not None:
            commit(signal, new_value)
        else:
            signal.value = new_value

    if isinstance(target, ast.Identifier):
        resolved = scope.resolve(target.name)
        if resolved is None or resolved[0] != "signal":
            raise ElaborationError(
                f"cannot assign to {target.name!r}", target.line
            )
        signal = resolved[1]
        if signal.memory is not None:
            raise ElaborationError(
                f"assignment to whole memory {target.name!r}", target.line
            )
        apply(signal, value.resize(signal.width, signal.signed))
        return
    if isinstance(target, ast.BitSelect):
        signal = _lvalue_signal(target.base, scope)
        index = eval_expr(target.index, scope, ctx).to_int()
        if signal.memory is not None:
            if index is not None and signal.array_lo <= index <= signal.array_hi:
                signal.memory[index] = value.resize(signal.width, signal.signed)
                if commit is not None:
                    commit(signal, signal.value, memory_write=True)
            return
        offset = signal.bit_offset(index)
        if offset is None:
            return  # out-of-range / unknown index write is a no-op
        apply(signal, values.insert_part(signal.value, offset, offset, value))
        return
    if isinstance(target, ast.PartSelect):
        signal = _lvalue_signal(target.base, scope)
        msb = eval_const(target.msb, scope)
        lsb = eval_const(target.lsb, scope)
        hi, lo = signal.bit_offset(msb), signal.bit_offset(lsb)
        if hi is None or lo is None:
            return
        apply(signal, values.insert_part(signal.value, hi, lo, value))
        return
    if isinstance(target, ast.IndexedPartSelect):
        signal = _lvalue_signal(target.base, scope)
        start = eval_expr(target.start, scope, ctx).to_int()
        width = eval_const(target.width, scope)
        if start is None:
            return
        lo_index = start if target.ascending else start - width + 1
        lo = signal.bit_offset(lo_index)
        if lo is None:
            return
        apply(signal, values.insert_part(signal.value, lo + width - 1, lo, value))
        return
    if isinstance(target, ast.Concat):
        widths = [lvalue_width(part, scope) for part in target.parts]
        total = sum(widths)
        value = value.resize(total)
        offset = total
        for part, width in zip(target.parts, widths):
            offset -= width
            piece = values.select_part(value, offset + width - 1, offset)
            store_to_lvalue(part, piece, scope, ctx, commit)
        return
    raise ElaborationError(
        f"unsupported lvalue {type(target).__name__}", target.line
    )


def _lvalue_signal(base: ast.Expr, scope: Scope) -> Signal:
    if not isinstance(base, ast.Identifier):
        raise ElaborationError("nested lvalue selects unsupported", base.line)
    resolved = scope.resolve(base.name)
    if resolved is None or resolved[0] != "signal":
        raise ElaborationError(f"cannot assign to {base.name!r}", base.line)
    return resolved[1]


def lvalue_width(target: ast.Expr, scope: Scope) -> int:
    if isinstance(target, ast.Identifier):
        return _lvalue_signal(target, scope).width
    if isinstance(target, ast.BitSelect):
        return 1
    if isinstance(target, ast.PartSelect):
        msb = eval_const(target.msb, scope)
        lsb = eval_const(target.lsb, scope)
        return abs(msb - lsb) + 1
    if isinstance(target, ast.IndexedPartSelect):
        return eval_const(target.width, scope)
    if isinstance(target, ast.Concat):
        return sum(lvalue_width(part, scope) for part in target.parts)
    raise ElaborationError(f"bad lvalue {type(target).__name__}", target.line)


def make_function_scope(
    func: ast.FunctionDecl, caller: Scope, args: list[Vec]
) -> Scope:
    """Build the local scope for one function invocation."""
    local = Scope(path=f"{caller.path}.{func.name}()", parent=caller)
    range_width, signed = 1, func.signed
    msb = lsb = None
    if func.range is not None:
        msb = eval_const(func.range.msb, caller)
        lsb = eval_const(func.range.lsb, caller)
        range_width = abs(msb - lsb) + 1
    result = Signal(func.name, range_width, signed, "reg", msb, lsb)
    local.signals[func.name] = result
    for port, arg in zip(func.inputs, args):
        width, port_msb, port_lsb = 1, None, None
        if port.range is not None:
            port_msb = eval_const(port.range.msb, caller)
            port_lsb = eval_const(port.range.lsb, caller)
            width = abs(port_msb - port_lsb) + 1
        signal = Signal(port.name, width, port.signed, "reg", port_msb, port_lsb)
        signal.value = arg.resize(width, port.signed)
        local.signals[port.name] = signal
    for decl in func.decls:
        width, decl_msb, decl_lsb = 1, None, None
        if decl.kind == "integer":
            width = 32
        if decl.range is not None:
            decl_msb = eval_const(decl.range.msb, caller)
            decl_lsb = eval_const(decl.range.lsb, caller)
            width = abs(decl_msb - decl_lsb) + 1
        signal = Signal(decl.name, width, decl.signed, "reg", decl_msb, decl_lsb)
        signal.value = Vec.unknown(width, decl.signed)
        local.signals[decl.name] = signal
    return local


# ----------------------------------------------------------------------
# Elaborator
# ----------------------------------------------------------------------
MAX_HIERARCHY_DEPTH = 32


class Elaborator:
    """Builds a :class:`Design` from a parsed source unit."""

    def __init__(self, unit: ast.SourceUnit):
        self.unit = unit
        self.design: Design | None = None

    def elaborate(self, top_name: str, instances: bool = True) -> Design:
        """Elaborate ``top_name``; ``instances=False`` leaves the top
        module's instances out (see :class:`BenchTemplate`)."""
        self._check_module_names()
        top = self.unit.module(top_name)
        if top is None:
            raise ElaborationError(f"top module {top_name!r} not found")
        self.design = Design(top=top_name)
        self._instantiate(top, path="", overrides={}, depth=0,
                          instances=instances)
        self._validate_references(self.design.processes)
        return self.design

    def graft(self, bench: "BenchTemplate") -> Design:
        """Elaborate ``bench``'s deferred instances against this unit.

        The design equals a full elaboration of the bench's top module
        from this unit: the template's signals, processes and scopes
        come first, then each instance's, in the same order.  Only the
        instances' processes are checked for undeclared names; the
        template's were checked when it was built.
        """
        self._check_module_names()
        base = bench.design
        self.design = Design(
            top=base.top, signals=list(base.signals),
            processes=list(base.processes), scopes=dict(base.scopes),
        )
        for instance in bench.module.instances:
            self._elaborate_instance(
                bench.module, instance, base.scopes[""], "", 0
            )
        self._validate_references(
            self.design.processes[len(base.processes):]
        )
        return self.design

    def _check_module_names(self) -> None:
        """A module may be declared once, as Icarus requires."""
        declared: set[str] = set()
        for module in self.unit.modules:
            if module.name in declared:
                raise ElaborationError(
                    f"module {module.name!r} already declared", module.line
                )
            declared.add(module.name)

    def _validate_references(self, processes: list[ProcessSpec]) -> None:
        """Static name check: every referenced identifier must resolve.

        Matches Icarus behaviour (``default_nettype none`` flavour):
        undeclared identifiers are compile errors, not runtime x's.
        """
        for spec in processes:
            names: set[str] = set()
            if spec.kind == "assign":
                collect_reads(spec.value, names)
                target_scope = spec.target_scope or spec.scope
                self._check_names(names, spec.scope, spec.line)
                lvalues: set[str] = set()
                _collect_lvalue_names(spec.target, lvalues)
                self._check_names(lvalues, target_scope, spec.line)
            else:
                collect_reads(spec.body, names)
                lvalues = set()
                _collect_lvalue_stmt_names(spec.body, lvalues)
                self._check_names(names | lvalues, spec.scope, spec.line)

    @staticmethod
    def _check_names(names: set[str], scope: Scope, line: int) -> None:
        for name in sorted(names):
            if scope.resolve(name) is None:
                raise ElaborationError(
                    f"undeclared identifier {name!r}", line
                )

    # ------------------------------------------------------------------
    def _instantiate(
        self,
        module: ast.Module,
        path: str,
        overrides: dict[str, Vec],
        depth: int,
        port_bindings: list[tuple[ast.Port, ast.Expr | None, Scope]] | None = None,
        instances: bool = True,
    ) -> Scope:
        if depth > MAX_HIERARCHY_DEPTH:
            raise ElaborationError(
                f"instance depth exceeds {MAX_HIERARCHY_DEPTH} "
                f"(recursive instantiation of {module.name!r}?)"
            )
        assert self.design is not None
        scope = Scope(path=path)
        self.design.scopes[path] = scope
        for func in module.functions:
            scope.functions[func.name] = func

        # Parameters first (they may size ports and nets).
        for param in module.params:
            if param.name in overrides and not param.is_local:
                scope.params[param.name] = overrides[param.name]
            else:
                if param.value is None:
                    raise ElaborationError(
                        f"parameter {param.name!r} has no value", param.line
                    )
                scope.params[param.name] = eval_expr(param.value, scope)

        # Ports and declarations become signals.
        declared_ports: dict[str, ast.Port] = {}
        for port in module.ports:
            if port.name in scope.signals:
                raise ElaborationError(
                    f"duplicate port {port.name!r}", port.line
                )
            scope.signals[port.name] = self._make_signal(
                port.name, port.range, None, port.signed, port.net_kind, scope, path
            )
            declared_ports[port.name] = port
        for decl in module.decls:
            existing = scope.signals.get(decl.name)
            if existing is not None:
                if decl.name in declared_ports:
                    # body re-declaration of a port (non-ANSI style):
                    # upgrade kind/signedness, check width agreement
                    redecl = self._make_signal(
                        decl.name, decl.range, decl.array, decl.signed,
                        decl.kind, scope, path,
                    )
                    if redecl.width != existing.width:
                        raise ElaborationError(
                            f"port {decl.name!r} redeclared with different width",
                            decl.line,
                        )
                    existing.kind = decl.kind
                    existing.signed = existing.signed or decl.signed
                    continue
                raise ElaborationError(
                    f"duplicate declaration of {decl.name!r}", decl.line
                )
            scope.signals[decl.name] = self._make_signal(
                decl.name, decl.range, decl.array, decl.signed,
                decl.kind, scope, path,
            )
            if decl.init is not None:
                signal = scope.signals[decl.name]
                signal.value = eval_expr(decl.init, scope).resize(
                    signal.width, signal.signed
                )

        self.design.signals.extend(scope.signals.values())

        # Port bindings from the parent instance become continuous assigns.
        if port_bindings:
            for port, expr, parent_scope in port_bindings:
                if expr is None:
                    continue
                child_signal_expr = ast.Identifier(name=port.name, line=port.line)
                if port.direction == "output":
                    self.design.processes.append(
                        ProcessSpec(
                            kind="assign",
                            scope=scope,
                            target=expr,
                            value=child_signal_expr,
                            target_scope=parent_scope,
                            line=port.line,
                        )
                    )
                else:  # input / inout: drive child from parent expression
                    self.design.processes.append(
                        ProcessSpec(
                            kind="assign",
                            scope=parent_scope,
                            target=child_signal_expr,
                            value=expr,
                            target_scope=scope,
                            line=port.line,
                        )
                    )

        for cont in module.assigns:
            self.design.processes.append(
                ProcessSpec(
                    kind="assign",
                    scope=scope,
                    target=cont.target,
                    value=cont.value,
                    target_scope=scope,
                    line=cont.line,
                )
            )
        # always and initial blocks start in source order (matching the
        # de-facto behaviour of event-driven simulators like Icarus)
        procedural = [
            ProcessSpec(kind="always", scope=scope, body=blk.body, line=blk.line)
            for blk in module.always_blocks
        ] + [
            ProcessSpec(kind="initial", scope=scope, body=blk.body, line=blk.line)
            for blk in module.initial_blocks
        ]
        procedural.sort(key=lambda spec: spec.line)
        self.design.processes.extend(procedural)

        if instances:
            for instance in module.instances:
                self._elaborate_instance(module, instance, scope, path, depth)
        return scope

    # ------------------------------------------------------------------
    def _elaborate_instance(
        self,
        parent_module: ast.Module,
        instance: ast.Instance,
        parent_scope: Scope,
        parent_path: str,
        depth: int,
    ) -> None:
        child = self.unit.module(instance.module_name)
        if child is None:
            raise ElaborationError(
                f"unknown module {instance.module_name!r}", instance.line
            )
        # Parameter overrides.
        overrides: dict[str, Vec] = {}
        settable = [p for p in child.params if not p.is_local]
        for position, conn in enumerate(instance.param_overrides):
            if conn.expr is None:
                continue
            value = eval_expr(conn.expr, parent_scope)
            if conn.name is not None:
                if all(p.name != conn.name for p in settable):
                    raise ElaborationError(
                        f"module {child.name!r} has no parameter {conn.name!r}",
                        instance.line,
                    )
                overrides[conn.name] = value
            else:
                if position >= len(settable):
                    raise ElaborationError(
                        f"too many parameter overrides for {child.name!r}",
                        instance.line,
                    )
                overrides[settable[position].name] = value

        # Port bindings.
        bindings: list[tuple[ast.Port, ast.Expr | None, Scope]] = []
        if instance.connections and instance.connections[0].name is not None:
            by_name = {port.name: port for port in child.ports}
            for conn in instance.connections:
                port = by_name.get(conn.name or "")
                if port is None:
                    raise ElaborationError(
                        f"module {child.name!r} has no port {conn.name!r}",
                        instance.line,
                    )
                bindings.append((port, conn.expr, parent_scope))
        else:
            if len(instance.connections) > len(child.ports):
                raise ElaborationError(
                    f"too many connections for {child.name!r}", instance.line
                )
            for port, conn in zip(child.ports, instance.connections):
                bindings.append((port, conn.expr, parent_scope))

        child_path = (
            f"{parent_path}.{instance.instance_name}"
            if parent_path
            else instance.instance_name
        )
        if child_path in (self.design.scopes if self.design else {}):
            raise ElaborationError(
                f"duplicate instance name {instance.instance_name!r}",
                instance.line,
            )
        self._instantiate(child, child_path, overrides, depth + 1, bindings)

    # ------------------------------------------------------------------
    def _make_signal(
        self,
        name: str,
        rng: ast.Range | None,
        array: ast.Range | None,
        signed: bool,
        kind: str,
        scope: Scope,
        path: str,
    ) -> Signal:
        width, msb, lsb = 1, None, None
        if kind == "integer":
            width, signed = 32, True
            msb, lsb = 31, 0
        if rng is not None:
            msb = eval_const(rng.msb, scope)
            lsb = eval_const(rng.lsb, scope)
            width = abs(msb - lsb) + 1
        array_bounds = None
        if array is not None:
            lo = eval_const(array.msb, scope)
            hi = eval_const(array.lsb, scope)
            array_bounds = (lo, hi)
        flat_name = f"{path}.{name}" if path else name
        return Signal(flat_name, width, signed, kind, msb, lsb, array_bounds)


class BenchTemplate:
    """A test bench's top module elaborated once, its instances deferred.

    ``unit`` is the bench's parsed modules and ``design`` holds the top
    scope alone: its signals, its processes and the ``""`` scope.  Each
    run grafts the design under test in with
    ``elaborate(unit, top, bench=template)``, which copies those lists
    and leaves the template as it was.  The top scope's ``Signal``
    objects are shared by every run, and signals carry run state, so a
    template serves one run at a time and :meth:`reset` must follow
    each run.  ``engine`` is the compiled engine over the template's
    processes (:class:`~repro.verilog.codegen.CompiledEngine`), or None
    on the interpreter.
    """

    __slots__ = ("unit", "module", "design", "engine", "_initial")

    def __init__(self, unit: ast.SourceUnit, top: str):
        self.design = Elaborator(unit).elaborate(top, instances=False)
        self.unit = unit
        self.module = unit.module(top)
        self.engine = None
        self._initial = [(signal, signal.value)
                         for signal in self.design.signals]

    def reset(self) -> None:
        """Put every signal back as elaborated: its initial value, no
        waiters (which would keep the last run's simulator and design
        alive) and an empty memory."""
        for signal, value in self._initial:
            signal.value = value
            signal.waiters = []
            if signal.memory is not None:
                signal.memory.clear()


def elaborate(
    unit: ast.SourceUnit, top: str, bench: BenchTemplate | None = None
) -> Design:
    """Elaborate ``top`` from a parsed source unit.

    With ``bench``, a template of ``top`` built from the same modules,
    only the template's deferred instances are elaborated
    (:meth:`Elaborator.graft`); the result is the same design.
    """
    if bench is None:
        return Elaborator(unit).elaborate(top)
    return Elaborator(unit).graft(bench)


__all__ = [
    "BenchTemplate",
    "Design",
    "Elaborator",
    "ProcessSpec",
    "Scope",
    "Signal",
    "collect_reads",
    "elaborate",
    "lvalue_width",
    "make_function_scope",
    "store_to_lvalue",
]


def _collect_lvalue_names(target: ast.Expr | None, into: set[str]) -> None:
    """Base identifier names of an lvalue expression."""
    if isinstance(target, ast.Identifier):
        into.add(target.name)
    elif isinstance(target, (ast.BitSelect, ast.PartSelect, ast.IndexedPartSelect)):
        _collect_lvalue_names(target.base, into)
    elif isinstance(target, ast.Concat):
        for part in target.parts:
            _collect_lvalue_names(part, into)


def _collect_lvalue_stmt_names(stmt: ast.Stmt | None, into: set[str]) -> None:
    """Assignment-target names reachable in a statement tree."""
    if stmt is None:
        return
    if isinstance(stmt, ast.Block):
        for child in stmt.stmts:
            _collect_lvalue_stmt_names(child, into)
    elif isinstance(stmt, ast.Assign):
        _collect_lvalue_names(stmt.target, into)
    elif isinstance(stmt, ast.If):
        _collect_lvalue_stmt_names(stmt.then_stmt, into)
        _collect_lvalue_stmt_names(stmt.else_stmt, into)
    elif isinstance(stmt, ast.Case):
        for item in stmt.items:
            _collect_lvalue_stmt_names(item.body, into)
    elif isinstance(stmt, ast.For):
        _collect_lvalue_stmt_names(stmt.init, into)
        _collect_lvalue_stmt_names(stmt.step, into)
        _collect_lvalue_stmt_names(stmt.body, into)
    elif isinstance(stmt, (ast.While, ast.Repeat, ast.Forever)):
        _collect_lvalue_stmt_names(stmt.body, into)
    elif isinstance(stmt, (ast.DelayStmt, ast.EventControl, ast.Wait)):
        _collect_lvalue_stmt_names(stmt.body, into)

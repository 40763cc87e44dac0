"""Event-driven simulation of an elaborated design.

Implements the IEEE 1364 stratified event queue in the form the problem
set needs: an active region executing processes and continuous
assignments, a nonblocking-assign (NBA) update region applied when the
active region drains, and a time wheel for ``#delay`` controls.  Processes
are Python generators that yield suspension requests; sensitivity is
re-evaluated on every commit so arbitrary ``@(posedge expr)`` forms work.

A third request, ``("forward", source, (wake, None))``, is how the
compiled engine runs a port forward: one pre-built waiter on ``source``
that :meth:`Simulator.commit` fires on any change without a sense
evaluation, and that :meth:`Simulator._resume` re-files without a
:class:`_Suspension`.  Each copy still takes one delta, one active-queue
slot and one ``max_steps`` step, as the continuous assign it replaces.

System tasks supported: ``$display``/``$write``/``$strobe``, ``$monitor``,
``$finish``/``$stop``, ``$time``, ``$random`` (deterministic LCG).
Output lines are collected on :attr:`Simulator.output` — the functional
gate of the evaluation pipeline greps them for the test bench verdict.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from time import perf_counter

from . import ast
from .elaborate import (
    Design,
    ProcessSpec,
    Scope,
    Signal,
    lvalue_width,
    store_to_lvalue,
)
from .errors import SimulationError
from .eval import case_arm, collect_reads, eval_const, eval_expr, eval_sized
from .values import MAX_WIDTH, Vec, edge_kind
from .vcd import VcdRecorder


class _FinishSim(Exception):
    """Internal control-flow signal raised by $finish/$stop."""


@dataclass
class _SenseEntry:
    """One sensitivity-list item of a suspended process.

    ``memory_signal`` marks an any-change watch on a whole memory (bare
    memory identifiers cannot be evaluated, so word writes wake these
    entries unconditionally).

    The compiled engine (:mod:`repro.verilog.codegen`) reuses entry
    objects across waits and precomputes two optional fields: ``signals``
    is the resolved list of signals to register the waiter on (skipping
    the per-suspension ``collect_reads`` + scope walk) and ``compiled``
    is a fast re-evaluation closure ``fn(sim) -> Vec`` for
    :meth:`Simulator._sense_fires`.  Interpreted entries leave both
    ``None`` and take the original paths.
    """

    expr: ast.Expr | None
    scope: Scope
    edge: str | None
    last: Vec
    memory_signal: Signal | None = None
    signals: "list[Signal] | None" = None
    compiled: object = None


class _Suspension:
    """A process blocked on an event control."""

    __slots__ = ("process", "entries", "done")

    def __init__(self, process: "_Process", entries: list[_SenseEntry]):
        self.process = process
        self.entries = entries
        self.done = False


class _Wake:
    """The waiter token of a forward (a port connection the compiled
    engine copies without lowering; see
    :attr:`~repro.verilog.elaborate.ProcessSpec.forward`).

    A forward suspends by yielding ``("forward", source, (wake, None))``
    and :meth:`Simulator._resume` files that pre-built pair on
    ``source`` as it is, with no :class:`_Suspension`.  A source is
    never a memory, and a commit reaches a non-memory signal's waiters
    only when its value changed, so :meth:`Simulator.commit` fires a
    waiter whose entry is ``None`` without a sense evaluation.  The
    pair waits on one signal and leaves its list when it fires, so it
    needs no ``done`` flag.
    """

    __slots__ = ("process",)

    def __init__(self) -> None:
        self.process: "_Process | None" = None


class _Process:
    """Generator-backed runnable entity.

    ``key`` is the construct identity ``(scope path, kind, line)`` the
    opt-in profiler attributes activation time to; it is set once at
    construction and otherwise unused.
    """

    __slots__ = ("name", "generator", "scheduled", "alive", "key")

    def __init__(self, name: str, generator,
                 key: "tuple[str, str, int]" = ("", "", 0)):
        self.name = name
        self.generator = generator
        self.scheduled = False
        self.alive = True
        self.key = key


@dataclass
class _Monitor:
    fmt_args: list[ast.Expr]
    scope: Scope
    last_text: str | None = None


@dataclass
class SimResult:
    """Outcome of a simulation run."""

    finished: bool  # reached $finish (vs. ran out of events/time)
    time: int
    output: list[str] = field(default_factory=list)
    vcd: VcdRecorder | None = None  # populated when the design $dumpvars
    vcd_file: str | None = None  # the name passed to $dumpfile, if any

    @property
    def text(self) -> str:
        return "\n".join(self.output)


class Simulator:
    """Runs an elaborated :class:`~repro.verilog.elaborate.Design`."""

    def __init__(
        self,
        design: Design,
        max_time: int = 1_000_000,
        max_steps: int = 2_000_000,
        random_seed: int = 0xDEADBEEF,
        profiler=None,
        engine=None,
    ):
        self.design = design
        # Execution-engine seam: any object with a ``factory_for(spec)``
        # method returning either ``None`` (interpret this process) or a
        # callable ``factory(sim) -> generator`` producing a generator
        # that speaks the same suspension protocol as the interpreted
        # ones.  Compiled and interpreted processes coexist in one event
        # loop; see :mod:`repro.verilog.codegen`.
        self._engine = engine
        self.max_time = max_time
        self.max_steps = max_steps
        self.now = 0
        self.output: list[str] = []
        self._active: list[_Process] = []
        self._nba: list = []
        self._timewheel: list = []
        self._sequence = 0
        self._steps = 0
        self._work = 0
        #: the active ``$monitor``: a new call replaces the last one
        #: (IEEE 1364-2005 17.1.3)
        self._monitor: _Monitor | None = None
        self._finished = False
        self._rand_state = random_seed & 0xFFFFFFFF
        self._vcd: VcdRecorder | None = None
        self._vcd_file: str | None = None
        # Opt-in profiling: any object with an
        # ``add(key, seconds, evals, steps)`` method (duck-typed so the
        # verilog layer stays free of obs imports).  When absent the
        # dispatch loop runs the class methods unchanged; when present,
        # instance attributes shadow the two timed entry points.
        self._profiler = profiler
        self._profile_evals = None
        self._profile_current: "tuple[str, str, int] | None" = None
        if profiler is not None:
            self._profile_evals = [0]
            self._resume = self._profiled_resume
            self._check_monitors = self._profiled_check_monitors

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self) -> SimResult:
        """Simulate until $finish, quiescence, or a resource limit."""
        for spec in sorted(
            self.design.processes, key=lambda s: s.kind != "assign"
        ):
            process = self._make_process(spec)
            self._schedule(process)
        try:
            self._event_loop()
        except _FinishSim:
            self._finished = True
        return SimResult(
            self._finished, self.now, self.output,
            vcd=self._vcd, vcd_file=self._vcd_file,
        )

    def next_random(self) -> int:
        """Deterministic $random (numerical-recipes LCG)."""
        self._rand_state = (1664525 * self._rand_state + 1013904223) & 0xFFFFFFFF
        value = self._rand_state
        return value - (1 << 32) if value >> 31 else value

    # ------------------------------------------------------------------
    # Scheduling core
    # ------------------------------------------------------------------
    def _event_loop(self) -> None:
        while True:
            while self._active or self._nba:
                while self._active:
                    process = self._active.pop(0)
                    process.scheduled = False
                    self._resume(process)
                if self._nba:
                    updates, self._nba = self._nba, []
                    for apply_update in updates:
                        apply_update()
            self._check_monitors()
            if not self._timewheel:
                return
            next_time = self._timewheel[0][0]
            if next_time > self.max_time:
                return
            self.now = next_time
            while self._timewheel and self._timewheel[0][0] == self.now:
                _, _, item = heapq.heappop(self._timewheel)
                if isinstance(item, _Process):
                    self._schedule(item)
                else:
                    item()  # deferred NBA thunk

    def _schedule(self, process: _Process) -> None:
        if process.alive and not process.scheduled:
            process.scheduled = True
            self._active.append(process)

    def _schedule_at(self, ticks: int, item) -> None:
        self._sequence += 1
        heapq.heappush(self._timewheel, (self.now + ticks, self._sequence, item))

    def _resume(self, process: _Process) -> None:
        self._work = 0
        while True:
            self._steps += 1
            if self._steps > self.max_steps:
                raise SimulationError(
                    f"simulation exceeded {self.max_steps} steps "
                    f"(zero-delay loop?) at time {self.now}"
                )
            try:
                request = next(process.generator)
            except StopIteration:
                process.alive = False
                return
            kind = request[0]
            if kind == "forward":
                waiter = request[2]
                waiter[0].process = process
                request[1].waiters.append(waiter)
                return
            if kind == "delay":
                self._schedule_at(request[1], process)
                return
            if kind == "wait":
                entries = request[1]
                if not entries:
                    process.alive = False  # @() on nothing: block forever
                    return
                suspension = _Suspension(process, entries)
                for entry in entries:
                    if entry.signals is not None:
                        # Compiled entry: waiter registration precomputed.
                        for signal in entry.signals:
                            signal.waiters.append((suspension, entry))
                        continue
                    if entry.memory_signal is not None:
                        entry.memory_signal.waiters.append((suspension, entry))
                        continue
                    for name in collect_reads(entry.expr):
                        resolved = entry.scope.resolve(name)
                        if resolved and resolved[0] == "signal":
                            resolved[1].waiters.append((suspension, entry))
                return
            raise SimulationError(f"unknown suspension {kind!r}")

    # ------------------------------------------------------------------
    # Profiled dispatch (installed as instance attributes in __init__,
    # so the unprofiled path runs the class methods with zero checks)
    # ------------------------------------------------------------------
    def _profiled_resume(self, process: _Process) -> None:
        counter = self._profile_evals
        evals_before = counter[0]
        steps_before = self._steps
        self._profile_current = process.key
        started = perf_counter()
        try:
            Simulator._resume(self, process)
        finally:
            self._profiler.add(
                process.key,
                perf_counter() - started,
                counter[0] - evals_before,
                self._steps - steps_before,
            )
            self._profile_current = None

    def _profile_nba(self, apply_update):
        """Wrap an NBA update thunk to bill its apply time (which runs
        outside any process resume) to the construct that created it."""
        key = self._profile_current or ("", "nba", 0)
        counter = self._profile_evals
        profiler = self._profiler

        def timed_apply() -> None:
            evals_before = counter[0]
            started = perf_counter()
            try:
                apply_update()
            finally:
                profiler.add(
                    key, perf_counter() - started,
                    counter[0] - evals_before, 0,
                )

        return timed_apply

    def _profiled_check_monitors(self) -> None:
        if self._monitor is None:
            return
        counter = self._profile_evals
        evals_before = counter[0]
        started = perf_counter()
        try:
            Simulator._check_monitors(self)
        finally:
            self._profiler.add(
                ("", "monitor", 0),
                perf_counter() - started,
                counter[0] - evals_before, 0,
            )

    # ------------------------------------------------------------------
    # Value commits and sensitivity
    # ------------------------------------------------------------------
    def commit(self, signal: Signal, new_value: Vec, memory_write: bool = False) -> None:
        """Update a signal and wake processes whose senses now fire."""
        if not memory_write:
            old = signal.value
            if old.aval == new_value.aval and old.bval == new_value.bval:
                return
            signal.value = new_value
            if self._vcd is not None:
                code = self._vcd.code_for(id(signal))
                if code is not None:
                    self._vcd.record(self.now, new_value, code)
        if not signal.waiters:
            return
        pending = signal.waiters
        signal.waiters = []
        survivors = []
        for suspension, entry in pending:
            if entry is None:  # a forward's wake: any change fires it
                self._schedule(suspension.process)
                continue
            if suspension.done:
                continue
            if self._sense_fires(entry, force=memory_write):
                suspension.done = True
                self._schedule(suspension.process)
            else:
                survivors.append((suspension, entry))
        signal.waiters.extend(survivors)

    def _sense_fires(self, entry: _SenseEntry, force: bool = False) -> bool:
        if entry.memory_signal is not None:
            return entry.edge is None  # any write to the memory fires
        if entry.compiled is not None:
            new = entry.compiled(self)
        else:
            new = eval_expr(entry.expr, entry.scope, self)
        old = entry.last
        entry.last = new
        if force:
            return entry.edge is None
        changed = old.aval != new.aval or old.bval != new.bval
        if entry.edge is None:
            return changed
        return edge_kind(old, new) == entry.edge

    # ------------------------------------------------------------------
    # Process construction
    # ------------------------------------------------------------------
    def _make_process(self, spec: ProcessSpec) -> _Process:
        key = (spec.scope.path, spec.kind, spec.line)
        if self._engine is not None:
            factory = self._engine.factory_for(spec)
            if factory is not None:
                return _Process(
                    f"{spec.kind}@{spec.line}", factory(self), key=key
                )
        if spec.kind == "assign":
            return _Process(
                f"assign@{spec.line}", self._run_continuous_assign(spec),
                key=key,
            )
        if spec.kind == "always":
            return _Process(
                f"always@{spec.line}", self._run_always(spec), key=key
            )
        return _Process(
            f"initial@{spec.line}", self._run_initial(spec), key=key
        )

    def _run_continuous_assign(self, spec: ProcessSpec):
        assert spec.value is not None and spec.target is not None
        target_scope = spec.target_scope or spec.scope
        dep_names = collect_reads(spec.value)
        dep_entries = []
        for name in sorted(dep_names):
            resolved = spec.scope.resolve(name)
            if not resolved or resolved[0] != "signal":
                continue
            signal = resolved[1]
            if signal.memory is not None:
                dep_entries.append(
                    _SenseEntry(
                        expr=None, scope=spec.scope, edge=None,
                        last=Vec.unknown(1), memory_signal=signal,
                    )
                )
            else:
                dep_entries.append(
                    _SenseEntry(
                        expr=ast.Identifier(name=name),
                        scope=spec.scope,
                        edge=None,
                        last=Vec.unknown(1),
                    )
                )
        target_width = lvalue_width(spec.target, target_scope, eval_const)
        while True:
            value = eval_sized(spec.value, spec.scope, self, target_width)
            store_to_lvalue(
                spec.target, value, target_scope, self, commit=self.commit
            )
            if not dep_entries:
                return  # constant assign: run once
            for entry in dep_entries:
                if entry.memory_signal is None:
                    entry.last = eval_expr(entry.expr, entry.scope, self)
            yield ("wait", dep_entries)

    def _run_always(self, spec: ProcessSpec):
        assert spec.body is not None
        while True:
            yielded = yield from self._exec(spec.body, spec.scope)
            if not yielded:
                raise SimulationError(
                    "always block without timing control never suspends",
                    spec.line,
                )

    def _run_initial(self, spec: ProcessSpec):
        assert spec.body is not None
        yield from self._exec(spec.body, spec.scope)

    # ------------------------------------------------------------------
    # Statement execution (generator; returns True if it ever suspended)
    # ------------------------------------------------------------------
    def _exec(self, stmt: ast.Stmt, scope: Scope):
        self._bump_work(stmt)
        if isinstance(stmt, ast.Block):
            suspended = False
            for child in stmt.stmts:
                suspended = (yield from self._exec(child, scope)) or suspended
            return suspended
        if isinstance(stmt, ast.Assign):
            return (yield from self._exec_assign(stmt, scope))
        if isinstance(stmt, ast.If):
            cond = eval_expr(stmt.cond, scope, self)
            if cond.truthy():
                return (yield from self._exec(stmt.then_stmt, scope))
            if stmt.else_stmt is not None:
                return (yield from self._exec(stmt.else_stmt, scope))
            return False
        if isinstance(stmt, ast.Case):
            body = case_arm(stmt, scope, self)
            if body is None:
                return False
            return (yield from self._exec(body, scope))
        if isinstance(stmt, ast.For):
            return (yield from self._exec_for(stmt, scope))
        if isinstance(stmt, ast.While):
            suspended = False
            while eval_expr(stmt.cond, scope, self).truthy():
                suspended = (yield from self._exec(stmt.body, scope)) or suspended
                self._bump_work(stmt)
            return suspended
        if isinstance(stmt, ast.Repeat):
            count = eval_expr(stmt.count, scope, self).to_unsigned() or 0
            suspended = False
            for _ in range(count):
                suspended = (yield from self._exec(stmt.body, scope)) or suspended
            return suspended
        if isinstance(stmt, ast.Forever):
            while True:
                suspended = yield from self._exec(stmt.body, scope)
                if not suspended:
                    raise SimulationError(
                        "forever loop without timing control", stmt.line
                    )
        if isinstance(stmt, ast.DelayStmt):
            ticks = self._eval_delay(stmt.delay, scope)
            yield ("delay", ticks)
            yield from self._exec(stmt.body, scope)
            return True
        if isinstance(stmt, ast.EventControl):
            yield ("wait", self._build_senses(stmt, scope))
            yield from self._exec(stmt.body, scope)
            return True
        if isinstance(stmt, ast.Wait):
            while not eval_expr(stmt.cond, scope, self).truthy():
                entries = [
                    _SenseEntry(
                        expr=stmt.cond,
                        scope=scope,
                        edge=None,
                        last=eval_expr(stmt.cond, scope, self),
                    )
                ]
                yield ("wait", entries)
            yield from self._exec(stmt.body, scope)
            return True
        if isinstance(stmt, ast.SysTaskCall):
            self._exec_system_task(stmt, scope)
            return False
        if isinstance(stmt, ast.NullStmt):
            return False
        if isinstance(stmt, ast.Disable):
            raise SimulationError("disable is not supported", stmt.line)
        if isinstance(stmt, ast.TaskCall):
            raise SimulationError(
                f"user task {stmt.name!r} is not supported", stmt.line
            )
        raise SimulationError(
            f"cannot execute {type(stmt).__name__}", stmt.line
        )

    def _exec_assign(self, stmt: ast.Assign, scope: Scope):
        value = eval_sized(stmt.value, scope, self,
                           lvalue_width(stmt.target, scope, eval_const))
        if stmt.nonblocking:
            delay = self._eval_delay(stmt.delay, scope) if stmt.delay else 0
            target, captured = stmt.target, value

            def apply_update() -> None:
                store_to_lvalue(target, captured, scope, self, commit=self.commit)

            if self._profiler is not None:
                apply_update = self._profile_nba(apply_update)
            if delay:
                self._schedule_at(delay, apply_update)
            else:
                self._nba.append(apply_update)
            return False
        if stmt.delay is not None:
            ticks = self._eval_delay(stmt.delay, scope)
            yield ("delay", ticks)
            store_to_lvalue(stmt.target, value, scope, self, commit=self.commit)
            return True
        store_to_lvalue(stmt.target, value, scope, self, commit=self.commit)
        return False

    def _exec_for(self, stmt: ast.For, scope: Scope):
        suspended = False
        suspended = (yield from self._exec(stmt.init, scope)) or suspended
        while eval_expr(stmt.cond, scope, self).truthy():
            suspended = (yield from self._exec(stmt.body, scope)) or suspended
            suspended = (yield from self._exec(stmt.step, scope)) or suspended
            self._bump_work(stmt)
        return suspended

    def _build_senses(
        self, stmt: ast.EventControl, scope: Scope
    ) -> list[_SenseEntry]:
        entries: list[_SenseEntry] = []
        if stmt.senses:
            for sense in stmt.senses:
                entries.append(
                    _SenseEntry(
                        expr=sense.expr,
                        scope=scope,
                        edge=sense.edge,
                        last=eval_expr(sense.expr, scope, self),
                    )
                )
            return entries
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
                    )
                )
                continue
            ident = ast.Identifier(name=name)
            entries.append(
                _SenseEntry(
                    expr=ident,
                    scope=scope,
                    edge=None,
                    last=eval_expr(ident, scope, self),
                )
            )
        return entries

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _bump_work(self, stmt: ast.Stmt) -> None:
        self._work += 1
        if self._work > 500_000:
            raise SimulationError(
                f"runaway zero-time loop at time {self.now}", stmt.line
            )

    def _eval_delay(self, expr: ast.Expr | None, scope: Scope) -> int:
        if expr is None:
            return 0
        ticks = eval_expr(expr, scope, self).to_unsigned()
        if ticks is None:
            return 0
        return ticks

    # ------------------------------------------------------------------
    # System tasks
    # ------------------------------------------------------------------
    def _exec_system_task(self, stmt: ast.SysTaskCall, scope: Scope) -> None:
        name = stmt.name
        if name in ("$display", "$write", "$strobe"):
            text = self._format_args(stmt.args, scope)
            self.output.append(text)
            return
        if name == "$monitor":
            self._monitor = _Monitor(fmt_args=list(stmt.args), scope=scope)
            return
        if name in ("$finish", "$stop"):
            raise _FinishSim()
        if name == "$dumpfile":
            if stmt.args and isinstance(stmt.args[0], ast.StringLit):
                self._vcd_file = stmt.args[0].text
            return
        if name == "$dumpvars":
            self._start_vcd()
            return
        if name in ("$timeformat", "$dumpon", "$dumpoff"):
            return
        if name == "$readmemh" or name == "$readmemb":
            return  # no filesystem in the sandbox; memories start at x
        if name == "$error" or name == "$fatal" or name == "$warning":
            self.output.append(self._format_args(stmt.args, scope))
            if name == "$fatal":
                raise _FinishSim()
            return
        raise SimulationError(f"unsupported system task {name!r}", stmt.line)

    def _start_vcd(self) -> None:
        """Begin recording every non-memory signal of the design."""
        if self._vcd is not None:
            return
        self._vcd = VcdRecorder()
        for signal in self.design.signals:
            if signal.memory is None:
                self._vcd.register(
                    id(signal), signal.name or "top", signal.width, signal.value
                )

    def _check_monitors(self) -> None:
        monitor = self._monitor
        if monitor is None:
            return
        text = self._format_args(monitor.fmt_args, monitor.scope)
        if text != monitor.last_text:
            monitor.last_text = text
            self.output.append(text)

    def _format_args(self, args: list[ast.Expr], scope: Scope) -> str:
        return "".join(
            piece if type(piece) is str
            else render_value(eval_expr(piece[1], scope, self), piece[0])
            for piece in format_pieces(args, scope.path or self.design.top)
        )


# ----------------------------------------------------------------------
# $display formatting (shared with the compiled engine)
# ----------------------------------------------------------------------
_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", '"': '"'}


def format_pieces(
    args: list[ast.Expr], module_path: str
) -> "list[str | tuple[str, ast.Expr]]":
    """Parse the arguments of ``$display``/``$write``/``$monitor`` (and
    their kin) into output pieces, in order: literal text as ``str``
    and each conversion as ``(conversion, argument)``.

    With a string literal first, its escapes are decoded, ``%%`` is a
    percent sign, ``%m`` is ``module_path``, and each other conversion
    takes the next argument, as written: its field-width digits, if
    any, then its character.  One with no argument left stays literal
    text (without the digits), arguments left over are never
    evaluated, and a trailing ``%`` ends the text.  Otherwise every
    argument is a ``%d`` conversion, separated by spaces.  The caller
    renders each conversion with :func:`render_value`, in order.
    """
    if not args:
        return []
    if not isinstance(args[0], ast.StringLit):
        pieces: list = []
        for arg in args:
            if pieces:
                pieces.append(" ")
            pieces.append(("d", arg))
        return pieces
    fmt = args[0].text
    arg_iter = iter(args[1:])
    pieces = []
    literal: list[str] = []
    index = 0
    while index < len(fmt):
        ch = fmt[index]
        if ch == "\\" and index + 1 < len(fmt):
            escape = fmt[index + 1]
            literal.append(_ESCAPES.get(escape, escape))
            index += 2
            continue
        if ch != "%":
            literal.append(ch)
            index += 1
            continue
        index += 1
        if index >= len(fmt):
            break
        start = index
        while index < len(fmt) and fmt[index].isdigit():
            index += 1
        width = fmt[start:index]
        conv = fmt[index] if index < len(fmt) else "d"
        index += 1
        if conv == "%":
            literal.append("%")
            continue
        if conv == "m":
            literal.append(module_path)
            continue
        arg = next(arg_iter, None)
        if arg is None:
            literal.append("%" + conv)
            continue
        if literal:
            pieces.append("".join(literal))
            literal.clear()
        pieces.append((width + conv, arg))
    if literal:
        pieces.append("".join(literal))
    return pieces


def _unknown_digit(a: int, b: int, full: int) -> str:
    """A digit, or a whole ``%d`` value, of bits ``full`` with unknown
    bits ``b`` (x where ``a`` is set too, z where not), as IEEE
    1364-2005 17.1.1.4 shows it: ``x`` or ``z`` when every bit is, else
    ``X`` when some bit is x, else ``Z``."""
    x = a & b
    if x == full:
        return "x"
    if b == full and not x:
        return "z"
    return "X" if x else "Z"


def _digits(value: Vec, bits: int, spec: str) -> str:
    """``value`` in base ``1 << bits`` (``format`` ``spec``); with an
    unknown bit, one digit per ``bits`` bits, MSB first."""
    if value.is_fully_known:
        return format(value.aval, spec)
    digits = []
    for lo in range((value.width - 1) // bits * bits, -1, -bits):
        full = (1 << min(bits, value.width - lo)) - 1
        a, b = value.aval >> lo & full, value.bval >> lo & full
        digits.append(_unknown_digit(a, b, full) if b else format(a, spec))
    return "".join(digits)


def render_value(value: Vec, conv: str) -> str:
    """``value`` as one ``$display`` conversion; ``conv`` is the
    conversion as written: field-width digits, if any, then the
    character (``%t`` is the one case-sensitive one: ``%T`` renders as
    ``%d``, unpadded).

    A ``%d`` without a field width is sized automatically (IEEE
    1364-2005 17.1.1.3): right-aligned to the width of the largest
    decimal value of ``value``'s width, its sign counted when signed,
    x and z results too.  A written width, ``%0d`` among them, leaves
    the value unpadded.  A decimal conversion (``%d``, ``%t`` and any
    other but ``%b``/``%h``/``%x``/``%o``/``%c``/``%s``) of a value
    wider than :data:`~repro.verilog.values.MAX_WIDTH` bits raises
    :class:`SimulationError`.
    """
    pad = conv == "d" or conv == "D"
    conv = conv[-1]
    if value.width > MAX_WIDTH and conv.lower() not in "bhxocs":
        raise SimulationError(
            f"%{conv} of a {value.width}-bit value: decimal output is "
            f"limited to {MAX_WIDTH} bits")
    if conv == "t":
        return _decimal(value.to_unsigned() or 0)
    conv = conv.lower()
    if conv == "b":
        return value.bits()
    if conv in ("h", "x"):
        return _digits(value, 4, "x")
    if conv == "o":
        return _digits(value, 3, "o")
    if conv == "c":
        number = value.to_unsigned()
        return "?" if number is None else chr(number & 0xFF)
    if conv == "s":
        number = value.to_unsigned()
        if number is None:
            return "?"
        raw = number.to_bytes((value.width + 7) // 8, "big")
        return raw.lstrip(b"\x00").decode("latin-1")
    if value.bval:  # %d and any other conversion
        text = _unknown_digit(value.aval, value.bval, (1 << value.width) - 1)
    else:
        text = _decimal(value.to_int())
    return text.rjust(_decimal_width(value)) if pad else text


#: the decimal digits :func:`_decimal` converts at a time, within the
#: 4,300 that Python's ``str(int)`` converts by default
_CHUNK_DIGITS = 4000
_CHUNK = 10 ** _CHUNK_DIGITS


def _decimal(number: int) -> str:
    """``str(number)`` for an int of any size: converted
    :data:`_CHUNK_DIGITS` digits at a time, lowest first, by ``divmod``
    by a power of ten, so the process-wide digit limit stays as it is."""
    if -_CHUNK < number < _CHUNK:
        return str(number)
    sign, number = ("-", -number) if number < 0 else ("", number)
    chunks = []
    while number >= _CHUNK:
        number, low = divmod(number, _CHUNK)
        chunks.append(str(low).zfill(_CHUNK_DIGITS))
    chunks.append(str(number))
    return sign + "".join(reversed(chunks))


_LOG10_2 = math.log10(2)


def _decimal_width(value: Vec) -> int:
    """Characters in the widest decimal value of ``value``'s width and
    signedness: the digits of ``2 ** width`` (of ``2 ** (width - 1)``
    and a minus sign when signed), counted without building it."""
    if value.signed:
        return int((value.width - 1) * _LOG10_2) + 2
    return int(value.width * _LOG10_2) + 1


def simulate(
    design: Design,
    max_time: int = 1_000_000,
    max_steps: int = 2_000_000,
    profiler=None,
    engine=None,
) -> SimResult:
    """Convenience wrapper: build a Simulator and run it."""
    return Simulator(
        design, max_time=max_time, max_steps=max_steps, profiler=profiler,
        engine=engine,
    ).run()

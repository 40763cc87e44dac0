"""Netlist-level static analysis over the *elaborated* design.

The AST linter (:mod:`repro.verilog.lint`) grades one module at a time,
pre-elaboration, so it cannot see instance port directions, resolved
parameter widths, or anything that crosses an instance boundary.  This
pass runs after elaboration on the flattened hierarchy: it builds a
signal-level dataflow graph (drivers -> readers, with port bindings as
edges between scopes) and runs the semantic checks the linter
structurally cannot:

=========================  =============================================
code                       meaning (severity)
=========================  =============================================
``comb-loop``              combinational feedback cycle (error)
``multi-driven``           conflicting drivers after elaboration (error)
``undriven``               signal read but never driven (warning)
``port-width-mismatch``    instance port narrower/wider than net (warning)
``x-prop``                 uninitialized register whose x reaches an
                           output (warning)
``fsm-unreachable-state``  FSM case arm unreachable from reset (warning)
``fsm-dead-transition``    transition out of an unreachable state (info)
``const-branch``           branch condition is always true/false (info)
``dead-logic``             driven signal that reaches no output or
                           observable effect (info)
=========================  =============================================

Error-severity findings gate evaluation: the pipeline fails such designs
at a structured ``analysis`` stage in milliseconds instead of letting a
comb loop spin the event-driven simulator to its iteration limit.
Warnings and infos are advisory; they flow to repair feedback, metrics
counters and the ``repro analyze`` report but never flip a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ast
from .elaborate import Design, ProcessSpec, Scope, Signal, lvalue_width
from .errors import AnalysisError, VerilogError
from .eval import collect_reads, eval_expr

#: finding code -> (severity, one-line description); the README table
#: and docs render from this, so keep descriptions short.
FINDING_CODES: dict[str, tuple[str, str]] = {
    "comb-loop": (
        "error", "combinational feedback cycle in the dataflow graph"),
    "multi-driven": (
        "error", "signal has conflicting drivers after elaboration"),
    "undriven": (
        "warning", "signal is read but has no driver in the hierarchy"),
    "port-width-mismatch": (
        "warning", "instance port connected to a different-width net"),
    "x-prop": (
        "warning", "uninitialized register never acquires a known value "
                   "and reaches an output"),
    "fsm-unreachable-state": (
        "warning", "FSM case arm unreachable from its reset/init states"),
    "fsm-dead-transition": (
        "info", "FSM transition that can never fire"),
    "const-branch": (
        "info", "branch condition is constant (always true/false)"),
    "dead-logic": (
        "info", "driven signal reaches no output or observable effect"),
}

_SEVERITY_RANK = {"error": 0, "warning": 1, "info": 2}


@dataclass(frozen=True)
class Finding:
    """One analysis finding with machine-readable coordinates."""

    code: str
    severity: str  # 'error' | 'warning' | 'info'
    message: str
    path: str = ""  # hierarchical signal/scope path, e.g. 'dut.state'
    line: int = 0

    def __str__(self) -> str:
        where = f" ({self.path})" if self.path else ""
        return f"line {self.line}: [{self.code}] {self.message}{where}"


def finding_to_dict(finding: Finding) -> dict:
    """Lossless wire form (see :mod:`repro.eval.export`)."""
    return {
        "code": finding.code,
        "severity": finding.severity,
        "message": finding.message,
        "path": finding.path,
        "line": finding.line,
    }


def finding_from_dict(row: dict) -> Finding:
    return Finding(
        code=str(row["code"]),
        severity=str(row.get("severity", "warning")),
        message=str(row.get("message", "")),
        path=str(row.get("path", "")),
        line=int(row.get("line", 0)),
    )


def error_findings(findings) -> list[Finding]:
    """The subset of ``findings`` that gates evaluation."""
    return [f for f in findings if f.severity == "error"]


# ----------------------------------------------------------------------
# Per-process extraction
# ----------------------------------------------------------------------
@dataclass
class _Assignment:
    """One resolved assignment: targets with bit spans, full dep set."""

    targets: list[tuple[Signal, tuple[int, int] | None]]
    deps: set  # Signals read (value + indices + control path)
    dep_names: set  # same, unresolved (for sensitivity restriction)
    line: int
    value: ast.Expr | None
    scope: Scope
    node_id: int  # id() of the Assign node (FSM containment tests)
    conditional: bool = False  # under an if/case/loop control path


@dataclass
class _Proc:
    """A classified process with its extracted assignments."""

    spec: ProcessSpec
    cls: str  # 'assign' | 'comb' | 'seq' | 'timed' | 'initial'
    sens: set | None  # explicit comb sensitivity names; None = @*
    assignments: list
    reads: set  # every Signal read anywhere in the process
    observed: set  # Signals read by $display/waits/delays (liveness sinks)


def _classify(spec: ProcessSpec) -> tuple[str, set | None]:
    if spec.kind == "assign":
        return "assign", None
    if spec.kind == "initial":
        return "initial", None
    body = spec.body
    if isinstance(body, ast.EventControl):
        if any(s.edge is not None for s in body.senses):
            return "seq", None
        if not body.senses:
            return "comb", None  # @*
        listed: set[str] = set()
        for sense in body.senses:
            collect_reads(sense.expr, listed)
        return "comb", listed
    return "timed", None  # e.g. ``always #5 clk = ~clk``


def _resolve_signals(names, scope: Scope) -> set:
    out = set()
    for name in names:
        resolved = scope.resolve(name)
        if resolved is not None and resolved[0] == "signal":
            out.add(resolved[1])
    return out


def _const_int(expr: ast.Expr | None, scope: Scope) -> int | None:
    """Constant value of ``expr`` using parameters only (None if not)."""
    if expr is None:
        return None
    if collect_reads(expr, set()) and not _params_only(expr, scope):
        return None
    try:
        return eval_expr(expr, scope).to_int()
    except (VerilogError, RecursionError):
        return None


def _params_only(expr: ast.Expr, scope: Scope) -> bool:
    for name in collect_reads(expr, set()):
        resolved = scope.resolve(name)
        if resolved is None or resolved[0] == "signal":
            return False
    return True


def _target_index_reads(target: ast.Expr | None, into: set) -> None:
    if isinstance(target, ast.BitSelect):
        _target_index_reads(target.base, into)
        collect_reads(target.index, into)
    elif isinstance(target, ast.PartSelect):
        _target_index_reads(target.base, into)
        collect_reads(target.msb, into)
        collect_reads(target.lsb, into)
    elif isinstance(target, ast.IndexedPartSelect):
        _target_index_reads(target.base, into)
        collect_reads(target.start, into)
        collect_reads(target.width, into)
    elif isinstance(target, ast.Concat):
        for part in target.parts:
            _target_index_reads(part, into)


def _target_spans(
    target: ast.Expr | None, scope: Scope
) -> list[tuple[Signal, tuple[int, int] | None]]:
    """Base signals written by an lvalue, with bit spans when static.

    A span of ``None`` means the written range could not be determined
    (dynamic index, or a memory word write); overlap checks treat it as
    unprovable rather than conflicting.
    """
    out: list[tuple[Signal, tuple[int, int] | None]] = []

    def base_signal(expr: ast.Expr | None) -> Signal | None:
        if isinstance(expr, ast.Identifier):
            resolved = scope.resolve(expr.name)
            if resolved is not None and resolved[0] == "signal":
                return resolved[1]
        return None

    if isinstance(target, ast.Identifier):
        signal = base_signal(target)
        if signal is not None:
            out.append((signal, (0, signal.width - 1)))
    elif isinstance(target, ast.BitSelect):
        signal = base_signal(target.base)
        if signal is not None:
            span = None
            if signal.memory is None:
                index = _const_int(target.index, scope)
                offset = signal.bit_offset(index) if index is not None else None
                if offset is not None:
                    span = (offset, offset)
            out.append((signal, span))
    elif isinstance(target, ast.PartSelect):
        signal = base_signal(target.base)
        if signal is not None:
            span = None
            msb = _const_int(target.msb, scope)
            lsb = _const_int(target.lsb, scope)
            if msb is not None and lsb is not None:
                hi, lo = signal.bit_offset(msb), signal.bit_offset(lsb)
                if hi is not None and lo is not None:
                    span = (min(hi, lo), max(hi, lo))
            out.append((signal, span))
    elif isinstance(target, ast.IndexedPartSelect):
        signal = base_signal(target.base)
        if signal is not None:
            out.append((signal, None))
    elif isinstance(target, ast.Concat):
        for part in target.parts:
            out.extend(_target_spans(part, scope))
    return out


def _extract_proc(spec: ProcessSpec) -> _Proc:
    cls, sens = _classify(spec)
    proc = _Proc(spec=spec, cls=cls, sens=None, assignments=[],
                 reads=set(), observed=set())
    scope = spec.scope
    if cls == "assign":
        tscope = spec.target_scope or scope
        dep_names: set[str] = set()
        collect_reads(spec.value, dep_names)
        index_names: set[str] = set()
        _target_index_reads(spec.target, index_names)
        deps = _resolve_signals(dep_names, scope)
        deps |= _resolve_signals(index_names, tscope)
        proc.assignments.append(_Assignment(
            targets=_target_spans(spec.target, tscope),
            deps=deps, dep_names=dep_names | index_names,
            line=spec.line, value=spec.value, scope=scope,
            node_id=id(spec),
        ))
        proc.reads = set(deps)
        return proc

    if sens is not None:
        proc.sens = _resolve_signals(sens, scope)
    all_names: set[str] = set()
    collect_reads(spec.body, all_names)
    proc.reads = _resolve_signals(all_names, scope)

    include_sense = cls != "comb"  # comb sensitivity handled via ``sens``

    def walk(stmt: ast.Stmt | None, controls: set[str]) -> None:
        if stmt is None:
            return
        if isinstance(stmt, ast.Block):
            for child in stmt.stmts:
                walk(child, controls)
        elif isinstance(stmt, ast.Assign):
            dep_names = set(controls)
            collect_reads(stmt.value, dep_names)
            _target_index_reads(stmt.target, dep_names)
            proc.assignments.append(_Assignment(
                targets=_target_spans(stmt.target, scope),
                deps=_resolve_signals(dep_names, scope),
                dep_names=dep_names,
                line=stmt.line, value=stmt.value, scope=scope,
                node_id=id(stmt), conditional=bool(controls),
            ))
        elif isinstance(stmt, ast.If):
            branched = controls | collect_reads(stmt.cond, set())
            walk(stmt.then_stmt, branched)
            walk(stmt.else_stmt, branched)
        elif isinstance(stmt, ast.Case):
            branched = set(controls)
            collect_reads(stmt.subject, branched)
            for item in stmt.items:
                for expr in item.exprs:
                    collect_reads(expr, branched)
            for item in stmt.items:
                walk(item.body, branched)
        elif isinstance(stmt, ast.For):
            walk(stmt.init, controls)
            branched = controls | collect_reads(stmt.cond, set())
            walk(stmt.body, branched)
            walk(stmt.step, branched)
        elif isinstance(stmt, ast.While):
            walk(stmt.body, controls | collect_reads(stmt.cond, set()))
        elif isinstance(stmt, ast.Repeat):
            walk(stmt.body, controls | collect_reads(stmt.count, set()))
        elif isinstance(stmt, ast.Forever):
            walk(stmt.body, controls)
        elif isinstance(stmt, ast.DelayStmt):
            delays = collect_reads(stmt.delay, set()) if stmt.delay else set()
            proc.observed |= _resolve_signals(delays, scope)
            walk(stmt.body, controls | delays)
        elif isinstance(stmt, ast.EventControl):
            senses: set[str] = set()
            for sense in stmt.senses:
                collect_reads(sense.expr, senses)
            if include_sense:
                controls = controls | senses
            walk(stmt.body, controls)
        elif isinstance(stmt, ast.Wait):
            conds = collect_reads(stmt.cond, set())
            proc.observed |= _resolve_signals(conds, scope)
            walk(stmt.body, controls | conds)
        elif isinstance(stmt, (ast.SysTaskCall, ast.TaskCall)):
            args: set[str] = set()
            for arg in stmt.args:
                collect_reads(arg, args)
            proc.observed |= _resolve_signals(args, scope)

    walk(spec.body, set())
    return proc


# ----------------------------------------------------------------------
# Dataflow graph
# ----------------------------------------------------------------------
class DataflowGraph:
    """Signal-level driver->reader graph over the flat hierarchy."""

    def __init__(self, design: Design, unit: ast.SourceUnit):
        self.design = design
        self.unit = unit
        self.procs = [_extract_proc(spec) for spec in design.processes]
        #: full dep edges: reader-side adjacency dep -> {targets}
        self.forward: dict[Signal, set] = {}
        #: combinational-only adjacency (loop detection)
        self.comb: dict[Signal, set] = {}
        #: line of the driver that created a comb edge, per target
        self.comb_lines: dict[Signal, int] = {}
        #: Signal -> list[(proc, assignment)]
        self.drivers: dict[Signal, list] = {}
        #: Signal -> first reading line (diagnostics)
        self.read_lines: dict[Signal, int] = {}
        top = unit.module(design.top)
        root = design.scopes.get("")
        self.top_inputs: set = set()
        self.top_outputs: set = set()
        if top is not None and root is not None:
            for port in top.ports:
                signal = root.signals.get(port.name)
                if signal is None:
                    continue
                if port.direction == "output":
                    self.top_outputs.add(signal)
                else:
                    self.top_inputs.add(signal)
        self._build()

    def _build(self) -> None:
        for proc in self.procs:
            for signal in proc.reads | proc.observed:
                self.read_lines.setdefault(signal, proc.spec.line)
            comb = proc.cls in ("assign", "comb")
            local: dict[Signal, set] = {}
            for assignment in proc.assignments:
                deps = assignment.deps
                if comb:
                    comb_deps = deps
                    if proc.sens is not None:  # explicit sensitivity list
                        comb_deps = deps & proc.sens
                    resolved = set()
                    for dep in comb_deps:
                        resolved |= local.get(dep, {dep})
                else:
                    resolved = None
                for target, _span in assignment.targets:
                    self.drivers.setdefault(target, []).append(
                        (proc, assignment)
                    )
                    for dep in deps:
                        self.forward.setdefault(dep, set()).add(target)
                    if comb and resolved is not None:
                        for dep in resolved:
                            self.comb.setdefault(dep, set()).add(target)
                        self.comb_lines.setdefault(target, assignment.line)
                        # blocking substitution: later reads of this
                        # target inside the block see its deps, not a
                        # self-edge (``s = 0; if (c) s = s + 1;``).  An
                        # unconditional whole-width write replaces the
                        # dep set; a conditional or partial write may
                        # keep the earlier value, so the sets merge.
                        whole = any(
                            t is target and span == (0, target.width - 1)
                            for t, span in assignment.targets
                        )
                        if whole and not assignment.conditional:
                            local[target] = set(resolved)
                        else:
                            local[target] = (
                                local.get(target, set()) | resolved
                            )

    # ------------------------------------------------------------------
    def comb_sccs(self) -> list[list]:
        """Strongly-connected components of the comb subgraph (iterative
        Tarjan); only cycles — SCCs of size > 1 or with a self-edge."""
        adj = self.comb
        nodes = set(adj)
        for targets in adj.values():
            nodes |= targets
        index: dict = {}
        low: dict = {}
        on_stack: set = set()
        stack: list = []
        counter = [0]
        cycles: list[list] = []
        for root in nodes:
            if root in index:
                continue
            work = [(root, iter(sorted(adj.get(root, ()),
                                       key=lambda s: s.name)))]
            index[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, successors = work[-1]
                advanced = False
                for succ in successors:
                    if succ not in index:
                        index[succ] = low[succ] = counter[0]
                        counter[0] += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append(
                            (succ, iter(sorted(adj.get(succ, ()),
                                               key=lambda s: s.name)))
                        )
                        advanced = True
                        break
                    if succ in on_stack:
                        low[node] = min(low[node], index[succ])
                if advanced:
                    continue
                work.pop()
                if low[node] == index[node]:
                    component = []
                    while True:
                        item = stack.pop()
                        on_stack.discard(item)
                        component.append(item)
                        if item is node:
                            break
                    if len(component) > 1 or (
                        component[0] in adj.get(component[0], set())
                    ):
                        cycles.append(component)
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
        return cycles

    def forward_closure(self, seeds) -> set:
        """All signals reachable (as readers) from ``seeds``."""
        seen = set(seeds)
        frontier = list(seeds)
        while frontier:
            node = frontier.pop()
            for succ in self.forward.get(node, ()):
                if succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)
        return seen

    def backward_closure(self, seeds) -> set:
        """All signals some seed transitively depends on."""
        preds: dict[Signal, set] = {}
        for proc in self.procs:
            for assignment in proc.assignments:
                for target, _span in assignment.targets:
                    preds.setdefault(target, set()).update(assignment.deps)
        seen = set(seeds)
        frontier = list(seeds)
        while frontier:
            node = frontier.pop()
            for pred in preds.get(node, ()):
                if pred not in seen:
                    seen.add(pred)
                    frontier.append(pred)
        return seen


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def _check_comb_loops(graph: DataflowGraph) -> list[Finding]:
    findings = []
    for component in graph.comb_sccs():
        names = sorted(signal.name for signal in component)
        lines = [
            graph.comb_lines[signal]
            for signal in component
            if signal in graph.comb_lines
        ]
        line = min(lines) if lines else 0
        findings.append(Finding(
            code="comb-loop",
            severity="error",
            message="combinational loop through " + " -> ".join(names),
            path=names[0],
            line=line,
        ))
    return findings


def _spans_conflict(spans: list) -> bool:
    """Do any two written bit ranges provably overlap?

    ``None`` spans (dynamic indices, memory words) are unprovable and
    never conflict; disjoint constant slices (``assign y[0]=..; assign
    y[1]=..;``) are legal multi-driver style.
    """
    known = [span for span in spans if span is not None]
    for i, (lo_a, hi_a) in enumerate(known):
        for lo_b, hi_b in known[i + 1:]:
            if lo_a <= hi_b and lo_b <= hi_a:
                return True
    return False


def _check_drivers(graph: DataflowGraph) -> list[Finding]:
    findings = []
    for signal in sorted(graph.drivers, key=lambda s: s.name):
        if signal.memory is not None:
            continue
        entries = graph.drivers[signal]
        assigns = [(p, a) for p, a in entries if p.cls == "assign"]
        always = [(p, a) for p, a in entries
                  if p.cls in ("comb", "seq", "timed")]
        line = min(a.line for _p, a in entries)
        if assigns and always:
            findings.append(Finding(
                code="multi-driven", severity="error",
                message=f"'{signal.name}' driven by both a continuous "
                        f"assignment and an always process",
                path=signal.name, line=line,
            ))
            continue
        if len(assigns) > 1:
            spans = [
                span for _p, a in assigns
                for target, span in a.targets if target is signal
            ]
            if _spans_conflict(spans):
                findings.append(Finding(
                    code="multi-driven", severity="error",
                    message=f"'{signal.name}' driven by "
                            f"{len(assigns)} continuous assignments "
                            f"with overlapping bits",
                    path=signal.name, line=line,
                ))
        distinct_procs = {id(p.spec) for p, _a in always}
        if len(distinct_procs) > 1:
            findings.append(Finding(
                code="multi-driven", severity="warning",
                message=f"'{signal.name}' assigned from "
                        f"{len(distinct_procs)} always processes",
                path=signal.name, line=line,
            ))
    return findings


def _check_undriven(graph: DataflowGraph) -> list[Finding]:
    findings = []
    readers = set(graph.read_lines)
    for signal in sorted(readers, key=lambda s: s.name):
        if signal in graph.drivers or signal in graph.top_inputs:
            continue
        findings.append(Finding(
            code="undriven", severity="warning",
            message=f"'{signal.name}' is read but never driven",
            path=signal.name,
            line=graph.read_lines.get(signal, 0),
        ))
    return findings


def _static_expr_width(expr: ast.Expr | None, scope: Scope) -> int | None:
    """Conservative self-determined width of an rvalue (None = unknown)."""
    if isinstance(expr, ast.Number):
        return expr.width if expr.sized else None
    if isinstance(expr, ast.Identifier):
        resolved = scope.resolve(expr.name)
        if resolved is not None and resolved[0] == "signal":
            signal = resolved[1]
            return None if signal.memory is not None else signal.width
        return None  # parameters keep bare-decimal laxness
    if isinstance(expr, ast.Concat):
        total = 0
        for part in expr.parts:
            width = _static_expr_width(part, scope)
            if width is None:
                return None
            total += width
        return total
    if isinstance(expr, ast.Replicate):
        count = _const_int(expr.count, scope)
        inner = _static_expr_width(expr.value, scope)
        if count is None or inner is None:
            return None
        return count * inner
    if isinstance(expr, ast.BitSelect):
        base = expr.base
        if isinstance(base, ast.Identifier):
            resolved = scope.resolve(base.name)
            if (resolved is not None and resolved[0] == "signal"
                    and resolved[1].memory is not None):
                return resolved[1].width  # memory word select
        return 1
    if isinstance(expr, ast.PartSelect):
        msb = _const_int(expr.msb, scope)
        lsb = _const_int(expr.lsb, scope)
        if msb is None or lsb is None:
            return None
        return abs(msb - lsb) + 1
    if isinstance(expr, ast.IndexedPartSelect):
        return _const_int(expr.width, scope)
    return None  # operators: context-determined, no static claim


def _check_port_widths(graph: DataflowGraph) -> list[Finding]:
    findings = []
    for proc in graph.procs:
        spec = proc.spec
        if spec.kind != "assign" or spec.target_scope is spec.scope:
            continue
        if spec.target_scope is None:
            continue
        try:
            lhs = lvalue_width(spec.target, spec.target_scope)
        except VerilogError:
            continue
        rhs = _static_expr_width(spec.value, spec.scope)
        if rhs is None or lhs == rhs:
            continue
        # the deeper scope is the child instance; its side is the port
        child_is_target = len(spec.target_scope.path) > len(spec.scope.path)
        port_width, net_width = (lhs, rhs) if child_is_target else (rhs, lhs)
        port_scope = spec.target_scope if child_is_target else spec.scope
        port_expr = spec.target if child_is_target else spec.value
        port_name = ""
        if isinstance(port_expr, ast.Identifier):
            resolved = port_scope.resolve(port_expr.name)
            if resolved is not None and resolved[0] == "signal":
                port_name = resolved[1].name
        findings.append(Finding(
            code="port-width-mismatch", severity="warning",
            message=f"{net_width}-bit expression connected to "
                    f"{port_width}-bit port '{port_name}'",
            path=port_name, line=spec.line,
        ))
    return findings


def _check_x_prop(graph: DataflowGraph, loop_members: set) -> list[Finding]:
    grounded = set(graph.top_inputs)
    for signal in graph.design.signals:
        if signal.memory is not None or signal.value.is_fully_known:
            grounded.add(signal)
    records = [
        (target, assignment.deps)
        for proc in graph.procs
        for assignment in proc.assignments
        for target, _span in assignment.targets
    ]
    changed = True
    while changed:
        changed = False
        for target, deps in records:
            if target not in grounded and deps <= grounded:
                grounded.add(target)
                changed = True
    feeds_output = graph.backward_closure(graph.top_outputs)
    findings = []
    for signal in sorted(graph.drivers, key=lambda s: s.name):
        if (signal in grounded or signal in loop_members
                or signal.kind not in ("reg", "integer")
                or signal not in feeds_output):
            continue
        line = min(a.line for _p, a in graph.drivers[signal])
        findings.append(Finding(
            code="x-prop", severity="warning",
            message=f"register '{signal.name}' is never reset or "
                    f"initialized; its x state can reach an output",
            path=signal.name, line=line,
        ))
    return findings


# ----------------------------------------------------------------------
# FSM extraction
# ----------------------------------------------------------------------
def _enum_consts(expr: ast.Expr | None, scope: Scope) -> set[int] | None:
    """Enumerate the constant values an rvalue can take (None=opaque)."""
    if isinstance(expr, ast.Ternary):
        a = _enum_consts(expr.if_true, scope)
        b = _enum_consts(expr.if_false, scope)
        if a is None or b is None:
            return None
        return a | b
    value = _const_int(expr, scope)
    return None if value is None else {value}


def _case_assign_ids(case: ast.Case) -> set[int]:
    ids: set[int] = set()

    def walk(stmt: ast.Stmt | None) -> None:
        if stmt is None:
            return
        if isinstance(stmt, ast.Assign):
            ids.add(id(stmt))
        elif isinstance(stmt, ast.Block):
            for child in stmt.stmts:
                walk(child)
        elif isinstance(stmt, ast.If):
            walk(stmt.then_stmt)
            walk(stmt.else_stmt)
        elif isinstance(stmt, ast.Case):
            for item in stmt.items:
                walk(item.body)
        elif isinstance(stmt, ast.For):
            walk(stmt.init)
            walk(stmt.step)
            walk(stmt.body)
        elif isinstance(stmt, (ast.While, ast.Repeat, ast.Forever,
                               ast.DelayStmt, ast.EventControl, ast.Wait)):
            walk(stmt.body)

    for item in case.items:
        walk(item.body)
    return ids


def _arm_successors(
    body: ast.Stmt | None, next_signal: Signal, scope: Scope
) -> set[int] | None:
    """Constants assigned to ``next_signal`` within one case arm.

    Returns None when any assignment is opaque (non-enumerable rvalue),
    an empty set when the arm never assigns it (state holds).
    """
    successors: set[int] = set()
    opaque = False

    def walk(stmt: ast.Stmt | None) -> None:
        nonlocal opaque
        if stmt is None or opaque:
            return
        if isinstance(stmt, ast.Assign):
            if (isinstance(stmt.target, ast.Identifier)):
                resolved = scope.resolve(stmt.target.name)
                if (resolved is not None and resolved[0] == "signal"
                        and resolved[1] is next_signal):
                    consts = _enum_consts(stmt.value, scope)
                    if consts is None:
                        opaque = True
                    else:
                        successors.update(consts)
        elif isinstance(stmt, ast.Block):
            for child in stmt.stmts:
                walk(child)
        elif isinstance(stmt, ast.If):
            walk(stmt.then_stmt)
            walk(stmt.else_stmt)
        elif isinstance(stmt, ast.Case):
            for item in stmt.items:
                walk(item.body)
        elif isinstance(stmt, (ast.While, ast.Repeat, ast.Forever,
                               ast.DelayStmt, ast.EventControl, ast.Wait)):
            walk(stmt.body)
        elif isinstance(stmt, ast.For):
            walk(stmt.init)
            walk(stmt.step)
            walk(stmt.body)

    walk(body)
    return None if opaque else successors


def _find_cases(stmt: ast.Stmt | None):
    if stmt is None:
        return
    if isinstance(stmt, ast.Case):
        yield stmt
    if isinstance(stmt, ast.Block):
        for child in stmt.stmts:
            yield from _find_cases(child)
    elif isinstance(stmt, ast.If):
        yield from _find_cases(stmt.then_stmt)
        yield from _find_cases(stmt.else_stmt)
    elif isinstance(stmt, ast.Case):
        for item in stmt.items:
            yield from _find_cases(item.body)
    elif isinstance(stmt, ast.For):
        yield from _find_cases(stmt.init)
        yield from _find_cases(stmt.step)
        yield from _find_cases(stmt.body)
    elif isinstance(stmt, (ast.While, ast.Repeat, ast.Forever,
                           ast.DelayStmt, ast.EventControl, ast.Wait)):
        yield from _find_cases(stmt.body)


def _check_fsms(graph: DataflowGraph) -> list[Finding]:
    findings: list[Finding] = []
    # seq-block links S <= N and seq const entries S <= CONST, with the
    # assign node ids so in-case transitions can be excluded from entries
    for proc in graph.procs:
        if proc.cls not in ("comb", "seq"):
            continue
        scope = proc.spec.scope
        for case in _find_cases(proc.spec.body):
            if case.kind != "case":
                continue
            subject = case.subject
            if not isinstance(subject, ast.Identifier):
                continue
            resolved = scope.resolve(subject.name)
            if resolved is None or resolved[0] != "signal":
                continue
            state = resolved[1]
            if state.memory is not None or state.width > 16:
                continue
            findings.extend(
                _analyze_fsm(graph, proc, case, state, scope)
            )
    return findings


def _analyze_fsm(
    graph: DataflowGraph, proc: _Proc, case: ast.Case,
    state: Signal, scope: Scope,
) -> list[Finding]:
    arm_values: dict[int, ast.CaseItem] = {}
    default_item: ast.CaseItem | None = None
    for item in case.items:
        if not item.exprs:
            default_item = item
            continue
        for expr in item.exprs:
            value = _const_int(expr, scope)
            if value is None:
                return []  # non-constant label: not an FSM case
            arm_values[value] = item

    if not arm_values:
        return []

    # Identify the next-state variable.  One-process FSM: the case sits
    # in the sequential block and assigns ``state`` directly.  Two-
    # process: a sequential assignment ``state <= next`` links them.
    in_case = _case_assign_ids(case)
    next_signal: Signal | None = None
    if proc.cls == "seq":
        next_signal = state
    else:
        for other in graph.procs:
            if other.cls != "seq":
                continue
            for assignment in other.assignments:
                if not any(t is state and span == (0, state.width - 1)
                           for t, span in assignment.targets):
                    continue
                if isinstance(assignment.value, ast.Identifier):
                    linked = other.spec.scope.resolve(assignment.value.name)
                    if linked is not None and linked[0] == "signal":
                        next_signal = linked[1]
        if next_signal is None:
            return []

    # Entry states: constants assigned to the state register in
    # sequential blocks *outside* this case (reset branches), plus a
    # known declaration init.  No anchor -> no reachability claims.
    entries: set[int] = set()
    for other in graph.procs:
        if other.cls not in ("seq", "initial"):
            continue
        for assignment in other.assignments:
            if assignment.node_id in in_case:
                continue
            if not any(t is state for t, _span in assignment.targets):
                continue
            consts = _enum_consts(assignment.value, other.spec.scope)
            if consts:
                entries.update(consts)
    init = state.value.to_int() if state.value.is_fully_known else None
    if init is not None:
        entries.add(init)
    if not entries:
        return []

    successors: dict[int, set[int]] = {}
    for value, item in arm_values.items():
        succ = _arm_successors(item.body, next_signal, scope)
        if succ is None:
            return []  # computed next state: no static claims
        successors[value] = succ if succ else {value}
    default_succ: set[int] | None = None
    if default_item is not None:
        default_succ = _arm_successors(default_item.body, next_signal, scope)
        if default_succ is None:
            return []

    def step(value: int) -> set[int]:
        if value in successors:
            return successors[value]
        if default_succ is not None:
            return default_succ if default_succ else {value}
        return {value}

    reachable: set[int] = set()
    frontier = list(entries)
    while frontier:
        value = frontier.pop()
        if value in reachable:
            continue
        reachable.add(value)
        frontier.extend(step(value))

    findings = []
    for value in sorted(arm_values):
        if value in reachable:
            continue
        item = arm_values[value]
        line = item.body.line if item.body is not None else case.line
        findings.append(Finding(
            code="fsm-unreachable-state", severity="warning",
            message=f"FSM state {value} of '{state.name}' is unreachable "
                    f"from reset/init state(s) "
                    f"{{{', '.join(str(v) for v in sorted(entries))}}}",
            path=state.name, line=line,
        ))
        for succ in sorted(successors[value]):
            findings.append(Finding(
                code="fsm-dead-transition", severity="info",
                message=f"transition {value} -> {succ} of "
                        f"'{state.name}' can never fire "
                        f"(source state unreachable)",
                path=state.name, line=line,
            ))
    return findings


# ----------------------------------------------------------------------
# Constant propagation
# ----------------------------------------------------------------------
def _constant_signals(graph: DataflowGraph) -> dict:
    """Signals driven by exactly one whole-width constant assign."""
    constants: dict = {}
    for signal, entries in graph.drivers.items():
        if len(entries) != 1 or signal.memory is not None:
            continue
        proc, assignment = entries[0]
        if proc.cls != "assign":
            continue
        if not any(t is signal and span == (0, signal.width - 1)
                   for t, span in assignment.targets):
            continue
        if assignment.value is None:
            continue
        if not _params_only(assignment.value, assignment.scope):
            continue
        try:
            value = eval_expr(assignment.value, assignment.scope)
        except (VerilogError, RecursionError):
            continue
        if value.is_fully_known:
            constants[signal] = value.resize(signal.width, signal.signed)
    return constants


def _branch_conditions(proc: _Proc):
    """(cond expr, line) for every If/Ternary condition in a process."""

    def exprs_of(expr: ast.Expr | None):
        if expr is None:
            return
        if isinstance(expr, ast.Ternary):
            yield (expr.cond, expr.line)
        for child in _child_exprs(expr):
            yield from exprs_of(child)

    def walk(stmt: ast.Stmt | None):
        if stmt is None:
            return
        if isinstance(stmt, ast.If):
            yield (stmt.cond, stmt.line)
            yield from exprs_of(stmt.cond)
            yield from walk(stmt.then_stmt)
            yield from walk(stmt.else_stmt)
        elif isinstance(stmt, ast.Block):
            for child in stmt.stmts:
                yield from walk(child)
        elif isinstance(stmt, ast.Assign):
            yield from exprs_of(stmt.value)
        elif isinstance(stmt, ast.Case):
            for item in stmt.items:
                yield from walk(item.body)
        elif isinstance(stmt, ast.For):
            yield from walk(stmt.init)
            yield from walk(stmt.step)
            yield from walk(stmt.body)
        elif isinstance(stmt, (ast.While, ast.Repeat, ast.Forever,
                               ast.DelayStmt, ast.EventControl, ast.Wait)):
            yield from walk(stmt.body)

    spec = proc.spec
    if spec.kind == "assign":
        yield from exprs_of(spec.value)
    else:
        yield from walk(spec.body)


def _child_exprs(expr: ast.Expr):
    if isinstance(expr, ast.Unary):
        yield expr.operand
    elif isinstance(expr, ast.Binary):
        yield expr.lhs
        yield expr.rhs
    elif isinstance(expr, ast.Ternary):
        yield expr.cond
        yield expr.if_true
        yield expr.if_false
    elif isinstance(expr, (ast.Concat,)):
        yield from expr.parts
    elif isinstance(expr, ast.Replicate):
        yield expr.count
        yield expr.value
    elif isinstance(expr, ast.BitSelect):
        yield expr.base
        yield expr.index
    elif isinstance(expr, ast.PartSelect):
        yield expr.base
        yield expr.msb
        yield expr.lsb
    elif isinstance(expr, ast.IndexedPartSelect):
        yield expr.base
        yield expr.start
        yield expr.width
    elif isinstance(expr, (ast.FunctionCall, ast.SystemCall)):
        yield from expr.args


def _check_const_branches(graph: DataflowGraph) -> list[Finding]:
    constants = _constant_signals(graph)
    findings = []
    saved = [(signal, signal.value) for signal in constants]
    for signal, value in constants.items():
        signal.value = value
    try:
        for proc in graph.procs:
            scope = proc.spec.scope
            for cond, line in _branch_conditions(proc):
                if cond is None:
                    continue
                names = collect_reads(cond, set())
                if not names:
                    continue  # pure literals: not worth a finding
                usable = True
                for name in names:
                    resolved = scope.resolve(name)
                    if resolved is None:
                        usable = False
                    elif (resolved[0] == "signal"
                          and resolved[1] not in constants):
                        usable = False
                if not usable:
                    continue
                try:
                    value = eval_expr(cond, scope)
                except (VerilogError, RecursionError):
                    continue
                if not value.is_fully_known:
                    continue
                verdict = "true" if value.truthy() else "false"
                findings.append(Finding(
                    code="const-branch", severity="info",
                    message=f"branch condition is always {verdict}",
                    path=proc.spec.scope.path, line=line,
                ))
    finally:
        for signal, value in saved:
            signal.value = value
    return findings


def _check_dead_logic(graph: DataflowGraph) -> list[Finding]:
    if not graph.top_outputs:
        return []  # testbench-style top: everything is 'observation'
    sinks = set(graph.top_outputs)
    for proc in graph.procs:
        sinks |= proc.observed
    live = graph.backward_closure(sinks)
    findings = []
    for signal in sorted(graph.drivers, key=lambda s: s.name):
        if (signal in live or signal in sinks
                or signal in graph.top_inputs
                or signal in graph.top_outputs):
            continue
        line = min(a.line for _p, a in graph.drivers[signal])
        findings.append(Finding(
            code="dead-logic", severity="info",
            message=f"'{signal.name}' drives no output or observable "
                    f"effect",
            path=signal.name, line=line,
        ))
    return findings


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def analyze_design(design: Design, unit: ast.SourceUnit) -> list[Finding]:
    """All findings for an elaborated design, severity-major order."""
    graph = DataflowGraph(design, unit)
    loops = _check_comb_loops(graph)
    loop_members: set = set()
    for component in graph.comb_sccs():
        loop_members |= set(component)
    findings = list(loops)
    findings.extend(_check_drivers(graph))
    findings.extend(_check_undriven(graph))
    findings.extend(_check_port_widths(graph))
    findings.extend(_check_x_prop(graph, loop_members))
    findings.extend(_check_fsms(graph))
    findings.extend(_check_const_branches(graph))
    findings.extend(_check_dead_logic(graph))
    findings.sort(key=lambda f: (
        _SEVERITY_RANK.get(f.severity, 3), f.line, f.code, f.path,
        f.message,
    ))
    return findings


def infer_top(unit: ast.SourceUnit) -> str:
    """Conventional top pick: the first module nobody instantiates."""
    instantiated = {
        inst.module_name
        for module in unit.modules
        for inst in module.instances
    }
    for module in unit.modules:
        if module.name not in instantiated:
            return module.name
    return unit.modules[-1].name if unit.modules else ""


def analyze_source(source: str, top: str | None = None):
    """Compile + analyze; returns ``(CompileReport, findings)``.

    Findings are empty when the design does not compile — the compile
    report's own stage/errors cover that case.
    """
    from .compile import _elaborate_unit, check_syntax

    syntax = check_syntax(source)
    if not syntax.ok:
        return syntax, []
    assert syntax.unit is not None
    if top is None:
        top = infer_top(syntax.unit)
    report = _elaborate_unit(syntax.unit, top, syntax.parse_seconds)
    if not report.ok or report.design is None or report.unit is None:
        return report, []
    return report, analyze_design(report.design, report.unit)


def check_design(design: Design, unit: ast.SourceUnit) -> list[Finding]:
    """Gate entry point: raise :class:`AnalysisError` on error findings.

    Returns the full finding list when the design passes the gate.
    """
    findings = analyze_design(design, unit)
    errors = error_findings(findings)
    if errors:
        first = errors[0]
        raise AnalysisError(
            first.message, line=first.line, code=first.code,
            path=first.path,
        )
    return findings


__all__ = [
    "DataflowGraph",
    "FINDING_CODES",
    "Finding",
    "analyze_design",
    "analyze_source",
    "check_design",
    "error_findings",
    "finding_from_dict",
    "finding_to_dict",
    "infer_top",
]

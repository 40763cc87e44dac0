"""Static lint checks over parsed Verilog.

The paper's discussion suggests designers could use LLMs to produce a
"syntactically-correct 'skeleton' of a design" to then refine.  This
module grades such skeletons beyond the binary compile gate, with the
classic RTL-quality checks:

========================  ==============================================
code                      meaning
========================  ==============================================
``missing-default``       combinational ``case`` without a default item
``incomplete-sens``       explicit sensitivity list misses signals read
``latch-risk``            ``@*`` block with a path that skips an assign
``nb-in-comb``            nonblocking assign inside a combinational block
``blocking-in-seq``       blocking assign inside an edge-triggered block
``unused-signal``         declared net/reg never read
``undriven``              net/output read but never driven
``multi-driven``          variable assigned from multiple always blocks
``width-trunc``           RHS wider than assignment target
========================  ==============================================

Every check works on the AST only (no simulation), so linting is cheap
enough to run on whole corpora.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ast
from .eval import collect_reads, collect_target_index_reads


@dataclass(frozen=True)
class LintWarning:
    """One finding: machine code, human message, source line."""

    code: str
    message: str
    line: int = 0

    def __str__(self) -> str:
        return f"line {self.line}: [{self.code}] {self.message}"


def lint_source_unit(unit: ast.SourceUnit) -> list[LintWarning]:
    warnings: list[LintWarning] = []
    for module in unit.modules:
        warnings.extend(lint_module(module))
    return warnings


def lint_module(module: ast.Module) -> list[LintWarning]:
    """All lint findings for one module, sorted by line."""
    warnings: list[LintWarning] = []
    warnings.extend(_check_case_defaults(module))
    warnings.extend(_check_sensitivity(module))
    warnings.extend(_check_latch_risk(module))
    warnings.extend(_check_assign_styles(module))
    warnings.extend(_check_signal_usage(module))
    warnings.extend(_check_multiple_drivers(module))
    warnings.extend(_check_width_truncation(module))
    return sorted(warnings, key=lambda w: (w.line, w.code))


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _is_sequential(block: ast.AlwaysBlock) -> bool:
    body = block.body
    return isinstance(body, ast.EventControl) and any(
        sense.edge is not None for sense in body.senses
    )


def _is_combinational(block: ast.AlwaysBlock) -> bool:
    body = block.body
    return isinstance(body, ast.EventControl) and all(
        sense.edge is None for sense in body.senses
    )


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def _check_case_defaults(module: ast.Module) -> list[LintWarning]:
    warnings = []
    widths: dict[str, int | None] = {
        port.name: _static_width(port.range) for port in module.ports
    }
    for decl in module.decls:
        widths[decl.name] = (
            32 if decl.kind == "integer" else _static_width(decl.range)
        )
    for block in module.always_blocks:
        if not _is_combinational(block):
            continue
        for node in ast.walk_stmts(block.body):
            if isinstance(node, ast.Case) and not any(
                not item.exprs for item in node.items
            ):
                if _case_fully_covered(node, widths):
                    continue
                warnings.append(
                    LintWarning(
                        "missing-default",
                        "combinational case without a default item",
                        node.line,
                    )
                )
    return warnings


def _case_fully_covered(case: ast.Case, widths: dict) -> bool:
    """True when a plain ``case`` enumerates every value of its selector.

    Only claims coverage for an identifier selector of statically known
    width N whose items are constant labels covering all 2**N values —
    a full-coverage case needs no default and should not warn.
    """
    if case.kind != "case" or not isinstance(case.subject, ast.Identifier):
        return False
    width = widths.get(case.subject.name)
    if width is None or not 0 < width <= 16:
        return False
    values: set[int] = set()
    for item in case.items:
        for expr in item.exprs:
            value = _const_value(expr)
            if value is None or not 0 <= value < (1 << width):
                return False
            values.add(value)
    return len(values) == (1 << width)


def _check_sensitivity(module: ast.Module) -> list[LintWarning]:
    warnings = []
    declared = {d.name for d in module.decls} | {p.name for p in module.ports}
    for block in module.always_blocks:
        body = block.body
        if not isinstance(body, ast.EventControl) or not body.senses:
            continue
        if any(sense.edge is not None for sense in body.senses):
            continue  # sequential blocks read state on purpose
        listed: set[str] = set()
        for sense in body.senses:
            collect_reads(sense.expr, listed)
        read = collect_reads(body.body) & declared
        missing = sorted(read - listed)
        if missing:
            warnings.append(
                LintWarning(
                    "incomplete-sens",
                    "sensitivity list misses: " + ", ".join(missing),
                    block.line,
                )
            )
    return warnings


def _check_latch_risk(module: ast.Module) -> list[LintWarning]:
    warnings = []
    for block in module.always_blocks:
        if not _is_combinational(block):
            continue
        body = block.body.body if isinstance(block.body, ast.EventControl) else block.body
        always_set = _always_assigned(body)
        ever_set = ast.assigned_names(body)
        latchy = sorted(ever_set - always_set)
        if latchy:
            warnings.append(
                LintWarning(
                    "latch-risk",
                    "not assigned on every path: " + ", ".join(latchy),
                    block.line,
                )
            )
    return warnings


def _always_assigned(stmt: ast.Stmt | None) -> set[str]:
    """Names assigned on *every* control path through ``stmt``."""
    if stmt is None:
        return set()
    if isinstance(stmt, ast.Block):
        names: set[str] = set()
        for child in stmt.stmts:
            names |= _always_assigned(child)
        return names
    if isinstance(stmt, ast.Assign):
        names = set()
        ast.lvalue_names(stmt.target, names)
        return names
    if isinstance(stmt, ast.If):
        if stmt.else_stmt is None:
            return set()
        return _always_assigned(stmt.then_stmt) & _always_assigned(
            stmt.else_stmt
        )
    if isinstance(stmt, ast.Case):
        has_default = any(not item.exprs for item in stmt.items)
        if not has_default or not stmt.items:
            return set()
        common: set[str] | None = None
        for item in stmt.items:
            assigned = _always_assigned(item.body)
            common = assigned if common is None else (common & assigned)
        return common or set()
    return set()


def _check_assign_styles(module: ast.Module) -> list[LintWarning]:
    warnings = []
    for block in module.always_blocks:
        sequential = _is_sequential(block)
        combinational = _is_combinational(block)
        for node in ast.walk_stmts(block.body):
            if not isinstance(node, ast.Assign):
                continue
            if combinational and node.nonblocking:
                warnings.append(
                    LintWarning(
                        "nb-in-comb",
                        "nonblocking assignment in combinational block",
                        node.line,
                    )
                )
            if sequential and not node.nonblocking:
                targets: set[str] = set()
                ast.lvalue_names(node.target, targets)
                warnings.append(
                    LintWarning(
                        "blocking-in-seq",
                        "blocking assignment to "
                        + ", ".join(sorted(targets))
                        + " in edge-triggered block",
                        node.line,
                    )
                )
    return warnings


def _module_reads(module: ast.Module) -> set[str]:
    reads: set[str] = set()
    for cont in module.assigns:
        # target index expressions count as reads of the index nets
        # (``assign mem[addr] = x`` reads ``addr``)
        collect_reads(cont.value, reads)
        collect_target_index_reads(cont.target, reads)
    for block in module.always_blocks:
        collect_reads(block.body, reads)
    for block in module.initial_blocks:
        collect_reads(block.body, reads)
    for instance in module.instances:
        for conn in instance.connections:
            if conn.expr is not None:
                collect_reads(conn.expr, reads)
    return reads


def _module_writes(module: ast.Module) -> set[str]:
    writes: set[str] = set()
    for cont in module.assigns:
        ast.lvalue_names(cont.target, writes)
    for block in module.always_blocks:
        writes |= ast.assigned_names(block.body)
    for block in module.initial_blocks:
        writes |= ast.assigned_names(block.body)
    for instance in module.instances:
        # outputs of children drive the connected expressions; without
        # child direction info, any connected identifier counts as driven
        for conn in instance.connections:
            if isinstance(conn.expr, ast.Identifier):
                writes.add(conn.expr.name)
            elif isinstance(conn.expr, ast.Concat):
                ast.lvalue_names(conn.expr, writes)
    return writes


def _check_signal_usage(module: ast.Module) -> list[LintWarning]:
    warnings = []
    reads = _module_reads(module)
    writes = _module_writes(module)
    outputs = {p.name for p in module.ports if p.direction == "output"}
    inputs = {p.name for p in module.ports if p.direction != "output"}
    for decl in module.decls:
        if decl.name in inputs or decl.name in outputs:
            continue
        if decl.name not in reads and decl.name not in writes:
            warnings.append(
                LintWarning(
                    "unused-signal",
                    f"{decl.name!r} is declared but never used",
                    decl.line,
                )
            )
    for name in sorted(outputs):
        if name not in writes:
            line = next(
                (p.line for p in module.ports if p.name == name), module.line
            )
            warnings.append(
                LintWarning("undriven", f"output {name!r} is never driven", line)
            )
    return warnings


def _check_multiple_drivers(module: ast.Module) -> list[LintWarning]:
    warnings = []
    driver_blocks: dict[str, int] = {}
    for block in module.always_blocks:
        for name in ast.assigned_names(block.body):
            driver_blocks[name] = driver_blocks.get(name, 0) + 1
    assign_targets: set[str] = set()
    for cont in module.assigns:
        ast.lvalue_names(cont.target, assign_targets)
    for name, count in sorted(driver_blocks.items()):
        if count > 1:
            warnings.append(
                LintWarning(
                    "multi-driven",
                    f"{name!r} is assigned from {count} always blocks",
                    module.line,
                )
            )
        if name in assign_targets:
            warnings.append(
                LintWarning(
                    "multi-driven",
                    f"{name!r} has both a continuous assign and an always driver",
                    module.line,
                )
            )
    return warnings


def _check_width_truncation(module: ast.Module) -> list[LintWarning]:
    widths: dict[str, int] = {}
    for port in module.ports:
        widths[port.name] = _static_width(port.range)
    for decl in module.decls:
        widths[decl.name] = (
            32 if decl.kind == "integer" else _static_width(decl.range)
        )

    warnings = []

    def check(target: ast.Expr | None, value: ast.Expr | None, line: int):
        if not isinstance(target, ast.Identifier) or value is None:
            return
        lhs_width = widths.get(target.name)
        rhs_width = _expr_static_width(value, widths)
        if lhs_width and rhs_width and rhs_width > lhs_width:
            warnings.append(
                LintWarning(
                    "width-trunc",
                    f"{rhs_width}-bit value truncated to "
                    f"{lhs_width}-bit {target.name!r}",
                    line,
                )
            )

    for cont in module.assigns:
        check(cont.target, cont.value, cont.line)
    for block in module.always_blocks + module.initial_blocks:
        for node in ast.walk_stmts(block.body):
            if isinstance(node, ast.Assign):
                check(node.target, node.value, node.line)
    return warnings


def _static_width(rng: ast.Range | None) -> int | None:
    if rng is None:
        return 1
    msb = _const_value(rng.msb)
    lsb = _const_value(rng.lsb)
    if msb is None or lsb is None:
        return None
    return abs(msb - lsb) + 1


def _const_value(expr: ast.Expr | None) -> int | None:
    if isinstance(expr, ast.Number) and "x" not in expr.value_bits and "z" not in expr.value_bits:
        return int(expr.value_bits, 2)
    return None


def _expr_static_width(expr: ast.Expr | None, widths: dict) -> int | None:
    """Conservative static width: only sized literals, ids and concats."""
    if isinstance(expr, ast.Number):
        return expr.width if expr.sized else None  # bare decimals are lax
    if isinstance(expr, ast.Identifier):
        return widths.get(expr.name)
    if isinstance(expr, ast.Concat):
        total = 0
        for part in expr.parts:
            width = _expr_static_width(part, widths)
            if width is None:
                return None
            total += width
        return total
    if isinstance(expr, ast.Replicate):
        count = _const_value(expr.count)
        inner = _expr_static_width(expr.value, widths)
        if count is None or inner is None:
            return None
        return count * inner
    if isinstance(expr, ast.BitSelect):
        return 1
    return None  # operators: context rules make static claims unsafe

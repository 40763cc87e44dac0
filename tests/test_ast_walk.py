"""Walker completeness: the traversal in ``repro.verilog.ast`` sees
every child field of every node kind.

Each concrete expression and statement class is built with a distinct
sentinel in every field whose type holds an expression or a statement
(lists get two, and the ``CaseItem``/``SenseItem`` wrappers are filled
the same way).  Field types are read from the class annotations, so a
field or node kind added to ``ast.py`` is filled here without touching
this file, and the test fails until the traversal functions know it.
"""

import dataclasses
import typing

import pytest

from repro.verilog import ast
from repro.verilog.eval import collect_reads, collect_target_index_reads


def _subclasses(base: type) -> list[type]:
    found = []
    for cls in base.__subclasses__():
        found.append(cls)
        found.extend(_subclasses(cls))
    return found


EXPR_KINDS = _subclasses(ast.Expr)
STMT_KINDS = _subclasses(ast.Stmt)


def _classes(hint) -> list[type]:
    """The classes a type annotation names (through unions and lists)."""
    if isinstance(hint, type) and not typing.get_args(hint):
        return [hint]
    return [cls for arg in typing.get_args(hint) for cls in _classes(arg)]


def _is_list(hint) -> bool:
    return typing.get_origin(hint) is list


class Filled:
    """A node with sentinels in every child field, and what the walkers
    must report for it (sentinels in field declaration order)."""

    def __init__(self, cls: type):
        self.exprs: list = []  # direct child expressions
        self.stmts: list = []  # direct child statements
        self.reads: set[str] = set()  # names read by the child statements
        self.writes: set[str] = set()  # names they assign
        self.node = self._build(cls, cls.__name__)

    def _sentinel(self, kind: type, tag: str):
        if issubclass(kind, ast.Expr):
            expr = ast.Identifier(name=f"e_{tag}")
            self.exprs.append(expr)
            return expr
        if issubclass(kind, ast.Stmt):
            stmt = ast.Assign(target=ast.Identifier(name=f"w_{tag}"),
                              value=ast.Identifier(name=f"r_{tag}"))
            self.stmts.append(stmt)
            self.reads.add(f"r_{tag}")
            self.writes.add(f"w_{tag}")
            return stmt
        return self._build(kind, tag)  # a wrapper such as CaseItem

    def _build(self, cls: type, tag: str):
        hints = typing.get_type_hints(cls, vars(ast))
        values = {}
        for field in dataclasses.fields(cls):
            kinds = [kind for kind in _classes(hints[field.name])
                     if kind.__module__ == ast.__name__]
            if not kinds:
                continue  # str, int, bool, ...
            (kind,) = kinds
            name = f"{tag}.{field.name}"
            if _is_list(hints[field.name]):
                values[field.name] = [self._sentinel(kind, f"{name}{i}")
                                      for i in range(2)]
            else:
                values[field.name] = self._sentinel(kind, name)
        return cls(**values)


def _ids(nodes) -> list[int]:
    return [id(node) for node in nodes]


def _names(exprs) -> set[str]:
    return {expr.name for expr in exprs}


def test_every_node_kind_is_found():
    assert {ast.Number, ast.Identifier, ast.Ternary,
            ast.SystemCall} <= set(EXPR_KINDS)
    assert {ast.Block, ast.Case, ast.EventControl,
            ast.Disable} <= set(STMT_KINDS)


@pytest.mark.parametrize("cls", EXPR_KINDS + STMT_KINDS,
                         ids=lambda cls: cls.__name__)
def test_children_are_every_child_field_in_order(cls):
    filled = Filled(cls)
    assert _ids(ast.child_exprs(filled.node)) == _ids(filled.exprs)
    assert _ids(ast.child_stmts(filled.node)) == _ids(filled.stmts)


@pytest.mark.parametrize("cls", STMT_KINDS, ids=lambda cls: cls.__name__)
def test_walk_stmts_is_pre_order(cls):
    filled = Filled(cls)
    assert _ids(ast.walk_stmts(filled.node)) == _ids(
        [filled.node] + filled.stmts)


@pytest.mark.parametrize("cls", EXPR_KINDS, ids=lambda cls: cls.__name__)
def test_expression_reads_every_child(cls):
    filled = Filled(cls)
    assert not filled.stmts
    own = {filled.node.name} if cls is ast.Identifier else set()
    assert collect_reads(filled.node) == _names(filled.exprs) | own


@pytest.mark.parametrize("cls", STMT_KINDS, ids=lambda cls: cls.__name__)
def test_statement_reads_every_expression_field(cls):
    filled = Filled(cls)
    node = filled.node
    unread = set()
    if cls is ast.Assign:
        # the target is written, not read, and an intra-assignment
        # delay is not part of the implicit sensitivity
        unread = {node.target.name, node.delay.name}
    assert collect_reads(node) == (
        _names(filled.exprs) - unread) | filled.reads


@pytest.mark.parametrize("cls", STMT_KINDS, ids=lambda cls: cls.__name__)
def test_assigned_names_covers_every_child_statement(cls):
    filled = Filled(cls)
    node = filled.node
    written = {node.target.name} if cls is ast.Assign else set()
    assert ast.assigned_names(node) == filled.writes | written


@pytest.mark.parametrize(
    "cls", [ast.BitSelect, ast.PartSelect, ast.IndexedPartSelect],
    ids=lambda cls: cls.__name__)
def test_target_reads_are_the_selects_but_not_the_base(cls):
    filled = Filled(cls)
    target = filled.node
    reads = set()
    collect_target_index_reads(target, reads)
    assert reads == _names(filled.exprs) - {target.base.name}
    names = set()
    ast.lvalue_names(target, names)
    assert names == {target.base.name}
    assign = ast.Assign(target=target, value=ast.Identifier(name="v"))
    assert collect_reads(assign) == reads | {"v"}


def test_concat_target_reads_and_writes_each_part():
    parts = [
        ast.BitSelect(base=ast.Identifier(name="a"),
                      index=ast.Identifier(name="i")),
        ast.Identifier(name="b"),
        ast.PartSelect(base=ast.Identifier(name="c"),
                       msb=ast.Identifier(name="m"),
                       lsb=ast.Identifier(name="l")),
    ]
    target = ast.Concat(parts=parts)
    reads = set()
    collect_target_index_reads(target, reads)
    assert reads == {"i", "m", "l"}
    names = set()
    ast.lvalue_names(target, names)
    assert names == {"a", "b", "c"}


def test_optional_children_left_out_when_absent():
    cond = ast.Identifier(name="c")
    then = ast.NullStmt()
    node = ast.If(cond=cond, then_stmt=then)
    assert _ids(ast.child_stmts(node)) == [id(then)]
    assign = ast.Assign(target=ast.Identifier(name="q"),
                        value=ast.Identifier(name="v"))
    assert _ids(ast.child_exprs(assign)) == [id(assign.target),
                                             id(assign.value)]
    assert list(ast.walk_stmts(None)) == []
    assert ast.child_exprs(None) == () and ast.child_stmts(None) == ()

"""Differential testing: the simulator vs a Python integer oracle.

Hypothesis generates random combinational expressions over a set of
known-value registers; each expression is evaluated twice — by the event-
driven simulator through a generated module, and by a Python big-int
oracle implementing the LRM width/sign rules directly.  Any divergence is
a real bug in lexer, parser, width resolution, or 4-state arithmetic.

A seeded generator then covers what the 8-bit two-state oracle cannot:
x/z literals and values, operands wider than 64 bits, part selects that
run off either end, and replication.  There the two simulation engines
(interpreted and compiled) are the oracles for each other.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.verilog import run_simulation

WIDTH = 8
MASK = (1 << WIDTH) - 1

# (verilog operator, python oracle on masked unsigned ints)
_BINOPS = {
    "+": lambda a, b: (a + b) & MASK,
    "-": lambda a, b: (a - b) & MASK,
    "*": lambda a, b: (a * b) & MASK,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
}

_COMPARES = {
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b),
    "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b),
    ">=": lambda a, b: int(a >= b),
}


class _Expr:
    """A (verilog text, self-determined width, context evaluator) triple.

    ``at(width)`` implements the LRM two-step rule the real evaluator
    uses: the node is evaluated in a context of ``max(width, self
    width)`` bits — so e.g. ``(8'hFF << 4)`` retains its high bits when a
    16-bit context surrounds it.
    """

    def __init__(self, text: str, width: int, at):
        self.text = text
        self.width = width
        self._at = at

    def at(self, width: int) -> int:
        context = max(width, self.width)
        return self._at(context) & ((1 << context) - 1)

    @property
    def value(self) -> int:
        return self.at(self.width)


def _leaf(text: str, width: int, value: int) -> _Expr:
    return _Expr(text, width, lambda _w: value)


@st.composite
def expressions(draw, variables: dict[str, int], depth: int = 0):
    """Random expression over the fixed variables, with a context oracle."""
    if depth >= 3 or draw(st.booleans()):
        if draw(st.booleans()):
            name = draw(st.sampled_from(sorted(variables)))
            return _leaf(name, WIDTH, variables[name])
        literal = draw(st.integers(min_value=0, max_value=MASK))
        return _leaf(f"{WIDTH}'d{literal}", WIDTH, literal)
    kind = draw(st.sampled_from(
        ["bin", "cmp", "not", "neg", "shift", "concat", "ternary"]
    ))
    if kind == "bin":
        op = draw(st.sampled_from(sorted(_BINOPS)))
        lhs = draw(expressions(variables, depth + 1))
        rhs = draw(expressions(variables, depth + 1))
        width = max(lhs.width, rhs.width)
        ops = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
               "*": lambda a, b: a * b, "&": lambda a, b: a & b,
               "|": lambda a, b: a | b, "^": lambda a, b: a ^ b}

        def eval_bin(w, lhs=lhs, rhs=rhs, func=ops[op]):
            return func(lhs.at(w), rhs.at(w))

        return _Expr(f"({lhs.text} {op} {rhs.text})", width, eval_bin)
    if kind == "cmp":
        op = draw(st.sampled_from(sorted(_COMPARES)))
        lhs = draw(expressions(variables, depth + 1))
        rhs = draw(expressions(variables, depth + 1))
        inner = max(lhs.width, rhs.width)

        def eval_cmp(_w, lhs=lhs, rhs=rhs, func=_COMPARES[op], inner=inner):
            return func(lhs.at(inner), rhs.at(inner))

        return _Expr(f"({lhs.text} {op} {rhs.text})", 1, eval_cmp)
    if kind == "not":
        inner = draw(expressions(variables, depth + 1))
        return _Expr(
            f"(~{inner.text})", inner.width,
            lambda w, inner=inner: ~inner.at(w),
        )
    if kind == "neg":
        inner = draw(expressions(variables, depth + 1))
        return _Expr(
            f"(-{inner.text})", inner.width,
            lambda w, inner=inner: -inner.at(w),
        )
    if kind == "shift":
        inner = draw(expressions(variables, depth + 1))
        amount = draw(st.integers(min_value=0, max_value=WIDTH))
        direction = draw(st.sampled_from(["<<", ">>"]))

        def eval_shift(w, inner=inner, amount=amount, direction=direction):
            base = inner.at(w)
            return (base << amount) if direction == "<<" else (base >> amount)

        return _Expr(
            f"({inner.text} {direction} {amount})", inner.width, eval_shift
        )
    if kind == "concat":
        lhs = draw(expressions(variables, depth + 1))
        rhs = draw(expressions(variables, depth + 1))
        width = lhs.width + rhs.width

        def eval_concat(_w, lhs=lhs, rhs=rhs):
            # concat operands are always self-determined
            return (lhs.at(lhs.width) << rhs.width) | rhs.at(rhs.width)

        return _Expr(
            "{" + lhs.text + ", " + rhs.text + "}", width, eval_concat
        )
    # ternary
    cond = draw(expressions(variables, depth + 1))
    lhs = draw(expressions(variables, depth + 1))
    rhs = draw(expressions(variables, depth + 1))
    width = max(lhs.width, rhs.width)

    def eval_ternary(w, cond=cond, lhs=lhs, rhs=rhs):
        chosen = lhs if cond.at(cond.width) else rhs
        return chosen.at(w)

    return _Expr(
        f"({cond.text} ? {lhs.text} : {rhs.text})", width, eval_ternary
    )


def _simulate_expression(text: str, variables: dict[str, int], out_width: int) -> int:
    decls = "\n".join(
        f"  reg [{WIDTH - 1}:0] {name} = {WIDTH}'d{value};"
        for name, value in variables.items()
    )
    source = (
        "module tb;\n"
        f"{decls}\n"
        f"  reg [{out_width - 1}:0] out;\n"
        "  initial begin\n"
        f"    out = {text};\n"
        '    $display("%0d", out);\n'
        "    $finish;\n"
        "  end\n"
        "endmodule\n"
    )
    report, result = run_simulation(source, top="tb")
    assert report.ok, (report.errors, source)
    assert result is not None and result.finished
    return int(result.output[0])


_VARS = {"va": 0xA5, "vb": 0x3C, "vc": 0x01, "vd": 0xFF}


@settings(max_examples=120, deadline=None)
@given(expr=expressions(_VARS))
def test_prop_expression_matches_oracle(expr):
    mask = (1 << expr.width) - 1
    measured = _simulate_expression(expr.text, _VARS, expr.width)
    assert measured == expr.value & mask, expr.text


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.integers(min_value=0, max_value=MASK), min_size=4, max_size=4
    ),
    expr_seed=st.integers(min_value=0, max_value=2**16),
)
def test_prop_sum_reduction_matches_oracle(values, expr_seed):
    """Chained adds through a for-loop match Python's sum."""
    array_init = "\n".join(
        f"    mem[{i}] = {WIDTH}'d{v};" for i, v in enumerate(values)
    )
    source = (
        "module tb;\n"
        f"  reg [{WIDTH - 1}:0] mem [0:3];\n"
        f"  reg [{WIDTH + 3}:0] total;\n"
        "  integer i;\n"
        "  initial begin\n"
        f"{array_init}\n"
        "    total = 0;\n"
        "    for (i = 0; i < 4; i = i + 1) total = total + mem[i];\n"
        '    $display("%0d", total);\n'
        "    $finish;\n  end\nendmodule\n"
    )
    report, result = run_simulation(source, top="tb")
    assert report.ok and result is not None
    assert int(result.output[0]) == sum(values)


@settings(max_examples=40, deadline=None)
@given(
    value=st.integers(min_value=-(1 << (WIDTH - 1)), max_value=(1 << (WIDTH - 1)) - 1),
    amount=st.integers(min_value=0, max_value=WIDTH - 1),
)
def test_prop_signed_arith_shift_matches_python(value, amount):
    source = (
        "module tb;\n"
        f"  reg signed [{WIDTH - 1}:0] v;\n"
        "  initial begin\n"
        f"    v = {value};\n"
        f"    v = v >>> {amount};\n"
        '    $display("%0d", v);\n'
        "    $finish;\n  end\nendmodule\n"
    )
    report, result = run_simulation(source, top="tb")
    assert report.ok and result is not None
    assert int(result.output[0]) == value >> amount  # Python >> floors


@settings(max_examples=30, deadline=None)
@given(
    a=st.integers(min_value=0, max_value=MASK),
    b=st.integers(min_value=1, max_value=MASK),
)
def test_prop_division_and_modulo_match_oracle(a, b):
    source = (
        "module tb;\n"
        f"  reg [{WIDTH - 1}:0] q, r;\n"
        "  initial begin\n"
        f"    q = {WIDTH}'d{a} / {WIDTH}'d{b};\n"
        f"    r = {WIDTH}'d{a} % {WIDTH}'d{b};\n"
        '    $display("%0d %0d", q, r);\n'
        "    $finish;\n  end\nendmodule\n"
    )
    report, result = run_simulation(source, top="tb")
    assert report.ok and result is not None
    q_text, r_text = result.output[0].split()
    assert int(q_text) == a // b
    assert int(r_text) == a % b


@settings(max_examples=30, deadline=None)
@given(bits=st.integers(min_value=0, max_value=MASK))
def test_prop_reductions_match_oracle(bits):
    source = (
        "module tb;\n"
        f"  reg [{WIDTH - 1}:0] v;\n"
        "  reg r_and, r_or, r_xor;\n"
        "  initial begin\n"
        f"    v = {WIDTH}'d{bits};\n"
        "    r_and = &v; r_or = |v; r_xor = ^v;\n"
        '    $display("%b%b%b", r_and, r_or, r_xor);\n'
        "    $finish;\n  end\nendmodule\n"
    )
    report, result = run_simulation(source, top="tb")
    assert report.ok and result is not None
    expected = (
        f"{int(bits == MASK)}{int(bits != 0)}{bin(bits).count('1') % 2}"
    )
    assert result.output[0] == expected


@settings(max_examples=30, deadline=None)
@given(
    value=st.integers(min_value=0, max_value=MASK),
    hi=st.integers(min_value=0, max_value=WIDTH - 1),
    lo=st.integers(min_value=0, max_value=WIDTH - 1),
)
def test_prop_part_select_matches_oracle(value, hi, lo):
    if hi < lo:
        hi, lo = lo, hi
    source = (
        "module tb;\n"
        f"  reg [{WIDTH - 1}:0] v;\n"
        f"  reg [{hi - lo}:0] part;\n"
        "  initial begin\n"
        f"    v = {WIDTH}'d{value};\n"
        f"    part = v[{hi}:{lo}];\n"
        '    $display("%0d", part);\n'
        "    $finish;\n  end\nendmodule\n"
    )
    report, result = run_simulation(source, top="tb")
    assert report.ok and result is not None
    expected = (value >> lo) & ((1 << (hi - lo + 1)) - 1)
    assert int(result.output[0]) == expected


# ----------------------------------------------------------------------
# Interpreter == compiled engine on four-state and wide expressions
# ----------------------------------------------------------------------
#: (name, declaration width, signed) of the operands; widths straddle the
#: 64-bit word boundary
_WIDE_VARS = [("a", 1, False), ("b", 8, False), ("c", 8, True),
              ("d", 33, False), ("e", 70, False), ("f", 70, True),
              ("g", 130, False)]
_WIDE_BINOPS = ["+", "-", "*", "/", "%", "&", "|", "^", "~^", "==", "!=",
                "===", "!==", "<", "<=", ">", ">=", "&&", "||", "<<", ">>",
                ">>>", "<<<"]
_WIDE_UNOPS = ["~", "-", "!", "&", "|", "^", "~&", "~|", "~^"]


def _four_state_bits(rng: random.Random, width: int) -> str:
    """A bit string that is fully known about half the time."""
    alphabet = "01" if rng.random() < 0.5 else "0101xz"
    return "".join(rng.choice(alphabet) for _ in range(width))


def _wide_literal(rng: random.Random) -> str:
    width = rng.choice([1, 4, 8, 40, 65, 100])
    kind = rng.random()
    if kind < 0.5:
        return f"{width}'b{_four_state_bits(rng, width)}"
    if kind < 0.8:
        digits = (width + 3) // 4
        return f"{width}'h" + "".join(
            rng.choice("0123456789abcdefxz") for _ in range(digits))
    return str(rng.randint(0, 300))


def _wide_expr(rng: random.Random, depth: int = 0) -> str:
    if depth >= 3 or rng.random() < 0.3:
        if rng.random() < 0.7:
            return rng.choice(_WIDE_VARS)[0]
        return _wide_literal(rng)
    kind = rng.choice(["bin", "bin", "bin", "un", "tern", "concat",
                       "repl", "part", "bit", "indexed"])

    def sub() -> str:
        return _wide_expr(rng, depth + 1)

    if kind == "bin":
        op = rng.choice(_WIDE_BINOPS)
        rhs = str(rng.randint(0, 140)) if op in ("<<", ">>", ">>>", "<<<") \
            and rng.random() < 0.6 else sub()
        return f"({sub()} {op} {rhs})"
    if kind == "un":
        return f"({rng.choice(_WIDE_UNOPS)}{sub()})"
    if kind == "tern":
        return f"({sub()} ? {sub()} : {sub()})"
    if kind == "concat":
        return "{" + ", ".join(sub() for _ in range(rng.randint(2, 3))) + "}"
    if kind == "repl":
        # a count read from b can be 0 or x: a runtime error with a line
        count = "b[1:0]" if rng.random() < 0.1 else str(rng.randint(1, 3))
        return "{" + count + "{" + sub() + "}}"
    name, width, _ = rng.choice(_WIDE_VARS[1:])
    if kind == "part":
        # in range, past either end, or reversed bounds
        msb, lsb = rng.randint(-3, width + 3), rng.randint(-3, width + 3)
        return f"{name}[{msb}:{lsb}]"
    if kind == "bit":
        index = rng.randint(-2, width + 2) if rng.random() < 0.5 else sub()
        return f"{name}[{index}]"
    start = rng.randint(0, width - 1) if rng.random() < 0.5 else sub()
    return f"{name}[{start} {rng.choice(['+:', '-:'])} {rng.randint(1, 9)}]"


def _wide_module(rng: random.Random, count: int) -> str:
    decls = []
    for name, width, signed in _WIDE_VARS:
        kind = "reg signed" if signed else "reg"
        decls.append(f"  {kind} [{width - 1}:0] {name};")
    outs = [(f"o{i}", rng.choice([1, 8, 33, 70, 130])) for i in range(count)]
    wires = [(f"w{i}", rng.choice([8, 70])) for i in range(count)]
    exprs = [_wide_expr(rng) for _ in range(2 * count)]
    lines = ["module tb;", *decls]
    lines += [f"  reg [{w - 1}:0] {n};" for n, w in outs]
    lines += [f"  wire [{w - 1}:0] {n};" for n, w in wires]
    lines += [f"  assign {n} = {e};"
              for (n, _), e in zip(wires, exprs[count:])]
    lines.append("  initial begin")
    for step in range(2):
        for name, width, _ in _WIDE_VARS:
            lines.append(f"    {name} = {width}'b"
                         f"{_four_state_bits(rng, width)};")
        lines.append("    #1;")
        for (name, _), expr in zip(outs, exprs[:count]):
            lines.append(f"    {name} = {expr};")
        names = [n for n, _ in outs + wires]
        fmt = " ".join(["%b"] * len(names) + ["%h"] * len(names)
                       + ["%d"] * len(names))
        lines.append(f'    $display("{fmt}", {", ".join(names * 3)});')
    lines += ["    $finish;", "  end", "endmodule", ""]
    return "\n".join(lines)


def _observe(source: str, compile_sim: bool):
    report, sim = run_simulation(source, top="tb", compile_sim=compile_sim)
    return (report.ok, report.stage, report.line, tuple(report.errors),
            None if sim is None
            else (sim.finished, sim.time, tuple(sim.output)))


def test_four_state_wide_expressions_interpreted_equals_compiled():
    rng = random.Random(0x4E5EC)
    outcomes = []
    for _ in range(30):
        source = _wide_module(rng, count=6)
        interpreted = _observe(source, compile_sim=False)
        assert interpreted == _observe(source, compile_sim=True), source
        outcomes.append(interpreted)
    # most modules run to $finish; some die at a line inside the bench
    assert sum(o[4] is not None and o[4][0] for o in outcomes) >= 20
    assert any(o[1] == "sim" and o[2] for o in outcomes)

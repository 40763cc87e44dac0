"""Seeded port-shape fuzzing: interpreted == compiled on generated designs.

Each generated case is a small design under test and a bench around it.
Ports vary in width (1-70), signedness and direction, and each is
connected as a same-shape identifier (a forward), a wider, narrower or
sign-flipped identifier, a part-select, a concat, a constant or nothing.
The design's outputs come from one of three bodies: a level-sensitive
``always``, a posedge block of nonblocking writes, or continuous
assigns.  The bench mixes time-0 writes, ``#0``, ``@(posedge clk)`` with
and without ``#1``, ``@(out)`` and ``wait``, and prints every output.

The property is the engines' contract: the same outcome (output lines,
finish state and time, or the same error) and the same step count.
"""

from __future__ import annotations

import random

from repro.verilog import (
    CompiledEngine,
    SimulationError,
    Simulator,
    compile_design,
)

SEED = 0x9047
CASES = 300
TEMPLATES = ("level", "posedge", "assign")
INPUT_SHAPES = ("same", "same", "same", "wider", "narrower", "sign",
                "part", "concat", "const", "open")
OUTPUT_SHAPES = ("same", "same", "same", "wider", "narrower", "sign",
                 "part", "concat", "open")


def _width(rng: random.Random) -> int:
    return rng.choice((1, 1, rng.randint(2, 8), rng.randint(2, 16),
                       rng.randint(17, 70)))


def _decl(width: int, signed: bool) -> str:
    sign = "signed " if signed else ""
    return f"{sign}[{width - 1}:0]" if width > 1 or signed else ""


def _literal(rng: random.Random, width: int) -> str:
    digits = "".join(rng.choice("0011x") for _ in range(min(width, 12)))
    return f"{width}'b{digits}"


class _Case:
    """One generated design under test and its bench."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.template = rng.choice(TEMPLATES)
        self.inputs = [
            (f"i{k}", _width(rng), rng.random() < 0.3)
            for k in range(rng.randint(1, 3))
        ]
        self.outputs = [
            (f"o{k}", _width(rng), rng.random() < 0.3)
            for k in range(rng.randint(1, 2))
        ]
        self.inout = rng.random() < 0.2
        if self.inout:  # ``io`` is read back through an output
            self.outputs.append(("io_seen", 4, False))
        self.bench_regs: list[tuple[str, int]] = [("clk", 1)]
        self.bench_outs: list[str] = []
        self.decls: list[str] = ["reg clk;"]
        self.connections: list[str] = [".clk(clk)"]

    # -- design under test ---------------------------------------------
    def _expr(self) -> str:
        names = [name for name, _, _ in self.inputs]
        a, b = self.rng.choice(names), self.rng.choice(names)
        return self.rng.choice((
            a, f"{a} + {b}", f"{a} ^ {b}", f"~{a}", f"{{{a}, {b}}}",
            f"{a} - 1", f"-{a}", f"{a} >>> 1", f"({a} < {b})",
            f"{a} ? {b} : {a}",
        ))

    def dut(self) -> str:
        reg = "" if self.template == "assign" else "reg "
        ports = ["input clk"]
        ports += [f"input {_decl(w, s)} {n}" for n, w, s in self.inputs]
        if self.inout:
            ports.append("inout [3:0] io")
        ports += [f"output {'' if n == 'io_seen' else reg}{_decl(w, s)} {n}"
                  for n, w, s in self.outputs]
        lines = [f"module dut({', '.join(ports)});"]
        if self.inout:
            lines.append("  assign io_seen = ~io;")
        writes = [(name, self._expr()) for name, _, _ in self.outputs
                  if name != "io_seen"]
        if self.template == "assign":
            lines += [f"  assign {name} = {expr};" for name, expr in writes]
        elif self.template == "level":
            sense = self.rng.choice((
                "*", " or ".join(name for name, _, _ in self.inputs),
            ))
            lines.append(f"  always @({sense}) begin")
            lines += [f"    {name} = {expr};" for name, expr in writes]
            lines.append("  end")
        else:
            lines.append("  always @(posedge clk) begin")
            lines += [f"    {name} <= {expr};" for name, expr in writes]
            lines.append("  end")
        lines.append("endmodule")
        return "\n".join(lines)

    # -- bench -----------------------------------------------------------
    def _connect(self, port: str, width: int, signed: bool,
                 output: bool) -> None:
        rng = self.rng
        shape = rng.choice(OUTPUT_SHAPES if output else INPUT_SHAPES)
        kind = "wire" if output else "reg"
        local = f"t_{port}"
        if shape == "open":
            self.connections.append(f".{port}()")
            return
        if shape == "const":
            self.connections.append(f".{port}({_literal(rng, width)})")
            return
        if shape == "concat":
            high = rng.randint(1, width) if width > 1 else 1
            parts = [(f"{local}_h", high), (f"{local}_l", rng.randint(1, 8))]
            for name, part_width in parts:
                self._declare(kind, name, part_width, False, output)
            self.connections.append(
                f".{port}({{{parts[0][0]}, {parts[1][0]}}})"
            )
            return
        if shape == "part":
            low = rng.randint(0, 4)
            self._declare(kind, local, width + low + rng.randint(0, 4),
                          signed, output)
            self.connections.append(
                f".{port}({local}[{width + low - 1}:{low}])"
            )
            return
        if shape == "wider":
            width += rng.randint(1, 6)
        elif shape == "narrower" and width > 1:
            width = rng.randint(1, width - 1)
        elif shape == "sign":
            signed = not signed
        self._declare(kind, local, width, signed, output)
        self.connections.append(f".{port}({local})")

    def _declare(self, kind: str, name: str, width: int, signed: bool,
                 output: bool) -> None:
        self.decls.append(f"{kind} {_decl(width, signed)} {name};")
        if output:
            self.bench_outs.append(name)
        else:
            self.bench_regs.append((name, width))

    def _stimulus(self) -> list[str]:
        rng = self.rng
        writes = [(name, width) for name, width in self.bench_regs
                  if name != "clk"]
        shown = " ".join(["%b"] * len(self.bench_outs) + ["%d"])
        args = ", ".join(self.bench_outs + ["$time"])
        display = f'$display("{shown}", {args});'
        steps: list[str] = []
        for _ in range(rng.randint(0, 2)):  # time-0 writes
            if writes:
                name, width = rng.choice(writes)
                steps.append(f"{name} = {_literal(rng, width)};")
        for _ in range(rng.randint(3, 8)):
            choice = rng.randrange(7)
            if choice == 0 and writes:
                name, width = rng.choice(writes)
                steps.append(f"{name} = {_literal(rng, width)};")
            elif choice == 1:
                steps.append("#0;")
            elif choice == 2:
                steps.append("@(posedge clk);")
            elif choice == 3:
                steps.append("@(posedge clk) #1;")
            elif choice == 4 and self.bench_outs:
                steps.append(f"@({rng.choice(self.bench_outs)});")
            elif choice == 5 and self.bench_outs:
                out = rng.choice(self.bench_outs)
                steps.append(f"wait ({out} != 0 || clk);")
            else:
                steps.append(f"#{rng.randint(1, 3)};")
            steps.append(display)
        return steps

    def source(self) -> str:
        dut = self.dut()
        for name, width, signed in self.inputs:
            self._connect(name, width, signed, output=False)
        if self.inout:
            self.decls.append("reg [3:0] t_io;")
            self.bench_regs.append(("t_io", 4))
            self.connections.append(".io(t_io)")
        for name, width, signed in self.outputs:
            self._connect(name, width, signed, output=True)
        stimulus = "\n    ".join(self._stimulus())
        return "\n".join([
            dut,
            "module tb;",
            *(f"  {decl}" for decl in self.decls),
            f"  dut d({', '.join(self.connections)});",
            "  initial clk = 0;",
            "  always #1 clk = ~clk;",
            "  initial #30 $finish;",
            f"  initial begin\n    {stimulus}\n  end",
            "endmodule",
        ])


def generate(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    return [_Case(rng).source() for _ in range(count)]


def run(source: str, compiled: bool):
    """(outcome, steps) of one run; the outcome is the printed lines,
    finish state and time, or the elaboration or simulation error."""
    report = compile_design(source, top="tb")
    if not report.ok:
        return ("elaborate", tuple(report.errors)), 0
    engine = CompiledEngine(report.design) if compiled else None
    sim = Simulator(report.design, engine=engine, max_steps=20_000)
    try:
        result = sim.run()
    except SimulationError as exc:
        return ("sim", str(exc)), sim._steps
    return (result.finished, result.time, tuple(result.output)), sim._steps


def test_generated_designs_elaborate_with_forwards_and_other_shapes():
    forwards = others = 0
    for source in generate(SEED, 40):
        report = compile_design(source, top="tb")
        assert report.ok, (report.errors, source)
        for spec in report.design.processes:
            if spec.kind == "assign" and spec.target_scope is not spec.scope:
                if spec.forward is None:
                    others += 1
                else:
                    forwards += 1
    assert forwards > 40 and others > 40


def test_interpreted_equals_compiled_on_generated_port_shapes():
    for index, source in enumerate(generate(SEED, CASES)):
        interpreted = run(source, compiled=False)
        compiled = run(source, compiled=True)
        assert compiled == interpreted, f"case {index}:\n{source}"

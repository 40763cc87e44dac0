"""Pathological completions reach a verdict within bounded memory.

Completions are untrusted model output.  Each sample under
``tests/data/pathological/`` is a body for problem 1 that once cost, or
could cost, an evaluator unbounded time or memory: a loop that never
exits, a loop of two billion iterations, nesting past the parser's
cap, a billion-entry memory, a shift by four billion bits and a
20,001-bit value printed in decimal.  Each is evaluated in a child
process whose address space is capped at 1 GB (set in the child only),
on both engines, with and without the analysis gate, and must end in
its pinned verdict within a generous wall bound.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SAMPLES = ROOT / "tests" / "data" / "pathological"

#: sample name -> (compiled, passed, stage) on every configuration
EXPECTED = {
    "comb_while_loop": (True, False, "sim"),
    "deep_nesting": (False, False, "parse"),
    "huge_memory": (True, True, ""),
    "huge_shift": (True, False, "testbench"),
    "long_for_loop": (True, False, "sim"),
    "wide_decimal_display": (True, True, ""),
}

#: seconds one evaluation may take; the interpreter needs about 1-4 s
#: on the loop samples on a 2-core x86 box
WALL_BOUND_S = 30.0

#: the child: cap the address space, then evaluate the sample on every
#: (engine, analysis) configuration and print one JSON row per run
CHILD = """
import json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from repro.eval import Evaluator
from repro.problems import get_problem
text = open(sys.argv[1]).read()
for compile_sim in (True, False):
    for analysis in (True, False):
        started = time.perf_counter()
        verdict = Evaluator(compile_sim=compile_sim,
                            analysis=analysis).evaluate(get_problem(1), text)
        print(json.dumps({
            "compile_sim": compile_sim, "analysis": analysis,
            "seconds": time.perf_counter() - started,
            "verdict": [verdict.compiled, verdict.passed, verdict.stage],
        }), flush=True)
"""


def test_every_sample_is_pinned():
    assert sorted(path.stem for path in SAMPLES.glob("*.v")) == sorted(
        EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_sample_reaches_its_verdict_under_a_memory_cap(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(SAMPLES / f"{name}.v")],
        env=env, capture_output=True, text=True,
        timeout=4 * WALL_BOUND_S + 30,
    )
    assert child.returncode == 0, child.stderr
    rows = [json.loads(line) for line in child.stdout.splitlines()]
    assert len(rows) == 4
    for row in rows:
        assert tuple(row["verdict"]) == EXPECTED[name], row
        assert row["seconds"] < WALL_BOUND_S, row

"""Parse once: the evaluator's bench run reuses the completion's parse.

The bench source is ``full_source + "\\n" + testbench``.  The evaluator
parses ``full_source`` once, parses the test bench from the line after
the completion's end-of-source line (kept per problem and first line),
and elaborates ``tb`` from both module lists.  These tests hold that
path to the one it replaced, ``run_simulation(bench_source)``: the
same modules with the same line numbers, and the same evaluations.
"""

import random
import sys
import threading

import pytest

import repro.verilog.compile as compile_module
from repro.eval import Evaluator, pipeline, truncate_completion
from repro.models.mutations import break_syntax, cosmetic_variant
from repro.obs.profile import SimProfiler
from repro.problems import ALL_PROBLEMS, PromptLevel, get_problem
from repro.verilog import compile_design, parse, run_simulation, simulate_unit

#: a problem-1 body whose string literal holds a backslash-escaped
#: newline: the source has one more "\n" than the lexer counts lines
ESCAPED_NEWLINE_BODY = (
    'assign out = in;\n'
    'initial if (0) $display("a\\\nb");\n'
    'endmodule'
)


def _bodies(problem):
    """Canonical and wrong bodies, plus seeded mutants that compile."""
    bodies = [problem.canonical_body]
    bodies += [variant.body for variant in problem.wrong_variants]
    rng = random.Random(problem.number)
    for _ in range(6):
        body = rng.choice(bodies)
        for mutant in (cosmetic_variant(body, rng), break_syntax(body, rng)):
            text = truncate_completion(mutant)
            if compile_design(problem.full_source(text),
                              top=problem.module_name).ok:
                bodies.append(text)
    if problem.number == 1:
        bodies.append(ESCAPED_NEWLINE_BODY)
    return list(dict.fromkeys(truncate_completion(body) for body in bodies))


CASES = [(problem, body) for problem in ALL_PROBLEMS
         for body in _bodies(problem)]


def test_cases_include_compiling_mutants():
    plain = sum(1 + len(problem.wrong_variants) for problem in ALL_PROBLEMS)
    assert len(CASES) > plain + len(ALL_PROBLEMS)


def test_escaped_newline_body_ends_a_line_early():
    source = get_problem(1).full_source(ESCAPED_NEWLINE_BODY)
    assert parse(source).eof_line == source.count("\n")


@pytest.mark.parametrize("level", list(PromptLevel), ids=str)
def test_bench_modules_equal_the_bench_source_parse(level, monkeypatch):
    elaborated = []

    def capture(unit, *args, **kwargs):
        elaborated.append(unit)
        return simulate_unit(unit, *args, **kwargs)

    monkeypatch.setattr(pipeline, "simulate_unit", capture)
    evaluator = Evaluator()
    for problem, body in CASES:
        elaborated.clear()
        evaluator.evaluate(problem, body, level)
        (unit,) = elaborated
        whole = parse(problem.bench_source(body, level))
        # the AST dataclasses compare every node's line
        assert unit.modules == whole.modules
        assert unit.eof_line == whole.eof_line


class BenchSourceEvaluator(Evaluator):
    """The evaluator with its bench run done the way it was before:
    ``run_simulation`` on the whole bench source."""

    def _evaluate_uncached(self, problem, truncated, level):
        self._bench_source = problem.bench_source(truncated, level)
        return super()._evaluate_uncached(problem, truncated, level)

    def _run_bench(self, problem, unit, profiler):
        return run_simulation(
            self._bench_source, top="tb", max_time=self.max_time,
            max_steps=self.max_steps, profiler=profiler,
            compile_sim=self.compile_sim,
        )


@pytest.mark.parametrize("compile_sim", [True, False],
                         ids=["compiled", "interpreted"])
def test_evaluations_equal_the_bench_source_path(compile_sim):
    ours = Evaluator(compile_sim=compile_sim)
    reference = BenchSourceEvaluator(compile_sim=compile_sim)
    for problem, body in CASES:
        level = PromptLevel.HIGH if problem.number % 2 else PromptLevel.LOW
        assert (ours.evaluate(problem, body, level)
                == reference.evaluate(problem, body, level))


@pytest.mark.parametrize("compile_sim", [True, False],
                         ids=["compiled", "interpreted"])
def test_runtime_errors_match_the_bench_source_path(compile_sim):
    problem = get_problem(1)
    # never suspends, so the simulator stops it at run time
    body = "reg r;\nalways r = ~r;\nassign out = in;\nendmodule"
    evaluator = Evaluator(analysis=False, compile_sim=compile_sim)
    reference = BenchSourceEvaluator(analysis=False, compile_sim=compile_sim)
    outcome = evaluator.evaluate(problem, body)
    assert outcome == reference.evaluate(problem, body)
    assert outcome.stage == "sim" and outcome.error_line


def test_profiled_constructs_keep_bench_lines():
    cases = [(problem, problem.canonical_body) for problem in ALL_PROBLEMS]
    for problem, body in cases + [(get_problem(1), ESCAPED_NEWLINE_BODY)]:
        unit = compile_design(problem.full_source(body),
                              top=problem.module_name).unit
        ours, theirs = SimProfiler(), SimProfiler()
        Evaluator(compile_sim=False)._run_bench(problem, unit, ours)
        run_simulation(problem.bench_source(body), top="tb", profiler=theirs)
        assert ({key: row[1:] for key, row in ours.constructs.items()}
                == {key: row[1:] for key, row in theirs.constructs.items()})


def test_second_evaluation_at_the_same_line_reuses_the_bench(monkeypatch):
    parsed = []
    original = compile_module.parse

    def counting_parse(source, first_line=1):
        parsed.append(first_line)
        return original(source, first_line)

    monkeypatch.setattr(compile_module, "parse", counting_parse)
    problem = get_problem(1)
    evaluator = Evaluator()
    evaluator.evaluate(problem, "assign out = in;\nendmodule")
    assert len(parsed) == 2  # the completion, then the test bench
    ((key, bench),) = evaluator._benches.items()
    evaluator.evaluate(problem, "assign out = ~~in;\nendmodule")
    assert len(parsed) == 3  # same line count: the bench is reused
    assert list(evaluator._benches) == [key]
    assert evaluator._benches[key] is bench
    evaluator.evaluate(problem, "assign out =\n  in;\nendmodule")
    assert len(parsed) == 5  # one line longer: a new bench parse
    assert parsed[4] == parsed[1] + 1
    assert len(evaluator._benches) == 2


def test_threads_sharing_an_evaluator_get_serial_verdicts():
    problem = get_problem(1)
    bodies = [f"assign out ={' ' * spaces}{'~~' * twice}in;\n" + "\n" * lines
              + "endmodule"
              for spaces in range(1, 4) for twice in range(2)
              for lines in range(4)]
    serial = [Evaluator().evaluate(problem, body) for body in bodies]
    shared = Evaluator()
    results = [None] * len(bodies)

    def work(worker):
        for index in range(worker, len(bodies), 8):
            results[index] = shared.evaluate(problem, bodies[index])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(worker,))
                   for worker in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == serial
    assert len(shared._benches) == 4  # one per completion line count

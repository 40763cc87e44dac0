"""Parse once: the evaluator's bench run reuses the completion's parse
and one elaborated, lowered test bench per problem.

The bench source is ``full_source + "\\n" + testbench``.  The evaluator
parses ``full_source`` once.  It parses each problem's test bench once,
from a fixed line past any completion, elaborates ``tb`` without its
``dut`` into a template, lowers the template's processes once, and per
completion elaborates and lowers only the grafted ``dut``; lines past
the completion are moved to follow it when reported.  These tests hold
that path to the one it replaced, ``run_simulation(bench_source)``: the
same design in the same order, the same line numbers, and the same
evaluations.
"""

import dataclasses
import random
import sys
import threading
import time

import pytest

import repro.verilog.codegen as codegen
import repro.verilog.compile as compile_module
from repro.eval import Evaluator, pipeline, truncate_completion
from repro.models.mutations import break_syntax, cosmetic_variant
from repro.obs import REGISTRY
from repro.obs.profile import SimProfiler
from repro.problems import ALL_PROBLEMS, PromptLevel, get_problem
from repro.verilog import compile_design, elaborate, parse, run_simulation
from repro.verilog.elaborate import BenchTemplate, Elaborator

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


def _design_shape(design, after=None, delta=0):
    """Everything a run depends on, in order; lines past ``after`` are
    moved by ``delta``."""

    def line(number):
        return number + delta if after is not None and number > after \
            else number

    return (
        design.top,
        [(s.name, s.width, s.signed, s.kind, s.msb, s.lsb, s.array_lo,
          s.array_hi, s.value,
          None if s.memory is None else dict(s.memory), list(s.waiters))
         for s in design.signals],
        [(spec.kind, spec.scope.path,
          spec.target_scope.path if spec.target_scope else None,
          line(spec.line)) for spec in design.processes],
        list(design.scopes),
    )


@pytest.mark.parametrize("level", list(PromptLevel), ids=str)
def test_grafted_design_equals_the_bench_source_elaboration(
        level, monkeypatch):
    grafted = []
    original = compile_module.elaborate

    def capture(unit, top, bench=None):
        design = original(unit, top, bench=bench)
        grafted.append((bench, _design_shape(design)))
        return design

    monkeypatch.setattr(compile_module, "elaborate", capture)
    evaluator = Evaluator()
    for problem, body in CASES:
        grafted.clear()
        evaluator.evaluate(problem, body, level)
        design_unit = parse(problem.full_source(body, level))
        whole = elaborate(parse(problem.bench_source(body, level)), "tb")
        # the design's own compile, then the graft into the template
        (none, _), (bench, shape) = grafted
        assert none is None and bench is not None
        delta = pipeline._BENCH_LINE - design_unit.eof_line - 1
        assert shape == _design_shape(whole, design_unit.eof_line, delta)


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


def test_one_bench_parse_and_template_per_problem(monkeypatch):
    parsed, built, prefixes = [], [], []
    original = compile_module.parse
    original_prefix = pipeline.prompt_prefix

    def counting_parse(source, first_line=1, prefix=None):
        parsed.append(first_line)
        return original(source, first_line, prefix=prefix)

    def counting_prefix(prompt):
        prefixes.append(prompt)
        return original_prefix(prompt)

    class CountingTemplate(BenchTemplate):
        __slots__ = ()

        def __init__(self, unit, top):
            built.append(top)
            super().__init__(unit, top)

    monkeypatch.setattr(compile_module, "parse", counting_parse)
    monkeypatch.setattr(compile_module, "BenchTemplate", CountingTemplate)
    monkeypatch.setattr(pipeline, "prompt_prefix", counting_prefix)
    evaluator = Evaluator()
    bodies = ["assign out = in;\nendmodule",
              "assign out = ~~in;\nendmodule",
              "assign out =\n  in;\nendmodule",
              "assign out = ~in;\n\n\nendmodule"]
    for problem in (get_problem(1), get_problem(6)):
        for level in PromptLevel:
            for body in bodies + [problem.canonical_body]:
                evaluator.evaluate(problem, f"// {level}\n{body}", level)
    assert parsed.count(pipeline._BENCH_LINE) == 2  # one per problem
    assert len(built) == 2
    assert {number: len(pool) for number, pool
            in evaluator._templates.items()} == {1: 1, 6: 1}
    # one prefix per prompt: two problems at three levels
    assert sorted(prefixes) == sorted(
        problem.prompt_source(level)
        for problem in (get_problem(1), get_problem(6))
        for level in PromptLevel)


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
    # one template per problem, plus one per worker that found it busy
    assert 1 <= len(shared._templates[problem.number]) <= 8


@pytest.mark.parametrize("compile_sim", [True, False],
                         ids=["compiled", "interpreted"])
def test_reused_templates_leak_no_state_between_runs(compile_sim):
    shared = Evaluator(compile_sim=compile_sim)
    for problem in ALL_PROBLEMS:
        wrong = problem.wrong_variants[0].body
        for index, body in enumerate((wrong, problem.canonical_body,
                                      wrong)):
            body = f"// run {index}\n{body}"
            fresh = Evaluator(compile_sim=compile_sim)
            assert (shared.evaluate(problem, body)
                    == fresh.evaluate(problem, body))
        assert shared.evaluate(problem, "// passes\n"
                               + problem.canonical_body).passed


def _bench_with(problem, old, new):
    assert old in problem.testbench
    return dataclasses.replace(
        problem, testbench=problem.testbench.replace(old, new, 1))


@pytest.mark.parametrize("level", list(PromptLevel), ids=str)
def test_errors_at_the_dut_instance_match_the_bench_source_path(level):
    problem = _bench_with(get_problem(1), ".out(out));",
                          ".out(out), .ghost(in));")
    body = problem.canonical_body
    outcome = Evaluator().evaluate(problem, body, level)
    assert outcome == BenchSourceEvaluator().evaluate(problem, body, level)
    assert outcome.stage == "testbench"
    assert "has no port 'ghost'" in outcome.compile_errors[0]
    source = problem.bench_source(body, level).split("\n")
    assert source[outcome.error_line - 1].lstrip().startswith(
        "simple_wire dut")


def test_bench_that_fails_alone_matches_the_bench_source_path():
    # no template: ``tb`` reads an undeclared signal, which is reported
    # only once the instances under it have elaborated
    undeclared = _bench_with(get_problem(1), "errors = 0;", "errors = ghost;")
    both = _bench_with(undeclared, ".out(out));", ".out(out), .ghost(in));")
    for problem, error in ((undeclared, "undeclared identifier 'ghost'"),
                           (both, "has no port 'ghost'")):
        body = problem.canonical_body
        outcome = Evaluator().evaluate(problem, body, PromptLevel.HIGH)
        assert outcome == BenchSourceEvaluator().evaluate(
            problem, body, PromptLevel.HIGH)
        assert outcome.stage == "testbench"
        assert error in outcome.compile_errors[0]


@pytest.mark.parametrize("compile_sim", [True, False],
                         ids=["compiled", "interpreted"])
def test_errors_inside_a_bench_process_match_the_bench_source_path(
        compile_sim):
    # ``out`` is x at time 0, so the replication count is bad at run time
    problem = _bench_with(get_problem(1), "errors = 0;",
                          'errors = 0; $display("%b", {out{1\'b1}});')
    body = "// a longer completion\n" + problem.canonical_body
    for level in PromptLevel:
        outcome = Evaluator(compile_sim=compile_sim).evaluate(
            problem, body, level)
        assert outcome == BenchSourceEvaluator(
            compile_sim=compile_sim).evaluate(problem, body, level)
        assert outcome.stage == "sim"
        assert "bad replication count" in outcome.compile_errors[0]
        source = problem.bench_source(body, level).split("\n")
        assert "{out{1'b1}}" in source[outcome.error_line - 1]


def test_design_defining_tb_fails_the_graft_as_the_full_path():
    problem = get_problem(1)
    body = ("assign out = ~in;\nendmodule\n"
            'module tb; initial $display("ALL TESTS PASSED"); endmodule')
    unit = parse(problem.full_source(body))
    report, sim = Evaluator()._run_bench(problem, unit, None)
    theirs, _ = run_simulation(problem.bench_source(body), top="tb")
    assert sim is None and "module 'tb' already declared" in report.errors[0]
    assert (report.errors, report.stage, report.line) == (
        theirs.errors, theirs.stage, theirs.line)


@pytest.mark.parametrize("compile_sim", [True, False],
                         ids=["compiled", "interpreted"])
def test_template_build_is_billed_to_the_run_that_paid_for_it(
        compile_sim, monkeypatch):
    # slow each step down so its share of the stage totals is certain
    pause = 0.05
    build, graft = BenchTemplate.__init__, Elaborator.graft

    def slow_build(self, unit, top):
        time.sleep(pause)
        build(self, unit, top)

    def slow_graft(self, bench):
        time.sleep(pause)
        return graft(self, bench)

    class SlowTemplateEngine(codegen.CompiledEngine):
        def __init__(self, design, base=None):
            if "dut" not in design.scopes:  # the template's own lowering
                time.sleep(pause)
            super().__init__(design, base)

    monkeypatch.setattr(BenchTemplate, "__init__", slow_build)
    monkeypatch.setattr(Elaborator, "graft", slow_graft)
    monkeypatch.setattr(codegen, "CompiledEngine", SlowTemplateEngine)
    problem = get_problem(1)
    evaluator = Evaluator(compile_sim=compile_sim)

    def totals():
        return [(row["count"], row["sum"]) for row in (
            REGISTRY.histogram_snapshot(
                "stage_seconds", stage=stage, problem=1)
            for stage in ("testbench", "engine"))]

    before = totals()
    evaluator.evaluate(problem, "// first\n" + problem.canonical_body)
    first = totals()
    evaluator.evaluate(problem, "// second\n" + problem.canonical_body)
    second = totals()
    (runs, bench0), (builds, engine0) = before
    (runs1, bench1), (builds1, engine1) = first
    (runs2, bench2), (builds2, engine2) = second
    assert (runs1, runs2) == (runs + 1, runs + 2)
    assert bench1 - bench0 >= 2 * pause  # the template's build and graft
    assert pause <= bench2 - bench1 < bench1 - bench0  # the graft alone
    if compile_sim:
        assert (builds1, builds2) == (builds + 1, builds + 2)
        assert engine2 - engine1 < pause <= engine1 - engine0
    else:
        assert builds2 == builds

"""A completion that fails a gate is a verdict, never a job error.

The paper grades each completion by whether it compiles and whether it
passes its test bench, so every failure of the Verilog front end or of
the simulator lands in that completion's record with the stage that
rejected it.  A job error means only that the job could not run (its
backend failed).  A stub backend serves one completion per outcome, at
two prompt levels, on both engines, with and without the analysis gate,
serially and on a thread pool.
"""

import pytest

from repro.backends import StubBackend
from repro.eval import Evaluator, SweepConfig, SweepExecutor, SweepPlanner
from repro.problems import PromptLevel, get_problem

PROBLEM = get_problem(1)

#: a 20,001-bit value printed with %d: 6,021 digits, past Python's
#: default 4,300-digit str(int) limit
WIDE_DISPLAY = """reg [20000:0] r;
initial begin
  r = 0;
  r = ~r;
  $display("%d", r);
end
assign out = in;
endmodule"""

#: (completion, (compiled, passed, stage) with analysis, stage without)
OUTCOMES = (
    ("assign out = in; \x01\nendmodule", (False, False, "parse"), "parse"),
    ("assign out = in +;\nendmodule", (False, False, "parse"), "parse"),
    ("assign out = nowhere;\nendmodule",
     (False, False, "elaborate"), "elaborate"),
    ("wire loop;\nassign out = ~loop;\nassign loop = out;\nendmodule",
     (True, False, "analysis"), "testbench"),
    (WIDE_DISPLAY.replace("20000", "70000"), (True, False, "sim"), "sim"),
    ("assign out = ~in;\nendmodule", (True, False, "testbench"), "testbench"),
    ("assign out = in;\nendmodule", (True, True, ""), ""),
    (WIDE_DISPLAY, (True, True, ""), ""),
)


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("analysis", (True, False), ids=("analysis", "bare"))
@pytest.mark.parametrize("compile_sim", (True, False),
                         ids=("compiled", "interpreter"))
def test_every_failure_is_a_verdict(compile_sim, analysis, workers):
    completions = tuple(text for text, _, _ in OUTCOMES)
    backend = StubBackend(completions=completions)
    config = SweepConfig(
        temperatures=(0.1,), completions_per_prompt=(len(completions),),
        levels=(PromptLevel.LOW, PromptLevel.HIGH),
        problem_numbers=(PROBLEM.number,),
    )
    evaluator = Evaluator(analysis=analysis, compile_sim=compile_sim)
    result = SweepExecutor(backend, evaluator=evaluator,
                           workers=workers).run(
        SweepPlanner(backend).plan(config))
    assert result.errors == []
    assert len(result.sweep) == 2 * len(completions)
    for record in result.sweep.records:
        text, (compiled, passed, stage), bare = OUTCOMES[record.sample_index]
        if not analysis:
            stage = bare
        verdict = evaluator.evaluate(PROBLEM, text, record.level)
        assert verdict.stage == stage, text
        assert (record.compiled, record.passed) == (
            verdict.compiled, verdict.passed) == (compiled, passed), text


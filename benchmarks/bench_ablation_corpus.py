"""Sec. VI ablation — fine-tuning corpus: GitHub only vs GitHub + books.

The paper: "The Pass@(scenario*10) for (a) and (b) show that option (b)
is marginally better (1.4%) than (a)".  Regenerates the comparison with
CodeGen-16B fine-tuned on both corpora, plus a MinHash-threshold
sensitivity sweep on the corpus itself (a design choice DESIGN.md calls
out for ablation).
"""

import pytest

from repro.api import Session
from repro.backends import LocalZooBackend
from repro.corpus import CorpusConfig, build_corpus
from repro.eval import Evaluator, SweepConfig, table4
from repro.models import finetune_zoo_model
from repro.problems import Difficulty, PromptLevel


def _overall(sweep) -> float:
    table = table4(sweep)
    row = table[("codegen-16b", True)]
    cells = [
        row[difficulty][level]
        for difficulty in Difficulty
        for level in PromptLevel
    ]
    return sum(cells) / len(cells)


@pytest.fixture(scope="module")
def ablation_rates():
    evaluator = Evaluator()
    config = SweepConfig(temperatures=(0.1, 0.3))
    model_a, _ = finetune_zoo_model("codegen-16b", CorpusConfig(repos=30))
    model_b, _ = finetune_zoo_model(
        "codegen-16b",
        CorpusConfig(repos=30, include_textbooks=True, textbook_count=6),
    )
    return tuple(
        _overall(Session(backend=LocalZooBackend([model]), evaluator=evaluator)
                 .run_sweep(config).sweep)
        for model in (model_a, model_b)
    )


def test_ablation_textbooks_marginally_better(benchmark, ablation_rates):
    rate_a, rate_b = benchmark(lambda: ablation_rates)
    gain = (rate_b / rate_a - 1) * 100
    print(
        f"\nSec. VI ablation — overall functional pass"
        f"\n  (a) GitHub only    : {rate_a:.3f}"
        f"\n  (b) GitHub + books : {rate_b:.3f}"
        f"\n  relative gain      : {gain:+.1f}%  (paper: +1.4%)"
    )
    assert rate_b >= rate_a, "books corpus must not hurt"
    assert gain < 15.0, "gain stays marginal, as in the paper"


def test_dedup_threshold_sensitivity(benchmark):
    def corpus_sizes():
        return {
            threshold: len(build_corpus(
                CorpusConfig(repos=25, dedup_threshold=threshold)
            ).corpus)
            for threshold in (0.5, 0.8, 0.99)
        }

    sizes = benchmark.pedantic(corpus_sizes, rounds=1, iterations=1)
    print(f"\nMinHash threshold -> surviving files: {sizes}")
    assert sizes[0.5] <= sizes[0.8] <= sizes[0.99]

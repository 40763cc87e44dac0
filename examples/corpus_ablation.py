#!/usr/bin/env python3
"""The paper's Sec. VI ablation: GitHub-only vs GitHub+textbook corpus.

Fine-tunes CodeGen-16B twice — (a) on the GitHub corpus, (b) on GitHub
plus cleaned textbook text — evaluates both on the full problem set, and
reports the overall functional pass rates.  The paper finds (b) is
marginally (1.4%) better than (a).

Also sweeps the MinHash de-duplication threshold to show its effect on
corpus size (a design choice the paper leaves implicit).

Run:  python examples/corpus_ablation.py
"""

from repro.api import Session
from repro.backends import LocalZooBackend
from repro.corpus import CorpusConfig, build_corpus
from repro.eval import Evaluator, SweepConfig, table4
from repro.models import finetune_zoo_model
from repro.problems import Difficulty, PromptLevel


def overall_rate(sweep, model_name: str) -> float:
    table = table4(sweep)
    key = next(k for k in table if table[k] is not None and k[0] == "codegen-16b")
    cells = [
        table[key][difficulty][level]
        for difficulty in Difficulty
        for level in PromptLevel
    ]
    return sum(cells) / len(cells)


def main() -> None:
    evaluator = Evaluator()
    sweep_config = SweepConfig(temperatures=(0.1, 0.3))

    print("fine-tuning CodeGen-16B on (a) GitHub only...")
    model_a, report_a = finetune_zoo_model(
        "codegen-16b", CorpusConfig(repos=40)
    )
    print(f"  corpus: {report_a.corpus_files} files, {report_a.corpus_bytes} bytes")

    print("fine-tuning CodeGen-16B on (b) GitHub + textbooks...")
    model_b, report_b = finetune_zoo_model(
        "codegen-16b",
        CorpusConfig(repos=40, include_textbooks=True, textbook_count=8),
    )
    print(f"  corpus: {report_b.corpus_files} files, {report_b.corpus_bytes} bytes")

    print("\nevaluating both on the 17-problem set...")
    sweep_a, sweep_b = (
        Session(backend=LocalZooBackend([model]), evaluator=evaluator)
        .run_sweep(sweep_config).sweep
        for model in (model_a, model_b)
    )
    rate_a = overall_rate(sweep_a, model_a.name)
    rate_b = overall_rate(sweep_b, model_b.name)
    gain = (rate_b / rate_a - 1) * 100 if rate_a else float("nan")
    print(f"  (a) GitHub only      overall pass: {rate_a:.3f}")
    print(f"  (b) GitHub + books   overall pass: {rate_b:.3f}")
    print(f"  relative gain: {gain:+.1f}%   (paper: +1.4%)")

    print("\nMinHash dedup threshold sweep (corpus files surviving):")
    for threshold in (0.5, 0.7, 0.8, 0.9, 0.99):
        corpus = build_corpus(
            CorpusConfig(repos=40, dedup_threshold=threshold)
        )
        print(f"  threshold {threshold:>4}: {len(corpus.corpus):>4} files")


if __name__ == "__main__":
    main()

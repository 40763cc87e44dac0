"""The VGen pipeline facade (paper Fig. 1, end to end).

One object that walks the paper's eight numbered steps: gather the
training corpus (1-2), pick the pre-trained models (3), fine-tune (4-5),
prompt (6), generate completions (7), and evaluate them against the test
benches (8) — producing the tables and figures of Sec. V.

Steps 6-8 run on a :class:`repro.api.Session`, the facade every sweep
goes through; everything else it composes is importable from the
subpackages for finer-grained use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..api import Session
from ..backends import LocalZooBackend
from ..corpus import CorpusConfig, TrainingCorpus, build_corpus
from ..eval import (
    Evaluator,
    Headline,
    SkippedJob,
    Sweep,
    SweepConfig,
    headline_numbers,
    table3,
    table4,
)
from ..models import (
    FineTuneReport,
    LanguageModel,
    finetune_zoo_model,
    make_model,
    paper_model_variants,
)


@dataclass
class VGenConfig:
    """Configuration for a full pipeline run."""

    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    seed: int = 0
    workers: int = 1  # sweep executor pool width (1 = serial)


@dataclass
class VGenResult:
    """Everything a pipeline run produced."""

    corpus: TrainingCorpus
    finetune_reports: list[FineTuneReport]
    sweep: Sweep
    table3: dict
    table4: dict
    headline: Headline
    skipped: list[SkippedJob] = field(default_factory=list)
    sweep_stats: dict = field(default_factory=dict)


class VGenPipeline:
    """Run the paper's experimental platform end to end.

    Example::

        from repro.core import VGenPipeline

        result = VGenPipeline().run()
        print(result.headline)
    """

    def __init__(self, config: VGenConfig | None = None):
        self.config = config or VGenConfig()
        self.evaluator = Evaluator()

    # ------------------------------------------------------------------
    def build_corpus(self) -> TrainingCorpus:
        """Steps 1-2: gather and clean the training corpus."""
        return build_corpus(self.config.corpus)

    def models(self, fine_tune: bool = True) -> list[LanguageModel]:
        """Steps 3-5: the Table-I models, fine-tuned where applicable.

        With ``fine_tune=False`` only the pre-trained variants are
        returned (the RQ1 baseline).
        """
        if not fine_tune:
            return [
                m for m in paper_model_variants(self.config.seed)
                if not m.fine_tuned
            ]
        return paper_model_variants(self.config.seed)

    def finetune(self, names: list[str] | None = None) -> tuple[
        list[LanguageModel], list[FineTuneReport]
    ]:
        """Step 4 explicitly: fine-tune named models on the built corpus."""
        names = names or [
            "megatron-355m", "codegen-2b", "codegen-6b",
            "j1-large-7b", "codegen-16b",
        ]
        models: list[LanguageModel] = []
        reports: list[FineTuneReport] = []
        for name in names:
            model, report = finetune_zoo_model(
                name, self.config.corpus, seed=self.config.seed
            )
            models.append(model)
            reports.append(report)
        return models, reports

    def evaluate(self, models: list[LanguageModel]) -> Sweep:
        """Steps 6-8: prompt, generate, compile, run test benches."""
        return self.evaluate_detailed(models).sweep

    def evaluate_detailed(self, models: list[LanguageModel]):
        """Like :meth:`evaluate` but returns the full service
        :class:`~repro.eval.jobs.SweepResult` (skips, errors, stats)."""
        session = Session(
            backend=LocalZooBackend(models),
            evaluator=self.evaluator,
            workers=self.config.workers,
        )
        return session.run_sweep(self.config.sweep)

    # ------------------------------------------------------------------
    def run(self) -> VGenResult:
        """The whole pipeline; returns tables, figures data and headlines."""
        corpus = self.build_corpus()
        ft_models, reports = self.finetune()
        pt_models = self.models(fine_tune=False)
        sweep_result = self.evaluate_detailed(pt_models + ft_models)
        sweep = sweep_result.sweep
        return VGenResult(
            corpus=corpus,
            finetune_reports=reports,
            sweep=sweep,
            table3=table3(sweep),
            table4=table4(sweep),
            headline=headline_numbers(sweep),
            skipped=sweep_result.skipped,
            sweep_stats=sweep_result.stats,
        )


__all__ = [
    "VGenConfig",
    "VGenPipeline",
    "VGenResult",
    "make_model",
]

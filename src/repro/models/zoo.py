"""Calibrated simulated LLMs for the six models of the paper (Table I).

A :class:`SimulatedLLM` emits *genuine Verilog text* for each query:

* with probability ``p_functional`` — the problem's canonical solution
  (under one of a small set of cosmetic presentations);
* else with probability reaching ``p_compile`` — a wrong-but-compiling
  variant (the paper's Fig. 2c/3c/4c class of failures);
* otherwise — a syntax-broken completion from the mutation engine.

The probabilities come from :mod:`repro.models.calibration` (the paper's
Tables III/IV plus the qualitative Sec. V/VI behaviours), so running the
*real* compile + test-bench pipeline over these completions reproduces the
paper's tables.  Everything is seeded and deterministic.

Prompts are matched to problems by the ``module <name>(`` header; prompts
for unknown modules get corpus-flavoured low-quality completions, so the
zoo still behaves sensibly off the benchmark.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

from ..corpus.filters import strip_comments
from ..problems import ALL_PROBLEMS, Problem, PromptLevel, problems_by_difficulty
from .base import (
    Completion,
    GenerationConfig,
    LanguageModel,
    MODEL_SPECS,
    ModelSpec,
    REPAIR_FEEDBACK_MARKER,
    stable_hash,
)
from .calibration import INFERENCE_SECONDS, RatePoint, resolve_rates
from .mutations import break_syntax, broken_completion, cosmetic_variant

_MODULE_HEADER_RE = re.compile(r"\bmodule\s+([A-Za-z_][\w$]*)")

_PROBLEM_BY_MODULE = {p.module_name: p for p in ALL_PROBLEMS}


def match_prompt_to_problem(prompt: str) -> tuple[Problem, PromptLevel] | None:
    """Identify the benchmark problem (and detail level) of a prompt."""
    header = _MODULE_HEADER_RE.search(strip_comments(prompt))
    if header is None:
        return None
    problem = _PROBLEM_BY_MODULE.get(header.group(1))
    if problem is None:
        return None
    # pick the most detailed level whose prompt text prefixes the query
    best_level = PromptLevel.LOW
    best_len = -1
    stripped = prompt.strip()
    for level in PromptLevel:
        text = problem.prompts[level].strip()
        if stripped.startswith(text) and len(text) > best_len:
            best_len = len(text)
            best_level = level
    return problem, best_level


@dataclass
class SimulatedLLM(LanguageModel):
    """One calibrated model of the zoo (PT or FT flavour).

    ``repair_rate`` enables the "repairable" failure mode: when a prompt
    carries the :data:`~repro.models.base.REPAIR_FEEDBACK_MARKER` (the
    agentic loop's error-conditioned re-query), the model fixes its own
    failure — emits the canonical solution — with this probability
    before falling back to its normal calibrated sampling.  0.0 (the
    default) means re-queries behave exactly like fresh queries.
    """

    spec: ModelSpec
    fine_tuned: bool = False
    textbook_corpus: bool = False  # FT corpus ablation: GitHub+books
    seed: int = 0
    repair_rate: float = 0.0
    name: str = field(default="", init=False)

    def __post_init__(self) -> None:
        suffix = "ft" if self.fine_tuned else "pt"
        if self.fine_tuned and self.textbook_corpus:
            suffix = "ft-books"
        self.name = f"{self.spec.name}-{suffix}"
        if self.fine_tuned and not self.spec.fine_tunable:
            raise ValueError(f"{self.spec.name} cannot be fine-tuned")
        if not 0.0 <= self.repair_rate <= 1.0:
            raise ValueError("repair_rate must be in [0, 1]")

    # ------------------------------------------------------------------
    def generate(self, prompt: str, config: GenerationConfig) -> list[Completion]:
        if config.n == 25 and not self.spec.supports_n25:
            raise ValueError(
                f"{self.spec.name} does not support n=25 (paper Sec. IV-B)"
            )
        matched = match_prompt_to_problem(prompt)
        rates = None
        repairing = False
        if matched is not None:
            problem, level = matched
            siblings = [
                p.number for p in problems_by_difficulty(problem.difficulty)
            ]
            rates = resolve_rates(
                model=self.spec.name,
                fine_tuned=self.fine_tuned,
                difficulty=problem.difficulty,
                level=level,
                problem_number=problem.number,
                difficulty_problem_numbers=siblings,
                temperature=config.temperature,
                n=config.n,
                textbook_corpus=self.textbook_corpus,
                hinted="// hint:" in prompt,
            )
            repairing = (self.repair_rate > 0
                         and REPAIR_FEEDBACK_MARKER in prompt)
        # the RNG stream ignores the corpus flavour ("-books") so the
        # Sec. VI ablation compares with common random numbers: the only
        # difference between the two FT variants is the calibration bonus
        seed_name = f"{self.spec.name}-{'ft' if self.fine_tuned else 'pt'}"
        seed_head = (f"{seed_name}|{stable_hash(prompt)}|"
                     f"{int(config.temperature * 1000)}|{config.n}|")
        seed_tail = f"|{self.seed}"
        completions = []
        for index in range(config.n):
            rng = random.Random(f"{seed_head}{index}{seed_tail}")
            if rates is None:
                completions.append(self._freeform_completion(rng, config))
            else:
                completions.append(self._benchmark_completion(
                    problem, rates, rng, config, repairing))
        return completions

    # ------------------------------------------------------------------
    def _benchmark_completion(
        self,
        problem: Problem,
        rates: RatePoint,
        rng: random.Random,
        config: GenerationConfig,
        repairing: bool,
    ) -> Completion:
        if repairing and rng.random() < self.repair_rate:
            # error-conditioned re-sample: the feedback worked, the
            # model fixes its own failure (calibrated by repair_rate)
            body = cosmetic_variant(problem.canonical_body, rng)
        else:
            roll = rng.random()
            if roll < rates.p_functional:
                body = cosmetic_variant(problem.canonical_body, rng)
            elif roll < rates.p_compile:
                body = self._wrong_body(problem, rng)
            else:
                body = broken_completion(
                    self._raw_wrong_body(problem, rng), rng
                )
        seconds = rates.inference_seconds * rng.uniform(0.9, 1.1)
        max_tokens = min(config.max_tokens, self.spec.max_tokens)
        return Completion(
            text=body,
            inference_seconds=seconds,
            tokens=min(max_tokens, max(1, len(body) // 4)),
        )

    def _wrong_body(self, problem: Problem, rng: random.Random) -> str:
        return cosmetic_variant(self._raw_wrong_body(problem, rng), rng)

    @staticmethod
    def _raw_wrong_body(problem: Problem, rng: random.Random) -> str:
        if problem.wrong_variants:
            return rng.choice(problem.wrong_variants).body
        return problem.canonical_body

    def _freeform_completion(
        self, rng: random.Random, config: GenerationConfig
    ) -> Completion:
        """Plausible continuation for prompts outside the benchmark."""
        from ..corpus.generators import random_module

        body = random_module(rng)
        if not self.fine_tuned and rng.random() < 0.7:
            body = break_syntax(body, rng)
        seconds = INFERENCE_SECONDS[(self.spec.name, self.fine_tuned)]
        return Completion(
            text=body,
            inference_seconds=seconds * rng.uniform(0.9, 1.1),
            tokens=max(1, len(body) // 4),
        )


def make_model(
    name: str,
    fine_tuned: bool = False,
    textbook_corpus: bool = False,
    seed: int = 0,
    repair_rate: float = 0.0,
) -> SimulatedLLM:
    """Build one zoo model by Table-I name (e.g. ``"codegen-16b"``)."""
    if name not in MODEL_SPECS:
        raise KeyError(f"unknown model {name!r}; known: {sorted(MODEL_SPECS)}")
    return SimulatedLLM(
        spec=MODEL_SPECS[name],
        fine_tuned=fine_tuned,
        textbook_corpus=textbook_corpus,
        seed=seed,
        repair_rate=repair_rate,
    )


def paper_model_variants(seed: int = 0) -> list[SimulatedLLM]:
    """The eleven (model, PT/FT) variants evaluated in Tables III/IV."""
    variants: list[SimulatedLLM] = []
    for spec in MODEL_SPECS.values():
        variants.append(SimulatedLLM(spec=spec, seed=seed))
        if spec.fine_tunable:
            variants.append(SimulatedLLM(spec=spec, fine_tuned=True, seed=seed))
    return variants


def repairable_model_variants(
    repair_rate: float = 0.5, seed: int = 0
) -> list[SimulatedLLM]:
    """The paper variants with the repairable failure mode enabled.

    Same model names and the same RNG streams as
    :func:`paper_model_variants` on fresh prompts — only the response to
    error-conditioned re-queries differs — so repair sweeps at budget 0
    reproduce the plain zoo byte for byte.
    """
    variants = paper_model_variants(seed=seed)
    for variant in variants:
        variant.repair_rate = repair_rate
    return variants

"""Model abstractions shared by trainable LMs and the simulated zoo.

:class:`LanguageModel` is the interface the evaluation harness consumes —
it matches the query surface the paper uses against its six LLMs
(Sec. IV-B): a prompt, a sampling temperature ``t``, ``n`` completions per
prompt, a ``max_tokens`` budget and nucleus mass ``top_p``.
"""

from __future__ import annotations

import abc
import hashlib
import math
from dataclasses import dataclass, field


def stable_hash(text: str) -> int:
    """Deterministic 64-bit hash (Python's hash() is salted per process)."""
    return int.from_bytes(
        hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "big"
    )


#: First line of every repair re-prompt (:mod:`repro.agentic.feedback`).
#: A comment so it never perturbs module-header matching, and a shared
#: constant so the zoo's "repairable" failure mode can recognize an
#: error-conditioned re-query without parsing the feedback text.
REPAIR_FEEDBACK_MARKER = "// repair feedback"


@dataclass(frozen=True)
class GenerationConfig:
    """Input parameters of one LLM query (paper Sec. IV-B)."""

    temperature: float = 0.1
    n: int = 10
    max_tokens: int = 300
    top_p: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.temperature):
            raise ValueError(
                f"temperature must be finite, got {self.temperature}"
            )
        if self.temperature <= 0:
            raise ValueError("temperature must be > 0")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if not 0 < self.top_p <= 1:
            raise ValueError("top_p must be in (0, 1]")


@dataclass
class Completion:
    """One generated completion plus query metadata."""

    text: str
    inference_seconds: float = 0.0
    tokens: int = 0


@dataclass(frozen=True)
class ModelSpec:
    """Architecture metadata from the paper's Table I."""

    name: str
    parameters: str  # human form, e.g. "16B"
    parameter_count: int  # numeric, for size comparisons
    layers: int | None
    heads: int | None
    embed: int | None
    context_length: int | None
    pretraining: str
    fine_tunable: bool = True
    supports_n25: bool = True
    max_tokens: int = 300


# Table I of the paper, verbatim.
MODEL_TABLE: tuple[ModelSpec, ...] = (
    ModelSpec(
        name="megatron-355m",
        parameters="355M",
        parameter_count=355_000_000,
        layers=24,
        heads=16,
        embed=64,
        context_length=1024,
        pretraining="NL (BERT/GPT-2 corpora)",
    ),
    ModelSpec(
        name="j1-large-7b",
        parameters="7B",
        parameter_count=7_000_000_000,
        layers=32,
        heads=32,
        embed=128,
        context_length=4096,
        pretraining="NL",
        supports_n25=False,  # the AI21 API rejects n=25 (Sec. IV-B)
        max_tokens=256,
    ),
    ModelSpec(
        name="codegen-2b",
        parameters="2B",
        parameter_count=2_000_000_000,
        layers=32,
        heads=32,
        embed=80,
        context_length=2048,
        pretraining="NL (The Pile), Code",
    ),
    ModelSpec(
        name="codegen-6b",
        parameters="6B",
        parameter_count=6_000_000_000,
        layers=33,
        heads=16,
        embed=256,
        context_length=2048,
        pretraining="NL (The Pile), Code",
    ),
    ModelSpec(
        name="codegen-16b",
        parameters="16B",
        parameter_count=16_000_000_000,
        layers=34,
        heads=24,
        embed=256,
        context_length=2048,
        pretraining="NL (The Pile), Code",
    ),
    ModelSpec(
        name="code-davinci-002",
        parameters="NA",
        parameter_count=175_000_000_000,  # GPT-3 scale (architecture NA)
        layers=None,
        heads=None,
        embed=None,
        context_length=8000,
        pretraining="NL, Code",
        fine_tunable=False,  # only queried pre-trained in the paper
    ),
)

MODEL_SPECS = {spec.name: spec for spec in MODEL_TABLE}


class LanguageModel(abc.ABC):
    """Anything that can complete a Verilog prompt."""

    name: str = "lm"

    @abc.abstractmethod
    def generate(self, prompt: str, config: GenerationConfig) -> list[Completion]:
        """Return ``config.n`` completions for ``prompt``."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


@dataclass
class RecordedQuery:
    """A (prompt, config) pair kept for inspection in tests."""

    prompt: str
    config: GenerationConfig
    completions: list[Completion] = field(default_factory=list)

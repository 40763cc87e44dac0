"""Deterministic stub backend for tests and offline smoke runs.

Returns scripted completions (round-robin over ``completions``) and keeps
a log of every query it served.  With ``canonical=True`` it answers
benchmark prompts with the problem's reference solution instead, which
makes it a handy all-pass smoke source for the CLI and CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..models.base import Completion, GenerationConfig, RecordedQuery
from ..models.zoo import match_prompt_to_problem
from .base import Backend, BackendError, ModelCapabilities

DEFAULT_STUB_TEXT = "endmodule"  # empty body: compiles everywhere, passes nowhere


@dataclass
class StubBackend(Backend):
    """Scripted, fully deterministic backend."""

    completions: tuple[str, ...] = (DEFAULT_STUB_TEXT,)
    model_names: tuple[str, ...] = ("stub",)
    canonical: bool = False
    supports_n25: bool = True
    max_tokens: int = 300
    inference_seconds: float = 0.0
    queries: list[RecordedQuery] = field(default_factory=list)

    name = "stub"

    def models(self) -> list[str]:
        return list(self.model_names)

    def capabilities(self, model: str) -> ModelCapabilities:
        return ModelCapabilities(
            supports_n25=self.supports_n25, max_tokens=self.max_tokens
        )

    def generate(
        self, model: str, prompt: str, config: GenerationConfig
    ) -> list[Completion]:
        if model not in self.model_names:
            raise BackendError(
                f"stub backend serves {list(self.model_names)}, not {model!r}"
            )
        texts = self.completions
        if self.canonical:
            matched = match_prompt_to_problem(prompt)
            if matched is not None:
                texts = (matched[0].canonical_body,)
        out = [
            Completion(
                text=texts[index % len(texts)],
                inference_seconds=self.inference_seconds,
                tokens=max(1, len(texts[index % len(texts)]) // 4),
            )
            for index in range(config.n)
        ]
        self.queries.append(
            RecordedQuery(prompt=prompt, config=config, completions=out)
        )
        return out

"""Local-zoo backend: serves the calibrated simulated LLMs in-process.

Wraps any collection of :class:`~repro.models.base.LanguageModel`s behind
the :class:`~repro.backends.base.Backend` interface.  With no explicit
model list it serves the paper's eleven Table-I variants, so
``create_backend("zoo")`` is a drop-in stand-in for the legacy sweep.
"""

from __future__ import annotations

from typing import Sequence

from ..models.base import Completion, GenerationConfig, LanguageModel
from ..models.zoo import paper_model_variants
from .base import Backend, BackendError, ModelCapabilities


class LocalZooBackend(Backend):
    """Serve in-process :class:`LanguageModel` instances by name."""

    name = "zoo"

    def __init__(
        self,
        models: Sequence[LanguageModel] | None = None,
        seed: int = 0,
    ):
        if models is None:
            models = paper_model_variants(seed)
        self._models: dict[str, LanguageModel] = {m.name: m for m in models}

    # ------------------------------------------------------------------
    def models(self) -> list[str]:
        return list(self._models)

    def model(self, name: str) -> LanguageModel:
        """The underlying :class:`LanguageModel` (for inspection)."""
        try:
            return self._models[name]
        except KeyError:
            raise BackendError(
                f"backend {self.name!r} does not serve {name!r}; "
                f"serves: {sorted(self._models)}"
            ) from None

    def add(self, model: LanguageModel) -> None:
        """Register one more model with the backend."""
        self._models[model.name] = model

    # ------------------------------------------------------------------
    def generate(
        self, model: str, prompt: str, config: GenerationConfig
    ) -> list[Completion]:
        return self.model(model).generate(prompt, config)

    def capabilities(self, model: str) -> ModelCapabilities:
        spec = getattr(self.model(model), "spec", None)
        if spec is None:
            return ModelCapabilities()
        return ModelCapabilities(
            supports_n25=spec.supports_n25, max_tokens=spec.max_tokens
        )

    def identity(self, model: str) -> tuple[str, bool]:
        instance = self.model(model)
        spec = getattr(instance, "spec", None)
        fine_tuned = bool(getattr(instance, "fine_tuned", False))
        if spec is not None:
            return spec.name, fine_tuned
        return instance.name, fine_tuned

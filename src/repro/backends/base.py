"""Backend protocol and registry for the generation service.

A :class:`Backend` is anything that can turn (model name, prompt,
:class:`~repro.models.base.GenerationConfig`) into completions.  The
sweep planner interrogates :meth:`Backend.capabilities` up front so that
unsupported configurations become explicit skip records instead of
runtime exceptions, and the executor only ever talks to this interface —
swapping the simulated zoo for an HTTP endpoint (or anything else) is a
registry entry, not a harness rewrite.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Sequence

from ..models.base import Completion, GenerationConfig


class BackendError(RuntimeError):
    """A backend could not serve a request (unknown model, no transport...)."""


@dataclass(frozen=True)
class ModelCapabilities:
    """What one served model supports; drives sweep planning."""

    supports_n25: bool = True
    max_tokens: int = 300


def variant_identity(model: str) -> tuple[str, bool]:
    """(base model name, fine_tuned) from the zoo's variant suffixes.

    Strips a trailing ``-pt``/``-ft``/``-ft-books`` flavour suffix; the
    default :meth:`Backend.identity` and the async backend layer both
    follow this naming scheme.
    """
    for suffix, fine_tuned in (("-ft-books", True), ("-ft", True), ("-pt", False)):
        if model.endswith(suffix):
            return model[: -len(suffix)], fine_tuned
    return model, False


class Backend(abc.ABC):
    """Anything that can complete prompts for a set of named models."""

    name: str = "backend"

    @abc.abstractmethod
    def models(self) -> list[str]:
        """Names of the model variants this backend serves."""

    @abc.abstractmethod
    def generate(
        self, model: str, prompt: str, config: GenerationConfig
    ) -> list[Completion]:
        """Return ``config.n`` completions of ``prompt`` from ``model``."""

    def generate_chat(
        self,
        model: str,
        messages: Sequence[dict],
        config: GenerationConfig,
    ) -> list[Completion]:
        """Serve a multi-turn chat request (the agentic repair surface).

        ``messages`` are ``{"role": ..., "content": ...}`` dicts in
        conversation order.  The default flattens the non-system turns
        into one prompt and delegates to :meth:`generate` — correct for
        completion-style backends (the zoo, stubs); chat-native
        backends (:class:`~repro.backends.http.HTTPChatBackend`)
        override it to ship the turns verbatim.
        """
        prompt = "\n".join(
            str(message.get("content", ""))
            for message in messages
            if message.get("role", "user") != "system"
        )
        return self.generate(model, prompt, config)

    def capabilities(self, model: str) -> ModelCapabilities:
        """Capability claims for ``model``; defaults are permissive."""
        return ModelCapabilities()

    def identity(self, model: str) -> tuple[str, bool]:
        """(base model name, fine_tuned) for record bookkeeping.

        The default strips a trailing ``-pt``/``-ft``/``-ft-books``
        flavour suffix, mirroring the zoo's naming scheme.
        """
        return variant_identity(model)

    def close(self) -> None:
        """Release what the backend holds open, such as connections; a
        later call reopens it.  Nothing by default."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, Callable[..., Backend]] = {}


def register_backend(name: str, factory: Callable[..., Backend]) -> None:
    """Register ``factory`` under ``name`` (last registration wins)."""
    _REGISTRY[name] = factory


def available_backends() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


def create_backend(name: str, **kwargs) -> Backend:
    """Instantiate a registered backend by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise BackendError(
            f"unknown backend {name!r}; available: {available_backends()}"
        ) from None
    return factory(**kwargs)


def resolve_backend(backend: "Backend | str | None") -> Backend:
    """Coerce a backend argument: instance passes through, a string goes
    through the registry, ``None`` means the default local zoo."""
    if backend is None:
        return create_backend("zoo")
    if isinstance(backend, str):
        return create_backend(backend)
    return backend

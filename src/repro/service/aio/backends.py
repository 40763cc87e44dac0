"""Async backend layer: coroutine generation over the Backend contract.

:class:`AsyncBackend` is the coroutine twin of
:class:`~repro.backends.base.Backend`: metadata (``models`` /
``capabilities`` / ``identity``) stays synchronous — the planner runs
before the event loop and those calls are cheap — while generation
becomes awaitable (``generate_async`` / ``generate_batch_async``) so one
process can hold many requests in flight without a thread apiece.

:func:`to_async` runs any sync backend under the loop via
``run_in_executor`` (the default thread pool), so the async executor
accepts every registered backend unchanged; :func:`ensure_async` passes
async-native backends through and adapts the rest.
"""

from __future__ import annotations

import abc
import asyncio
from typing import Sequence

from ...backends.base import Backend, ModelCapabilities, variant_identity
from ...models.base import Completion, GenerationConfig


class AsyncBackend(abc.ABC):
    """Coroutine-generating twin of the :class:`Backend` protocol."""

    name: str = "async-backend"

    @abc.abstractmethod
    def models(self) -> list[str]:
        """Names of the model variants this backend serves."""

    @abc.abstractmethod
    async def generate_async(
        self, model: str, prompt: str, config: GenerationConfig
    ) -> list[Completion]:
        """Return ``config.n`` completions of ``prompt`` from ``model``."""

    async def generate_batch_async(
        self,
        model: str,
        requests: Sequence[tuple[str, GenerationConfig]],
    ) -> list[list[Completion]]:
        """Serve many (prompt, config) requests for one model.

        The default awaits :meth:`generate_async` per request *serially*
        (mirroring the sync default's semantics); backends that can
        overlap or amortize requests override this.
        """
        return [
            await self.generate_async(model, prompt, config)
            for prompt, config in requests
        ]

    def capabilities(self, model: str) -> ModelCapabilities:
        """Capability claims for ``model``; defaults are permissive."""
        return ModelCapabilities()

    def identity(self, model: str) -> tuple[str, bool]:
        """(base model name, fine_tuned) for record bookkeeping."""
        return variant_identity(model)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


# ----------------------------------------------------------------------
# Sync -> async adapter
# ----------------------------------------------------------------------
class _ThreadedAsyncBackend(AsyncBackend):
    """A sync backend driven through the loop's default thread pool."""

    def __init__(self, backend: Backend):
        self.backend = backend
        self.name = backend.name

    def models(self) -> list[str]:
        return self.backend.models()

    def capabilities(self, model: str) -> ModelCapabilities:
        return self.backend.capabilities(model)

    def identity(self, model: str) -> tuple[str, bool]:
        return self.backend.identity(model)

    async def generate_async(
        self, model: str, prompt: str, config: GenerationConfig
    ) -> list[Completion]:
        return await asyncio.get_running_loop().run_in_executor(
            None, self.backend.generate, model, prompt, config
        )

    async def generate_batch_async(
        self,
        model: str,
        requests: Sequence[tuple[str, GenerationConfig]],
    ) -> list[list[Completion]]:
        return await asyncio.get_running_loop().run_in_executor(
            None, self.backend.generate_batch, model, list(requests)
        )


def to_async(backend: Backend) -> AsyncBackend:
    """An :class:`AsyncBackend` view of a sync backend."""
    return _ThreadedAsyncBackend(backend)


def ensure_async(backend: "Backend | AsyncBackend") -> AsyncBackend:
    """Whatever it is, return the async view of it."""
    if isinstance(backend, AsyncBackend):
        return backend
    return to_async(backend)


__all__ = [
    "AsyncBackend",
    "ensure_async",
    "to_async",
]

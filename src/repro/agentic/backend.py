"""RepairingBackend: the repair loop behind the Backend protocol.

Wrapping a backend (instead of adding a fourth executor) is what lets
repair sweeps ride the *entire* existing stack unchanged: the thread
and process executors, the shard planner/coordinator and the NDJSON
server all talk to ``Backend.generate`` — so
a :class:`RepairingBackend` drops in anywhere a plain backend does,
and the serial-order merge parity invariant holds because the repair
chains themselves are deterministic.

``generate`` runs the inner backend once, then drives each sample's
:func:`~repro.agentic.loop.repair_completion` chain and returns the
*final* completions; prompts that don't match a benchmark problem pass
through unrepaired (there is nothing to evaluate them against).

The attempt log is the streaming hook: when armed
(:meth:`start_attempt_log`), every evaluated attempt is recorded as a
JSON-ready event dict; a streamed sweep drains the log between job
completions and forwards the events as ``attempt`` frames over the aio
server.

Process-pool note: pickling ships only (inner backend, repair config,
store) — the evaluator, lock and attempt log are rebuilt per process,
mirroring how the process executor rebuilds its own evaluator.
"""

from __future__ import annotations

import threading
from typing import Sequence

from ..backends.base import Backend, ModelCapabilities, resolve_backend
from ..eval.pipeline import Evaluator
from ..eval.store import resolve_store
from ..models.base import Completion, GenerationConfig
from ..models.zoo import match_prompt_to_problem
from .loop import RepairAttempt, RepairConfig, repair_completion


class RepairingBackend(Backend):
    """A backend whose completions have already survived repair."""

    def __init__(
        self,
        inner: "Backend | str | None",
        repair: RepairConfig | None = None,
        evaluator: Evaluator | None = None,
        store=None,
    ):
        self.inner = resolve_backend(inner)
        self.repair = repair or RepairConfig()
        self.store = resolve_store(store)
        self.evaluator = evaluator or Evaluator(store=self.store)
        self.name = f"repair({self.inner.name})"
        self._attempt_lock = threading.Lock()
        self._attempt_events: list[dict] = []
        self._collecting = False

    # ------------------------------------------------------------------
    # Backend protocol: planning surfaces delegate to the inner backend,
    # so a repair plan is byte-identical to the plain plan.
    # ------------------------------------------------------------------
    def models(self) -> list[str]:
        return self.inner.models()

    def capabilities(self, model: str) -> ModelCapabilities:
        return self.inner.capabilities(model)

    def identity(self, model: str) -> tuple[str, bool]:
        return self.inner.identity(model)

    def close(self) -> None:
        self.inner.close()

    def generate(
        self, model: str, prompt: str, config: GenerationConfig
    ) -> list[Completion]:
        completions = self.inner.generate(model, prompt, config)
        return self._repair_samples(model, prompt, config, completions)

    def generate_chat(
        self,
        model: str,
        messages: Sequence[dict],
        config: GenerationConfig,
    ) -> list[Completion]:
        # chat requests come *from* a repair loop; never re-enter it
        return self.inner.generate_chat(model, messages, config)

    # ------------------------------------------------------------------
    # The repair pass
    # ------------------------------------------------------------------
    def _repair_samples(
        self,
        model: str,
        prompt: str,
        config: GenerationConfig,
        completions: list[Completion],
    ) -> list[Completion]:
        if self.repair.budget < 1:
            return completions
        matched = match_prompt_to_problem(prompt)
        if matched is None:  # off-benchmark prompt: nothing to test against
            return completions
        problem, level = matched
        repaired: list[Completion] = []
        for index, completion in enumerate(completions):
            outcome = repair_completion(
                self.inner,
                model,
                problem,
                level,
                prompt,
                completion,
                config,
                self.repair,
                self.evaluator,
                store=self.store,
                on_attempt=self._attempt_hook(model, problem, config, index),
            )
            repaired.append(outcome.completion)
        return repaired

    # ------------------------------------------------------------------
    # Attempt log (the NDJSON `attempt` event source)
    # ------------------------------------------------------------------
    def _attempt_hook(self, model, problem, config, sample_index):
        if not self._collecting:
            return None

        def hook(attempt: RepairAttempt) -> None:
            event = {
                "model": model,
                "problem": problem.number,
                "temperature": config.temperature,
                "sample_index": sample_index,
                "round": attempt.round,
                "verdict": attempt.verdict,
                "stage": attempt.stage,
                # hex string: 64-bit hashes exceed JSON's exact-int range
                "transcript_hash": f"{attempt.transcript_hash:016x}",
            }
            with self._attempt_lock:
                self._attempt_events.append(event)

        return hook

    def start_attempt_log(self) -> None:
        """Arm per-attempt event collection (idempotent; clears old)."""
        with self._attempt_lock:
            self._collecting = True
            self._attempt_events = []

    def stop_attempt_log(self) -> None:
        with self._attempt_lock:
            self._collecting = False

    def drain_attempt_events(self) -> list[dict]:
        """Collected attempt events so far, oldest first (destructive)."""
        with self._attempt_lock:
            events = self._attempt_events
            self._attempt_events = []
        return events

    # ------------------------------------------------------------------
    # Process-pool pickling: ship config, rebuild state per process
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        return {
            "inner": self.inner,
            "repair": self.repair,
            "store": self.store,
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(
            state["inner"], repair=state["repair"], store=state["store"]
        )


__all__ = ["RepairingBackend"]

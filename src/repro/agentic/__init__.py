"""Agentic generate → test → repair workload.

The paper evaluates single-shot completions; this subsystem adds the
natural next axis (after colinedsall/localagent's self-correction
agent): a bounded multi-turn repair loop that feeds structured
compile/sim failures back to the model and re-samples until the test
bench passes or the budget runs out, reported as pass@k *versus repair
budget*.

Layering:

* :mod:`~repro.agentic.transcript` — multi-turn conversation state and
  the transcript hash (the per-attempt VerdictStore key);
* :mod:`~repro.agentic.feedback`   — structured failure → re-prompt
  formatting (stage, diagnostics, lint);
* :mod:`~repro.agentic.loop`       — the per-sample repair chain;
* :mod:`~repro.agentic.backend`    — :class:`RepairingBackend`, the
  Backend-protocol adapter that lets repair sweeps ride every existing
  executor, the shard coordinator and the streaming server unchanged
  (``Session(repair=RepairConfig(...))`` wraps its backend in one).
"""

from .backend import RepairingBackend
from .feedback import format_feedback, lint_findings
from .loop import (
    RepairAttempt,
    RepairConfig,
    RepairOutcome,
    evaluate_attempt,
    repair_completion,
)
from .transcript import Transcript, Turn

__all__ = [
    "RepairAttempt",
    "RepairConfig",
    "RepairOutcome",
    "RepairingBackend",
    "Transcript",
    "Turn",
    "evaluate_attempt",
    "format_feedback",
    "lint_findings",
    "repair_completion",
]

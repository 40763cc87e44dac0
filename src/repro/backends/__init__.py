"""Pluggable generation backends for the job-based sweep service.

Built-in registrations:

* ``"zoo"`` — :class:`LocalZooBackend`, the calibrated in-process zoo
  (paper Table I variants by default);
* ``"stub"`` — :class:`StubBackend`, scripted deterministic completions
  for tests and smoke runs;
* ``"stub-canonical"`` — stub answering benchmark prompts with the
  reference solutions (all-pass smoke source);
* ``"zoo-repair"`` — the zoo variants with the repairable failure mode
  enabled (``repair_rate=0.5`` by default): error-conditioned re-samples
  fix half of their own failures, the offline workload for the agentic
  repair loop (:mod:`repro.agentic`);
* ``"http"`` — :class:`HTTPChatBackend`, an offline-safe chat-endpoint
  adapter with an injectable transport;
* ``"service"`` — :class:`~repro.service.client.ServiceBackend`, the
  client of the distributed eval service (``url=...`` points it at a
  server).

The facade is lazy (:mod:`repro._lazy`): the registry and the local zoo
load with it; ``http``, ``stub`` and ``service`` are registered as
factories that import their module when a backend is created.
"""

from .._lazy import lazy_exports
from ..models.zoo import repairable_model_variants
from .base import register_backend
from .local import LocalZooBackend

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".base": (
        "Backend",
        "BackendError",
        "ModelCapabilities",
        "available_backends",
        "create_backend",
        "register_backend",
        "resolve_backend",
    ),
    ".http": (
        "HTTPChatBackend",
        "SYSTEM_PROMPT",
        "clean_chat_response",
        "extract_chat_text",
    ),
    ".local": ("LocalZooBackend",),
    ".stub": ("DEFAULT_STUB_TEXT", "StubBackend"),
})


def _http_backend(**kwargs):
    from .http import HTTPChatBackend

    return HTTPChatBackend(**kwargs)


def _stub_backend(**kwargs):
    from .stub import StubBackend

    return StubBackend(**kwargs)


def _service_backend(**kwargs):
    from ..service.client import ServiceBackend

    return ServiceBackend(**kwargs)


def _zoo_repair_backend(repair_rate: float = 0.5, seed: int = 0):
    backend = LocalZooBackend(
        repairable_model_variants(repair_rate=repair_rate, seed=seed)
    )
    backend.name = "zoo-repair"
    return backend


register_backend("zoo", LocalZooBackend)
register_backend("zoo-repair", _zoo_repair_backend)
register_backend("stub", _stub_backend)
register_backend(
    "stub-canonical", lambda **kw: _stub_backend(canonical=True, **kw)
)
register_backend("http", _http_backend)
register_backend("service", _service_backend)

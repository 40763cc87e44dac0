"""The eval service's route table: the Session/job API over JSON.

:class:`ServiceApp` exposes a :class:`~repro.api.Session` as JSON
routes:

* ``GET  /health``          — liveness + backend identity;
* ``GET  /models``          — served model variants;
* ``POST /capabilities``    — capability claims + identity for one model;
* ``POST /generate``        — completions for one (model, prompt, config);
* ``GET  /metrics``         — the process :mod:`repro.obs` registry as
  JSON (plus coordinator throughput when one is attached);
* ``GET  /metrics/prom``    — the same registry in Prometheus text
  exposition format.

When a :class:`~repro.service.coordinator.ShardCoordinator` is attached
(``ServiceApp(session, coordinator=...)``, the ``Session.coordinate``
path), three more routes serve shards to pull-based workers:

* ``POST /shard/next``    — lease the next pending shard;
* ``POST /shard/result``  — submit one executed shard (merged inline);
* ``GET  /shard/status``  — coordination progress.

The app is transport-free — ``handle(method, path, payload) -> (status,
body)`` — so tests (and
:func:`~repro.service.client.in_process_transport`) drive the exact
routing/validation/serialization code without opening a socket.
:class:`~repro.service.aio.server.AsyncEvalService` serves it over
HTTP, adding ``POST /sweep/stream``, which runs a whole sweep
server-side.
"""

from __future__ import annotations

from .. import __version__
from ..backends.base import BackendError
from ..models.base import GenerationConfig
from ..obs import REGISTRY
from ..obs.collect import TelemetryHub, render_fleet_prometheus

#: reserved body key: the HTTP server serves this raw instead of as JSON
RAW_TEXT_KEY = "_raw_text"


class ServiceApp:
    """Route table + JSON codec over a Session; no sockets involved.

    ``coordinator`` (optional) mounts the shard-coordination routes; the
    plain eval routes work with or without one.  Every app carries a
    :class:`~repro.obs.collect.TelemetryHub`: workers push registry
    deltas to ``POST /telemetry`` and both metrics routes merge the
    fleet view into their output.
    """

    def __init__(self, session, coordinator=None):
        self.session = session
        self.coordinator = coordinator
        self.telemetry = TelemetryHub()

    # ------------------------------------------------------------------
    def handle(
        self, method: str, path: str, payload: dict | None = None
    ) -> tuple[int, dict]:
        """Dispatch one request; returns (HTTP status, response body)."""
        route = (method.upper(), path.split("?", 1)[0].rstrip("/") or "/")
        handlers = {
            ("GET", "/health"): self._health,
            ("GET", "/models"): self._models,
            ("GET", "/metrics"): self._metrics,
            ("GET", "/metrics/prom"): self._metrics_prom,
            ("GET", "/dashboard"): self._dashboard,
            ("POST", "/telemetry"): self._telemetry,
            ("POST", "/capabilities"): self._capabilities,
            ("POST", "/generate"): self._generate,
            ("POST", "/shard/next"): self._shard_next,
            ("POST", "/shard/result"): self._shard_result,
            ("GET", "/shard/status"): self._shard_status,
        }
        handler = handlers.get(route)
        if handler is None:
            REGISTRY.inc("http_requests", route="unmatched")
            return 404, {"error": f"no route {method.upper()} {path}"}
        REGISTRY.inc("http_requests", route=f"{route[0]} {route[1]}")
        if payload is not None and not isinstance(payload, dict):
            return 400, {
                "error": "bad request: the JSON body must be an object, "
                         f"not {type(payload).__name__}"
            }
        try:
            return 200, handler(payload or {})
        except BackendError as exc:
            return 400, {"error": str(exc)}
        except (KeyError, TypeError, ValueError) as exc:
            return 400, {"error": f"bad request: {exc}"}
        except Exception as exc:  # noqa: BLE001 — keep the server alive
            return 500, {"error": f"{type(exc).__name__}: {exc}"}

    # ------------------------------------------------------------------
    def _health(self, _payload: dict) -> dict:
        return {
            "status": "ok",
            "backend": self.session.backend.name,
            "models": len(self.session.models()),
            "version": __version__,
        }

    def _models(self, _payload: dict) -> dict:
        return {"models": self.session.models()}

    def _metrics(self, _payload: dict) -> dict:
        body = {"metrics": REGISTRY.snapshot()}
        if len(self.telemetry):
            body["fleet"] = self.telemetry.fleet_snapshot()
        if self.coordinator is not None:
            status = self.coordinator.status()
            body["coordinator"] = {
                key: status[key]
                for key in (
                    "jobs_done", "jobs_total", "records_merged",
                    "store_hits", "workers",
                )
                if key in status
            }
        return body

    def _metrics_prom(self, _payload: dict) -> dict:
        return {
            RAW_TEXT_KEY: render_fleet_prometheus(REGISTRY, self.telemetry),
            "content_type": "text/plain; version=0.0.4",
        }

    def _telemetry(self, payload: dict) -> dict:
        # ValueError from a malformed payload maps to 400 in handle()
        return self.telemetry.ingest(payload)

    def _dashboard(self, _payload: dict) -> dict:
        # off the sweep path: the page loads its module on first request
        from ..obs.dashboard import dashboard_html

        return {
            RAW_TEXT_KEY: dashboard_html(),
            "content_type": "text/html; charset=utf-8",
        }

    def _capabilities(self, payload: dict) -> dict:
        model = payload["model"]
        capabilities = self.session.backend.capabilities(model)
        base_model, fine_tuned = self.session.backend.identity(model)
        return {
            "model": model,
            "supports_n25": capabilities.supports_n25,
            "max_tokens": capabilities.max_tokens,
            "base_model": base_model,
            "fine_tuned": fine_tuned,
        }

    @staticmethod
    def _parse_config(row: dict | None) -> GenerationConfig:
        row = row or {}
        return GenerationConfig(
            **{
                key: row[key]
                for key in ("temperature", "n", "max_tokens", "top_p")
                if key in row
            }
        )

    @staticmethod
    def _completion_row(completion) -> dict:
        return {
            "text": completion.text,
            "inference_seconds": completion.inference_seconds,
            "tokens": completion.tokens,
        }

    def _generate(self, payload: dict) -> dict:
        config = self._parse_config(payload.get("config"))
        completions = self.session.backend.generate(
            payload["model"], payload["prompt"], config
        )
        return {
            "completions": [self._completion_row(c) for c in completions]
        }

    # ------------------------------------------------------------------
    # Shard-coordination routes (Session.coordinate / ShardCoordinator)
    # ------------------------------------------------------------------
    def _require_coordinator(self):
        if self.coordinator is None:
            raise BackendError(
                "no shard coordinator attached to this service "
                "(start one with Session.coordinate / `repro coordinate`)"
            )
        return self.coordinator

    def _shard_next(self, payload: dict) -> dict:
        return self._require_coordinator().next_shard(
            str(payload.get("worker_id") or "anonymous")
        )

    def _shard_result(self, payload: dict) -> dict:
        return self._require_coordinator().submit_result(
            payload["lease_id"], payload["result"]
        )

    def _shard_status(self, _payload: dict) -> dict:
        return self._require_coordinator().status()

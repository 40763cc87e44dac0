"""Distributed sweep service: HTTP server, client backend, shards, processes.

The subsystem that takes the job-based sweep stack of
:mod:`repro.eval.jobs` off a single machine:

* :mod:`repro.service.server` — :class:`ServiceApp`, the transport-free
  route table exposing the Session/job API as JSON routes;
* :mod:`repro.service.client` — the one HTTP client:
  :class:`ServiceBackend`, the registered ``"service"`` backend that
  makes a remote server look local, with an injectable transport
  (:func:`in_process_transport` for offline tests), and the streaming
  consumers :func:`iter_sweep_events`/:func:`stream_sweep`;
* :mod:`repro.service.sharding` — :class:`ShardPlanner` /
  :func:`job_ranges` / :func:`merge_shard_results`: partition a plan
  across machines (strided shards or contiguous job ranges) and
  recombine results record-for-record identical to a serial run; its
  one partition check and one unit fill also serve the coordinator;
* :mod:`repro.service.coordinator` — :class:`ShardCoordinator`: lease
  the units of one partition to pull-based workers (``/shard/next`` → ``/shard/result``)
  and merge results as they stream in, no index bookkeeping required;
  :func:`run_worker` is the one worker, running each leased unit on its
  session's executor (``workers`` threads, or processes);
* :mod:`repro.service.process` — :class:`ProcessPoolSweepExecutor`, the
  GIL-free executor variant for CPU-bound sweeps (point it at a shared
  :class:`~repro.eval.store.VerdictStore` to pool verdicts on disk);
* :mod:`repro.service.aio` — the asyncio half:
  :class:`AsyncEvalService`, the one HTTP server (``ServiceApp``'s JSON
  routes plus the NDJSON streaming route ``POST /sweep/stream``, the
  one route that runs a whole sweep server-side, on the thread
  :class:`~repro.eval.jobs.SweepExecutor`) and the event-frame codec.

Every result these pieces produce — merged, coordinated or streamed —
is built by :func:`repro.eval.jobs.assemble_result`, as a serial run's
is, so plan order and completeness are decided in one place.
"""

from .aio import (
    AsyncEvalService,
    StreamProtocolError,
    assemble_stream_result,
)
from .client import (
    DEFAULT_URL,
    ServiceBackend,
    ServiceUnreachableError,
    Transport,
    default_worker_id,
    http_transport,
    in_process_transport,
    iter_sweep_events,
    run_worker,
    stream_sweep,
)
from .coordinator import ShardCoordinator, load_checkpoint, save_checkpoint
from .process import ProcessPoolSweepExecutor
from .server import ServiceApp
from .sharding import (
    PlanShard,
    ShardPlanner,
    job_ranges,
    load_shard_manifest,
    load_shard_result,
    merge_shard_files,
    merge_shard_results,
    save_shard_result,
    shard_from_dict,
    shard_manifest_to_json,
    shard_to_dict,
    split_result_by_job,
)

__all__ = [
    "AsyncEvalService",
    "DEFAULT_URL",
    "StreamProtocolError",
    "assemble_stream_result",
    "iter_sweep_events",
    "stream_sweep",
    "PlanShard",
    "ProcessPoolSweepExecutor",
    "ServiceApp",
    "ServiceBackend",
    "ServiceUnreachableError",
    "ShardCoordinator",
    "ShardPlanner",
    "Transport",
    "default_worker_id",
    "http_transport",
    "in_process_transport",
    "job_ranges",
    "run_worker",
    "load_checkpoint",
    "save_checkpoint",
    "load_shard_manifest",
    "load_shard_result",
    "merge_shard_files",
    "merge_shard_results",
    "save_shard_result",
    "shard_from_dict",
    "shard_manifest_to_json",
    "shard_to_dict",
    "split_result_by_job",
]

"""repro — reproduction of "Benchmarking Large Language Models for
Automated Verilog RTL Code Generation" (Thakur et al., DATE 2023).

Subpackages:

* :mod:`repro.verilog` — Verilog-2001-subset compiler + event-driven
  simulator (the Icarus Verilog stand-in);
* :mod:`repro.corpus` — training-corpus pipeline (GitHub gather, MinHash
  dedup, filters, textbook cleaning);
* :mod:`repro.tokenizer` — byte-pair encoding from scratch;
* :mod:`repro.models` — trainable LMs (n-gram, tiny transformer) and the
  calibrated simulated zoo of the paper's six LLMs;
* :mod:`repro.problems` — the 17-problem benchmark set with L/M/H prompts
  and self-checking test benches;
* :mod:`repro.eval` — truncation, compile/functional gates, metrics,
  job-based sweep planner/executor, table/figure reporting;
* :mod:`repro.backends` — pluggable generation backends (local zoo,
  deterministic stub, offline-safe HTTP chat adapter, eval-service
  client) plus registry;
* :mod:`repro.service` — the distributed sweep service: HTTP eval
  server, shard planner/merger, process-pool executor;
* :mod:`repro.api` — the stable service facade (:class:`Session`);
* :mod:`repro.core` — the end-to-end pipeline facade.
"""

from .api import Session
from .core import VGenConfig, VGenPipeline, VGenResult

__version__ = "1.1.0"

__all__ = [
    "Session",
    "VGenConfig",
    "VGenPipeline",
    "VGenResult",
    "__version__",
]

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

This facade and those of ``verilog``, ``corpus``, ``tokenizer``,
``models``, ``eval``, ``backends`` and ``obs`` are lazy
(:mod:`repro._lazy`): a re-exported name such as ``repro.Session``
imports its submodule on first use, so ``import repro.api`` loads the
sweep path (compile → simulate → verdict, the zoo, jobs, the store) and
nothing else.  Modules a sweep runs import what they need at module
level, so no module loads inside a timed sweep; code no sweep runs
(numpy, the trainable models, the corpus pipeline, reporting) loads
only when used.
"""

from ._lazy import lazy_exports

__version__ = "1.1.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".api": ("Session",),
    ".core": ("VGenConfig", "VGenPipeline", "VGenResult"),
})
__all__.append("__version__")

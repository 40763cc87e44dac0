"""Outside-in layer tracing for the benchmark's traced runs.

A :class:`Tracer` wraps the public functions of each program layer -
module attributes and class methods, looked up by name - for the
duration of one traced iteration and restores them afterwards.  Every
wrapped call is a span.  A span's self time is its duration minus the
time of the spans it encloses; a span opened on another thread with no
open span of its own (the eval service answering the worker's blocked
HTTP call) counts as a child of the main thread's innermost open span.
The sum of all self times is therefore the time covered by the main
thread's outermost spans, and whatever wall time they leave uncovered
is reported as ``unattributed_s``.

Nothing here imports the program: targets are resolved when a tracer is
installed, so the tracer follows whatever generation of the package is
loaded.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
from collections import Counter, defaultdict
from time import perf_counter
from types import SimpleNamespace

_MISSING = object()


# ----------------------------------------------------------------------
# Counting hooks: (tracer, args, result, exc, before) -> None, run inside
# the span; ``before`` is what the matching pre-hook returned.
# ----------------------------------------------------------------------
def _count_errors(layer):
    def hook(tracer, args, result, exc, before):
        if exc is not None:
            tracer.counts[f"{layer}.errors"] += 1
    return hook


def _lexer_hook(tracer, args, result, exc, before):
    if result is not None:
        tracer.counts["lexer.tokens"] += len(result)


def _codegen_hook(tracer, args, result, exc, before):
    if result is not None:
        tracer.counts["codegen.fallbacks"] += len(result.fallbacks)
        tracer.counts["codegen.two_state"] += bool(result.two_state)


def _sim_hook(tracer, args, result, exc, before):
    if result is not None:
        tracer.counts["sim.sim_time"] += result.time


def _evaluator_before(args):
    evaluator = args[0]
    return evaluator.cache_hits, evaluator.cache_misses


def _evaluator_hook(tracer, args, result, exc, before):
    evaluator = args[0]
    tracer.counts["evaluator.hits"] += evaluator.cache_hits - before[0]
    tracer.counts["evaluator.fresh"] += evaluator.cache_misses - before[1]


def _store_get_hook(tracer, args, result, exc, before):
    if result is not None:
        tracer.counts["store.hits"] += 1


def _simcache_get_hook(tracer, args, result, exc, before):
    tracer.counts["simcache.gets"] += 1
    if result is not None:
        tracer.counts["simcache.hits"] += 1


def _simcache_put_hook(tracer, args, result, exc, before):
    tracer.counts["simcache.puts"] += 1


#: (module, attribute path, layer, pre-hook, hook) for every wrapped call
SPANS = (
    ("repro.verilog.parser", "tokenize", "lexer", None, _lexer_hook),
    ("repro.verilog.compile", "parse", "parser", None,
     _count_errors("parser")),
    ("repro.verilog.compile", "elaborate", "elaborate", None,
     _count_errors("elaborate")),
    ("repro.eval.pipeline", "analyze_design", "analyze", None, None),
    ("repro.eval.pipeline", "lint_source_unit", "lint", None, None),
    ("repro.verilog.codegen", "CompiledEngine", "codegen", None,
     _codegen_hook),
    ("repro.verilog.compile", "simulate", "sim", None, _sim_hook),
    ("repro.backends.local", "LocalZooBackend.generate", "generate",
     None, None),
    ("workloads", "FunctionalBackend.generate", "generate", None, None),
    ("repro.eval.pipeline", "truncate_completion", "truncate", None, None),
    ("repro.eval.pipeline", "Evaluator.evaluate", "evaluator",
     _evaluator_before, _evaluator_hook),
    ("repro.eval.store", "VerdictStore.get", "store.get", None,
     _store_get_hook),
    ("repro.eval.store", "VerdictStore.put", "store.put", None, None),
    ("repro.eval.store", "CompileSimCache.get", "simcache", None,
     _simcache_get_hook),
    ("repro.eval.store", "CompileSimCache.put", "simcache", None,
     _simcache_put_hook),
    ("repro.eval.jobs", "SweepExecutor.run", "executor", None, None),
    ("repro.service.server", "ServiceApp.handle", "coordinator", None,
     None),
    ("repro.eval.export", "sweep_result_to_dict", "codec", None, None),
    ("hostspeed", "run_probe", "probe", None, None),
)

#: wire routes the worker calls, by the layer their spans count into
WIRE_LAYERS = {"/shard/next": "wire.lease", "/shard/result": "wire.submit"}

#: the self-time metrics; with ``unattributed_s`` they add up to the wall
SELF_TIME_METRICS = (
    "lexer.self_s", "parser.self_s", "elaborate.self_s", "analyze.self_s",
    "lint.self_s", "codegen.self_s", "sim.self_s", "generate.self_s",
    "truncate.self_s", "evaluator.self_s", "store.get_s", "store.put_s",
    "simcache.s", "executor.self_s", "wire.lease_s", "wire.submit_s",
    "wire.other_s", "coordinator.handle_s", "codec.encode_s",
    "trace.probe_s",
)

#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("lexer.calls", "count", "lower"),
    ("lexer.self_s", "s", "lower"),
    ("lexer.tokens", "count", "lower"),
    ("lexer.tokens_per_s", "tokens/s", "higher"),
    ("parser.calls", "count", "lower"),
    ("parser.self_s", "s", "lower"),
    ("parser.errors", "count", "lower"),
    ("elaborate.calls", "count", "lower"),
    ("elaborate.self_s", "s", "lower"),
    ("elaborate.errors", "count", "lower"),
    ("analyze.calls", "count", "lower"),
    ("analyze.self_s", "s", "lower"),
    ("lint.self_s", "s", "lower"),
    ("codegen.builds", "count", "lower"),
    ("codegen.self_s", "s", "lower"),
    ("codegen.fallbacks", "count", "lower"),
    ("codegen.two_state", "count", "higher"),
    ("sim.calls", "count", "lower"),
    ("sim.self_s", "s", "lower"),
    ("sim.sim_time", "simtime", "lower"),
    ("generate.calls", "count", "lower"),
    ("generate.self_s", "s", "lower"),
    ("truncate.self_s", "s", "lower"),
    ("evaluator.calls", "count", "lower"),
    ("evaluator.fresh", "count", "lower"),
    ("evaluator.hit_ratio", "ratio", "higher"),
    ("evaluator.self_s", "s", "lower"),
    ("store.gets", "count", "lower"),
    ("store.get_s", "s", "lower"),
    ("store.hit_ratio", "ratio", "higher"),
    ("store.puts", "count", "lower"),
    ("store.put_s", "s", "lower"),
    ("simcache.gets", "count", "lower"),
    ("simcache.hits", "count", "higher"),
    ("simcache.puts", "count", "lower"),
    ("simcache.s", "s", "lower"),
    ("executor.self_s", "s", "lower"),
    ("wire.lease_calls", "count", "lower"),
    ("wire.lease_s", "s", "lower"),
    ("wire.submit_calls", "count", "lower"),
    ("wire.submit_s", "s", "lower"),
    ("wire.submit_bytes", "bytes", "lower"),
    ("wire.other_s", "s", "lower"),
    ("coordinator.handle_s", "s", "lower"),
    ("codec.encode_s", "s", "lower"),
    ("unattributed_s", "s", "lower"),
    ("trace.probe_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("verdict_mismatches", "count", "lower"),
    ("failed_share", "ratio", "lower"),
)


class Tracer:
    """Spans and counts of one traced iteration."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        #: summed duration of the spans no other span encloses
        self.root_s = 0.0
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[list[float]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []
        self._last_dumps = threading.local()

    # ------------------------------------------------------------------
    def _stack(self, main: bool) -> list[list[float]]:
        if main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, layer, elapsed, child, stack, main) -> None:
        with self._lock:
            self.self_s[layer] += elapsed - child
            self.calls[layer] += 1
            if stack:
                stack[-1][0] += elapsed
            elif not main and self._main_stack:
                self._main_stack[-1][0] += elapsed
            else:
                self.root_s += elapsed

    def wrap(self, fn, layer, before=None, hook=None, layer_of=None):
        """``fn`` as a span of ``layer`` (or of ``layer_of(args)``)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            main = threading.get_ident() == tracer._main_ident
            stack = tracer._stack(main)
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            token = before(args) if before is not None else None
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                if hook is not None:
                    hook(tracer, args, result, exc, token)
                name = layer if layer_of is None else layer_of(args)
                elapsed = perf_counter() - start
                stack.pop()
                tracer._close(name, elapsed, frame[0], stack, main)

        return traced

    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every layer's entry points (see :data:`SPANS`)."""
        for module_name, path, layer, before, hook in SPANS:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for name in owners:
                owner = getattr(owner, name)
            self._patch(owner, attr,
                        self.wrap(getattr(owner, attr), layer, before, hook))
        client = importlib.import_module("repro.service.client")
        self._patch(client, "http_transport",
                    self._traced_transport_factory(client.http_transport))
        self._patch(client, "json", SimpleNamespace(
            dumps=self._counting_dumps, loads=json.loads))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # The wire: the worker's transport calls, split by route
    # ------------------------------------------------------------------
    def _counting_dumps(self, obj, **kwargs) -> str:
        text = json.dumps(obj, **kwargs)
        self._last_dumps.size = len(text)
        return text

    def _traced_transport_factory(self, factory):
        tracer = self

        def layer_of(args):
            return WIRE_LAYERS.get(args[1], "wire.other")

        def submit_bytes(tracer_, args, result, exc, before):
            if args[1] == "/shard/result":
                tracer_.counts["wire.submit_bytes"] += getattr(
                    tracer_._last_dumps, "size", 0)

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            call = factory(*args, **kwargs)
            return tracer.wrap(call, "wire.other", hook=submit_bytes,
                               layer_of=layer_of)

        return traced_factory

    # ------------------------------------------------------------------
    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of this iteration, which took ``wall_s``."""
        s, calls, counts = self.self_s, self.calls, self.counts

        def ratio(part, whole):
            return part / whole if whole else 0.0

        return {
            "lexer.calls": calls["lexer"],
            "lexer.self_s": s["lexer"],
            "lexer.tokens": counts["lexer.tokens"],
            "lexer.tokens_per_s": ratio(counts["lexer.tokens"], s["lexer"]),
            "parser.calls": calls["parser"],
            "parser.self_s": s["parser"],
            "parser.errors": counts["parser.errors"],
            "elaborate.calls": calls["elaborate"],
            "elaborate.self_s": s["elaborate"],
            "elaborate.errors": counts["elaborate.errors"],
            "analyze.calls": calls["analyze"],
            "analyze.self_s": s["analyze"],
            "lint.self_s": s["lint"],
            "codegen.builds": calls["codegen"],
            "codegen.self_s": s["codegen"],
            "codegen.fallbacks": counts["codegen.fallbacks"],
            "codegen.two_state": counts["codegen.two_state"],
            "sim.calls": calls["sim"],
            "sim.self_s": s["sim"],
            "sim.sim_time": counts["sim.sim_time"],
            "generate.calls": calls["generate"],
            "generate.self_s": s["generate"],
            "truncate.self_s": s["truncate"],
            "evaluator.calls": calls["evaluator"],
            "evaluator.fresh": counts["evaluator.fresh"],
            "evaluator.hit_ratio": ratio(counts["evaluator.hits"],
                                         calls["evaluator"]),
            "evaluator.self_s": s["evaluator"],
            "store.gets": calls["store.get"],
            "store.get_s": s["store.get"],
            "store.hit_ratio": ratio(counts["store.hits"], calls["store.get"]),
            "store.puts": calls["store.put"],
            "store.put_s": s["store.put"],
            "simcache.gets": counts["simcache.gets"],
            "simcache.hits": counts["simcache.hits"],
            "simcache.puts": counts["simcache.puts"],
            "simcache.s": s["simcache"],
            "executor.self_s": s["executor"],
            "wire.lease_calls": calls["wire.lease"],
            "wire.lease_s": s["wire.lease"],
            "wire.submit_calls": calls["wire.submit"],
            "wire.submit_s": s["wire.submit"],
            "wire.submit_bytes": counts["wire.submit_bytes"],
            "wire.other_s": s["wire.other"],
            "coordinator.handle_s": s["coordinator"],
            "codec.encode_s": s["codec"],
            "unattributed_s": wall_s - self.root_s,
            "trace.probe_s": s["probe"],
            "trace.wall_s": wall_s,
        }

"""The import surface: lazy package facades and what a sweep loads.

Every package facade re-exports its submodules' names lazily
(:mod:`repro._lazy`).  These tests pin the two halves of that contract,
each in a fresh interpreter so earlier imports cannot hide a fault:

* the public API is unchanged: every ``__all__`` name resolves by
  attribute and by ``from pkg import *``, is its submodule's object and
  is listed by ``dir(pkg)``;
* a sweep process loads only what a sweep runs, and loads all of it
  at set-up, so no module is first imported inside a timed sweep.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

LAZY_PACKAGES = (
    "repro",
    "repro.backends",
    "repro.corpus",
    "repro.eval",
    "repro.models",
    "repro.obs",
    "repro.tokenizer",
    "repro.verilog",
)

#: modules no sweep runs: none may be loaded by a zoo sweep process
NEVER_ON_SWEEP_PATH = (
    "numpy",
    "repro.backends.http",
    "repro.core",
    "repro.corpus.generators",
    "repro.corpus.github",
    "repro.corpus.minhash",
    "repro.corpus.pipeline",
    "repro.corpus.textbook",
    "repro.eval.analysis",
    "repro.eval.analyze",
    "repro.eval.report",
    "repro.models.finetune",
    "repro.models.ngram",
    "repro.models.sampling",
    "repro.models.transformer",
    "repro.obs.dashboard",
    "repro.obs.stats",
    "repro.tokenizer",
    "repro.verilog.writer",
)


def run_child(source: str, *args: str):
    """Run ``source`` in a fresh interpreter; its last stdout line, as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", source, *args], env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.strip().splitlines()[-1])


#: resolve each name by attribute first, then import every submodule and
#: check the package still hands out the submodule's object; the only
#: exported values a package defines itself are these constants
RESOLVE = """
import importlib, json, pkgutil, sys
DEFINED_HERE = ("__version__", "STAGES")
package = importlib.import_module(sys.argv[1])
names = list(package.__all__)
listed = set(dir(package))
missing_from_dir = [n for n in names if n not in listed]
first = {name: getattr(package, name) for name in names}
children = [importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
            if info.name != "__main__"]
def owned(name, value):
    if value is getattr(sys.modules.get(getattr(value, "__module__", "")),
                        name, None):
        return True
    return any(vars(child).get(name, child) is value for child in children)
print(json.dumps({
    "missing_from_dir": missing_from_dir,
    "changed": [n for n in names if getattr(package, n) is not first[n]],
    "unowned": [n for n in names
                if n not in DEFINED_HERE and not owned(n, first[n])],
}))
"""

STAR = """
import importlib, json, sys
namespace = {}
exec(f"from {sys.argv[1]} import *", namespace)
package = importlib.import_module(sys.argv[1])
print(json.dumps({
    "all": sorted(package.__all__),
    "star": sorted(n for n in namespace if n != "__builtins__"),
    "same": all(namespace[n] is getattr(package, n) for n in package.__all__),
}))
"""


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_export_resolves_by_attribute(package):
    result = run_child(RESOLVE, package)
    assert result == {"missing_from_dir": [], "changed": [], "unowned": []}


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_star_import_binds_all(package):
    result = run_child(STAR, package)
    assert result["star"] == result["all"]
    assert result["same"]


def test_unknown_name_raises_attribute_error():
    result = run_child("""
import json, repro.eval
try:
    repro.eval.no_such_name
except AttributeError as exc:
    print(json.dumps(str(exc)))
""")
    assert result == "module 'repro.eval' has no attribute 'no_such_name'"


def test_elaborate_is_the_function_after_its_module_loads():
    result = run_child("""
import json, sys
import repro.verilog.elaborate
module = sys.modules["repro.verilog.elaborate"]
print(json.dumps(repro.verilog.elaborate is module.elaborate))
""")
    assert result is True


def test_backend_registry_keeps_every_name():
    result = run_child("""
import json, sys
from repro.backends import available_backends, create_backend
names = available_backends()
loaded_before = "repro.backends.stub" in sys.modules
stub = create_backend("stub-canonical")
print(json.dumps([names, loaded_before, type(stub).__name__,
                  "repro.backends.http" in sys.modules]))
""")
    assert result == [
        ["http", "service", "stub", "stub-canonical", "zoo", "zoo-repair"],
        False, "StubBackend", False,
    ]


def test_parser_alone_loads_no_evaluator():
    result = run_child("""
import json, sys
import repro.verilog.parser
print(json.dumps(sorted(sys.modules)))
""")
    heavy = ("numpy", "repro.api", "repro.eval", "repro.backends",
             "repro.models")
    assert [m for m in result
            if any(m == h or m.startswith(h + ".") for h in heavy)] == []


def test_cli_parser_loads_no_sweep_stack():
    # --help and quick commands pay for the parser only: it names the
    # backends and executors without the evaluator, compiler or Session
    result = run_child("""
import contextlib, io, json, sys
from repro.cli import build_parser, main
heavy = ("repro.api", "repro.eval.pipeline", "repro.verilog")
loaded = lambda: [m for m in sorted(sys.modules)
                  if any(m == h or m.startswith(h + ".") for h in heavy)]
build_parser()
after_parser = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["problems"])
print(json.dumps([after_parser, code, loaded()]))
""")
    assert result == [[], 0, []]


#: plan the paper sweep, run its first jobs, then the rest: the modules
#: loaded after plan() must be every module the sweep needs
SERIAL = """
import json, sys
from repro.api import Session
from repro.eval.harness import SweepConfig
loaded = lambda: sorted(m for m in sys.modules
                        if m == "numpy" or m.startswith("repro"))
session = Session(backend="zoo")
plan = session.plan(SweepConfig(temperatures=(0.1, 0.5)))
after_plan = loaded()
session.run_plan(plan.subset(range(20)))
after_first = loaded()
result = session.run_plan(plan)
print(json.dumps({"after_plan": after_plan, "after_first": after_first,
                  "after_sweep": loaded(),
                  "records": len(result.sweep.records),
                  "errors": len(result.errors)}))
"""

FLEET = """
import json, sys, tempfile
from repro.api import Session
from repro.eval.harness import SweepConfig
from repro.eval.store import VerdictStore
loaded = lambda: sorted(m for m in sys.modules
                        if m == "numpy" or m.startswith("repro"))
config = SweepConfig(temperatures=(0.1,), problem_numbers=(1, 2, 6, 17))
backend = Session(backend="zoo").backend
service = Session(backend=backend).coordinate(1, config, port=0,
                                              lease_jobs=20)
service.start()
try:
    after_plan = loaded()
    with Session(backend=backend,
                 store=VerdictStore(tempfile.mkdtemp())) as worker:
        worker.work(url=service.url, poll_seconds=0.05)
    records = len(service.coordinator.result().sweep.records)
finally:
    service.stop()
print(json.dumps({"after_plan": after_plan, "after_sweep": loaded(),
                  "records": records}))
"""


@pytest.fixture(scope="module")
def serial():
    return run_child(SERIAL)


def test_serial_sweep_leaves_the_unused_stack_unloaded(serial):
    assert serial["records"] == 11220 and serial["errors"] == 0
    assert sorted(set(NEVER_ON_SWEEP_PATH) & set(serial["after_first"])) == []


def test_serial_sweep_imports_nothing_after_plan(serial):
    assert serial["after_first"] == serial["after_plan"]
    assert serial["after_sweep"] == serial["after_plan"]


def test_fleet_worker_imports_nothing_after_set_up():
    fleet = run_child(FLEET)
    assert fleet["records"] == 11 * 4 * 3 * 10
    assert fleet["after_sweep"] == fleet["after_plan"]
    assert "numpy" not in fleet["after_sweep"]

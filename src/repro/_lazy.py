"""Lazy package facades (PEP 562).

A package facade re-exports names from its submodules.  Importing them
all up front costs every process the start-up of code it may never run
(numpy, the corpus pipeline, the reporting stack), so a facade built
with :func:`lazy_exports` imports a submodule the first time one of its
names is read, and stores the object in the package namespace so later
reads are plain attribute lookups.

Rule of the house: modules a sweep runs are imported at module level by
the modules that use them, so they load at set-up; a facade only defers
what a sweep never touches.
"""

from __future__ import annotations

import importlib
from typing import Callable


def lazy_exports(
    package: str, namespace: dict, exports: dict[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """The ``__all__``, ``__getattr__`` and ``__dir__`` of a lazy facade.

    ``exports`` maps a submodule (relative to ``package``, such as
    ``".jobs"``) to the names it provides; ``__all__`` lists them all.
    A name that is also its submodule's name (``repro.verilog.elaborate``)
    is bound at once: importing the submodule later would set the
    package attribute to the module and hide the function.
    """
    where = {name: module for module, names in exports.items()
             for name in names}

    def __getattr__(name: str):
        module = where.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | where.keys())

    for name, module in where.items():
        if module.rpartition(".")[2] == name:
            __getattr__(name)
    return list(where), __getattr__, __dir__

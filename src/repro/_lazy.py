"""Lazy package exports (PEP 562).

A package maps each public name to the submodule that defines it, and the
submodule is imported on the first access of one of its names rather than
with the package.  Importing ``repro.cli`` or ``repro.engine`` then loads
only what a command or a trial runs; the serving and engine paths never
load SciPy or the analysis code.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for *package*.

    *table* maps a module, relative to *package*, to the names it exports.
    A resolved name is cached in the package namespace, so the hook runs
    once per name.
    """
    owner: Dict[str, str] = {name: module for module, names in table.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owner))

    return __getattr__, __dir__, list(owner)

"""PEP 562 lazy exports for the package ``__init__`` modules.

A package re-exports names from its submodules so callers can write
``from repro.server import CiaoServer``.  Importing every submodule to
bind those names up front makes ``import repro.api`` load the whole
tree, fleet, linter and dataset generators included, into a process
that only serves.  Each package instead declares a table of which
module defines which exported name; a name's module is imported the
first time the name is looked up, and the value is then cached in the
package namespace so later lookups are plain attribute reads.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(package: str, table: Mapping[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for *package*, exporting *table*.

    *table* maps a module, relative to *package* (``".ciao"``,
    ``"..core.budgets"``), to the names the package takes from it.  Any
    other attribute is looked up as a submodule, so ``repro.server.ciao``
    resolves after a bare ``import repro.server`` just as it did when
    the package imported its submodules eagerly.
    """
    origin: Dict[str, str] = {
        name: module for module, names in table.items() for name in names
    }
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module, package), name)
            namespace[name] = value
            return value
        if not name.startswith("__"):
            qualified = f"{package}.{name}"
            try:
                return importlib.import_module(qualified)
            except ModuleNotFoundError as exc:
                if exc.name != qualified:
                    raise
        raise AttributeError(
            f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__

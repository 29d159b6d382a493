"""API-hygiene checker: ``__all__`` contracts, defaults, broad excepts.

This is the static promotion of ``tests/test_public_api.py``: the
``__all__`` completeness/sortedness contract that used to live as a
runtime import test is enforced here from the AST alone, so one source
of truth covers both the CLI gate and the test suite (which now just
asserts this checker is clean).

Rules:

``API001``  a package ``__init__.py`` has no literal ``__all__``.
``API002``  ``__all__`` is unsorted or has duplicates.
``API003``  a public name bound at top level (import, def, class,
            assignment) of a package ``__init__.py`` is missing from
            ``__all__``.
``API004``  an ``__all__`` entry is never bound in the module.
``API005``  a mutable default argument (literal list/dict/set or a bare
            ``list()``/``dict()``/``set()`` call).
``API006``  a bare/broad ``except`` (``except:``, ``except Exception``,
            ``except BaseException``) without an
            ``# ciaolint: allow[...] -- reason`` justification.

``from . import submodule`` bindings are ignored for API003 — they bind
modules, which the public-surface contract has never covered.  Names a
package exports lazily, through the literal table it hands
``_lazy.lazy_exports``, count as bound.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set, Tuple

from .findings import Finding
from .model import Project, SourceModule
from .registry import Checker, register

_MUTABLE_CALLS = {"list", "dict", "set", "bytearray"}
_BROAD_EXCEPTIONS = {"Exception", "BaseException"}


def _literal_all(tree: ast.Module) -> Optional[Tuple[List[str], int]]:
    """The module's literal ``__all__`` (entries, line), if present."""
    for stmt in tree.body:
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
            value = stmt.value
        else:
            continue
        if not any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets):
            continue
        if not isinstance(value, (ast.List, ast.Tuple)):
            return None
        entries: List[str] = []
        for elt in value.elts:
            if (isinstance(elt, ast.Constant)
                    and isinstance(elt.value, str)):
                entries.append(elt.value)
            else:
                return None
        return entries, stmt.lineno
    return None


def _lazy_table_names(value: ast.expr) -> Set[str]:
    """Names a ``_lazy.lazy_exports(__name__, {...})`` table exports."""
    if not (isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "lazy_exports"
            and len(value.args) == 2
            and isinstance(value.args[1], ast.Dict)):
        return set()
    return {
        elt.value
        for names in value.args[1].values
        if isinstance(names, (ast.Tuple, ast.List))
        for elt in names.elts
        if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
    }


def _top_level_bindings(tree: ast.Module) -> Set[str]:
    """Names bound at module top level (symbols, not submodules)."""
    bound: Set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom):
            if stmt.module is None:
                continue  # `from . import x` binds submodules
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                bound.add(alias.asname or alias.name)
        elif isinstance(stmt, ast.Import):
            for alias in stmt.names:
                bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            bound.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            bound.update(_lazy_table_names(stmt.value))
            for target in stmt.targets:
                parts = (target.elts
                         if isinstance(target, (ast.Tuple, ast.List))
                         else [target])
                for part in parts:
                    if isinstance(part, ast.Name):
                        bound.add(part.id)
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name):
                bound.add(stmt.target.id)
        elif isinstance(stmt, (ast.If, ast.Try)):
            # Conditional imports/definitions still bind names.
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.ImportFrom) and sub.module:
                    for alias in sub.names:
                        if alias.name != "*":
                            bound.add(alias.asname or alias.name)
    return bound


@register
class ApiHygieneChecker(Checker):
    name = "api-hygiene"
    description = (
        "__all__ is complete, sorted, and importable; no mutable "
        "defaults; broad excepts carry a justification"
    )
    rules = {
        "API001": "package __init__ has no literal __all__",
        "API002": "__all__ unsorted or duplicated",
        "API003": "public top-level name missing from __all__",
        "API004": "__all__ entry never bound",
        "API005": "mutable default argument",
        "API006": "broad except without justification",
    }

    def check(self, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        for module in project.modules:
            if module.path.name == "__init__.py":
                findings.extend(self._check_all_contract(module))
            findings.extend(self._check_defaults(module))
            findings.extend(self._check_excepts(module))
        return findings

    # -- __all__ contract (packages only) ------------------------------
    def _check_all_contract(self, module: SourceModule) -> List[Finding]:
        findings: List[Finding] = []
        parsed = _literal_all(module.tree)
        if parsed is None:
            findings.append(Finding(
                path=module.rel_path, line=1, col=0, rule="API001",
                checker=self.name,
                message=(
                    "package __init__ must declare its public surface "
                    "in a literal __all__ list of strings"
                ),
            ))
            return findings
        entries, line = parsed
        if entries != sorted(entries):
            findings.append(Finding(
                path=module.rel_path, line=line, col=0, rule="API002",
                checker=self.name,
                message="__all__ is not sorted",
            ))
        if len(entries) != len(set(entries)):
            dupes = sorted({e for e in entries if entries.count(e) > 1})
            findings.append(Finding(
                path=module.rel_path, line=line, col=0, rule="API002",
                checker=self.name,
                message=f"__all__ has duplicates: {dupes}",
            ))
        bound = _top_level_bindings(module.tree)
        public = {name for name in bound if not name.startswith("_")}
        missing = sorted(public - set(entries))
        if missing:
            findings.append(Finding(
                path=module.rel_path, line=line, col=0, rule="API003",
                checker=self.name,
                message=(
                    f"public names missing from __all__: {missing}"
                ),
            ))
        unbound = sorted(set(entries) - bound)
        if unbound:
            findings.append(Finding(
                path=module.rel_path, line=line, col=0, rule="API004",
                checker=self.name,
                message=f"__all__ lists unbound names: {unbound}",
            ))
        return findings

    # -- mutable defaults ----------------------------------------------
    def _check_defaults(self, module: SourceModule) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                mutable = isinstance(
                    default, (ast.List, ast.Dict, ast.Set)
                ) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in _MUTABLE_CALLS
                    and not default.args and not default.keywords
                )
                if mutable:
                    findings.append(Finding(
                        path=module.rel_path, line=default.lineno,
                        col=default.col_offset, rule="API005",
                        checker=self.name,
                        message=(
                            f"mutable default argument in "
                            f"{node.name}(): defaults are evaluated "
                            f"once and shared across calls — default "
                            f"to None and construct inside"
                        ),
                    ))
        return findings

    # -- broad excepts -------------------------------------------------
    def _check_excepts(self, module: SourceModule) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                broad = "bare except"
            elif (isinstance(node.type, ast.Name)
                    and node.type.id in _BROAD_EXCEPTIONS):
                broad = f"except {node.type.id}"
            else:
                continue
            findings.append(Finding(
                path=module.rel_path, line=node.lineno,
                col=node.col_offset, rule="API006",
                checker=self.name,
                message=(
                    f"{broad} swallows arbitrary failures; narrow the "
                    f"exception type or justify with "
                    f"`# ciaolint: allow[API006] -- reason`"
                ),
            ))
        return findings

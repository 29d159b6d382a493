"""ciaolint: AST-based project-invariant checks + runtime lock sanitizer.

Static half: ``python -m repro.analysis src`` runs five checkers
(lock-discipline, yield-under-lock, protocol-bounds, api-hygiene,
determinism) over the tree and exits non-zero on findings.  See
``README.md`` in this package for the annotation conventions and how to
add a checker.

Runtime half: :func:`make_lock`/:func:`make_rlock`/:func:`make_condition`
return plain :mod:`threading` primitives normally and order-recording
wrappers when ``CIAO_LOCKSAN=1`` — the observed acquisition orders are
checked against the static lock graph at test-session teardown.
"""

from .. import _lazy

__all__ = [
    "AnalysisResult",
    "Checker",
    "Finding",
    "LockGraph",
    "LockOrderError",
    "Project",
    "all_checkers",
    "build_lock_graph",
    "build_lock_graph_from_paths",
    "guarded_by",
    "main",
    "make_condition",
    "make_lock",
    "make_rlock",
    "register",
    "run_analysis",
    "verify_consistent",
]

__getattr__, __dir__ = _lazy.lazy_exports(__name__, {
    ".annotations": ("guarded_by",),
    # all_checkers is taken through cli, whose import registers them.
    ".cli": ("AnalysisResult", "all_checkers", "main", "run_analysis"),
    ".findings": ("Finding",),
    ".lockgraph": (
        "LockGraph", "build_lock_graph", "build_lock_graph_from_paths"),
    ".model": ("Project",),
    ".registry": ("Checker", "register"),
    ".sanitizer": (
        "LockOrderError", "make_condition", "make_lock", "make_rlock",
        "verify_consistent"),
})

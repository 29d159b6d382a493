"""Workload-adaptive compaction of sealed Parquet-lite parts.

Streaming seals and fleet ingest deliberately produce many small sealed
parts; every part is a scan unit and a snapshot-cache key, so part
count is a direct query-latency tax.  This package merges small sealed
parts into large ones and — guided by the query log — re-clusters rows
by the hot predicate columns so the rebuilt zone maps prune, with a
ski-rental regret guard that keeps a shifting workload from thrashing
the layout (see :mod:`repro.compact.policy`).

Entry points: pass ``compaction=CompactionConfig(...)`` (or ``True``)
to :class:`repro.api.CiaoSession` for the background worker, or drive
:class:`Compactor.run_once` / :func:`rewrite_parts` directly.
"""

from .. import _lazy

__all__ = [
    "CompactionConfig",
    "CompactionPlan",
    "CompactionPolicy",
    "Compactor",
    "RewriteStats",
    "resolve_compaction",
    "rewrite_parts",
]

__getattr__, __dir__ = _lazy.lazy_exports(__name__, {
    ".compactor": ("Compactor",),
    ".policy": (
        "CompactionConfig", "CompactionPlan", "CompactionPolicy",
        "resolve_compaction"),
    ".rewrite": ("RewriteStats", "rewrite_parts"),
})

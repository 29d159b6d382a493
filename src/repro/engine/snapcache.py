"""Incremental snapshot aggregation: reuse partial aggregates across
mid-load snapshots.

Sealed Parquet parts are immutable (footer-written before they are ever
published), so during a streaming load the answer an aggregate query gets
from one part can never change — only the *set* of parts (and the
sideline watermark) grows between snapshots.  This module exploits that:
per-part partial aggregates are cached under ``(query fingerprint,
part identity)``, and a repeated mid-load aggregate query scans **only the
parts sealed since it last ran** plus the live sideline delta, then
merges cached and fresh partials.

The fold is an operator of the table's prepared plan,
:class:`SnapshotAggregate`, so a live aggregate is planned once per view
like any statement; the partials live in the table's
:class:`SnapshotAggCache`.

Soundness does not depend on the plan: the residual WHERE filter runs
inside every per-part scan, so a cached partial is the *exact* aggregate
of the part's qualifying rows regardless of which predicates were pushed
down when it was computed (bit-vector skipping and zone maps only ever
skip non-qualifying rows).  The fingerprint therefore covers just the
query semantics — select items, WHERE text, GROUP BY — not the pushdown
state, and survives mid-load ``update_plan`` replans.

Determinism: parts are always folded in catalog part order (then the
sideline), exactly the order a cold ``ChainScan`` visits them, so merged
group ordering — and float accumulation per part — is identical whether
a partial came from the cache or a fresh scan.  A cold run (every part
a miss) and a warm one are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from ..analysis.sanitizer import make_lock
from .batch import ColumnBatch
from .operators import (
    Aggregate,
    ExecutionStats,
    Filter,
    Operator,
    _AggState,
    accumulate_grouped,
    accumulate_simple,
    finalize_grouped,
    merge_states,
)
from .sql import ParsedQuery

__all__ = ["SNAPSHOT_FINGERPRINTS_CAP", "SnapshotAggCache",
           "SnapshotAggregate", "query_fingerprint"]

#: Distinct query fingerprints a snapshot cache keeps partials for; past
#: it the oldest fingerprint's partials are dropped.
SNAPSHOT_FINGERPRINTS_CAP = 256


def query_fingerprint(parsed: ParsedQuery) -> str:
    """Canonical key for a query's aggregate semantics.

    LIMIT is excluded on purpose: aggregation consumes the whole input
    either way, so the limit is applied to the merged output and partials
    stay reusable across differently-limited renderings.
    """
    select = ",".join(
        f"{item.aggregate or ''}:{item.column}" for item in parsed.select
    )
    where = parsed.where.sql() if parsed.where is not None else ""
    group = ",".join(parsed.group_by)
    return f"{parsed.table}|{select}|{where}|{group}"


@dataclass
class _PartPartial:
    """One sealed part's contribution to one query fingerprint.

    ``simple`` for global aggregates; ``order``/``groups`` for GROUP BY.
    States are owned by the cache and must never be mutated by merges.
    """

    simple: Optional[List[_AggState]] = None
    order: List[tuple] = field(default_factory=list)
    groups: Dict[tuple, List[_AggState]] = field(default_factory=dict)


class SnapshotAggCache:
    """Query fingerprint → part path → partial aggregate, for at most
    :data:`SNAPSHOT_FINGERPRINTS_CAP` fingerprints, oldest dropped first
    (fingerprints are kept in insertion order)."""

    def __init__(self) -> None:
        self._lock = make_lock("SnapshotAggCache._lock")
        self._partials: Dict[str, Dict[str, _PartPartial]] = {}  # guarded-by: _lock

    def __len__(self) -> int:
        with self._lock:
            return sum(len(parts) for parts in self._partials.values())

    def get(self, part: str, fingerprint: str) -> Optional[_PartPartial]:
        # A lookup takes no lock: a dict read is atomic and a partial,
        # once kept, never changes.
        return self._partials.get(fingerprint, {}).get(part)

    def put(self, part: str, fingerprint: str,
            partial: _PartPartial) -> None:
        with self._lock:
            parts = self._partials.get(fingerprint)
            if parts is None:
                if len(self._partials) >= SNAPSHOT_FINGERPRINTS_CAP:
                    self._partials.pop(next(iter(self._partials)))
                parts = self._partials[fingerprint] = {}
            parts[part] = partial

    def clear(self) -> None:
        """Drop every cached partial (cold-scan baseline for benches)."""
        with self._lock:
            self._partials.clear()

    def retain_parts(self, parts: Iterable[str]) -> None:
        """Drop partials for parts no longer in the view's part list
        (sealed parts only accumulate, but a committed compaction
        replaces its inputs)."""
        keep = set(parts)
        with self._lock:
            for kept in self._partials.values():
                for part in [p for p in kept if p not in keep]:
                    del kept[part]


class SnapshotAggregate(Operator):
    """An aggregate over a live view, merged from per-part partials.

    *parts* are ``(part path, scan)`` pairs in catalog order.  Each run
    takes each part's partial from *cache*, folding and keeping the
    missing ones, folds the *sideline* scan (if any) afresh, and yields
    the merged rows as one row-backed batch.
    """

    def __init__(self, parsed: ParsedQuery,
                 parts: Sequence[Tuple[str, Operator]],
                 sideline: Optional[Operator], cache: SnapshotAggCache):
        self._parsed = parsed
        self._parts = list(parts)
        self._sideline = sideline
        self._cache = cache
        self._fingerprint = query_fingerprint(parsed)
        self._agg_items = [item for item in parsed.select
                           if item.aggregate is not None]

    def batches(self, stats: ExecutionStats) -> Iterator[ColumnBatch]:
        cache, fingerprint = self._cache, self._fingerprint
        partials: List[_PartPartial] = []
        for part, scan in self._parts:
            partial = cache.get(part, fingerprint)
            if partial is None:
                partial = self._fold(scan, stats)
                cache.put(part, fingerprint, partial)
                stats.snapshot_cache_misses += 1
            else:
                stats.snapshot_cache_hits += 1
            partials.append(partial)
        # The sideline's partial is recomputed each time (its watermark
        # moves with every snapshot), but its records are parsed once:
        # the table's sideline cache keeps each shard file's parsed
        # prefix, so this scan parses only the delta.  Pushdown-matched
        # queries have no sideline scan (a sidelined record is invalid
        # for the matched predicate).
        if self._sideline is not None:
            partials.append(self._fold(self._sideline, stats))
        # A MIN/MAX (or group key) may be a value of a cached record or
        # partial: ``run_plan`` copies row-backed rows.
        rows = self._merge(partials)
        if rows:
            yield ColumnBatch.from_rows(rows)

    def _fold(self, scan: Operator, stats: ExecutionStats) -> _PartPartial:
        parsed = self._parsed
        plan = scan if parsed.where is None else Filter(scan, parsed.where)
        batches = plan.batches(stats)
        if parsed.group_by:
            order, groups = accumulate_grouped(parsed.group_by,
                                               self._agg_items, batches)
            return _PartPartial(order=order, groups=groups)
        return _PartPartial(simple=accumulate_simple(self._agg_items,
                                                     batches))

    def _merge(self, partials: List[_PartPartial]) -> List[Dict[str, Any]]:
        parsed, agg_items = self._parsed, self._agg_items
        if parsed.group_by:
            order: List[tuple] = []
            groups: Dict[tuple, List[_AggState]] = {}
            for partial in partials:
                for key in partial.order:
                    into = groups.get(key)
                    if into is None:
                        into = [_AggState() for _ in agg_items]
                        groups[key] = into
                        order.append(key)
                    for dst, src in zip(into, partial.groups[key]):
                        merge_states(dst, src)
            return finalize_grouped(parsed.select, list(parsed.group_by),
                                    order, groups)
        merged = [_AggState() for _ in agg_items]
        for partial in partials:
            for dst, src in zip(merged, partial.simple):
                merge_states(dst, src)
        return [{item.label: Aggregate._finalize(item.aggregate, state)
                 for item, state in zip(agg_items, merged)}]

    def describe(self) -> str:
        labels = ", ".join(item.label for item in self._parsed.select)
        scans = [scan for _, scan in self._parts]
        if self._sideline is not None:
            scans.append(self._sideline)
        return (f"SnapshotAggregate({labels}) <- "
                + " + ".join(scan.describe() for scan in scans))

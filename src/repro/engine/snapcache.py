"""Incremental snapshot-scan cache: reuse partial aggregates across
mid-load snapshots.

Sealed Parquet parts are immutable (footer-written before they are ever
published), so during a streaming load the answer an aggregate query gets
from one part can never change — only the *set* of parts (and the
sideline watermark) grows between snapshots.  This module exploits that:
per-part partial aggregates are cached under ``(part identity, query
fingerprint)``, and a repeated mid-load aggregate query scans **only the
parts sealed since it last ran** plus the live sideline delta, then
merges cached and fresh partials.

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
a partial came from the cache or a fresh scan.  A cold run through this
module (every part a miss) and a warm one are byte-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

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
from .planner import plan_scans
from .sql import ParsedQuery

__all__ = ["SnapshotAggCache", "execute_snapshot_aggregate",
           "query_fingerprint"]


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
    """(part path, query fingerprint) → partial aggregate."""

    def __init__(self) -> None:
        self._partials: Dict[Tuple[str, str], _PartPartial] = {}
        #: Cumulative accounting across the cache's lifetime.
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._partials)

    def get(self, part: str, fingerprint: str) -> Optional[_PartPartial]:
        return self._partials.get((part, fingerprint))

    def put(self, part: str, fingerprint: str,
            partial: _PartPartial) -> None:
        self._partials[(part, fingerprint)] = partial

    def clear(self) -> None:
        """Drop every cached partial (cold-scan baseline for benches)."""
        self._partials.clear()

    def retain_parts(self, parts: Iterable[str]) -> None:
        """Drop partials for parts no longer in the view's part list
        (sealed parts only accumulate, but a committed compaction
        replaces its inputs)."""
        keep = set(parts)
        stale = [key for key in self._partials if key[0] not in keep]
        for key in stale:
            del self._partials[key]


# ----------------------------------------------------------------------
# Incremental execution
# ----------------------------------------------------------------------
def execute_snapshot_aggregate(parsed: ParsedQuery, table,
                               cache: SnapshotAggCache) -> "QueryResult":
    """Answer an aggregate query against a live table view, scanning
    only parts whose partials are not yet cached (plus the sideline).

    The table's view must be ``live`` and *parsed* must aggregate
    (``parsed.is_aggregate``); the executor routes accordingly.
    """
    # deferred: executor imports us
    from .executor import QueryResult, _detach

    # The same scans (and PlanInfo) a cold plan_query would chain, run
    # one part at a time.
    parts, sideline, info = plan_scans(parsed, table)
    fingerprint = query_fingerprint(parsed)
    agg_items = [i for i in parsed.select if i.aggregate is not None]
    grouped = bool(parsed.group_by)

    stats = ExecutionStats()
    start = time.perf_counter()
    partials: List[_PartPartial] = []
    for reader, scan in parts:
        key = str(reader.path)
        partial = cache.get(key, fingerprint)
        if partial is None:
            partial = _accumulate_partial(scan, parsed, agg_items,
                                          grouped, stats)
            cache.put(key, fingerprint, partial)
            cache.misses += 1
            info.snapshot_cache_misses += 1
        else:
            cache.hits += 1
            info.snapshot_cache_hits += 1
        partials.append(partial)

    # The sideline's partial is recomputed each time (its watermark moves
    # with every snapshot), but its records are parsed once: the table's
    # sideline cache keeps each shard file's parsed prefix, so this scan
    # parses only the delta.  Pushdown-matched queries skip it entirely
    # (a sidelined record is invalid for the matched predicate).
    if sideline is not None:
        partials.append(_accumulate_partial(sideline, parsed, agg_items,
                                            grouped, stats))

    rows = _merge_partials(parsed, agg_items, grouped, partials)
    if parsed.limit is not None:
        rows = rows[:parsed.limit]
    # A MIN/MAX (or group key) may be a value of a cached sideline
    # record, or of a cached partial: callers get copies.
    rows = [_detach(row) for row in rows]
    elapsed = time.perf_counter() - start
    stats.rows_emitted = len(rows)
    scans = [scan for _, scan in parts] + \
        ([sideline] if sideline is not None else [])
    info.description = (
        f"SnapshotAggCache(hits={info.snapshot_cache_hits}, "
        f"misses={info.snapshot_cache_misses}) <- "
        + " + ".join(scan.describe() for scan in scans)
    )
    return QueryResult(rows=rows, stats=stats, plan_info=info,
                       wall_seconds=elapsed)


def _accumulate_partial(scan: Operator, parsed: ParsedQuery,
                        agg_items, grouped: bool,
                        stats: ExecutionStats) -> _PartPartial:
    plan: Operator = scan
    if parsed.where is not None:
        plan = Filter(plan, parsed.where)
    batches = plan.batches(stats)
    if grouped:
        order, groups = accumulate_grouped(parsed.group_by, agg_items,
                                           batches)
        return _PartPartial(order=order, groups=groups)
    return _PartPartial(simple=accumulate_simple(agg_items, batches))


def _merge_partials(parsed: ParsedQuery, agg_items, grouped: bool,
                    partials: List[_PartPartial]) -> List[Dict[str, Any]]:
    if grouped:
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
    row: Dict[str, Any] = {}
    for item, state in zip(agg_items, merged):
        row[item.label] = Aggregate._finalize(item.aggregate, state)
    return [row]

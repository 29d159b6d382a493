"""Compaction policy: what to merge, and when re-clustering pays.

Two decisions, two mechanisms:

* **What to merge** is size-tiered: sealed parts below
  ``small_part_bytes`` (or within ``tier_ratio`` of the tier's smallest
  part) are merge candidates, and any ``min_inputs``-or-more of them
  merge unconditionally — fewer parts is a pure win, since every part is
  a scan unit and a snapshot-cache key.
* **Whether to re-cluster** (sort the merged rows by a hot predicate
  column so the rebuilt zone maps prune) is guarded by a ski-rental
  budget, following *Dynamic Data Layout Optimization with Worst-case
  Guarantees* (PAPERS.md): every query that filters on a column deposits
  *credit* equal to the row groups it actually had to decode — the work
  clustering could have avoided — and a re-cluster on that column is
  allowed only once its credit covers ``rewrite_cost_factor ×`` the row
  groups being rewritten.  Committing a plan spends the credit.  Total
  rewrite work is therefore bounded by total observed scan work, so a
  shifting workload can at most double the cost of never reorganizing —
  it cannot thrash.

The policy is pure bookkeeping plus footer reads; it never rewrites
anything itself (the :class:`~repro.compact.compactor.Compactor` does)
and holds its lock only around its own counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..analysis.sanitizer import make_lock
from ..obs.querylog import QueryLogRecord
from ..storage.columnar import ParquetLiteReader
from ..storage.rowgroup import ROW_GROUP_ROWS


@dataclass(frozen=True)
class CompactionConfig:
    """Knobs for the policy and the background worker.

    Defaults are deliberately conservative: merge eagerly (cheap, always
    a win), re-cluster only after ``min_observations`` logged queries
    have deposited enough credit to pay for the rewrite.
    """

    #: Fewest small parts worth one merge (below this, leave them be).
    min_inputs: int = 2
    #: Most parts folded into a single rewrite (bounds rewrite latency).
    max_inputs: int = 16
    #: Parts no larger than this many bytes are always merge candidates.
    small_part_bytes: int = 1 << 20
    #: A part within this factor of the tier's smallest part joins it.
    tier_ratio: float = 8.0
    #: Output row-group size for rewritten parts.
    row_group_rows: int = ROW_GROUP_ROWS
    #: Re-cluster cost multiplier: credit (row groups decoded by queries
    #: on the column) must reach ``factor × input row groups`` first.
    rewrite_cost_factor: float = 1.0
    #: Queries observed before re-clustering is considered at all.
    min_observations: int = 4
    #: Background worker poll interval, seconds.
    poll_interval: float = 0.05
    #: Delete input part files after a committed swap.  Off by default:
    #: readers opened before the swap may still be scanning them.
    remove_inputs: bool = False

    def __post_init__(self) -> None:
        if self.min_inputs < 2:
            raise ValueError(
                f"min_inputs must be >= 2, got {self.min_inputs}"
            )
        if self.max_inputs < self.min_inputs:
            raise ValueError(
                f"max_inputs must be >= min_inputs, got {self.max_inputs}"
            )
        if self.small_part_bytes <= 0:
            raise ValueError(
                f"small_part_bytes must be positive, "
                f"got {self.small_part_bytes}"
            )
        if self.tier_ratio < 1.0:
            raise ValueError(
                f"tier_ratio must be >= 1.0, got {self.tier_ratio}"
            )
        if self.row_group_rows <= 0:
            raise ValueError(
                f"row_group_rows must be positive, "
                f"got {self.row_group_rows}"
            )
        if self.rewrite_cost_factor <= 0:
            raise ValueError(
                f"rewrite_cost_factor must be positive, "
                f"got {self.rewrite_cost_factor}"
            )
        if self.min_observations < 0:
            raise ValueError(
                f"min_observations must be >= 0, "
                f"got {self.min_observations}"
            )
        if self.poll_interval <= 0:
            raise ValueError(
                f"poll_interval must be positive, got {self.poll_interval}"
            )


def resolve_compaction(value) -> Optional[CompactionConfig]:
    """Normalize a session's ``compaction=`` argument.

    ``None``/``False`` → disabled; ``True`` → default config; a
    :class:`CompactionConfig` passes through.
    """
    if value is None or value is False:
        return None
    if value is True:
        return CompactionConfig()
    if isinstance(value, CompactionConfig):
        return value
    raise TypeError(
        f"compaction must be a CompactionConfig, True, False or None; "
        f"got {type(value).__name__}"
    )


@dataclass(frozen=True)
class CompactionPlan:
    """One decided rewrite: which parts, and an optional sort column."""

    inputs: Tuple[Path, ...]
    cluster_by: Optional[str]
    #: Row groups across the inputs — the rewrite's cost unit.
    input_row_groups: int


class CompactionPolicy:
    """Size-tiered selection plus the credit-based re-cluster guard."""

    def __init__(self, config: Optional[CompactionConfig] = None):
        self.config = config or CompactionConfig()
        self._lock = make_lock("CompactionPolicy._lock")
        #: Column → accumulated row-group credit.  # guarded-by: _lock
        self._credit: Dict[str, float] = {}
        self._observed = 0  # guarded-by: _lock
        self._spent = 0.0  # guarded-by: _lock

    # ------------------------------------------------------------------
    # Workload observation
    # ------------------------------------------------------------------
    def observe(self, records: Iterable[QueryLogRecord]) -> None:
        """Fold query-log records into per-column credit.

        A query deposits, on each column it filters by, the number of
        row groups it actually decoded (scanned minus zone-pruned) —
        the upper bound on what clustering by that column could save.
        """
        deposits: List[Tuple[Tuple[str, ...], int]] = []
        for record in records:
            if not record.predicate_columns:
                continue
            decoded = max(
                0, record.row_groups_scanned - record.row_groups_pruned
            )
            deposits.append((record.predicate_columns, decoded))
        if not deposits:
            return
        with self._lock:
            for columns, decoded in deposits:
                self._observed += 1
                for column in columns:
                    try:
                        self._credit[column] += decoded
                    except KeyError:
                        self._credit[column] = float(decoded)

    # ------------------------------------------------------------------
    # Decision
    # ------------------------------------------------------------------
    def propose(self, parts: Sequence[Path | str],
                hot_columns: Sequence[Tuple[str, float]] = (),
                current_cluster: Optional[str] = None,
                ) -> Optional[CompactionPlan]:
        """Decide one rewrite over the current sealed *parts*, or None.

        *hot_columns* is the query log's ranked
        :meth:`~repro.obs.querylog.QueryLog.hot_columns` view; the
        policy re-clusters by the hottest column whose credit covers
        the rewrite budget.  Candidate parts are grouped by schema so a
        merge never widens column types (widening would coerce stored
        values and break byte-identity of answers).

        Two plan shapes come out.  A **merge** (several small parts into
        one) needs no guard — fewer scan units is a pure win — and
        picks up clustering opportunistically if the budget allows.  A
        **re-layout** (no merge win available, the workload shifted)
        rewrites the existing part set purely to re-sort it, so it is
        *only* proposed when the credit guard clears and the chosen
        column differs from *current_cluster* (what the parts are
        already sorted by — re-sorting by it again saves nothing).
        """
        inputs = self._select_inputs(parts)
        relayout = not inputs
        if relayout:
            inputs = self._relayout_inputs(parts)
        if not inputs:
            return None
        input_row_groups = sum(groups for _, _, groups in inputs)
        paths = tuple(path for path, _, _ in inputs)
        cluster_by = self._choose_cluster(
            hot_columns, input_row_groups,
            exclude=current_cluster if relayout else None,
        )
        if relayout and cluster_by is None:
            return None
        return CompactionPlan(
            inputs=paths,
            cluster_by=cluster_by,
            input_row_groups=input_row_groups,
        )

    def committed(self, plan: CompactionPlan) -> None:
        """Record that *plan* was applied; spends re-cluster credit."""
        if plan.cluster_by is None:
            return
        cost = self.config.rewrite_cost_factor * plan.input_row_groups
        with self._lock:
            self._spent += cost
            try:
                remaining = self._credit[plan.cluster_by] - cost
            except KeyError:
                remaining = 0.0
            self._credit[plan.cluster_by] = max(0.0, remaining)

    def stats(self) -> Dict[str, object]:
        """Credit ledger snapshot (for STATS and tests)."""
        with self._lock:
            credit = dict(self._credit)
            observed = self._observed
            spent = self._spent
        return {
            "observed_queries": observed,
            "credit": credit,
            "spent": spent,
        }

    # ------------------------------------------------------------------
    def _select_inputs(self, parts: Sequence[Path | str]
                       ) -> List[Tuple[Path, int, int]]:
        """The small-part tier to merge: [(path, bytes, row_groups)].

        Groups candidates by schema signature first — see
        :meth:`propose` — then picks the largest same-schema tier of
        small parts, smallest files first, capped at ``max_inputs``.
        """
        config = self.config
        by_schema: Dict[Tuple, List[Tuple[Path, int, int]]] = {}
        for signature, entry in self._part_stats(parts):
            by_schema.setdefault(signature, []).append(entry)
        best: List[Tuple[Path, int, int]] = []
        for candidates in by_schema.values():
            candidates.sort(key=lambda entry: (entry[1], str(entry[0])))
            smallest = candidates[0][1] if candidates else 0
            ceiling = max(
                config.small_part_bytes,
                int(smallest * config.tier_ratio),
            )
            tier = [
                entry for entry in candidates if entry[1] <= ceiling
            ][:config.max_inputs]
            if len(tier) >= config.min_inputs and len(tier) > len(best):
                best = tier
        return best

    def _relayout_inputs(self, parts: Sequence[Path | str]
                         ) -> List[Tuple[Path, int, int]]:
        """The largest same-schema part set, for a pure re-sort.

        Unlike the merge tier this accepts a single part and ignores
        size: the win comes from the new row order, not from fewer
        parts, and the credit guard (not size) decides whether that win
        is worth the rewrite.
        """
        stats = self._part_stats(parts)
        by_schema: Dict[Tuple, List[Tuple[Path, int, int]]] = {}
        for signature, entry in stats:
            by_schema.setdefault(signature, []).append(entry)
        best: List[Tuple[Path, int, int]] = []
        for candidates in by_schema.values():
            candidates.sort(key=lambda entry: (entry[1], str(entry[0])))
            tier = candidates[:self.config.max_inputs]
            if len(tier) > len(best):
                best = tier
        return best

    def _part_stats(self, parts: Sequence[Path | str]
                    ) -> List[Tuple[Tuple, Tuple[Path, int, int]]]:
        """(schema signature, (path, bytes, row groups)) per live part."""
        out: List[Tuple[Tuple, Tuple[Path, int, int]]] = []
        for part in parts:
            path = Path(part)
            if not path.exists():
                continue
            size = path.stat().st_size
            try:
                reader = ParquetLiteReader(path)
            except (OSError, ValueError):
                continue  # not sealed yet / mid-replace; skip this round
            try:
                signature = tuple(
                    (field.name, field.type.value)
                    for field in reader.schema
                )
                groups = len(reader.meta.row_groups)
            finally:
                reader.close()
            out.append((signature, (path, size, groups)))
        return out

    def _choose_cluster(self, hot_columns: Sequence[Tuple[str, float]],
                        input_row_groups: int,
                        exclude: Optional[str] = None) -> Optional[str]:
        cost = self.config.rewrite_cost_factor * input_row_groups
        with self._lock:
            if self._observed < self.config.min_observations:
                return None
            for column, _weight in hot_columns:
                if column == exclude:
                    continue
                try:
                    credit = self._credit[column]
                except KeyError:
                    continue
                if credit >= cost:
                    return column
        return None

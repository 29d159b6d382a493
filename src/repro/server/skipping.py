"""Data-skipping analysis utilities (paper §VI-B).

The skipping *mechanism* lives in the engine's
:class:`~repro.engine.operators.SkippingScan`; this module provides the
measurement side used by experiments: given a loaded table and a query, how
many tuples and row groups would bit-vector intersection eliminate?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..bitvec.bitvector import set_bits
from ..core.predicates import Query
from ..engine.catalog import TableEntry


@dataclass(frozen=True)
class SkippingEstimate:
    """Predicted effect of data skipping for one query on one table."""

    predicate_ids: List[int]
    total_rows: int
    surviving_rows: int
    row_groups: int
    skippable_row_groups: int

    @property
    def tuples_skipped(self) -> int:
        """Rows eliminated before materialization."""
        return self.total_rows - self.surviving_rows

    @property
    def skip_fraction(self) -> float:
        """Fraction of stored tuples skipped."""
        if self.total_rows == 0:
            return 0.0
        return self.tuples_skipped / self.total_rows

    @property
    def benefits(self) -> bool:
        """True if skipping removes at least one tuple (Fig. 6's metric)."""
        return self.predicate_ids != [] and self.tuples_skipped > 0


def query_predicate_ids(query: Query, table: TableEntry) -> List[int]:
    """Pushed-down predicate ids among *query*'s clauses."""
    ids = [
        table.pushdown[c] for c in query.clauses if c in table.pushdown
    ]
    return sorted(set(ids))


def estimate_skipping(query: Query, table: TableEntry) -> SkippingEstimate:
    """Predict skipping effectiveness without executing the query.

    Counts what a :class:`~repro.engine.operators.SkippingScan` without a
    zone-map hook would skip: every group outside the reader's
    :meth:`~repro.storage.columnar.ParquetLiteReader.candidate_groups`,
    and within a candidate the rows outside its
    :meth:`~repro.storage.metadata.RowGroupMeta.survivor_mask`.
    """
    ids = query_predicate_ids(query, table)
    total = 0
    surviving = 0
    groups = 0
    skippable = 0
    for reader in table.open_readers():
        groups += len(reader)
        total += reader.total_rows
        if not ids:
            surviving += reader.total_rows
            continue
        candidates = list(set_bits(reader.candidate_groups(ids)))
        skippable += len(reader) - len(candidates)
        for index in candidates:
            meta = reader.meta.row_groups[index]
            mask = meta.survivor_mask(ids)
            alive = meta.row_count if mask is None else mask.count()
            surviving += alive
            if not alive:
                skippable += 1
    return SkippingEstimate(
        predicate_ids=ids,
        total_rows=total,
        surviving_rows=surviving,
        row_groups=groups,
        skippable_row_groups=skippable,
    )


def skipping_benefit_fractions(queries: Sequence[Query],
                               table: TableEntry) -> Dict[str, float]:
    """Fig. 6's statistic: fraction of queries that benefit from skipping.

    Returns a dict with the benefiting fraction and supporting counts.
    """
    benefiting = 0
    covered = 0
    for query in queries:
        estimate = estimate_skipping(query, table)
        if estimate.predicate_ids:
            covered += 1
        if estimate.benefits:
            benefiting += 1
    n = len(queries)
    return {
        "queries": float(n),
        "covered_fraction": covered / n if n else 0.0,
        "benefiting_fraction": benefiting / n if n else 0.0,
    }

"""Test helpers for driving engine operators directly.

Operators only produce columnar batches; these helpers spill them into
dict rows and feed in-memory rows in, so unit tests can assert on rows.
"""

from typing import Any, Dict, Iterator, List, Optional

from repro.engine import ColumnBatch, ExecutionStats, Operator


def collect(op: Operator, stats: Optional[ExecutionStats] = None
         ) -> List[Dict[str, Any]]:
    """Run *op* to completion and return its selected rows."""
    stats = stats if stats is not None else ExecutionStats()
    return [row for batch in op.batches(stats) for row in batch.iter_rows()]


class ListScan(Operator):
    """Scan over in-memory rows, one single-row batch per row (so LIMIT's
    early termination shows row by row in ``rows_examined``)."""

    def __init__(self, rows: List[Dict[str, Any]]):
        self._rows = rows

    def batches(self, stats: ExecutionStats) -> Iterator[ColumnBatch]:
        for row in self._rows:
            stats.rows_examined += 1
            yield ColumnBatch.from_rows([row])

    def describe(self) -> str:
        return "ListScan"

"""Columnar batches: the unit of exchange between batch operators.

A :class:`ColumnBatch` is a set of equal-length column value lists plus a
word-level :class:`~repro.bitvec.bitvector.BitVector` **selection vector**
(``sel``): bit ``i`` set means row ``i`` is live.  Operators narrow the
selection with ``intersect_update`` instead of materializing row dicts, so
a filter over a 100k-row batch is one list comprehension and one big-int
AND rather than 100k dict constructions.

Two backings exist:

* **column-backed** (:meth:`ColumnBatch.from_columns`): decoded Parquet
  pages, shared by reference from the row-group reader's cache.
* **row-backed** (:meth:`ColumnBatch.from_rows`): parsed sideline records
  and aggregate outputs.  A column is fetched on first access, once
  per batch, by the batch's *pull*: a sideline batch asks the table's
  :class:`~repro.engine.catalog.SidelineCache`, which keeps each column
  it pulled from a file's parsed records, so later queries take it
  without touching a record; any other row-backed batch pulls from its
  own rows.  With no projection applied, :meth:`iter_rows` yields the
  *original* dicts, preserving the ragged-key fidelity of raw JSON
  records (a sideline row only carries the keys it actually had).

:meth:`iter_rows` spills a batch's selected rows as dicts; the executor
calls it once per result batch, at the result boundary.
"""

from __future__ import annotations

from functools import partial
from typing import (
    Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence,
)

from ..bitvec.bitvector import BitVector
from ..storage.schema import column_values

__all__ = ["BatchRowView", "ColumnBatch"]


class BatchRowView:
    """Zero-copy row cursor into a batch.

    Duck-types the one Mapping method expressions use (``get``) without
    materializing a dict per row; reposition by assigning ``index``.
    Shared by the generic ``Expr.evaluate_batch`` fallback and the
    sparse-selection residual filter.
    """

    __slots__ = ("_batch", "index")

    def __init__(self, batch: "ColumnBatch") -> None:
        self._batch = batch
        self.index = 0

    def get(self, key: str, default: Any = None) -> Any:
        value = self._batch.column(key)[self.index]
        return default if value is None else value


class ColumnBatch:
    """Equal-length column lists + a selection vector over their rows."""

    __slots__ = ("_columns", "_rows", "_pull", "num_rows", "sel", "names")

    def __init__(self, columns: Dict[str, List[Any]], num_rows: int,
                 sel: Optional[BitVector] = None,
                 names: Optional[Sequence[str]] = None,
                 rows: Optional[List[Mapping[str, Any]]] = None,
                 pull: Optional[Callable[[str], List[Any]]] = None):
        self._columns = columns
        self._rows = rows
        self._pull = pull
        self.num_rows = num_rows
        self.sel = sel if sel is not None else BitVector.ones(num_rows)
        if len(self.sel) != num_rows:
            raise ValueError(
                f"selection vector covers {len(self.sel)} bits for "
                f"{num_rows} rows"
            )
        #: Materialization column order; ``None`` on row-backed batches
        #: with no projection (original dicts pass through untouched).
        self.names = list(names) if names is not None else None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(cls, columns: Dict[str, List[Any]], num_rows: int,
                     names: Optional[Sequence[str]] = None,
                     sel: Optional[BitVector] = None) -> "ColumnBatch":
        """Batch over already-decoded column lists (the scan fast path)."""
        if names is None:
            names = list(columns)
        return cls(columns, num_rows, sel=sel, names=names)

    @classmethod
    def from_rows(cls, rows: List[Mapping[str, Any]],
                  names: Optional[Sequence[str]] = None,
                  pull: Optional[Callable[[str], List[Any]]] = None
                  ) -> "ColumnBatch":
        """Batch over row dicts; a column is fetched on first access by
        *pull* (name → values of *rows*), or pulled from *rows*."""
        rows = list(rows)
        return cls({}, len(rows), names=names, rows=rows,
                   pull=pull or partial(column_values, rows))

    # ------------------------------------------------------------------
    # Column access
    # ------------------------------------------------------------------
    def column(self, name: str) -> List[Any]:
        """The full value list for *name* (all rows, selected or not).

        Missing columns read as all nulls, mirroring
        :meth:`repro.storage.rowgroup.RowGroupReader.column`; the list is
        cached so repeated expression references fetch it once.
        """
        values = self._columns.get(name)
        if values is None:
            if self._pull is not None:
                values = self._pull(name)
            else:
                values = [None] * self.num_rows
            self._columns[name] = values
        return values

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def selected_count(self) -> int:
        """Live rows (selection-vector popcount; never a Python loop)."""
        return self.sel.count()

    def apply_mask(self, mask: BitVector) -> None:
        """Narrow the selection in place (word-level AND)."""
        self.sel.intersect_update(mask)

    def truncate_selected(self, n: int) -> "ColumnBatch":
        """Copy of this batch keeping only the first *n* selected rows."""
        indices = []
        for index in self.sel.iter_set():
            if len(indices) >= n:
                break
            indices.append(index)
        out = ColumnBatch(
            self._columns, self.num_rows,
            sel=BitVector.from_indices(self.num_rows, indices),
            names=self.names, rows=self._rows, pull=self._pull,
        )
        return out

    def project(self, names: Sequence[str]) -> "ColumnBatch":
        """Restrict materialization to *names* (shares column storage)."""
        return ColumnBatch(self._columns, self.num_rows, sel=self.sel,
                           names=names, rows=self._rows, pull=self._pull)

    @property
    def row_backed(self) -> bool:
        """True when rows are materialized from source dicts, which an
        unprojected batch yields as they are."""
        return self._rows is not None

    def row_view(self) -> BatchRowView:
        """A repositionable Mapping-like cursor over this batch's rows."""
        return BatchRowView(self)

    # ------------------------------------------------------------------
    # Row materialization (the rows() compatibility adapter)
    # ------------------------------------------------------------------
    def iter_rows(self) -> Iterator[Dict[str, Any]]:
        """Yield the selected rows as dicts, in row order.

        Column-backed (or projected) batches build ``{name: value}``
        dicts in ``names`` order; an unprojected row-backed batch yields
        its original dicts so raw-record key sets survive untouched.
        """
        sel = self.sel
        if self.names is None:
            rows = self._rows if self._rows is not None else []
            if sel.all():
                yield from rows
            else:
                for index in sel.iter_set():
                    yield rows[index]
            return
        names = self.names
        columns = [self.column(name) for name in names]
        pairs = list(zip(names, columns))
        if sel.all():
            for index in range(self.num_rows):
                yield {name: values[index] for name, values in pairs}
        else:
            for index in sel.iter_set():
                yield {name: values[index] for name, values in pairs}

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:
        backing = "rows" if self._rows is not None else "columns"
        return (
            f"ColumnBatch({backing}, rows={self.num_rows}, "
            f"selected={self.selected_count()})"
        )

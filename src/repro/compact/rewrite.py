"""Part rewrite: merge sealed Parquet-lite parts, optionally re-cluster.

The mechanical half of compaction.  :func:`rewrite_parts` reads every
row of the input parts **with its predicate bit-vector bits attached**,
optionally stable-sorts the rows by one cluster column, and writes one
output part in fixed-size row groups.  Zone maps are rebuilt for free —
:func:`repro.storage.rowgroup.build_row_group` computes per-column
min/max stats for whatever row order it is handed, which is exactly why
sorting by a hot predicate column makes
:func:`repro.engine.zonemaps.expr_prunes_group` effective.

Correctness rules the rewrite must preserve:

* **Row multiset.**  The output holds exactly the input rows (reordered
  iff *cluster_by*), so any query answer over the output equals the
  answer over the union of the inputs.
* **Bit-vector soundness.**  A stored vector bit of 1 means "may
  satisfy"; a row group with *no* vector for a predicate id is scanned
  fully.  Rows coming from a group that lacked a vector for some pid
  therefore carry a conservative 1 for that pid in the output — never a
  0, which could skip a matching row.
* **Crash atomicity.**  The output is written to ``<path>.tmp`` and
  moved into place with :func:`os.replace`; a rewrite that dies mid-way
  leaves no readable file at the output path, so the catalog (which only
  swaps after the rewrite returns) still points at the intact inputs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..bitvec.bitvector import BitVector
from ..rawjson.parser import loads
from ..storage.columnar import ParquetLiteReader, ParquetLiteWriter
from ..storage.rowgroup import ROW_GROUP_ROWS
from ..storage.schema import ColumnType, Schema, merge_schemas


@dataclass(frozen=True)
class RewriteStats:
    """What one :func:`rewrite_parts` call did."""

    inputs: int
    rows: int
    row_groups_in: int
    row_groups_out: int
    bytes_in: int
    bytes_out: int
    cluster_by: Optional[str]


def _sort_key(value: Any) -> Tuple[int, Any]:
    """Total order over one column's values: nulls first, then by type.

    Mixed-type columns (a widened schema, JSON columns) must not abort
    the rewrite with ``TypeError``; grouping by type name first keeps the
    sort total while still clustering equal values together, which is
    all zone maps need.
    """
    if value is None:
        return (0, "", "")
    if isinstance(value, bool):
        return (1, "bool", value)
    if isinstance(value, (int, float)):
        return (1, "number", value)
    return (1, type(value).__name__, repr(value))


def rewrite_parts(
    inputs: Sequence[Path | str],
    output_path: Path | str,
    cluster_by: Optional[str] = None,
    row_group_rows: int = ROW_GROUP_ROWS,
) -> RewriteStats:
    """Merge *inputs* into one part at *output_path*; see module docs.

    Returns the rewrite's :class:`RewriteStats`.  Raises ``ValueError``
    on an empty input list or empty inputs — sealed parts always hold at
    least one row, so there is never anything to compact away to zero.
    """
    if not inputs:
        raise ValueError("rewrite_parts needs at least one input part")
    if row_group_rows <= 0:
        raise ValueError(
            f"row_group_rows must be positive, got {row_group_rows}"
        )
    output_path = Path(output_path)
    readers = [ParquetLiteReader(p) for p in inputs]
    try:
        schema: Schema = reduce(
            merge_schemas, [r.schema for r in readers]
        )
        # Every predicate id stored anywhere in the inputs survives into
        # the output; ids missing from a group pad to conservative 1s.
        pids = sorted({
            pid
            for reader in readers
            for rg in reader.meta.row_groups
            for pid in rg.bitvectors
        })
        entries: List[Tuple[Dict[str, Any], Tuple[bool, ...]]] = []
        row_groups_in = 0
        for reader in readers:
            # JSON-typed columns read back as their serialized text;
            # writing that text through the schema would wrap it in
            # another layer of quoting.  Decode once here so the output
            # writer's own serialization restores the identical bytes.
            json_columns = [
                field.name for field in reader.schema.fields
                if field.type is ColumnType.JSON
            ]
            for group in reader.row_groups():
                row_groups_in += 1
                rows = group.rows()
                vectors = [
                    group.meta.bitvectors.get(pid) for pid in pids
                ]
                for position, row in enumerate(rows):
                    for name in json_columns:
                        if row[name] is not None:
                            row[name] = loads(row[name])
                    bits = tuple(
                        True if vector is None else vector[position]
                        for vector in vectors
                    )
                    entries.append((row, bits))
                group.clear_cache()
        if not entries:
            raise ValueError("input parts hold no rows")
        if cluster_by is not None:
            entries.sort(key=lambda entry: _sort_key(
                entry[0].get(cluster_by)
            ))
        tmp_path = output_path.parent / (output_path.name + ".tmp")
        writer = ParquetLiteWriter(tmp_path, schema)
        row_groups_out = 0
        try:
            for start in range(0, len(entries), row_group_rows):
                window = entries[start:start + row_group_rows]
                rows = [row for row, _ in window]
                bitvectors = {
                    pid: BitVector.from_bits(
                        [bits[i] for _, bits in window]
                    )
                    for i, pid in enumerate(pids)
                }
                writer.write_row_group(rows, bitvectors=bitvectors)
                row_groups_out += 1
            writer.close()
        except BaseException:  # ciaolint: allow[API006] -- cleanup only; re-raised below
            # Leave no readable file behind: a half-written temp must
            # never be mistaken for a sealed part.
            writer._file.close()
            tmp_path.unlink(missing_ok=True)
            raise
        os.replace(tmp_path, output_path)
    finally:
        for reader in readers:
            reader.close()
    bytes_in = sum(Path(p).stat().st_size for p in inputs)
    return RewriteStats(
        inputs=len(inputs),
        rows=len(entries),
        row_groups_in=row_groups_in,
        row_groups_out=row_groups_out,
        bytes_in=bytes_in,
        bytes_out=output_path.stat().st_size,
        cluster_by=cluster_by,
    )

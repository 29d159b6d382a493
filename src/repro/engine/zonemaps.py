"""Zone-map pruning: skip row groups using min/max column statistics.

An extension over the paper, implementing the classic data-skipping its
related work cites (Sun et al. [12]): Parquet-lite already records
per-row-group min/max/null-count per column, and for clustered columns
(log sequence numbers, timestamps) those statistics prove entire row
groups irrelevant to range and equality predicates — *including the
range/inequality predicates CIAO cannot push to clients*, so zone maps
complement bit-vector skipping rather than replace it.  A pushed query's
``SkippingScan`` consults them only on the row groups its bit vectors
leave (see :mod:`repro.engine.planner`); a ``ParquetScan`` consults them
on every row group.

The core is :func:`expr_prunes_group`: given a WHERE expression and a row
group's metadata, decide conservatively whether *no row in the group can
satisfy the expression*.  Conjunctions prune if any factor does,
disjunctions only if every arm does, and anything not understood never
prunes — soundness by construction.
"""

from __future__ import annotations

from typing import Any, Optional

from ..storage.metadata import RowGroupMeta
from ..storage.pages import PageStats
from .expressions import (
    And,
    Column,
    Comparison,
    Expr,
    IsNotNull,
    IsNull,
    LikeExpr,
    Literal,
    Not,
    Or,
)


def expr_prunes_group(expr: Expr, meta: RowGroupMeta) -> bool:
    """True iff the statistics prove no row of the group satisfies *expr*.

    Conservative: unknown expression shapes, missing columns, or missing
    statistics all return False (cannot prune).
    """
    if isinstance(expr, And):
        return any(expr_prunes_group(c, meta) for c in expr.children)
    if isinstance(expr, Or):
        return all(expr_prunes_group(c, meta) for c in expr.children)
    if isinstance(expr, Not):
        return False  # complement bounds are not tracked
    if isinstance(expr, Comparison):
        return _comparison_prunes(expr, meta)
    if isinstance(expr, LikeExpr):
        return _like_prunes(expr, meta)
    if isinstance(expr, IsNull):
        stats = _column_stats(expr.column, meta)
        return stats is not None and stats.null_count == 0
    if isinstance(expr, IsNotNull):
        stats = _column_stats(expr.column, meta)
        return stats is not None and stats.null_count == stats.row_count
    return False


def _column_stats(column: Expr, meta: RowGroupMeta) -> Optional[PageStats]:
    if not isinstance(column, Column):
        return None
    chunk = meta.columns.get(column.name)
    return chunk.stats if chunk is not None else None


def _comparable(value: Any, bound: Any) -> bool:
    """Are *value* and *bound* same-kind scalars the stats can bound?

    Bool is excluded: its min/max carry almost no pruning power and
    True/1 confusion is a correctness trap.
    """
    if isinstance(value, bool) or isinstance(bound, bool):
        return False
    if isinstance(value, str) and isinstance(bound, str):
        return True
    numeric = (int, float)
    return isinstance(value, numeric) and isinstance(bound, numeric)


def _comparison_prunes(expr: Comparison, meta: RowGroupMeta) -> bool:
    if not isinstance(expr.left, Column) or not isinstance(
            expr.right, Literal):
        return False
    stats = _column_stats(expr.left, meta)
    if stats is None:
        return False
    value = expr.right.value
    if value is None:
        return False
    if stats.min_value is None or stats.max_value is None:
        # No non-null values in the group: any comparison is false for
        # every row (comparisons never match nulls).
        return stats.null_count == stats.row_count
    low, high = stats.min_value, stats.max_value
    if not _comparable(value, low):
        return False
    op = expr.op
    if op == "=":
        return value < low or value > high
    if op == "<":
        return low >= value
    if op == "<=":
        return low > value
    if op == ">":
        return high <= value
    if op == ">=":
        return high < value
    return False  # '!=' is effectively unprunable


def _like_prunes(expr: LikeExpr, meta: RowGroupMeta) -> bool:
    """Prune prefix patterns (``'abc%'``) against string min/max."""
    stats = _column_stats(expr.column, meta)
    if stats is None:
        return False
    if stats.min_value is None or stats.max_value is None:
        return stats.null_count == stats.row_count
    pattern = expr.pattern
    if not pattern or pattern.startswith("%"):
        return False
    prefix = pattern.split("%", 1)[0]
    if not prefix:
        return False
    low, high = stats.min_value, stats.max_value
    if not isinstance(low, str) or not isinstance(high, str):
        return False
    if high < prefix:
        return True  # every value sorts before the prefix
    upper = _prefix_upper_bound(prefix)
    if upper is not None and low >= upper:
        return True  # every value sorts after all prefix-matches
    return False


def _prefix_upper_bound(prefix: str) -> Optional[str]:
    """Smallest string greater than every string starting with *prefix*."""
    for i in range(len(prefix) - 1, -1, -1):
        code = ord(prefix[i])
        if code < 0x10FFFF:
            return prefix[:i] + chr(code + 1)
    return None  # prefix is all U+10FFFF; no upper bound exists

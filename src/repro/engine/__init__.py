"""Mini query-engine substrate (the prototype's Spark stand-in).

Execution is **columnar-batch**: operators exchange
:class:`ColumnBatch` objects — per-column value lists plus a word-level
``BitVector`` selection vector — through ``Operator.batches()``.  Scans
decode each row group's pages once (``RowGroupReader.read_batch``);
``Expr.evaluate_batch`` turns a WHERE clause into one predicate mask per
batch, ANDed into the selection with ``intersect_update``; aggregates
fold batches directly, so COUNT(*)-only plans reduce to popcounts and
never materialize a row dict.  ``batches()`` is the only way to run an
operator; rows appear once, where ``run_plan`` spills the final batches
into the result.  The pre-batch row-at-a-time interpreter lives on in
the test tree (``tests/engine_oracle.py``) as the equivalence oracle and
benchmark baseline.

Mid-load snapshot aggregates are incremental: sealed Parquet parts are
immutable, so their plan's ``SnapshotAggregate`` keeps per-part
partial aggregates by (part identity, query fingerprint) and successive
snapshot queries only scan newly sealed parts plus the sideline delta
(:mod:`repro.engine.snapcache`).
"""

from .. import _lazy

__all__ = [
    "Aggregate",
    "And",
    "Catalog",
    "CatalogError",
    "ChainScan",
    "Column",
    "ColumnBatch",
    "Comparison",
    "ExecutionStats",
    "Executor",
    "Expr",
    "Filter",
    "GroupedAggregate",
    "IsNotNull",
    "IsNull",
    "LikeExpr",
    "Limit",
    "Literal",
    "Not",
    "Operator",
    "Or",
    "ParquetScan",
    "ParsedQuery",
    "PlanInfo",
    "PlannerError",
    "Project",
    "QueryResult",
    "SelectItem",
    "SidelineScan",
    "SkippingScan",
    "SnapshotAggCache",
    "SqlError",
    "TableEntry",
    "clause_to_expr",
    "compile_like",
    "conjuncts",
    "like_match",
    "parse_sql",
    "plan_query",
    "predicate_to_expr",
    "query_fingerprint",
    "query_where_expr",
    "run_plan",
    "to_clause",
]

__getattr__, __dir__ = _lazy.lazy_exports(__name__, {
    ".batch": ("ColumnBatch",),
    ".catalog": ("Catalog", "CatalogError", "TableEntry"),
    ".executor": ("Executor", "QueryResult", "run_plan"),
    ".expressions": (
        "And", "Column", "Comparison", "Expr", "IsNotNull", "IsNull",
        "LikeExpr", "Literal", "Not", "Or", "clause_to_expr", "compile_like",
        "conjuncts", "like_match", "predicate_to_expr", "query_where_expr",
        "to_clause"),
    ".operators": (
        "Aggregate", "ChainScan", "ExecutionStats", "Filter",
        "GroupedAggregate", "Limit", "Operator", "ParquetScan", "Project",
        "SidelineScan", "SkippingScan"),
    ".planner": ("PlanInfo", "PlannerError", "plan_query"),
    ".snapcache": ("SnapshotAggCache", "query_fingerprint"),
    ".sql": ("ParsedQuery", "SelectItem", "SqlError", "parse_sql"),
})

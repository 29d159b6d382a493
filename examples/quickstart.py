"""Quickstart: the whole CIAO pipeline through the `CiaoSession` front door.

Plan a budgeted pushdown for a prospective workload, load a synthetic
Yelp-style stream with client assistance, query with data skipping.

Queries below run on the columnar **batch engine**: operators exchange
column batches with bit-vector selection masks, so a COUNT(*) like these
is page decodes + popcounts, never a Python dict per row.  Row-shaped
results (``result.rows``) come from the thin ``rows()`` adapter over the
final batch, so nothing here changes as the engine vectorizes further
(see ``repro.engine``).  In every deployment, repeated mid-load
``job.snapshot_query(...)`` aggregates are incremental: sealed parts are
served from cached partial aggregates and only newly loaded data is
scanned.

Run:  python examples/quickstart.py
"""

from repro.api import Budget, CiaoSession, Query, Workload, clause, key_value, substring

five_stars = clause(key_value("stars", 5))
tasty = clause(substring("text", "tasty000"))
workload = Workload(
    (Query((five_stars, tasty), name="rave-reviews"),
     Query((tasty,), name="keyword-mentions")),
    dataset="yelp",
)

with CiaoSession(workload, source="yelp", seed=7) as session:
    print(session.plan(Budget(1.0)).describe())
    report = session.load(n_records=10_000).result()
    print(f"\nLoaded {report.loaded} of {report.received} records "
          f"(ratio {report.loading_ratio:.2f}); {report.sidelined} sidelined.")
    print("\nQuery results:")
    for query in workload.queries:
        result = session.query(query.sql("t"))
        print(f"  {query.name:<18} count={result.scalar():<6} "
              f"rows examined={result.stats.rows_examined}")

"""Batch query engine vs. row-at-a-time execution, and the incremental
snapshot-aggregation cache.

Three claims are measured, all **single-thread CPU work**:

1. **Batch speedup** — the same plan trees run under the batch engine
   (``run_plan``: columnar batches, ``evaluate_batch`` selection masks,
   popcount aggregation) and under the preserved row-at-a-time
   interpreter (``run_plan_rows`` of ``tests/engine_oracle.py``: dict
   per row, ``Expr.evaluate`` per tuple — the pre-batch engine).  The bench
   asserts **>= 3x** on the paper's query template (full scan -> filter
   -> COUNT(*)) over >= 100k rows; override the floor with
   ``REPRO_BENCH_MIN_BATCH_SPEEDUP``.  Results are identical rows, same
   ordering — checked on every query.

2. **Incremental snapshot aggregation** — on a sharded streaming server,
   a repeated mid-load aggregate query reuses cached per-part partial
   aggregates: the second query's ``row_groups_total`` must be
   *strictly lower* than a cold (cache-cleared) scan of the same
   snapshot, with byte-identical answers.

3. **Disabled-instrumentation overhead** — an ``Executor`` built with
   no ``repro.obs`` instruments (the default null registry) must run
   the paper template within ``REPRO_BENCH_MAX_OBS_OVERHEAD`` (default
   5%) of bare ``run_plan``.  Unlike the first two, this assertion IS
   core-gated (<4 usable cores: reported, not asserted) because it
   compares two nearly-equal few-ms timings.

Reports: paper-style text table plus machine-readable
``BENCH_query_engine.json`` under ``benchmarks/results/`` so the perf
trajectory is diffable across PRs.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_query_engine.py``
(set ``REPRO_BENCH_SMOKE=1`` for a <60 s smoke configuration).
"""

from __future__ import annotations

import json
import os
import time

from conftest import run_once
from engine_oracle import run_plan_rows

from repro.bench import emit, emit_json, format_table
from repro.engine import (
    Catalog,
    Executor,
    TableEntry,
    parse_sql,
    plan_query,
    run_plan,
)
from repro.rawjson import JsonChunk, dump_record
from repro.server import CiaoServer
from repro.storage import ParquetLiteWriter, infer_schema

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: >= 100k rows in every mode: the speedup claim is about interpreter
#: overhead per tuple, which only reads cleanly at scale.
N_ROWS = 120_000
ROW_GROUP = 2_000
TIMING_REPEATS = 2 if SMOKE else 3

MIN_BATCH_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_MIN_BATCH_SPEEDUP", "3.0")
)

#: The asserted query is the paper's template: scan -> filter -> COUNT(*).
TEMPLATE_SQL = "SELECT COUNT(*) FROM t WHERE cat = 'c3'"

#: The rest of the surface is reported (not asserted): COUNT-only fast
#: path, multi-aggregate, string matching, and GROUP BY (with a SUM, and
#: COUNT-only, which counts keys with one ``Counter`` per batch).
REPORTED_SQL = [
    TEMPLATE_SQL,
    "SELECT COUNT(*) FROM t",
    "SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM t WHERE cat = 'c3'",
    "SELECT COUNT(*) FROM t WHERE text LIKE '%kw%' AND v > 500",
    "SELECT cat, COUNT(*), SUM(v) FROM t GROUP BY cat",
    "SELECT cat, COUNT(*) FROM t GROUP BY cat",
]

# Streaming-cache stream.
SNAP_CHUNKS = 6 if SMOKE else 10
SNAP_CHUNK_RECORDS = 150 if SMOKE else 300
SNAP_SQL = "SELECT COUNT(*), SUM(v) FROM t WHERE i = 1"
#: Untimed query that moves the table onto the latest snapshot (and
#: re-opens its part readers) without touching SNAP_SQL's cached
#: partials — its fingerprint differs.
REFRESH_SQL = "SELECT COUNT(*) FROM t"

#: Shared payload for BENCH_query_engine.json; tests fill their section
#: and rewrite the file so a partial run still archives what it measured.
_PAYLOAD = {
    "bench": "query_engine",
    "smoke": SMOKE,
    "n_rows": N_ROWS,
    "row_group_size": ROW_GROUP,
}


def _dataset():
    return [
        {
            "id": i,
            "cat": f"c{i % 10}",
            "v": (i * 37) % 1000,
            "text": "kw here" if i % 5 == 0 else "plain",
        }
        for i in range(N_ROWS)
    ]


def _write_table(tmp_path):
    rows = _dataset()
    path = tmp_path / "t.pql"
    with ParquetLiteWriter(path, infer_schema(rows[:200])) as writer:
        for start in range(0, len(rows), ROW_GROUP):
            writer.write_row_group(rows[start:start + ROW_GROUP])
    table = TableEntry(name="t", parquet_paths=[path])
    catalog = Catalog()
    catalog.register(table)
    return table


def _best_of(fn, repeats=TIMING_REPEATS):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_batch_vs_row_speedup(benchmark, tmp_path, results_dir):
    table = _write_table(tmp_path)

    def measure():
        rows_per_sql = []
        for sql in REPORTED_SQL:
            parsed = parse_sql(sql)
            batch_s, batch_result = _best_of(
                lambda p=parsed: run_plan(*plan_query(p, table))
            )
            row_s, row_result = _best_of(
                lambda p=parsed: run_plan_rows(*plan_query(p, table))
            )
            assert batch_result.rows == row_result.rows, (
                f"batch/row results diverge for {sql!r}"
            )
            rows_per_sql.append({
                "sql": sql,
                "batch_ms": batch_s * 1000,
                "row_ms": row_s * 1000,
                "speedup": row_s / batch_s,
                "result_rows": len(batch_result.rows),
            })
        return rows_per_sql

    measured = run_once(benchmark, measure)

    table_text = format_table(
        ["query", "batch(ms)", "row(ms)", "speedup"],
        [
            [m["sql"], m["batch_ms"], m["row_ms"], f"{m['speedup']:.1f}x"]
            for m in measured
        ],
    )
    header = (
        f"== batch engine vs row-at-a-time ({N_ROWS} rows, "
        f"row groups of {ROW_GROUP}; identical rows asserted) =="
    )
    emit("query_engine_batch_vs_row", f"{header}\n{table_text}",
         results_dir)

    _PAYLOAD["batch_vs_row"] = {
        "queries": measured,
        "asserted_sql": TEMPLATE_SQL,
        "min_speedup_floor": MIN_BATCH_SPEEDUP,
    }
    emit_json("BENCH_query_engine", _PAYLOAD, results_dir)

    template = next(m for m in measured if m["sql"] == TEMPLATE_SQL)
    assert template["speedup"] >= MIN_BATCH_SPEEDUP, (
        f"batch engine speedup {template['speedup']:.2f}x on the paper "
        f"template is below the {MIN_BATCH_SPEEDUP}x floor "
        f"({template['row_ms']:.1f}ms row vs {template['batch_ms']:.1f}ms "
        f"batch) — single-thread work, not core-gated"
    )


def _snapshot_chunks(lo, hi):
    chunks = []
    for cid in range(lo, hi):
        records = [
            dump_record({
                "i": (cid * SNAP_CHUNK_RECORDS + k) % 7,
                "v": cid * SNAP_CHUNK_RECORDS + k,
            })
            for k in range(SNAP_CHUNK_RECORDS)
        ]
        chunks.append(JsonChunk(cid, records))
    return chunks


def test_incremental_snapshot_aggregation(benchmark, tmp_path,
                                          results_dir):
    server = CiaoServer(tmp_path / "stream", n_shards=2,
                        shard_mode="thread", seal_interval=1)

    def measure():
        half = SNAP_CHUNKS // 2
        for chunk in _snapshot_chunks(0, half):
            server.ingest(chunk)
        server.quiesce()
        first = server.query(SNAP_SQL)

        for chunk in _snapshot_chunks(half, SNAP_CHUNKS):
            server.ingest(chunk)
        server.quiesce()
        # Both timed queries then scan the same, already-applied view:
        # the first query after a seal pays the reader re-open for every
        # part, which would otherwise land on the warm side only.
        server.query(REFRESH_SQL)
        warm_start = time.perf_counter()
        warm = server.query(SNAP_SQL)
        warm_s = time.perf_counter() - warm_start

        # Cold baseline: same snapshot, cache dropped.
        server.table.clear_snapshot_cache()
        cold_start = time.perf_counter()
        cold = server.query(SNAP_SQL)
        cold_s = time.perf_counter() - cold_start
        return first, warm, warm_s, cold, cold_s

    first, warm, warm_s, cold, cold_s = run_once(benchmark, measure)

    # Exactness: byte-identical answers, warm vs cold scan of the same
    # snapshot.
    assert json.dumps(warm.rows) == json.dumps(cold.rows)
    # Incrementality: the warm query scanned only newly sealed parts.
    assert warm.stats.row_groups_total < cold.stats.row_groups_total, (
        f"warm snapshot query rescanned sealed parts: "
        f"{warm.stats.row_groups_total} row groups vs cold "
        f"{cold.stats.row_groups_total}"
    )
    assert warm.stats.snapshot_cache_hits > 0
    assert cold.stats.snapshot_cache_hits == 0

    summary = server.finalize_loading()
    final = server.query(SNAP_SQL)
    assert json.dumps(final.rows) == json.dumps(cold.rows), (
        "mid-load snapshot answer diverged from the finalized table"
    )

    lines = [
        "== incremental snapshot aggregation (sharded streaming load) ==",
        f"query: {SNAP_SQL}",
        f"first mid-load query:  {first.stats.row_groups_total} row "
        f"groups scanned ({first.stats.snapshot_cache_misses} parts "
        f"cached)",
        f"second (warm):         {warm.stats.row_groups_total} row groups "
        f"({warm.stats.snapshot_cache_hits} parts from cache, "
        f"{warm.stats.snapshot_cache_misses} fresh) in "
        f"{warm_s * 1000:.2f}ms",
        f"second (cold rescan):  {cold.stats.row_groups_total} row groups "
        f"in {cold_s * 1000:.2f}ms",
        f"answers byte-identical (warm == cold == finalized); "
        f"{summary.received} records loaded",
    ]
    emit("query_engine_snapshot_cache", "\n".join(lines), results_dir)

    _PAYLOAD["snapshot_cache"] = {
        "sql": SNAP_SQL,
        "chunks": SNAP_CHUNKS,
        "chunk_records": SNAP_CHUNK_RECORDS,
        "first_row_groups": first.stats.row_groups_total,
        "warm_row_groups": warm.stats.row_groups_total,
        "cold_row_groups": cold.stats.row_groups_total,
        "warm_cache_hits": warm.stats.snapshot_cache_hits,
        "warm_ms": warm_s * 1000,
        "cold_ms": cold_s * 1000,
        "answers_identical": True,
    }
    emit_json("BENCH_query_engine", _PAYLOAD, results_dir)


# ----------------------------------------------------------------------
# Disabled-instrumentation overhead guard (repro.obs).
#
# An `Executor` built with no metrics/tracer/query-log runs every query
# through the shared null instruments; the guard pins that path to
# within REPRO_BENCH_MAX_OBS_OVERHEAD (default 5%) of bare `run_plan`, both
# running the table's prepared plan of
# the paper template.  Like the ingest speedup floors, the assertion is
# core-gated: on a starved shared runner (<4 usable cores) min-of-N
# timing of a few-ms query is dominated by scheduling noise, so there
# the ratio is reported but not asserted.

MAX_OBS_OVERHEAD = float(
    os.environ.get("REPRO_BENCH_MAX_OBS_OVERHEAD", "0.05")
)
OVERHEAD_QUERIES = 10 if SMOKE else 20
OVERHEAD_REPEATS = 5 if SMOKE else 8


def _effective_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def test_disabled_instrumentation_overhead(benchmark, tmp_path,
                                           results_dir):
    table = _write_table(tmp_path)
    catalog = Catalog()
    catalog.register(table)
    executor = Executor(catalog)  # null metrics, tracer, and query log
    parsed = parse_sql(TEMPLATE_SQL)

    # Both arms run the table's prepared plan, so the ratio measures
    # only the null instruments.
    plan, info = table.prepared(TEMPLATE_SQL, parsed, plan_query)
    direct_result = run_plan(plan, info.copy())
    executor_result = executor.execute_parsed(parsed, sql=TEMPLATE_SQL)
    assert executor_result.rows == direct_result.rows

    def run_direct():
        for _ in range(OVERHEAD_QUERIES):
            run_plan(plan, info.copy())

    def run_executor():
        for _ in range(OVERHEAD_QUERIES):
            executor.execute_parsed(parsed, sql=TEMPLATE_SQL)

    def measure():
        # Interleave the arms so clock drift hits both equally; keep
        # the per-arm minimum (the least-disturbed run).
        direct_s = executor_s = float("inf")
        for _ in range(OVERHEAD_REPEATS):
            d, _ = _best_of(run_direct, repeats=1)
            e, _ = _best_of(run_executor, repeats=1)
            direct_s = min(direct_s, d)
            executor_s = min(executor_s, e)
        return direct_s, executor_s

    direct_s, executor_s = run_once(benchmark, measure)
    ratio = executor_s / direct_s
    cores = _effective_cores()
    gated = cores >= 4

    lines = [
        "== disabled-instrumentation overhead (null obs executor) ==",
        f"query: {TEMPLATE_SQL} x{OVERHEAD_QUERIES}, min of "
        f"{OVERHEAD_REPEATS}",
        f"bare run_plan:   {direct_s * 1000:.2f}ms",
        f"null Executor:   {executor_s * 1000:.2f}ms",
        f"ratio: {ratio:.4f} (ceiling 1 + {MAX_OBS_OVERHEAD}; "
        f"{'asserted' if gated else f'reported only, {cores} cores'})",
    ]
    emit("query_engine_obs_overhead", "\n".join(lines), results_dir)

    _PAYLOAD["obs_overhead"] = {
        "sql": TEMPLATE_SQL,
        "queries_per_rep": OVERHEAD_QUERIES,
        "repeats": OVERHEAD_REPEATS,
        "direct_ms": direct_s * 1000,
        "executor_ms": executor_s * 1000,
        "ratio": ratio,
        "max_overhead": MAX_OBS_OVERHEAD,
        "cores": cores,
        "asserted": gated,
    }
    emit_json("BENCH_query_engine", _PAYLOAD, results_dir)

    if gated:
        assert ratio <= 1.0 + MAX_OBS_OVERHEAD, (
            f"null-instrumented Executor is {ratio:.3f}x bare run_plan "
            f"on the paper template ({executor_s * 1000:.2f}ms vs "
            f"{direct_s * 1000:.2f}ms) — disabled observability must "
            f"stay within {MAX_OBS_OVERHEAD:.0%}"
        )

"""Paper-style tables and series for the benchmark harness.

Each bench prints (and archives under ``benchmarks/results/``) the rows or
series the corresponding paper table/figure reports, so the reproduction
can be compared against the original side by side.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, List, Optional, Sequence

from .runner import RunMetrics

#: Where benches archive their printed output.
RESULTS_DIR = Path(
    os.environ.get("REPRO_RESULTS_DIR", "benchmarks/results")
)


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[Any]]) -> str:
    """Fixed-width text table."""
    columns = [
        [str(h)] + [_fmt(row[i]) for row in rows]
        for i, h in enumerate(headers)
    ]
    widths = [max(len(cell) for cell in col) for col in columns]
    lines = []
    header = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(
                _fmt(cell).ljust(w) for cell, w in zip(row, widths)
            )
        )
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 100 or value == int(value):
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def metrics_table(runs: Sequence[RunMetrics],
                  title: str = "") -> str:
    """The standard end-to-end run table (one row per budget)."""
    headers = [
        "run", "budget(µs)", "#pushed", "partial", "covered",
        "prefilter(s)", "prefilter-wall(s)", "loading(s)", "load-ratio",
        "query(s)", "e2e(s)", "skip-queries",
    ]
    rows = []
    for m in runs:
        rows.append(
            [
                m.label,
                m.budget_us,
                m.n_pushed,
                "yes" if m.partial_loading else "no",
                f"{m.covered_queries}/{m.total_queries}",
                m.prefilter_model_s,
                m.prefilter_wall_s,
                m.loading_wall_s,
                m.loading_ratio,
                m.query_wall_s,
                m.end_to_end_wall_s,
                m.queries_benefiting,
            ]
        )
    table = format_table(headers, rows)
    if title:
        table = f"== {title} ==\n{table}"
    return table


def speedup_summary(baseline: RunMetrics,
                    runs: Sequence[RunMetrics]) -> str:
    """Loading / query / end-to-end speedups vs the zero-budget baseline."""
    lines = ["speedups vs baseline (budget 0):"]
    for m in runs:
        load = _ratio(baseline.loading_wall_s, m.loading_wall_s)
        query = _ratio(baseline.query_wall_s, m.query_wall_s)
        e2e = _ratio(baseline.end_to_end_wall_s, m.end_to_end_wall_s)
        lines.append(
            f"  {m.label}: loading {load}, query {query}, end-to-end {e2e}"
        )
    return "\n".join(lines)


def _ratio(base: float, new: float) -> str:
    if new <= 0:
        return "inf"
    return f"{base / new:.1f}x"


def fleet_table(report: Any) -> str:
    """Per-client + aggregate table for a fleet load.

    *report* is a :class:`repro.fleet.report.FleetReport` (duck-typed so
    the fleet data model has no import edge into the bench layer).
    """
    headers = [
        "client", "platform", "speed", "share", "budget(µs)", "#pushed",
        "assigned", "shipped", "absorbed", "chunks", "µs/rec",
        "rec/s(dev)", "util", "killed",
    ]
    rows = []
    for c in report.clients:
        rows.append(
            [
                c.client_id,
                c.platform,
                c.speed_factor,
                c.share,
                c.budget_us,
                c.n_pushed,
                c.assigned_records,
                c.shipped_records,
                c.absorbed_records,
                c.shipped_chunks,
                c.modeled_us_per_record,
                c.device_records_per_s,
                c.budget_utilization,
                "yes" if c.killed else "no",
            ]
        )
    summary = report.summary
    lines = [
        format_table(headers, rows),
        "",
        f"fleet aggregate: {len(report.clients)} clients, "
        f"{report.total_records} records in {report.wall_seconds:.2f} s "
        f"({report.records_per_second:.0f} rec/s)",
        f"  accounting     : received={summary.received} "
        f"loaded={summary.loaded} sidelined={summary.sidelined} "
        f"malformed={summary.malformed} "
        f"(no record loss: {report.no_record_loss})",
        f"  reassignments  : {report.reassignment_events} events, "
        f"{report.reassigned_records} records"
        + (f" ({', '.join(f'{src}→{dst}:{n}' for src, dst, n in report.reassignments[:6])}"
           + (", ..." if len(report.reassignments) > 6 else "") + ")"
           if report.reassignments else ""),
        f"  re-allocations : {report.realloc_rounds} rounds",
    ]
    return "\n".join(lines)


def load_report_block(report: Any) -> str:
    """Summary block for a unified :class:`repro.api.LoadReport`.

    Duck-typed like :func:`fleet_table` so the API data model has no
    import edge into the bench layer.  Fleet loads include the full
    per-client table; every mode gets the shared accounting footer.
    """
    lines = []
    if report.fleet is not None:
        lines += [fleet_table(report.fleet), ""]
    lines += [
        f"{report.mode} load: {report.received} records in "
        f"{report.wall_seconds:.2f} s — loaded={report.loaded} "
        f"sidelined={report.sidelined} malformed={report.malformed} "
        f"(ratio {report.loading_ratio:.2f})",
        f"  invariants : accounting={report.accounting_ok} "
        f"no-record-loss={report.no_record_loss}",
    ]
    if report.bytes_sent or report.messages_dropped:
        lines.append(
            f"  transport  : {report.bytes_sent} bytes shipped, "
            f"{report.messages_dropped} transmissions dropped/retried"
        )
    if report.client_stats is not None:
        stats = report.client_stats
        lines.append(
            f"  client     : {stats.records} records in {stats.chunks} "
            f"chunks, {stats.modeled_us_per_record():.3f} µs/record "
            f"modeled, {stats.observed_us_per_record():.3f} observed"
        )
    return "\n".join(lines)


def sweep_payload(sweep: Any) -> dict:
    """JSON-ready form of an end-to-end sweep.

    *sweep* maps workload label → sequence of :class:`RunMetrics`; the
    result maps the same labels to lists of plain dicts (derived
    end-to-end seconds included), ready for :func:`emit_json`.
    """
    import dataclasses

    payload = {}
    for label, runs in sweep.items():
        payload[label] = [
            dict(dataclasses.asdict(m),
                 end_to_end_wall_s=m.end_to_end_wall_s)
            for m in runs
        ]
    return payload


def emit(name: str, text: str,
         results_dir: Optional[Path] = None) -> Path:
    """Print *text* and archive it under the results directory."""
    print()
    print(text)
    directory = results_dir or RESULTS_DIR
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    return path


def emit_json(name: str, payload: Any,
              results_dir: Optional[Path] = None,
              metrics: Any = None) -> Path:
    """Archive *payload* as ``<name>.json`` next to the text reports.

    The machine-readable side of :func:`emit`: benches write their
    headline numbers (speedups, latencies, config) as one JSON document
    per run, so the performance trajectory is diffable across PRs
    instead of living only in prose tables.

    *metrics* — a :class:`repro.obs.Metrics` registry or an
    already-taken snapshot mapping — is embedded under a ``"metrics"``
    key so a bench's counters/histograms travel with its headline
    numbers.  Only dict payloads can carry it.
    """
    import json

    snapshot = _metrics_snapshot(metrics)
    if snapshot is not None and isinstance(payload, dict):
        payload = dict(payload)
        payload["metrics"] = snapshot
    directory = results_dir or RESULTS_DIR
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.json"
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n",
        encoding="utf-8",
    )
    return path


def _metrics_snapshot(metrics: Any) -> Optional[dict]:
    """Coerce a Metrics registry or pre-taken snapshot dict (or None)."""
    if metrics is None:
        return None
    if hasattr(metrics, "snapshot"):
        return metrics.snapshot()
    return dict(metrics)


def emit_table(name: str, headers: Sequence[str],
               rows: Sequence[Sequence[Any]],
               results_dir: Optional[Path] = None,
               title: str = "",
               metrics: Any = None,
               extra: Any = None) -> Path:
    """Emit one experiment table as text *and* machine-readable JSON.

    The one-call migration target for txt-only benches: prints and
    archives the fixed-width table via :func:`emit`, and writes a
    ``<name>.json`` sibling with ``{"headers", "rows"}`` (plus *extra*
    merged in and the optional *metrics* snapshot) via
    :func:`emit_json`.  Returns the text report's path.
    """
    table = format_table(headers, rows)
    if title:
        table = f"== {title} ==\n{table}"
    payload = {
        "headers": list(headers),
        "rows": [list(row) for row in rows],
    }
    if title:
        payload["title"] = title
    if isinstance(extra, dict):
        payload.update(extra)
    emit_json(name, payload, results_dir, metrics=metrics)
    return emit(name, table, results_dir)

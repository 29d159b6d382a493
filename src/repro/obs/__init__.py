"""Observability: metrics, span tracing, and the query log.

The standing instrumentation layer (ISSUE 8): injectable, thread-safe,
and near-zero-overhead when disabled — every component defaults to the
``null()`` singletons, so observability costs nothing unless a
deployment opts in by constructing real instances and passing them
down (``CiaoSession(metrics=Metrics(), ...)``).

* :mod:`repro.obs.metrics` — counters/gauges/histograms with exact
  totals under concurrency, snapshot as plain JSON.
* :mod:`repro.obs.tracing` — nested spans with deterministic ids that
  propagate over the wire and export as Chrome ``about:tracing`` JSON.
* :mod:`repro.obs.querylog` — one structured record per query, the
  input for workload-adaptive layout optimization.
* :mod:`repro.obs.export` — Prometheus-text and JSON renderers.
"""

from .. import _lazy

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metrics",
    "NullMetrics",
    "NullQueryLog",
    "NullTracer",
    "QueryLog",
    "QueryLogRecord",
    "Span",
    "TraceContext",
    "Tracer",
    "client_scope",
    "current_client_id",
    "metrics_json",
    "prometheus_text",
    "resolve_metrics",
    "resolve_query_log",
    "resolve_tracer",
]

__getattr__, __dir__ = _lazy.lazy_exports(__name__, {
    ".export": ("metrics_json", "prometheus_text"),
    ".metrics": (
        "Counter", "Gauge", "Histogram", "Metrics", "NullMetrics",
        "resolve_metrics"),
    ".querylog": (
        "NullQueryLog", "QueryLog", "QueryLogRecord", "client_scope",
        "current_client_id", "resolve_query_log"),
    ".tracing": (
        "NullTracer", "Span", "TraceContext", "Tracer", "resolve_tracer"),
})

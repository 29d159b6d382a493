"""Span tracing: nested timing contexts that survive the wire.

``with tracer.trace("remote.query"):`` opens a span; spans started
inside it (same thread or same :mod:`contextvars` context) become its
children automatically.  Every span carries an explicit ``trace_id`` so
a trace can cross the process boundary: ``RemoteSession`` attaches its
current :class:`TraceContext` to the wire header, the service re-roots
its server-side spans under that context, ships the finished span
records back in the ``RESULT`` header, and the client tracer
:meth:`Tracer.adopt`\\ s them — one trace, client and server spans under
a single trace id.

Ids are **counter-based and deterministic** (prefixed with the tracer's
name so client/server ids can't collide after adoption): no ``uuid``, no
global RNG, no wall clock, so DET-checked modules may hold a tracer.
Timestamps are ``time.perf_counter()`` offsets — meaningful as
durations, and rendered onto one relative timeline by
:meth:`Tracer.chrome_trace` (open the exported JSON in Chrome's
``about:tracing`` / Perfetto).

The default everywhere is :meth:`Tracer.null`: a stateless singleton
whose ``trace()`` returns a shared no-op context manager.
"""

from __future__ import annotations

import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from ..analysis.sanitizer import make_lock

#: The ambient span for the current thread/context.  Module-level so
#: spans nest across tracer instances sharing a context; each span
#: save/restores it with contextvar tokens.
_CURRENT: ContextVar[Optional["TraceContext"]] = ContextVar(
    "repro_obs_current_span", default=None
)


@dataclass(frozen=True)
class TraceContext:
    """The (trace, span) coordinates a child span attaches under."""

    trace_id: str
    span_id: str


@dataclass
class Span:
    """One finished (or in-flight) timing interval."""

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str] = None
    start: float = 0.0
    end: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
        }

    @staticmethod
    def from_dict(record: Dict[str, Any]) -> "Span":
        return Span(
            name=str(record.get("name", "")),
            trace_id=str(record.get("trace_id", "")),
            span_id=str(record.get("span_id", "")),
            parent_id=record.get("parent_id"),
            start=float(record.get("start", 0.0)),
            end=float(record.get("end", 0.0)),
            attrs=dict(record.get("attrs") or {}),
        )


class _ActiveSpan:
    """The context manager ``Tracer.trace`` returns.

    Entering installs the span as the ambient context (so nested
    ``trace()`` calls become children); exiting restores the previous
    ambient span and files the finished record with the tracer.
    """

    __slots__ = ("_tracer", "span", "_token")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self.span = span
        self._token = None

    def __enter__(self) -> Span:
        self.span.start = time.perf_counter()
        self._token = _CURRENT.set(
            TraceContext(self.span.trace_id, self.span.span_id)
        )
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        self.span.end = time.perf_counter()
        if exc_type is not None:
            self.span.attrs["error"] = exc_type.__name__
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        self._tracer._record(self.span)


class _NullSpanContext:
    """Shared no-op stand-in for ``_ActiveSpan`` on the null tracer."""

    __slots__ = ()
    span = None

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN_CONTEXT = _NullSpanContext()


class Tracer:
    """Creates spans, collects finished records, exports trees.

    *name* prefixes every generated id, which keeps ids collision-free
    when spans from another tracer (the server's) are adopted into this
    one's record set.
    """

    def __init__(self, name: str = "trace"):
        self.name = name
        self._lock = make_lock("obs.Tracer._lock")
        self._next_id = 0  # guarded-by: _lock
        self._finished: List[Span] = []  # guarded-by: _lock

    @property
    def enabled(self) -> bool:
        return True

    @staticmethod
    def null() -> "Tracer":
        """The shared no-op tracer (the default everywhere)."""
        return NULL_TRACER

    # ------------------------------------------------------------------
    def _new_id(self, kind: str) -> str:
        with self._lock:
            self._next_id += 1
            return f"{self.name}-{kind}{self._next_id}"

    def _record(self, span: Span) -> None:
        with self._lock:
            self._finished.append(span)  # ciaolint: allow[LCK002] -- list.append binds no project lock; the name union binds wider

    # ------------------------------------------------------------------
    def trace(self, name: str, *, parent: Optional[TraceContext] = None,
              attrs: Optional[Dict[str, Any]] = None) -> _ActiveSpan:
        """A context manager opening a span named *name*.

        The parent is, in order of preference: the explicit *parent*
        context (used when re-rooting under a wire-propagated context),
        else the ambient span of the current thread/context, else none —
        in which case this span roots a fresh trace id.
        """
        if parent is None:
            parent = _CURRENT.get()
        if parent is not None:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        else:
            trace_id = self._new_id("t")
            parent_id = None
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=self._new_id("s"),
            parent_id=parent_id,
            attrs=dict(attrs) if attrs else {},
        )
        return _ActiveSpan(self, span)

    def current(self) -> Optional[TraceContext]:
        """The ambient span context, for attaching to a wire header."""
        return _CURRENT.get()

    def adopt(self, records: Iterable[Dict[str, Any]]) -> List[Span]:
        """File span records produced elsewhere (e.g. server-side)."""
        adopted = [Span.from_dict(r) for r in records]
        with self._lock:
            self._finished.extend(adopted)  # ciaolint: allow[LCK002] -- list.extend binds no project lock; the name union binds wider
        return adopted

    # ------------------------------------------------------------------
    def spans(self, trace_id: Optional[str] = None) -> List[Span]:
        """Finished spans, optionally restricted to one trace."""
        with self._lock:
            found = list(self._finished)
        if trace_id is not None:
            found = [s for s in found if s.trace_id == trace_id]
        return found

    def drain(self, trace_id: Optional[str] = None) -> List[Span]:
        """Remove and return finished spans (one trace, or all)."""
        with self._lock:
            if trace_id is None:
                drained = self._finished
                self._finished = []
            else:
                drained = [s for s in self._finished
                           if s.trace_id == trace_id]
                self._finished = [s for s in self._finished
                                  if s.trace_id != trace_id]
        return drained

    # ------------------------------------------------------------------
    def span_tree(self, trace_id: Optional[str] = None) -> List[Dict[str, Any]]:
        """Finished spans as nested dicts (children under parents).

        Spans whose parent is absent from the record set (e.g. the
        client kept its root span open) surface as roots.
        """
        spans = self.spans(trace_id)
        by_id = {s.span_id: s.to_dict() for s in spans}
        for node in by_id.values():
            node["children"] = []
        roots: List[Dict[str, Any]] = []
        for span in spans:
            node = by_id[span.span_id]
            parent = by_id.get(span.parent_id) if span.parent_id else None
            if parent is not None:
                parent["children"].append(node)
            else:
                roots.append(node)
        for node in by_id.values():
            node["children"].sort(key=lambda c: c["start"])
        roots.sort(key=lambda c: c["start"])
        return roots

    def format_tree(self, trace_id: Optional[str] = None) -> str:
        """The span tree as indented text (for demos and debugging)."""
        lines: List[str] = []

        def _walk(node: Dict[str, Any], depth: int) -> None:
            duration_ms = max(0.0, node["end"] - node["start"]) * 1000.0
            lines.append(
                f"{'  ' * depth}{node['name']}  "
                f"[{duration_ms:.3f} ms]  ({node['span_id']})"
            )
            for child in node["children"]:
                _walk(child, depth + 1)

        for root in self.span_tree(trace_id):
            _walk(root, 0)
        return "\n".join(lines)

    def chrome_trace(self, trace_id: Optional[str] = None) -> Dict[str, Any]:
        """Chrome ``about:tracing`` JSON for the finished spans.

        Timestamps are re-based to the earliest span start, so traces
        merged from two perf_counter domains (client + adopted server
        spans) still render on one non-negative timeline.
        """
        spans = self.spans(trace_id)
        base = min((s.start for s in spans), default=0.0)
        events = [
            {
                "name": s.name,
                "ph": "X",
                "ts": (s.start - base) * 1_000_000.0,
                "dur": s.duration * 1_000_000.0,
                "pid": 1,
                "tid": 1,
                "args": {
                    "trace_id": s.trace_id,
                    "span_id": s.span_id,
                    "parent_id": s.parent_id,
                    **s.attrs,
                },
            }
            for s in sorted(spans, key=lambda s: s.start)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class NullTracer(Tracer):
    """Disabled tracer: stateless, shared, every call a no-op."""

    def __init__(self) -> None:
        self.name = "null"

    @property
    def enabled(self) -> bool:
        return False

    def trace(self, name: str, *, parent: Optional[TraceContext] = None,
              attrs: Optional[Dict[str, Any]] = None) -> _ActiveSpan:
        return _NULL_SPAN_CONTEXT  # type: ignore[return-value]

    def current(self) -> Optional[TraceContext]:
        return None

    def adopt(self, records: Iterable[Dict[str, Any]]) -> List[Span]:
        return []

    def spans(self, trace_id: Optional[str] = None) -> List[Span]:
        return []

    def drain(self, trace_id: Optional[str] = None) -> List[Span]:
        return []

    def _record(self, span: Span) -> None:
        pass


#: The shared disabled tracer (what ``Tracer.null()`` returns).
NULL_TRACER = NullTracer()


def resolve_tracer(tracer: Optional[Tracer]) -> Tracer:
    """``tracer`` if given, else the shared null tracer."""
    return tracer if tracer is not None else NULL_TRACER

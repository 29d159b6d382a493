"""Query results over the wire: encode, decode, canonical bytes.

A :class:`~repro.engine.executor.QueryResult` crosses the service wire
as one JSON document — rows, execution stats, planner info, and the
server-side wall time — and is reconstructed on the client into the same
dataclasses local execution returns, so remote callers read
``result.stats.rows_examined`` exactly like in-process ones.

:func:`canonical_result_bytes` is the identity yardstick: a rows-only,
key-sorted serialization that excludes execution accounting (wall time,
snapshot-cache hit counts), because two executions of the same query
over the same data legitimately differ in *how* they ran but must never
differ in *what* they answered.  The concurrent-serving benchmark
asserts remote results byte-identical to in-process ones through it.
"""

from __future__ import annotations

import json
from dataclasses import fields

from ..engine.executor import QueryResult
from ..engine.operators import ExecutionStats
from ..engine.planner import PlanInfo

#: Format marker embedded in every encoded result document.
RESULT_FORMAT = "ciao-result/1"

#: Field names of the two accounting dataclasses, read once: both hold
#: only scalars and a list of ints, which the JSON encoder copies, so a
#: field-by-field dict encodes the same bytes as ``dataclasses.asdict``
#: without its recursive deep copy.
_STATS_FIELDS = tuple(f.name for f in fields(ExecutionStats))
_PLAN_INFO_FIELDS = tuple(f.name for f in fields(PlanInfo))


class ResultFormatError(ValueError):
    """An encoded result payload this decoder cannot interpret."""


def result_to_payload(result: QueryResult) -> bytes:
    """Serialize one query result into a wire message body."""
    doc = {
        "format": RESULT_FORMAT,
        "rows": result.rows,
        "stats": {name: getattr(result.stats, name)
                  for name in _STATS_FIELDS},
        "plan_info": {name: getattr(result.plan_info, name)
                      for name in _PLAN_INFO_FIELDS},
        "wall_seconds": result.wall_seconds,
    }
    return json.dumps(
        doc, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def result_from_payload(payload: bytes) -> QueryResult:
    """Reconstruct a :class:`QueryResult` from a wire message body."""
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ResultFormatError(
            f"result payload is not valid JSON: {exc}"
        ) from exc
    if not isinstance(doc, dict) or doc.get("format") != RESULT_FORMAT:
        raise ResultFormatError(
            f"unsupported result format "
            f"{doc.get('format') if isinstance(doc, dict) else doc!r}; "
            f"expected {RESULT_FORMAT!r}"
        )
    try:
        stats = ExecutionStats(**doc["stats"])
        plan_info = PlanInfo(**doc["plan_info"])
        return QueryResult(
            rows=doc["rows"],
            stats=stats,
            plan_info=plan_info,
            wall_seconds=float(doc["wall_seconds"]),
        )
    except (KeyError, TypeError) as exc:
        raise ResultFormatError(
            f"result document is missing or misdeclares fields: {exc}"
        ) from exc


def canonical_result_bytes(result: QueryResult) -> bytes:
    """The answer-identity serialization of a result: rows only.

    Key-sorted and whitespace-free, so two results are byte-identical
    exactly when they answered with the same rows — execution accounting
    (wall time, cache hits, rows examined) is deliberately excluded.
    """
    return json.dumps(
        result.rows, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")

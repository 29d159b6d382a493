"""Pushdown-plan serialization: shipping Fig. 2's hashmap to real clients.

The simulated devices in this repository share memory with the optimizer,
but a deployed CIAO pushes plans to remote sensors over the wire.  This
module gives :class:`~repro.core.optimizer.PushdownPlan` a stable JSON
form — predicate ids, structured clauses, pattern strings, selectivities
and costs — written by :mod:`repro.rawjson.writer` and parsed back by
:mod:`repro.rawjson.parser`, so a plan round-trips through any transport.

Pattern strings are *re-derived* from the clauses at load time rather than
trusted from the payload: the compilation rules are part of the protocol
contract (a tampered or stale pattern could silently introduce false
negatives), so the clause structure is the single source of truth.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

from ..rawjson.parser import loads
from ..rawjson.writer import dumps
from .budgets import Budget
from .optimizer import PushdownEntry, PushdownPlan
from .patterns import compile_clause
from .predicates import Clause, PredicateKind, SimplePredicate
from .selection import SelectionResult

#: Format identifier embedded in every serialized plan.
PLAN_FORMAT = "ciao-plan/1"


class PlanFormatError(ValueError):
    """Malformed or incompatible serialized plan."""


def predicate_to_dict(predicate: SimplePredicate) -> Dict[str, Any]:
    """JSON form of one simple predicate."""
    return {
        "kind": predicate.kind.value,
        "column": predicate.column,
        "value": predicate.value,
    }


def predicate_from_dict(data: Mapping[str, Any]) -> SimplePredicate:
    """Inverse of :func:`predicate_to_dict`."""
    try:
        kind = PredicateKind(data["kind"])
    except (KeyError, ValueError) as exc:
        raise PlanFormatError(f"bad predicate kind in {data!r}") from exc
    return SimplePredicate(kind, data["column"], data.get("value"))


def clause_to_dict(clause: Clause) -> List[Dict[str, Any]]:
    """JSON form of a disjunctive clause."""
    return [predicate_to_dict(p) for p in clause.predicates]


def clause_from_dict(data: List[Mapping[str, Any]]) -> Clause:
    """Inverse of :func:`clause_to_dict`."""
    if not isinstance(data, list) or not data:
        raise PlanFormatError("clauses must be non-empty arrays")
    return Clause(tuple(predicate_from_dict(p) for p in data))


def plan_to_dict(plan: PushdownPlan) -> Dict[str, Any]:
    """JSON-serializable form of a pushdown plan."""
    return {
        "format": PLAN_FORMAT,
        "budget_us": plan.budget.us,
        "algorithm": plan.selection.algorithm,
        "entries": [
            {
                "id": entry.predicate_id,
                "clause": clause_to_dict(entry.clause),
                "selectivity": entry.selectivity,
                "cost_us": entry.cost_us,
                # Informational only; re-derived at load time.
                "patterns": [
                    p for spec in entry.compiled.specs
                    for p in spec.patterns
                ],
            }
            for entry in plan.entries
        ],
    }


def plan_from_dict(data: Mapping[str, Any]) -> PushdownPlan:
    """Reconstruct a plan; validates format and id uniqueness."""
    if data.get("format") != PLAN_FORMAT:
        raise PlanFormatError(
            f"unsupported plan format {data.get('format')!r}; "
            f"expected {PLAN_FORMAT!r}"
        )
    entries: List[PushdownEntry] = []
    seen_ids = set()
    for raw in data.get("entries", []):
        pid = raw["id"]
        if pid in seen_ids:
            raise PlanFormatError(f"duplicate predicate id {pid}")
        seen_ids.add(pid)
        clause = clause_from_dict(raw["clause"])
        entries.append(
            PushdownEntry(
                predicate_id=pid,
                clause=clause,
                compiled=compile_clause(clause),
                selectivity=float(raw["selectivity"]),
                cost_us=float(raw["cost_us"]),
            )
        )
    entries.sort(key=lambda e: e.predicate_id)
    budget = Budget(float(data["budget_us"]))
    selection = SelectionResult(
        selected=tuple(e.clause for e in entries),
        objective_value=float("nan"),
        total_cost=sum(e.cost_us for e in entries),
        budget=budget.us,
        algorithm=str(data.get("algorithm", "deserialized")),
    )
    return PushdownPlan(entries, budget, selection)


def dumps_plan(plan: PushdownPlan) -> str:
    """Serialize a plan to JSON text."""
    return dumps(plan_to_dict(plan))


def loads_plan(text: str) -> PushdownPlan:
    """Parse a plan from JSON text."""
    try:
        data = loads(text)
    except ValueError as exc:
        raise PlanFormatError(f"plan payload is not JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise PlanFormatError("plan payload must be a JSON object")
    return plan_from_dict(data)

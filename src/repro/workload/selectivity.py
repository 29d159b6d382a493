"""Sample-based selectivity estimation (paper §VII-C).

"We estimate the selectivity for each predicate by evaluating them on
sampled datasets."  Estimates evaluate the clause's *semantic* predicate on
parsed records — the quantity sel(p) in the objective — not the raw-pattern
hit rate, which additionally counts false positives (the raw hit rate is
measured separately during calibration).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from ..core.patterns import compile_clause
from ..core.predicates import Clause

#: Lower bound for estimates: a clause that matched nothing in the sample
#: still gets a tiny non-zero selectivity so downstream products and cost
#: ratios stay well-behaved (the sample, not the population, was empty).
MIN_SELECTIVITY = 1e-4


def estimate_selectivity(clause: Clause,
                         sample: Sequence[Mapping[str, Any]]) -> float:
    """Fraction of sampled records satisfying *clause* (floored)."""
    if not sample:
        raise ValueError("cannot estimate selectivity from an empty sample")
    hits = sum(1 for record in sample if clause.evaluate(record))
    return max(MIN_SELECTIVITY, hits / len(sample))


def estimate_selectivities(clauses: Iterable[Clause],
                           sample: Sequence[Mapping[str, Any]],
                           ) -> Dict[Clause, float]:
    """Estimate every clause against one shared sample.

    A single-predicate clause reads only ``record.get(column)``, so its
    hits are counted once per distinct column value, weighted by how often
    that value occurs.  Values are keyed by ``(type(v), v)`` so ``True``,
    ``1`` and ``1.0`` stay apart.  Disjunctive clauses, and columns holding
    unhashable values (lists, dicts), fall back to evaluating every record.
    The hit counts, and so the fractions, equal the per-record ones.
    """
    clause_list = list(clauses)
    if not sample:
        raise ValueError("cannot estimate selectivity from an empty sample")
    value_counts: Dict[str, Optional[Counter]] = {}
    hits: List[int] = []
    for c in clause_list:
        if len(c.predicates) == 1:
            column = c.predicates[0].column
            if column not in value_counts:
                value_counts[column] = _count_values(column, sample)
            counts = value_counts[column]
            if counts is not None:
                hits.append(sum(
                    n for (_, value), n in counts.items()
                    if c.evaluate({column: value})
                ))
                continue
        hits.append(sum(1 for record in sample if c.evaluate(record)))
    n = len(sample)
    return {
        c: max(MIN_SELECTIVITY, h / n)
        for c, h in zip(clause_list, hits)
    }


def _count_values(column: str, sample: Sequence[Mapping[str, Any]],
                  ) -> Optional[Counter]:
    """``(type(v), v) -> count`` over *sample*; None if a value is
    unhashable."""
    try:
        return Counter(
            (type(value), value)
            for value in (record.get(column) for record in sample)
        )
    except TypeError:
        return None


def measure_raw_hit_rates(clauses: Iterable[Clause],
                          raw_records: Sequence[str]) -> Dict[Clause, float]:
    """Raw-pattern hit rate per clause — selectivity *plus* false positives.

    The gap between this and :func:`estimate_selectivities` is exactly the
    false-positive rate of the pattern compilation, which the
    ``bench_ablation_false_positives`` bench reports.
    """
    if not raw_records:
        raise ValueError("need raw records to measure hit rates")
    rates: Dict[Clause, float] = {}
    for c in clauses:
        matcher = compile_clause(c).matcher()
        hits = sum(1 for raw in raw_records if matcher(raw))
        rates[c] = hits / len(raw_records)
    return rates


def false_positive_rates(clauses: Iterable[Clause],
                         sample: Sequence[Mapping[str, Any]],
                         raw_records: Sequence[str],
                         ) -> Dict[Clause, float]:
    """P(raw match | semantic non-match) per clause.

    *sample* must be the parsed form of *raw_records*, index-aligned.
    """
    sample = list(sample)
    raw_records = list(raw_records)
    if len(sample) != len(raw_records):
        raise ValueError("sample and raw_records must be index-aligned")
    rates: Dict[Clause, float] = {}
    for c in clauses:
        matcher = compile_clause(c).matcher()
        spurious = 0
        negatives = 0
        for record, raw in zip(sample, raw_records):
            if c.evaluate(record):
                continue
            negatives += 1
            if matcher(raw):
                spurious += 1
        rates[c] = spurious / negatives if negatives else 0.0
    return rates

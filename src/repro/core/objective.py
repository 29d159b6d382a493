"""The optimization objective f(S) and its submodular structure (paper §V).

For a query ``q_i`` with candidate clause set ``P_i`` and a pushed-down set
``S``, the probability that a new tuple is filtered out for ``q_i`` is, under
the independence assumption,

    f(q_i, S) = 1 − Π_{p ∈ P_i ∩ S} sel(p)

and the expected benefit over the workload is

    f(S) = Σ_i freq(q_i) · f(q_i, S).

Section V-B proves f is submodular (diminishing marginal returns caused by
clause overlap across queries); :func:`is_submodular_on` re-checks the
defining inequality numerically and is used by the property-based tests.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Mapping, Tuple

from .predicates import Clause, Workload

ClauseSet = FrozenSet[Clause]
#: One query as the hot path sees it: (normalized frequency, its clauses).
QueryTerm = Tuple[float, Tuple[Clause, ...]]


class SelectionObjective:
    """Evaluate f(S) and marginal gains for a fixed workload and stats.

    Args:
        workload: The prospective queries Q.
        selectivities: Estimated ``sel(p)`` per candidate clause, the
            fraction of tuples *satisfying* the clause, in [0, 1].  Every
            clause in the workload's candidate pool must be present.
    """

    def __init__(self, workload: Workload,
                 selectivities: Mapping[Clause, float]):
        self._workload = workload
        missing = [
            c for c in workload.candidate_pool if c not in selectivities
        ]
        if missing:
            raise ValueError(
                f"missing selectivity estimates for {len(missing)} clauses, "
                f"first: {missing[0].sql()}"
            )
        bad = {
            c: s for c, s in selectivities.items() if not 0.0 <= s <= 1.0
        }
        if bad:
            raise ValueError(f"selectivities must lie in [0, 1]: {bad}")
        self._sel: Dict[Clause, float] = dict(selectivities)
        # Normalized frequencies so objective values are comparable across
        # workloads of different sizes.
        self._freq = workload.normalized_frequencies()
        # Flat (frequency, clause tuple) pairs: the evaluation hot path.
        self._flat: List[QueryTerm] = [
            (self._freq[q], q.clauses) for q in workload.queries
        ]
        # Clause -> the terms of the queries containing it, in workload
        # order: a marginal gain sums exactly the terms (and in the order)
        # a full scan would, so its floats are bit-identical.
        self._containing: Dict[Clause, List[QueryTerm]] = {}
        for term in self._flat:
            for c in term[1]:
                self._containing.setdefault(c, []).append(term)

    @property
    def workload(self) -> Workload:
        """The workload this objective scores against."""
        return self._workload

    def selectivity(self, clause: Clause) -> float:
        """sel(p) for one clause."""
        return self._sel[clause]

    def value(self, selected: Iterable[Clause]) -> float:
        """f(S): expected filtering benefit across the workload."""
        selected_set = (
            selected if isinstance(selected, frozenset)
            else frozenset(selected)
        )
        total = 0.0
        sel = self._sel
        for freq, clauses in self._flat:
            product = 1.0
            for c in clauses:
                if c in selected_set:
                    product *= sel[c]
            total += freq * (1.0 - product)
        return total

    def marginal_gain(self, selected: ClauseSet, candidate: Clause) -> float:
        """f(S ∪ {p}) − f(S) without re-scoring unaffected queries."""
        if candidate in selected:
            return 0.0
        gain = 0.0
        sel = self._sel
        candidate_sel = sel[candidate]
        for freq, clauses in self._containing.get(candidate, ()):
            product = 1.0
            for c in clauses:
                if c in selected:
                    product *= sel[c]
            # Adding the candidate scales the survival product by its
            # selectivity, so the query's benefit rises by product·(1−sel).
            gain += freq * product * (1.0 - candidate_sel)
        return gain


def is_submodular_on(objective: SelectionObjective,
                     sets: Iterable[ClauseSet]) -> bool:
    """Numerically verify f(S) + f(T) ≥ f(S ∩ T) + f(S ∪ T) over set pairs.

    Exhaustive over the given collection; intended for tests with small
    candidate pools, mirroring the §V-B proof obligation.
    """
    sets = list(sets)
    for s, t in combinations(sets, 2):
        lhs = objective.value(s) + objective.value(t)
        rhs = objective.value(s & t) + objective.value(s | t)
        if lhs < rhs - 1e-9:
            return False
    return True


def all_subsets(clauses: Iterable[Clause]) -> List[ClauseSet]:
    """Every subset of *clauses* (test helper; exponential — keep small)."""
    clauses = list(clauses)
    subsets: List[ClauseSet] = []
    for r in range(len(clauses) + 1):
        for combo in combinations(clauses, r):
            subsets.append(frozenset(combo))
    return subsets

"""Predicate selection under a knapsack budget (paper §V-C).

Maximizing the submodular benefit ``f(S)`` subject to
``Σ_{p∈S} cost(p) ≤ B`` is NP-hard; the paper combines two greedy
heuristics, each of which can be arbitrarily bad alone:

* **Algorithm 1 (naive greedy)** — repeatedly add the feasible clause with
  the highest absolute benefit ``f(S ∪ {p})``.
* **Algorithm 2 (benefit-cost greedy)** — repeatedly add the feasible
  clause with the highest marginal benefit per unit cost.

Taking the better of the two results is guaranteed at least
``½(1 − 1/e) · OPT ≈ 0.316 · OPT`` (Khuller, Moss & Naor 1999).

Extensions beyond the paper, exercised by the ablation bench:

* :func:`celf_greedy` — the benefit-cost greedy accelerated with lazy
  marginal-gain evaluation (CELF); identical output, far fewer evaluations.
* :func:`exhaustive_optimum` — brute force, the test oracle for the bound.

The naive arm stays eager on purpose.  Each marginal gain reads only the
queries that contain its clause (the objective's clause → query index),
so on yelp workload A (200 queries, 83 clauses, budget 20 µs/record, a
2-vCPU host) the eager naive arm takes ~33 ms for 2,217 evaluations
and the CELF ratio arm ~12 ms for 249.  A lazy naive arm could save at
most those 33 ms, and would add a second heap whose tie-break must
reproduce Algorithm 1's pool-order choice to the last bit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from .objective import SelectionObjective
from .predicates import Clause

#: The constant of the Khuller–Moss–Naor guarantee: ½(1 − 1/e).
APPROXIMATION_GUARANTEE = 0.5 * (1.0 - 2.718281828459045 ** -1.0)


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one selection algorithm run.

    Attributes:
        selected: Clauses in pick order (convert to a set for membership).
        objective_value: ``f(selected)``.
        total_cost: Σ cost of the selected clauses (≤ budget always).
        budget: The budget the run respected.
        algorithm: Which algorithm produced the result.
        evaluations: Number of marginal-gain evaluations performed — the
            metric the CELF ablation compares.
    """

    selected: Tuple[Clause, ...]
    objective_value: float
    total_cost: float
    budget: float
    algorithm: str
    evaluations: int = 0

    @property
    def selected_set(self) -> FrozenSet[Clause]:
        """The selected clauses as a set."""
        return frozenset(self.selected)

    def __len__(self) -> int:
        return len(self.selected)


def _check_inputs(objective: SelectionObjective,
                  costs: Mapping[Clause, float], budget: float) -> None:
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    missing = [
        c for c in objective.workload.candidate_pool if c not in costs
    ]
    if missing:
        raise ValueError(
            f"missing costs for {len(missing)} clauses, "
            f"first: {missing[0].sql()}"
        )
    negative = [c for c, cost in costs.items() if cost < 0]
    if negative:
        raise ValueError("clause costs must be non-negative")


def naive_greedy(objective: SelectionObjective,
                 costs: Mapping[Clause, float],
                 budget: float) -> SelectionResult:
    """Paper Algorithm 1: pick the feasible clause with highest f(S ∪ {p}).

    Ignores cost differences entirely, so a huge near-duplicate clause can
    crowd out several cheap ones — the failure mode Algorithm 2 covers.
    """
    _check_inputs(objective, costs, budget)
    pool = list(objective.workload.candidate_pool)
    selected: List[Clause] = []
    selected_set: FrozenSet[Clause] = frozenset()
    spent = 0.0
    evaluations = 0
    while True:
        best: Optional[Clause] = None
        best_gain = -1.0
        for candidate in pool:
            if candidate in selected_set:
                continue
            if spent + costs[candidate] > budget + 1e-12:
                continue
            gain = objective.marginal_gain(selected_set, candidate)
            evaluations += 1
            # Strict improvement keeps tie-breaking on canonical pool order.
            if gain > best_gain + 1e-15:
                best, best_gain = candidate, gain
        if best is None:
            break
        selected.append(best)
        selected_set = selected_set | {best}
        spent += costs[best]
    return SelectionResult(
        selected=tuple(selected),
        objective_value=objective.value(selected_set),
        total_cost=spent,
        budget=budget,
        algorithm="naive_greedy",
        evaluations=evaluations,
    )


def ratio_greedy(objective: SelectionObjective,
                 costs: Mapping[Clause, float],
                 budget: float) -> SelectionResult:
    """Paper Algorithm 2: pick the highest marginal benefit-cost ratio.

    Zero-cost clauses (possible when a pattern is priced below the model's
    resolution) are treated as infinitely good and taken first — they can
    only help.
    """
    _check_inputs(objective, costs, budget)
    pool = list(objective.workload.candidate_pool)
    selected: List[Clause] = []
    selected_set: FrozenSet[Clause] = frozenset()
    spent = 0.0
    evaluations = 0
    while True:
        best: Optional[Clause] = None
        best_ratio = -1.0
        for candidate in pool:
            if candidate in selected_set:
                continue
            cost = costs[candidate]
            if spent + cost > budget + 1e-12:
                continue
            gain = objective.marginal_gain(selected_set, candidate)
            evaluations += 1
            ratio = gain / cost if cost > 0 else float("inf")
            if ratio > best_ratio + 1e-15:
                best, best_ratio = candidate, ratio
        if best is None:
            break
        selected.append(best)
        selected_set = selected_set | {best}
        spent += costs[best]
    return SelectionResult(
        selected=tuple(selected),
        objective_value=objective.value(selected_set),
        total_cost=spent,
        budget=budget,
        algorithm="ratio_greedy",
        evaluations=evaluations,
    )


def select_predicates(objective: SelectionObjective,
                      costs: Mapping[Clause, float],
                      budget: float,
                      use_celf: bool = True) -> SelectionResult:
    """CIAO's selector: run both greedies, keep the better f(S).

    This is the ``≥ ½(1 − 1/e) · OPT`` combination of §V-C.  With
    ``use_celf`` the benefit-cost arm runs the lazy CELF variant, which
    returns the same set with far fewer marginal-gain evaluations.
    """
    by_benefit = naive_greedy(objective, costs, budget)
    by_ratio = (
        celf_greedy(objective, costs, budget) if use_celf
        else ratio_greedy(objective, costs, budget)
    )
    winner = max(by_benefit, by_ratio, key=lambda r: r.objective_value)
    return SelectionResult(
        selected=winner.selected,
        objective_value=winner.objective_value,
        total_cost=winner.total_cost,
        budget=budget,
        algorithm=f"max({by_benefit.algorithm}, {by_ratio.algorithm})",
        evaluations=by_benefit.evaluations + by_ratio.evaluations,
    )


def celf_greedy(objective: SelectionObjective,
                costs: Mapping[Clause, float],
                budget: float) -> SelectionResult:
    """Benefit-cost greedy with lazy evaluation (CELF; Leskovec et al.).

    Submodularity means a clause's marginal gain only shrinks as S grows,
    so a stale upper bound that is already below the current best cannot
    win.  We keep a max-heap of (possibly stale) ratios and only refresh the
    top — typically a large constant-factor reduction in evaluations, which
    the selection ablation bench measures.
    """
    _check_inputs(objective, costs, budget)
    pool = list(objective.workload.candidate_pool)
    selected: List[Clause] = []
    selected_set: FrozenSet[Clause] = frozenset()
    spent = 0.0
    evaluations = 0

    def ratio_of(gain: float, clause: Clause) -> float:
        cost = costs[clause]
        return gain / cost if cost > 0 else float("inf")

    # Heap entries: (-ratio, tie_breaker, clause, round_computed)
    heap: List[Tuple[float, int, Clause, int]] = []
    for order, candidate in enumerate(pool):
        gain = objective.marginal_gain(selected_set, candidate)
        evaluations += 1
        heapq.heappush(
            heap, (-ratio_of(gain, candidate), order, candidate, 0)
        )
    current_round = 0
    while heap:
        neg_ratio, order, candidate, computed_round = heapq.heappop(heap)
        if candidate in selected_set:
            continue
        if spent + costs[candidate] > budget + 1e-12:
            # Infeasible *now*; keep it aside in case nothing else fits
            # either (it can never become feasible again — spent only
            # grows — so dropping is safe; we simply drop).
            continue
        if computed_round != current_round:
            gain = objective.marginal_gain(selected_set, candidate)
            evaluations += 1
            heapq.heappush(
                heap, (-ratio_of(gain, candidate), order, candidate,
                       current_round)
            )
            continue
        selected.append(candidate)
        selected_set = selected_set | {candidate}
        spent += costs[candidate]
        current_round += 1
    return SelectionResult(
        selected=tuple(selected),
        objective_value=objective.value(selected_set),
        total_cost=spent,
        budget=budget,
        algorithm="celf_greedy",
        evaluations=evaluations,
    )


def exhaustive_optimum(objective: SelectionObjective,
                       costs: Mapping[Clause, float],
                       budget: float,
                       max_pool: int = 20) -> SelectionResult:
    """Brute-force OPT for small pools — the approximation-bound oracle.

    Refuses pools larger than *max_pool* (2^n subsets) rather than running
    for hours.
    """
    _check_inputs(objective, costs, budget)
    pool = list(objective.workload.candidate_pool)
    if len(pool) > max_pool:
        raise ValueError(
            f"pool of {len(pool)} clauses exceeds max_pool={max_pool}"
        )
    best_set: FrozenSet[Clause] = frozenset()
    best_value = 0.0
    best_cost = 0.0
    evaluations = 0
    for mask in range(1 << len(pool)):
        subset = [pool[i] for i in range(len(pool)) if mask >> i & 1]
        cost = sum(costs[c] for c in subset)
        if cost > budget + 1e-12:
            continue
        value = objective.value(frozenset(subset))
        evaluations += 1
        if value > best_value + 1e-15:
            best_set = frozenset(subset)
            best_value = value
            best_cost = cost
    return SelectionResult(
        selected=tuple(sorted(best_set)),
        objective_value=best_value,
        total_cost=best_cost,
        budget=budget,
        algorithm="exhaustive",
        evaluations=evaluations,
    )

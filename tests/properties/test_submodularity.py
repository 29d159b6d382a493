"""Property-based tests of f(S): submodularity, monotonicity, and the
combined greedy's ½(1−1/e) approximation bound against brute force."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    APPROXIMATION_GUARANTEE,
    Query,
    SelectionObjective,
    Workload,
    all_subsets,
    clause,
    exact,
    exhaustive_optimum,
    is_submodular_on,
    select_predicates,
)

CLAUSES = [clause(exact(f"c{i}", f"v{i}")) for i in range(6)]


@st.composite
def random_instances(draw):
    """A random workload over ≤6 clauses with random stats and costs."""
    n_clauses = draw(st.integers(min_value=2, max_value=6))
    pool = CLAUSES[:n_clauses]
    n_queries = draw(st.integers(min_value=1, max_value=5))
    queries = []
    for q in range(n_queries):
        member_mask = draw(
            st.integers(min_value=1, max_value=(1 << n_clauses) - 1)
        )
        members = tuple(
            pool[i] for i in range(n_clauses) if member_mask >> i & 1
        )
        frequency = draw(
            st.floats(min_value=0.1, max_value=5.0, allow_nan=False)
        )
        queries.append(Query(members, frequency=frequency, name=f"q{q}"))
    sels = {
        c: draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
        for c in pool
    }
    costs = {
        c: draw(st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
        for c in pool
    }
    budget = draw(st.floats(min_value=0.0, max_value=6.0, allow_nan=False))
    return Workload(tuple(queries)), sels, costs, budget


@given(random_instances())
@settings(max_examples=150, deadline=None)
def test_submodular_inequality(instance):
    workload, sels, _, _ = instance
    objective = SelectionObjective(workload, sels)
    assert is_submodular_on(
        objective, all_subsets(workload.candidate_pool)
    )


@given(random_instances())
@settings(max_examples=150, deadline=None)
def test_monotone_nondecreasing(instance):
    workload, sels, _, _ = instance
    objective = SelectionObjective(workload, sels)
    pool = list(workload.candidate_pool)
    selected = frozenset()
    previous = 0.0
    for c in pool:
        selected = selected | {c}
        current = objective.value(selected)
        assert current >= previous - 1e-12
        previous = current


@given(random_instances())
@settings(max_examples=100, deadline=None)
def test_combined_greedy_meets_khuller_bound(instance):
    workload, sels, costs, budget = instance
    objective = SelectionObjective(workload, sels)
    greedy = select_predicates(objective, costs, budget)
    optimum = exhaustive_optimum(objective, costs, budget)
    assert greedy.total_cost <= budget + 1e-9
    assert greedy.objective_value >= (
        APPROXIMATION_GUARANTEE * optimum.objective_value - 1e-9
    )


@given(random_instances())
@settings(max_examples=100, deadline=None)
def test_objective_bounded_by_one(instance):
    workload, sels, _, _ = instance
    objective = SelectionObjective(workload, sels)
    value = objective.value(frozenset(workload.candidate_pool))
    assert -1e-12 <= value <= 1.0 + 1e-12


#: A clause the gain instances may add to every query.
SHARED = clause(exact("shared", "every query"))


@st.composite
def gain_instances(draw):
    """A random instance, optionally with one clause in every query, and
    a random selected set S drawn from its pool."""
    workload, sels, _, _ = draw(random_instances())
    if draw(st.booleans()):
        workload = Workload(tuple(
            Query(q.clauses + (SHARED,), frequency=q.frequency, name=q.name)
            for q in workload.queries
        ))
        sels = {
            **sels,
            SHARED: draw(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
            ),
        }
    pool = workload.candidate_pool
    selected = frozenset(draw(st.sets(st.sampled_from(pool))))
    return workload, sels, selected


def full_scan_gain(workload, sels, selected, candidate):
    """The marginal gain by scanning every query, in workload order."""
    if candidate in selected:
        return 0.0
    freq = workload.normalized_frequencies()
    gain = 0.0
    for query in workload.queries:
        if candidate not in query.clauses:
            continue
        product = 1.0
        for c in query.clauses:
            if c in selected:
                product *= sels[c]
        gain += freq[query] * product * (1.0 - sels[candidate])
    return gain


@given(gain_instances())
@settings(max_examples=150, deadline=None)
def test_indexed_marginal_gain_matches_full_scan(instance):
    workload, sels, selected = instance
    objective = SelectionObjective(workload, sels)
    base = objective.value(selected)
    # Every pool clause: the already-selected ones (gain 0) and, when
    # drawn, the clause shared by every query.
    for candidate in workload.candidate_pool:
        gain = objective.marginal_gain(selected, candidate)
        assert gain == full_scan_gain(workload, sels, selected, candidate)
        assert abs(
            gain - (objective.value(selected | {candidate}) - base)
        ) <= 1e-12

"""Unit tests for the CIAO optimizer facade and pushdown plans."""

import math

import pytest

from repro.core import (
    Budget,
    CostModel,
    DEFAULT_COEFFICIENTS,
    clause,
    exact,
    manual_plan,
    substring,
)


class TestPlan:
    def test_ids_are_dense_in_pick_order(self, tiny_optimizer):
        plan = tiny_optimizer.plan(Budget(10.0))
        assert plan.predicate_ids == list(range(len(plan)))
        assert plan.selection.selected == tuple(plan.clauses)

    def test_plan_respects_budget(self, tiny_optimizer):
        for budget in [0.0, 0.3, 0.7, 2.0]:
            plan = tiny_optimizer.plan(Budget(budget))
            assert plan.total_cost_us() <= budget + 1e-9

    def test_lookup_by_clause_and_sql(self, tiny_optimizer):
        plan = tiny_optimizer.plan(Budget(10.0))
        for entry in plan.entries:
            assert plan.lookup(entry.clause) is entry
            assert plan.lookup_sql(entry.clause.sql()) is entry
        assert plan.lookup(clause(exact("zz", "zz"))) is None
        assert plan.lookup_sql("zz = 'zz'") is None

    def test_covers_query_and_ids_for_query(self, tiny_optimizer,
                                            tiny_workload):
        plan = tiny_optimizer.plan(Budget(10.0))
        for query in tiny_workload:
            assert plan.covers_query(query)
            ids = plan.ids_for_query(query)
            assert len(ids) == len(query)

    def test_zero_budget_plan_is_empty(self, tiny_optimizer, tiny_workload):
        plan = tiny_optimizer.plan(Budget(0.0))
        assert len(plan) == 0
        assert not plan.covers_query(tiny_workload.queries[0])

    def test_describe_lists_patterns(self, tiny_optimizer):
        plan = tiny_optimizer.plan(Budget(10.0))
        text = plan.describe()
        for entry in plan.entries:
            assert entry.clause.sql() in text

    def test_plan_sweep_monotone_in_predicates(self, tiny_optimizer):
        budgets = [Budget(b) for b in (0.0, 0.25, 0.5, 1.0, 5.0)]
        sweep = tiny_optimizer.plan_sweep(budgets)
        sizes = [len(plan) for _, plan in sweep]
        assert sizes == sorted(sizes)


class TestManualPlan:
    def test_fixed_clause_set(self):
        c1 = clause(exact("a", "x"))
        c2 = clause(substring("t", "kw"))
        model = CostModel(DEFAULT_COEFFICIENTS, 150)
        plan = manual_plan([c1, c2], {c1: 0.2, c2: 0.4}, model)
        assert plan.clauses == [c1, c2]
        assert plan.predicate_ids == [0, 1]
        assert math.isnan(plan.expected_benefit())
        assert plan.total_cost_us() == pytest.approx(plan.budget.us)


#: Budget -> (pushed SQL in id order, f(S), marginal-gain evaluations).
GOLDEN_PLANS = {
    20.0: (
        [
            "cool = 2", "cool = 87", "useful = 63", "useful = 98",
            "funny = 76", "cool = 75", "cool = 93", "funny = 33",
            "funny = 27", "funny = 56", "useful = 68",
            "date LIKE '2010-%'", "date LIKE '%-10-%'",
            "date LIKE '2016-%'", "cool = 69", "cool = 54", "cool = 67",
            "cool = 39", "funny = 68", "funny = 84", "cool = 18",
            "useful = 20", "funny = 12", "funny = 3", "stars = 1",
            "funny = 73", "date LIKE '%-04-%'", "date LIKE '2009-%'",
            "useful = 74", "useful = 92", "funny = 9", "cool = 31",
            "funny = 7", "cool = 68",
        ],
        0.9889250293067982,
        2466,
    ),
    1.0: (["cool = 2", "date LIKE '2009-%'"], 0.919985800000001, 186),
}


class TestGoldenPlans:
    """The planner's output is pinned to the last bit on yelp.

    The plans are the ones the yelp benchmark workloads serve; see
    ``GOLDEN_SEED`` in ``conftest``.
    """

    @pytest.mark.parametrize("budget", sorted(GOLDEN_PLANS))
    def test_plan_matches_golden(self, yelp_golden_optimizer, budget):
        sql, objective_value, evaluations = GOLDEN_PLANS[budget]
        plan = yelp_golden_optimizer.plan(Budget(budget))
        assert [c.sql() for c in plan.clauses] == sql
        assert plan.predicate_ids == list(range(len(sql)))
        assert plan.selection.objective_value == objective_value
        assert plan.selection.evaluations == evaluations

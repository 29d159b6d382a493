"""Shared fixtures for the CIAO reproduction test suite.

With ``CIAO_LOCKSAN=1`` in the environment the runtime lock sanitizer
is enabled before any production lock is created: the ``make_*`` lock
factories return instrumented wrappers that record real acquisition
orders, and a session-teardown fixture merges the observed edges into
the statically computed lock graph and fails the run on any cycle.
"""

from __future__ import annotations

import os

import pytest

if os.environ.get("CIAO_LOCKSAN"):
    from repro.analysis.sanitizer import enable as _locksan_enable

    _locksan_enable()


@pytest.fixture(scope="session", autouse=True)
def _locksan_session_check():
    """Verify observed lock orders against the static graph at teardown."""
    yield
    if not os.environ.get("CIAO_LOCKSAN"):
        return
    from pathlib import Path

    import repro
    from repro.analysis import build_lock_graph_from_paths, verify_consistent
    from repro.analysis.sanitizer import acquisition_counts

    graph = build_lock_graph_from_paths([Path(repro.__file__).parent])
    observed = verify_consistent(graph.edge_set())  # raises on a cycle
    counts = acquisition_counts()
    print(
        f"\n[locksan] {sum(counts.values())} sanitized acquisitions over "
        f"{len(counts)} lock(s); {len(observed)} observed order edge(s) "
        f"consistent with the static graph"
    )

from repro.core import (
    Budget,
    CiaoOptimizer,
    CostModel,
    DEFAULT_COEFFICIENTS,
    Query,
    Workload,
    clause,
    exact,
    key_present,
    key_value,
    substring,
)
from repro.data import make_generator
from repro.rawjson import chunk_records, dump_record
from repro.workload import estimate_selectivities, table3_workload

TEST_SEED = 1234

#: Yelp Table III workload A and the planning sample, both from one seed:
#: the plans built from them are the ones the yelp_pushdown (Budget 20)
#: and yelp_adhoc (Budget 1) benchmark workloads serve.
GOLDEN_SEED = 20261016


@pytest.fixture(scope="session")
def winlog_generator():
    """A deterministic Windows-log generator shared across tests."""
    return make_generator("winlog", TEST_SEED)


@pytest.fixture(scope="session")
def yelp_generator():
    """A deterministic Yelp generator shared across tests."""
    return make_generator("yelp", TEST_SEED)


@pytest.fixture(scope="session")
def ycsb_generator():
    """A deterministic YCSB generator shared across tests."""
    return make_generator("ycsb", TEST_SEED)


@pytest.fixture(scope="session")
def winlog_sample(winlog_generator):
    """Parsed record sample for selectivity estimation."""
    return winlog_generator.sample(1500)


@pytest.fixture(scope="session")
def winlog_raw_lines(winlog_generator):
    """Raw serialized records (2 000) of the winlog dataset."""
    gen = make_generator("winlog", TEST_SEED)
    return list(gen.raw_lines(2000))


@pytest.fixture()
def tiny_workload():
    """A 3-query workload over hand-built clauses with known structure."""
    c_name = clause(exact("name", "Bob"), exact("name", "John"))
    c_age = clause(key_value("age", 20))
    c_text = clause(substring("text", "delicious"))
    c_email = clause(key_present("email"))
    q1 = Query((c_name, c_age), name="q1")
    q2 = Query((c_name, c_text), name="q2")
    q3 = Query((c_text, c_email), name="q3")
    return Workload((q1, q2, q3), dataset="demo")


@pytest.fixture()
def tiny_selectivities(tiny_workload):
    """Hand-fixed selectivities for the tiny workload's pool."""
    pool = tiny_workload.candidate_pool
    return {c: v for c, v in zip(pool, [0.30, 0.10, 0.25, 0.60])}


@pytest.fixture()
def tiny_optimizer(tiny_workload, tiny_selectivities):
    """Optimizer over the tiny workload with the default cost model."""
    model = CostModel(DEFAULT_COEFFICIENTS, avg_record_length=200)
    return CiaoOptimizer(tiny_workload, tiny_selectivities, model)


@pytest.fixture()
def demo_records():
    """Parsed + raw records matching the tiny workload's columns."""
    records = [
        {"name": "Bob", "age": 20, "text": "truly delicious stew",
         "email": "bob@example.test"},
        {"name": "John", "age": 31, "text": "bland", "email": None},
        {"name": "Eve", "age": 20, "text": "delicious crumbs"},
        {"name": "Mallory", "age": 44, "text": "awful"},
        {"name": "Bob", "age": 20, "text": "ok"},
    ]
    return records, [dump_record(r) for r in records]


@pytest.fixture(scope="session")
def yelp_golden_optimizer():
    """The optimizer behind the yelp benchmark plans (``GOLDEN_SEED``)."""
    planning = make_generator("yelp", GOLDEN_SEED)
    sample = planning.sample(1000)
    model = CostModel(DEFAULT_COEFFICIENTS, planning.average_record_length())
    workload = table3_workload("yelp", "A", seed=GOLDEN_SEED, n_queries=200)
    sels = estimate_selectivities(workload.candidate_pool, sample)
    return CiaoOptimizer(workload, sels, model)


@pytest.fixture(scope="session")
def yelp_pushdown_plan(yelp_golden_optimizer):
    """The yelp_pushdown plan: Budget(20), 34 pushed clauses."""
    return yelp_golden_optimizer.plan(Budget(20.0))


@pytest.fixture(scope="session")
def yelp_pushdown_records():
    """The 8,000 seed-1 yelp records one yelp_pushdown load ships."""
    return list(make_generator("yelp", 1).raw_lines(8000))


@pytest.fixture()
def yelp_pushdown_chunks(yelp_pushdown_records):
    """Fresh (unannotated) 100-record chunks of the yelp_pushdown load."""
    return list(chunk_records(yelp_pushdown_records, 100))

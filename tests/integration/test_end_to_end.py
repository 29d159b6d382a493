"""Integration tests: the full pipeline on realistic synthetic data."""

import pytest

from repro.client import SimulatedClient
from repro.core import Budget, CostModel, DEFAULT_COEFFICIENTS
from repro.core.optimizer import CiaoOptimizer
from repro.data import make_generator
from repro.rawjson import parse_object
from repro.server import CiaoServer
from repro.transport import FileChannel, MemoryChannel
from repro.workload import estimate_selectivities, selectivity_workload

SEED = 777
N_RECORDS = 1200


@pytest.fixture(scope="module")
def dataset():
    gen = make_generator("winlog", SEED)
    lines = list(gen.raw_lines(N_RECORDS))
    sample = gen.sample(800)
    return lines, sample


@pytest.fixture(scope="module")
def workload_and_plan(dataset):
    _, sample = dataset
    workload, pushed = selectivity_workload(0.15)
    sels = estimate_selectivities(workload.candidate_pool, sample)
    model = CostModel(DEFAULT_COEFFICIENTS, 160)
    opt = CiaoOptimizer(workload, sels, model)
    return workload, opt.plan(Budget(2.0))


def oracle_counts(lines, workload):
    parsed = [parse_object(line) for line in lines]
    return [
        sum(1 for r in parsed if q.evaluate(r)) for q in workload.queries
    ]


class TestFullPipeline:
    def test_ciao_equals_baseline_and_oracle(self, tmp_path, dataset,
                                             workload_and_plan):
        lines, _ = dataset
        workload, plan = workload_and_plan

        ciao = CiaoServer(tmp_path / "ciao", plan=plan, workload=workload)
        ciao_client = SimulatedClient("c0", plan=plan, chunk_size=300)
        for chunk in ciao_client.process(lines):
            ciao.ingest(chunk)
        ciao_summary = ciao.finalize_loading()

        base = CiaoServer(tmp_path / "base", plan=None, workload=workload)
        base_client = SimulatedClient("c1", plan=None, chunk_size=300)
        for chunk in base_client.process(lines):
            base.ingest(chunk)
        base_summary = base.finalize_loading()

        expected = oracle_counts(lines, workload)
        ciao_counts = [
            ciao.query(q.sql("t")).scalar() for q in workload.queries
        ]
        base_counts = [
            base.query(q.sql("t")).scalar() for q in workload.queries
        ]
        assert ciao_counts == expected
        assert base_counts == expected

        # CIAO actually engaged its mechanisms.
        assert ciao.partial_loading_enabled
        assert ciao_summary.loading_ratio < 1.0
        assert base_summary.loading_ratio == 1.0
        assert ciao_client.budget_respected()

    def test_skipping_reduces_rows_examined(self, tmp_path, dataset,
                                            workload_and_plan):
        lines, _ = dataset
        workload, plan = workload_and_plan
        server = CiaoServer(tmp_path / "s", plan=plan, workload=workload)
        client = SimulatedClient("c", plan=plan, chunk_size=300)
        for chunk in client.process(lines):
            server.ingest(chunk)
        server.finalize_loading()
        for query in workload.queries:
            result = server.query(query.sql("t"))
            assert result.plan_info.used_skipping
            assert result.stats.rows_examined < N_RECORDS / 2

    def test_file_channel_transport(self, tmp_path, dataset,
                                    workload_and_plan):
        lines, _ = dataset
        workload, plan = workload_and_plan
        channel = FileChannel(tmp_path / "spool")
        client = SimulatedClient("c", plan=plan, chunk_size=400)
        client.ship(lines, channel)
        server = CiaoServer(tmp_path / "srv", plan=plan, workload=workload)
        assert server.ingest_channel(channel) == 3
        server.finalize_loading()
        counts = [
            server.query(q.sql("t")).scalar() for q in workload.queries
        ]
        assert counts == oracle_counts(lines, workload)

    def test_multi_client_ingestion(self, tmp_path, dataset,
                                    workload_and_plan):
        lines, _ = dataset
        workload, plan = workload_and_plan
        half = len(lines) // 2
        server = CiaoServer(tmp_path / "m", plan=plan, workload=workload)
        channel = MemoryChannel()
        SimulatedClient("c0", plan=plan, chunk_size=200).ship(
            lines[:half], channel
        )
        SimulatedClient("c1", plan=plan, chunk_size=200).ship(
            lines[half:], channel
        )
        server.ingest_channel(channel)
        server.finalize_loading()
        counts = [
            server.query(q.sql("t")).scalar() for q in workload.queries
        ]
        assert counts == oracle_counts(lines, workload)


class TestUncoveredQueries:
    def test_uncovered_query_scans_sideline_and_is_exact(
            self, tmp_path, dataset, workload_and_plan):
        from repro.core import Query, clause, substring
        from repro.data.winlog import INFO_KEYWORDS

        lines, _ = dataset
        workload, plan = workload_and_plan
        server = CiaoServer(tmp_path / "u", plan=plan, workload=workload)
        client = SimulatedClient("c", plan=plan, chunk_size=300)
        for chunk in client.process(lines):
            server.ingest(chunk)
        server.finalize_loading()

        uncovered = Query(
            (clause(substring("info", INFO_KEYWORDS[50])),), name="u"
        )
        result = server.query(uncovered.sql("t"))
        parsed = [parse_object(line) for line in lines]
        assert result.scalar() == sum(
            1 for r in parsed if uncovered.evaluate(r)
        )
        assert result.plan_info.scans_sideline

"""Integration tests for coordinated fleet loading.

The contract under test: an N-client heterogeneous fleet produces exactly
the same query results as serial single-client ingest of the same records
— across shard counts, dispatch policies, backpressure settings, and
admission control.
"""

import pytest

from repro.client import SimulatedClient
from repro.core import (
    Budget,
    CiaoOptimizer,
    CostModel,
    DEFAULT_COEFFICIENTS,
)
from repro.data import make_generator
from repro.fleet import ClientPopulation, FleetCoordinator
from repro.server import CiaoServer
from repro.transport import MemoryChannel
from repro.workload import estimate_selectivities, table3_workload

SEED = 20260727
N_RECORDS = 1500
CHUNK = 150


@pytest.fixture(scope="module")
def setup():
    generator = make_generator("yelp", SEED)
    lines = list(generator.raw_lines(N_RECORDS))
    workload = table3_workload("yelp", "A", seed=SEED, n_queries=10)
    sels = estimate_selectivities(
        workload.candidate_pool, generator.sample(800)
    )
    model = CostModel(DEFAULT_COEFFICIENTS, 160)
    plan = CiaoOptimizer(workload, sels, model).plan(Budget(15.0))
    return lines, workload, plan


@pytest.fixture(scope="module")
def reference(setup, tmp_path_factory):
    """Serial single-client ingest of the same records."""
    lines, workload, plan = setup
    server = CiaoServer(
        tmp_path_factory.mktemp("ref"), plan=plan, workload=workload
    )
    client = SimulatedClient("solo", plan=plan, chunk_size=CHUNK)
    for chunk in client.process(lines):
        server.ingest(chunk)
    server.finalize_loading()
    return server


def answers(server, workload):
    return [server.query(q.sql("t")).scalar() for q in workload.queries]


def run_fleet(tmp_path, setup, n_clients=5, n_shards=2, budget=6.0,
              **kwargs):
    lines, workload, plan = setup
    server_kwargs = kwargs.pop("server_kwargs", {})
    server = CiaoServer(
        tmp_path / "fleet", plan=plan, workload=workload,
        n_shards=n_shards, shard_mode="thread", **server_kwargs
    )
    population = kwargs.pop(
        "population", ClientPopulation.generate(n_clients, seed=SEED)
    )
    coordinator = FleetCoordinator(
        server, population,
        global_plan=plan,
        aggregate_budget=Budget(budget) if budget is not None else None,
        chunk_size=CHUNK,
        **kwargs,
    )
    report = coordinator.run(lines)
    return server, report


class TestEquivalence:
    def test_fleet_matches_serial_ingest(self, tmp_path, setup,
                                         reference):
        lines, workload, _ = setup
        server, report = run_fleet(tmp_path, setup)
        assert report.no_record_loss
        assert answers(server, workload) == answers(reference, workload)

    def test_serial_server_fleet(self, tmp_path, setup, reference):
        lines, workload, _ = setup
        server, report = run_fleet(tmp_path, setup, n_shards=1)
        assert report.no_record_loss
        assert answers(server, workload) == answers(reference, workload)

    def test_unbudgeted_fleet(self, tmp_path, setup, reference):
        """No aggregate budget: every client runs the full plan."""
        lines, workload, _ = setup
        server, report = run_fleet(tmp_path, setup, budget=None)
        assert all(c.n_pushed == len(setup[2]) for c in report.clients)
        assert answers(server, workload) == answers(reference, workload)

    def test_reallocation_keeps_answers_exact(self, tmp_path, setup,
                                              reference):
        lines, workload, _ = setup
        server, report = run_fleet(
            tmp_path, setup, realloc_interval=3
        )
        assert report.realloc_rounds >= 1
        assert report.no_record_loss
        assert answers(server, workload) == answers(reference, workload)


class TestDeterminism:
    """Same seed ⇒ identical population, partition, and query results."""

    def test_population_and_partition_reproduce(self, setup):
        lines, _, _ = setup
        a = ClientPopulation.generate(6, seed=SEED)
        b = ClientPopulation.generate(6, seed=SEED)
        assert a.specs == b.specs
        assert a.partition(lines) == b.partition(lines)

    def test_round_robin_results_identical_across_runs(self, tmp_path,
                                                       setup, reference):
        lines, workload, _ = setup
        first_server, first = run_fleet(
            tmp_path / "a", setup,
            server_kwargs={"dispatch": "round-robin"},
        )
        second_server, second = run_fleet(
            tmp_path / "b", setup,
            server_kwargs={"dispatch": "round-robin"},
        )
        assert first.no_record_loss and second.no_record_loss
        expected = answers(reference, workload)
        assert answers(first_server, workload) == expected
        assert answers(second_server, workload) == expected
        # Identical initial assignment both runs.
        assert (
            [c.assigned_records for c in first.clients]
            == [c.assigned_records for c in second.clients]
        )


class TestAccounting:
    def test_per_source_sessions(self, tmp_path, setup):
        server, report = run_fleet(tmp_path, setup)
        sources = server.ingest_sources
        assert set(sources) == {c.client_id for c in report.clients}
        assert sum(sources.values()) == report.summary.chunks
        assert report.chunks_by_source == sources
        # Shipped chunks per client match what the server attributed.
        for client in report.clients:
            assert sources[client.client_id] == client.shipped_chunks

    def test_budget_allocation_reflected(self, tmp_path, setup):
        from repro.fleet import FleetBudgetAllocator

        _, _, plan = setup
        population = ClientPopulation.generate(5, seed=SEED)
        expected = FleetBudgetAllocator(plan, Budget(6.0)).allocate(
            population.profiles()
        )
        server, report = run_fleet(
            tmp_path, setup, population=population
        )
        for client in report.clients:
            assert client.budget_us == pytest.approx(
                expected.budgets[client.client_id].us
            )
            assert client.n_pushed == expected.pushed(client.client_id)
            assert client.n_pushed <= len(plan)

    def test_ledger_accounts(self, tmp_path, setup):
        server, report = run_fleet(tmp_path, setup)
        assert report.ledger.virtual_us.get("prefiltering", 0) > 0
        assert report.ledger.wall_seconds.get("prefiltering", 0) > 0


class TestBackpressure:
    def test_channel_pending_stays_bounded(self, tmp_path, setup):
        lines, workload, plan = setup
        max_pending = 3
        peaks = {}

        class Watched(MemoryChannel):
            def __init__(self, client_id):
                super().__init__()
                self._client_id = client_id
                peaks[client_id] = 0

            def send(self, payload):
                super().send(payload)
                peaks[self._client_id] = max(
                    peaks[self._client_id], self.pending()
                )

        server, report = run_fleet(
            tmp_path, setup,
            max_pending=max_pending,
            channel_factory=Watched,
        )
        assert report.no_record_loss
        assert peaks and all(
            peak <= max_pending for peak in peaks.values()
        )

    def test_admission_control_completes(self, tmp_path, setup,
                                         reference):
        lines, workload, _ = setup
        server, report = run_fleet(tmp_path, setup, max_active=2)
        assert report.no_record_loss
        assert answers(server, workload) == answers(reference, workload)


class TestLifecycle:
    def test_run_is_single_use(self, tmp_path, setup):
        lines, workload, plan = setup
        server = CiaoServer(tmp_path / "once", plan=plan,
                            workload=workload)
        coordinator = FleetCoordinator(
            server, ClientPopulation.generate(2, seed=SEED),
            global_plan=plan, chunk_size=CHUNK,
        )
        coordinator.run(lines[:300])
        with pytest.raises(RuntimeError):
            coordinator.run(lines[:300])

    def test_parameter_validation(self, tmp_path, setup):
        lines, workload, plan = setup
        server = CiaoServer(tmp_path / "v", plan=plan, workload=workload)
        population = ClientPopulation.generate(2, seed=SEED)
        for kwargs in (
            {"chunk_size": 0},
            {"batch_size": 0},
            {"max_pending": 0},
            {"max_active": 0},
            {"realloc_interval": 0},
        ):
            with pytest.raises(ValueError):
                FleetCoordinator(server, population, **kwargs)

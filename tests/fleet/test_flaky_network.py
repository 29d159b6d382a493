"""Flaky networks: fleets over lossy links lose bytes, never records.

Closes the ROADMAP "flaky networks (lossy `Channel` wrappers)" hook: a
heterogeneous fleet ships through seeded `LossyChannel`s (drops are
retransmitted like any reliable transport over a lossy link), one client
additionally dies mid-load, and the fleet-wide accounting invariant
``received == loaded + sidelined + malformed == all records`` must hold —
with query answers identical to clean serial ingest of the same records.
"""

import pytest

from repro.core import Budget, CiaoOptimizer, CostModel, \
    DEFAULT_COEFFICIENTS
from repro.client import SimulatedClient
from repro.data import make_generator
from repro.fleet import ClientPopulation, FleetCoordinator
from repro.server import CiaoServer
from repro.transport import ChannelSpec
from repro.workload import estimate_selectivities, table3_workload

SEED = 424242
N_RECORDS = 1200
N_CLIENTS = 4
CHUNK_SIZE = 100
DROP_RATE = 0.3


@pytest.fixture(scope="module")
def setup():
    generator = make_generator("yelp", SEED)
    lines = list(generator.raw_lines(N_RECORDS))
    workload = table3_workload("yelp", "A", seed=SEED, n_queries=8)
    sels = estimate_selectivities(
        workload.candidate_pool, generator.sample(500)
    )
    model = CostModel(DEFAULT_COEFFICIENTS, 160)
    plan = CiaoOptimizer(workload, sels, model).plan(Budget(4.0))
    return lines, workload, plan


def serial_answers(tmp_path, setup):
    lines, workload, plan = setup
    server = CiaoServer(tmp_path / "serial", plan=plan, workload=workload)
    client = SimulatedClient("solo", plan=plan, chunk_size=CHUNK_SIZE)
    for chunk in client.process(iter(lines)):
        server.ingest(chunk)
    server.finalize_loading()
    return [server.query(q.sql("t")).scalar() for q in workload.queries]


def run_flaky_fleet(tmp_path, tag, setup, population,
                    drop_rate=DROP_RATE, seed=SEED):
    lines, workload, plan = setup
    server = CiaoServer(
        tmp_path / tag, plan=plan, workload=workload,
        n_shards=2, shard_mode="thread",
    )
    coordinator = FleetCoordinator(
        server, population,
        global_plan=plan,
        chunk_size=CHUNK_SIZE,
        batch_size=2,
        channel_factory=ChannelSpec(drop_rate=drop_rate, seed=seed),
    )
    report = coordinator.run(lines)
    return server, report


class TestFlakyNetworkFleet:
    def test_zero_record_loss_under_drops(self, tmp_path, setup):
        lines, workload, plan = setup
        population = ClientPopulation.generate(N_CLIENTS, seed=SEED)
        server, report = run_flaky_fleet(
            tmp_path, "flaky", setup, population
        )
        assert report.messages_dropped > 0, (
            "the lossy links never dropped — the scenario is vacuous"
        )
        assert report.no_record_loss
        assert report.summary.received == N_RECORDS
        assert [server.query(q.sql("t")).scalar()
                for q in workload.queries] == \
            serial_answers(tmp_path, setup)

    def test_zero_record_loss_under_drops_and_straggler_death(
            self, tmp_path, setup):
        """The satellite's scenario: drops + straggler reassignment."""
        population = ClientPopulation.generate(N_CLIENTS, seed=SEED)
        fat = max(population, key=lambda s: s.share).client_id
        server, report = run_flaky_fleet(
            tmp_path, "flaky-killed", setup,
            population.with_kill(fat, after_chunks=1),
        )
        assert report.killed_clients == [fat]
        assert report.reassignment_events > 0
        assert report.messages_dropped > 0
        assert report.no_record_loss, (
            f"lost records under drops + death: "
            f"received={report.summary.received} of {N_RECORDS}"
        )
        assert [server.query(q.sql("t")).scalar()
                for q in setup[1].queries] == \
            serial_answers(tmp_path, setup)

    def test_drop_accounting_deterministic_per_seed(self, tmp_path,
                                                    setup):
        """Same root seed, same ship sequence → identical drops.

        A one-client fleet ships a deterministic message sequence, so
        the seeded drop decisions must replay exactly (the explicit-seed
        satellite): two runs account the same number of dropped
        transmissions.
        """
        from repro.fleet import FleetClientSpec

        population = ClientPopulation([
            FleetClientSpec("solo", platform="local", speed_factor=1.0,
                            share=1.0),
        ])
        _, first = run_flaky_fleet(tmp_path, "det-a", setup, population,
                                   drop_rate=0.5)
        _, second = run_flaky_fleet(tmp_path, "det-b", setup, population,
                                    drop_rate=0.5)
        assert first.messages_dropped == second.messages_dropped > 0
        assert first.no_record_loss and second.no_record_loss

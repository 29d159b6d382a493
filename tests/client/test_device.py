"""Unit tests for the simulated client device."""

import pytest

from repro.client import SimulatedClient, decode_chunk
from repro.core import CostModel, DEFAULT_COEFFICIENTS, manual_plan
from repro.core import clause, key_value
from repro.rawjson import dump_record
from repro.transport import MemoryChannel

LINES = [dump_record({"i": i, "pad": "x" * 20}) for i in range(25)]
C = clause(key_value("i", 3))


@pytest.fixture()
def plan():
    model = CostModel(DEFAULT_COEFFICIENTS, 60)
    return manual_plan([C], {C: 0.04}, model)


class TestProcess:
    def test_chunking(self, plan):
        client = SimulatedClient("c", plan=plan, chunk_size=10)
        chunks = list(client.process(LINES))
        assert [len(c) for c in chunks] == [10, 10, 5]
        assert client.stats.records == 25
        assert client.stats.chunks == 3

    def test_annotation_attached(self, plan):
        client = SimulatedClient("c", plan=plan, chunk_size=25)
        (chunk,) = client.process(LINES)
        # i = 3 matches semantically; i = 13 and i = 23 are the raw
        # matcher's tolerated false positives ("3" inside "13"/"23").
        assert list(chunk.bitvectors[0].iter_set()) == [3, 13, 23]

    def test_no_plan_means_no_annotation(self):
        client = SimulatedClient("c", plan=None, chunk_size=10)
        chunks = list(client.process(LINES))
        assert all(not c.bitvectors for c in chunks)
        assert client.stats.modeled_us == 0.0

    def test_ship_sends_decodable_payloads(self, plan):
        client = SimulatedClient("c", plan=plan, chunk_size=10)
        channel = MemoryChannel()
        sent = client.ship(LINES, channel)
        assert sent == 3
        assert channel.pending() == 3
        decoded = decode_chunk(channel.receive())
        assert len(decoded) == 10
        assert client.stats.bytes_sent == channel.stats.bytes_sent

    def test_ship_batched_frames(self, plan):
        client = SimulatedClient("c", plan=plan, chunk_size=10)
        channel = MemoryChannel()
        sent = client.ship(LINES, channel, batch_size=2)
        assert sent == 3
        # 3 chunks, batch_size=2 → 2 messages (2 + 1 frames).
        assert channel.pending() == 2
        frames = list(channel.drain_chunks())
        assert len(frames) == 3
        assert all(decode_chunk(f).records for f in frames)
        assert client.stats.bytes_sent == channel.stats.bytes_sent

    def test_ship_batch_size_validated(self, plan):
        client = SimulatedClient("c", plan=plan)
        with pytest.raises(ValueError):
            client.ship(LINES, MemoryChannel(), batch_size=0)


class TestBudgetAccounting:
    def test_budget_respected_normal_speed(self, plan):
        client = SimulatedClient("c", plan=plan, chunk_size=10)
        list(client.process(LINES))
        assert client.budget_respected()

    def test_slow_device_costs_more_virtual_time(self, plan):
        fast = SimulatedClient("f", plan=plan, chunk_size=10)
        slow = SimulatedClient("s", plan=plan, chunk_size=10,
                               speed_factor=0.5)
        list(fast.process(LINES))
        list(slow.process(LINES))
        assert slow.stats.modeled_us == pytest.approx(
            2 * fast.stats.modeled_us
        )
        # Rescaled to calibrated units, the budget still holds.
        assert slow.budget_respected()

    def test_speed_factor_validated(self, plan):
        with pytest.raises(ValueError):
            SimulatedClient("c", plan=plan, speed_factor=0)

    def test_observed_cost_is_wall_time_per_record(self, plan):
        client = SimulatedClient("c", plan=plan, chunk_size=10)
        assert client.stats.observed_us_per_record() == 0.0
        list(client.process(LINES))
        assert client.stats.wall_seconds > 0
        assert client.stats.observed_us_per_record() == pytest.approx(
            client.stats.wall_seconds * 1e6 / len(LINES)
        )

    def test_observed_cost_is_zero_without_plan(self):
        client = SimulatedClient("c", plan=None, chunk_size=10)
        list(client.process(LINES))
        assert client.stats.observed_us_per_record() == 0.0

    def test_vacuous_budget_without_plan(self):
        client = SimulatedClient("c", plan=None)
        assert client.budget_respected()


class TestUpdatePlan:
    def test_swap_changes_annotations(self, plan):
        client = SimulatedClient("c", plan=None, chunk_size=10)
        first = next(iter(client.process(LINES[:10])))
        assert first.bitvectors == {}
        client.update_plan(plan)
        second = next(iter(client.process(LINES[:10])))
        assert second.predicate_ids == plan.predicate_ids

    def test_swap_to_none_stops_annotating(self, plan):
        client = SimulatedClient("c", plan=plan, chunk_size=10)
        client.update_plan(None)
        chunk = next(iter(client.process(LINES[:10])))
        assert chunk.bitvectors == {}
        assert client.plan is None

    def test_start_chunk_id_offsets_numbering(self, plan):
        client = SimulatedClient("c", plan=plan, chunk_size=10)
        chunks = list(client.process(LINES[:20], start_chunk_id=7))
        assert [c.chunk_id for c in chunks] == [7, 8]

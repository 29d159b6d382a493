"""The RESULT wire body: the same bytes as the ``dataclasses.asdict``
encoding it replaced, and a lossless round trip."""

import json
from dataclasses import asdict

import pytest

from repro.client import SimulatedClient
from repro.core import CostModel, DEFAULT_COEFFICIENTS, manual_plan
from repro.core.predicates import Clause, exact
from repro.rawjson import dump_record
from repro.server import CiaoServer
from repro.service.results import (
    RESULT_FORMAT,
    result_from_payload,
    result_to_payload,
)


def asdict_payload(result):
    """The encoding ``result_to_payload`` used to compute."""
    doc = {
        "format": RESULT_FORMAT,
        "rows": result.rows,
        "stats": asdict(result.stats),
        "plan_info": asdict(result.plan_info),
        "wall_seconds": result.wall_seconds,
    }
    return json.dumps(doc, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


@pytest.fixture()
def results(tmp_path):
    """A mid-load aggregate answered partly from the snapshot cache, and
    a finalized pushed query with matched predicate ids."""
    c_a = Clause((exact("col", "a"),))
    c_b = Clause((exact("col", "b"),))
    plan = manual_plan([c_a, c_b], {c_a: 0.3, c_b: 0.3},
                       CostModel(DEFAULT_COEFFICIENTS, 40))
    server = CiaoServer(tmp_path, plan=plan, n_shards=2,
                        shard_mode="thread", seal_interval=1)
    lines = [dump_record({"col": v, "n": i, "note": "x" if i % 7 else None})
             for i, v in enumerate(["a", "b", "c", "d"] * 30)]
    client = SimulatedClient("c", plan=plan, chunk_size=20)
    chunks = list(client.process(lines))
    for chunk in chunks[:3]:
        server.ingest(chunk)
    server.quiesce()
    aggregate = "SELECT col, COUNT(*), SUM(n) FROM t GROUP BY col"
    server.query(aggregate)
    for chunk in chunks[3:]:
        server.ingest(chunk)
    server.quiesce()
    midload = server.query(aggregate)
    server.finalize_loading()
    disjunction = server.query(
        "SELECT n, note FROM t WHERE col = 'a' AND col = 'b' OR col = 'a'"
        " AND n > 3")
    matched = server.query("SELECT n, note FROM t WHERE col = 'b'")
    return {"midload": midload, "disjunction": disjunction,
            "matched": matched}


def test_results_cover_the_fields_that_matter(results):
    midload = results["midload"].stats
    assert midload.snapshot_cache_hits and midload.snapshot_cache_misses
    assert results["matched"].plan_info.matched_predicate_ids == [1]
    assert results["matched"].stats.used_data_skipping


@pytest.mark.parametrize("name", ["midload", "disjunction", "matched"])
def test_payload_bytes_equal_the_asdict_encoding(results, name):
    result = results[name]
    assert result_to_payload(result) == asdict_payload(result)


@pytest.mark.parametrize("name", ["midload", "disjunction", "matched"])
def test_round_trip_keeps_every_field(results, name):
    result = results[name]
    clone = result_from_payload(result_to_payload(result))
    assert clone.rows == result.rows
    assert clone.stats == result.stats
    assert clone.plan_info == result.plan_info
    assert clone.wall_seconds == result.wall_seconds
    assert result_to_payload(clone) == result_to_payload(result)

"""CiaoSession ≡ the hand-wired path, across every deployment mode.

The acceptance contract of the deployment API: the facade changes *how
much code* a deployment takes, never *what it produces*.

* Per mode, a session run must write **byte-identical** catalog files
  (Parquet-lite parts + raw-JSON sideline) to a hand-wired run of the
  low-level constructors on the same seeded input — proven for serial,
  sharded (round-robin, idle seals held off → deterministic layout), and
  a deterministic one-client fleet.
* Across modes, serial, sharded, and fleet must agree on the **canonical
  catalog content**: the same multiset of loaded rows and the same
  multiset of sidelined raw records (file layout differs by design —
  shard counts change the part split).
"""

import hashlib

import pytest

from repro.api import (
    Budget,
    CiaoSession,
    ClientPopulation,
    DeploymentConfig,
    FleetClientSpec,
    LineSource,
)
from repro.core import CiaoOptimizer, CostModel, DEFAULT_COEFFICIENTS
from repro.client import SimulatedClient
from repro.data import make_generator
from repro.fleet import FleetCoordinator
from repro.server import CiaoServer
from repro.server import pipeline as pipeline_module
from repro.storage import SidelineView
from repro.storage.columnar import ParquetLiteReader
from repro.rawjson.writer import dumps
from repro.workload import estimate_selectivities, table3_workload

SEED = 777
N_RECORDS = 1500
CHUNK_SIZE = 250


@pytest.fixture(scope="module")
def setup():
    generator = make_generator("yelp", SEED)
    lines = list(generator.raw_lines(N_RECORDS))
    workload = table3_workload("yelp", "A", seed=SEED, n_queries=10)
    sels = estimate_selectivities(
        workload.candidate_pool, generator.sample(800)
    )
    model = CostModel(DEFAULT_COEFFICIENTS, 160)
    plan = CiaoOptimizer(workload, sels, model).plan(Budget(4.0))
    return lines, workload, plan, sels


@pytest.fixture(autouse=True)
def fixed_part_layout(monkeypatch):
    """Hold off the shard workers' idle seal for the whole test.

    Three round-robin chunks per shard stay under the seal interval, so
    each shard then writes exactly one part, whatever the timing.
    """
    monkeypatch.setattr(pipeline_module, "_IDLE_POLL_SECONDS", 10.0)


def catalog_files(server):
    """{filename: bytes} of every catalog artifact the table lists.

    A sideline file maps to its listed record count and its bytes.
    """
    files = {}
    for path in server.table.parquet_paths:
        files[path.name] = path.read_bytes()
    for path, records in server.table.sidelines:
        files[path.name] = (records, path.read_bytes())
    return files


def catalog_digest(server):
    """Order-insensitive digest of the catalog *content*.

    Hashes the sorted multiset of loaded rows (canonical JSON) and the
    sorted multiset of sidelined raw records — the split partial loading
    actually decides — independent of part layout and arrival order.
    """
    rows = []
    for path in server.table.parquet_paths:
        with ParquetLiteReader(path) as reader:
            rows.extend(
                dumps(row, sort_keys=True) for row in reader.iter_rows()
            )
    sideline = [raw for path, records in server.table.sidelines
                for _, raw in SidelineView(path, records).iter_raw()]
    digest = hashlib.sha256()
    for row in sorted(rows):
        digest.update(row.encode("utf-8"))
    digest.update(b"\x00--sideline--\x00")
    for raw in sorted(sideline):
        digest.update(raw.encode("utf-8"))
    return len(rows), len(sideline), digest.hexdigest()


def session_run(tmp_path, tag, config, setup):
    lines, workload, plan, _ = setup
    session = CiaoSession(
        workload, source=LineSource(lines), config=config,
        data_dir=tmp_path / tag, seed=SEED, plan=plan,
    )
    report = session.load().result()
    assert report.no_record_loss
    return session


# ----------------------------------------------------------------------
# Hand-wired reference paths (the pre-facade wiring, verbatim)
# ----------------------------------------------------------------------
def hand_serial(tmp_path, setup):
    lines, workload, plan, _ = setup
    server = CiaoServer(tmp_path / "hand-serial", plan=plan,
                        workload=workload)
    client = SimulatedClient("hand", plan=plan, chunk_size=CHUNK_SIZE)
    for chunk in client.process(iter(lines)):
        server.ingest(chunk)
    server.finalize_loading()
    return server


def hand_sharded(tmp_path, setup):
    lines, workload, plan, _ = setup
    server = CiaoServer(
        tmp_path / "hand-sharded", plan=plan, workload=workload,
        n_shards=2, shard_mode="thread", dispatch="round-robin",
    )
    client = SimulatedClient("hand", plan=plan, chunk_size=CHUNK_SIZE)
    for chunk in client.process(iter(lines)):
        server.ingest(chunk)
    server.finalize_loading()
    return server


def hand_fleet(tmp_path, setup, population):
    lines, workload, plan, _ = setup
    server = CiaoServer(
        tmp_path / "hand-fleet", plan=plan, workload=workload,
        n_shards=2, shard_mode="thread", dispatch="round-robin",
    )
    coordinator = FleetCoordinator(
        server, population, global_plan=plan,
        chunk_size=CHUNK_SIZE, batch_size=1,
    )
    report = coordinator.run(lines)
    assert report.no_record_loss
    return server


def solo_population():
    """A deterministic one-client fleet (full share, reference speed)."""
    return ClientPopulation([
        FleetClientSpec("session-client", platform="local",
                        speed_factor=1.0, share=1.0),
    ])


# ----------------------------------------------------------------------
SERIAL = DeploymentConfig(mode="serial", chunk_size=CHUNK_SIZE,
                          ship_batch=1)
SHARDED = DeploymentConfig(mode="sharded", n_shards=2,
                           shard_mode="thread", dispatch="round-robin",
                           chunk_size=CHUNK_SIZE, ship_batch=1)


def fleet_cfg():
    return DeploymentConfig(
        mode="fleet", n_shards=2, shard_mode="thread",
        dispatch="round-robin", chunk_size=CHUNK_SIZE, ship_batch=1,
        population=solo_population(),
    )


class TestByteIdentityWithHandWiredPath:
    def test_serial(self, tmp_path, setup):
        hand = hand_serial(tmp_path, setup)
        session = session_run(tmp_path, "api-serial", SERIAL, setup)
        assert catalog_files(session.server) == catalog_files(hand)
        session.close()

    def test_sharded(self, tmp_path, setup):
        hand = hand_sharded(tmp_path, setup)
        session = session_run(tmp_path, "api-sharded", SHARDED, setup)
        assert catalog_files(session.server) == catalog_files(hand)
        session.close()

    def test_fleet(self, tmp_path, setup):
        hand = hand_fleet(tmp_path, setup, solo_population())
        session = session_run(tmp_path, "api-fleet", fleet_cfg(), setup)
        assert catalog_files(session.server) == catalog_files(hand)
        session.close()


class TestCrossModeContentEquivalence:
    def test_serial_sharded_fleet_same_catalog_content(self, tmp_path,
                                                       setup):
        lines, workload, plan, _ = setup
        digests = {}
        for tag, config in (("serial", SERIAL), ("sharded", SHARDED),
                            ("fleet", fleet_cfg())):
            session = session_run(tmp_path, f"x-{tag}", config, setup)
            digests[tag] = catalog_digest(session.server)
            session.close()
        assert digests["serial"] == digests["sharded"] == digests["fleet"]
        loaded, sidelined, _ = digests["serial"]
        assert loaded + sidelined == N_RECORDS

    def test_multi_client_fleet_content_matches_serial(self, tmp_path,
                                                       setup):
        """A real heterogeneous fleet (nondeterministic interleaving)
        still produces the same canonical catalog content."""
        population = ClientPopulation.generate(4, seed=SEED)
        config = DeploymentConfig(
            mode="fleet", n_shards=2, shard_mode="thread",
            chunk_size=CHUNK_SIZE, population=population,
        )
        serial = session_run(tmp_path, "mc-serial", SERIAL, setup)
        fleet = session_run(tmp_path, "mc-fleet", config, setup)
        assert catalog_digest(serial.server) == \
            catalog_digest(fleet.server)
        serial.close()
        fleet.close()

    def test_query_equivalence_across_modes(self, tmp_path, setup):
        lines, workload, plan, _ = setup
        answers = {}
        for tag, config in (("serial", SERIAL), ("sharded", SHARDED),
                            ("fleet", fleet_cfg())):
            session = session_run(tmp_path, f"q-{tag}", config, setup)
            answers[tag] = [
                session.query(q.sql("t")).scalar()
                for q in workload.queries
            ]
            session.close()
        assert answers["serial"] == answers["sharded"] == answers["fleet"]

"""DeploymentConfig: one validation path for every deployment knob."""

import pytest

from repro.api import Budget, CiaoSession, ClientPopulation, \
    DeploymentConfig, FleetClientSpec
from repro.rawjson import JsonChunk, dump_record
from repro.server import CiaoServer, validate_server_options

#: One bad value per server knob, each rejected by all three layers.
BAD_SERVER_OPTIONS = [
    ("shard_mode", "fiber"),
    ("dispatch", "lottery"),
    ("partial_loading", "maybe"),
    ("n_shards", 0),
    ("seal_interval", 0),
]


class TestValidation:
    def test_default_is_valid_serial(self):
        config = DeploymentConfig()
        assert config.mode == "serial"
        assert config.resolved_n_shards == 1

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode must be one of"):
            DeploymentConfig(mode="clustered")

    def test_server_options_same_error_as_server_layer(self, tmp_path):
        """The facade reuses the server's validation — messages match."""
        with pytest.raises(ValueError) as via_config:
            DeploymentConfig(shard_mode="fiber")
        with pytest.raises(ValueError) as via_server:
            validate_server_options(shard_mode="fiber")
        assert str(via_config.value) == str(via_server.value)
        # seal_interval is checked up front in every mode, serial too.
        with pytest.raises(ValueError) as via_helper:
            validate_server_options(seal_interval=0)
        for build in (
                lambda: DeploymentConfig(seal_interval=0),
                lambda: DeploymentConfig(mode="sharded", n_shards=2,
                                         seal_interval=0),
                lambda: CiaoServer(tmp_path, seal_interval=0)):
            with pytest.raises(ValueError) as caught:
                build()
            assert str(caught.value) == str(via_helper.value)
        with pytest.raises(ValueError, match="seal_interval must be >= 1"):
            DeploymentConfig(mode="sharded", n_shards=2, seal_interval=-3)

    def test_bad_dispatch(self):
        with pytest.raises(ValueError, match="dispatch must be one of"):
            DeploymentConfig(dispatch="lottery")

    def test_bad_partial_loading(self):
        with pytest.raises(ValueError, match="partial_loading"):
            DeploymentConfig(partial_loading="sometimes")

    def test_serial_rejects_shards(self):
        with pytest.raises(ValueError, match="serial mode"):
            DeploymentConfig(mode="serial", n_shards=4)

    def test_sharded_needs_two_shards(self):
        with pytest.raises(ValueError, match="n_shards >= 2"):
            DeploymentConfig(mode="sharded", n_shards=1)

    def test_sharded_default_shards(self):
        config = DeploymentConfig(mode="sharded")
        assert config.resolved_n_shards >= 2

    def test_fleet_knobs_rejected_outside_fleet_mode(self):
        with pytest.raises(ValueError, match="aggregate_budget"):
            DeploymentConfig(aggregate_budget=Budget(1.0))
        with pytest.raises(ValueError, match="realloc_interval"):
            DeploymentConfig(mode="sharded", realloc_interval=4)
        population = ClientPopulation([
            FleetClientSpec("c0", platform="local", speed_factor=1.0,
                            share=1.0),
        ])
        with pytest.raises(ValueError, match="population"):
            DeploymentConfig(population=population)

    def test_chunk_and_batch_bounds(self):
        with pytest.raises(ValueError, match="chunk_size"):
            DeploymentConfig(chunk_size=0)
        with pytest.raises(ValueError, match="ship_batch"):
            DeploymentConfig(ship_batch=0)

    def test_fleet_needs_clients(self):
        with pytest.raises(ValueError, match="at least one client"):
            DeploymentConfig(mode="fleet", n_clients=0)


class TestServerConfigBridge:
    def test_server_config_mapping(self, tmp_path):
        """A session maps its DeploymentConfig onto the server it builds."""
        config = DeploymentConfig(
            mode="sharded", n_shards=3, shard_mode="thread",
            dispatch="round-robin", seal_interval=4,
            table_name="events", partial_loading="on",
        )
        session = CiaoSession(config=config, data_dir=tmp_path)
        server = session.external_load().server
        assert server.deployment_options == {
            "n_shards": 3,
            "shard_mode": "thread",
            "dispatch": "round-robin",
            "seal_interval": 4,
            "partial_loading": "on",
        }
        assert server.table_name == "events"
        server.ingest(JsonChunk(0, [dump_record({"k": i})
                                    for i in range(5)]))
        server.finalize_loading()
        assert server.query("SELECT COUNT(*) FROM events").scalar() == 5
        session.close()


class TestSessionServer:
    def test_with_mode(self):
        base = DeploymentConfig(chunk_size=123)
        fleet = base.with_mode("fleet", aggregate_budget=Budget(2.0))
        assert fleet.mode == "fleet"
        assert fleet.chunk_size == 123
        assert base.mode == "serial"  # frozen original untouched

    def test_bad_values_rejected_identically_everywhere(self, tmp_path):
        """DeploymentConfig, CiaoServer and the shared helper agree."""
        for knob, bad in BAD_SERVER_OPTIONS:
            messages = set()
            for build in (lambda: DeploymentConfig(**{knob: bad}),
                          lambda: CiaoServer(tmp_path, **{knob: bad}),
                          lambda: validate_server_options(**{knob: bad})):
                with pytest.raises(ValueError) as caught:
                    build()
                messages.add(str(caught.value))
            assert len(messages) == 1, (knob, messages)
            assert knob in messages.pop()

"""Unit tests for the in-process transport channels."""

import pytest

from repro.transport import FileChannel, LinkModel, MemoryChannel


@pytest.mark.parametrize("make_channel", [
    lambda tmp: MemoryChannel(),
    lambda tmp: FileChannel(tmp / "spool"),
])
class TestChannelContract:
    def test_fifo_order(self, tmp_path, make_channel):
        channel = make_channel(tmp_path)
        channel.send(b"one")
        channel.send(b"two")
        assert channel.receive() == b"one"
        assert channel.receive() == b"two"
        assert channel.receive() is None

    def test_pending_and_len(self, tmp_path, make_channel):
        channel = make_channel(tmp_path)
        assert len(channel) == 0
        channel.send(b"x")
        assert channel.pending() == 1
        channel.receive()
        assert channel.pending() == 0

    def test_drain(self, tmp_path, make_channel):
        channel = make_channel(tmp_path)
        for i in range(5):
            channel.send(f"m{i}".encode())
        assert [m.decode() for m in channel.drain()] == [
            f"m{i}" for i in range(5)
        ]

    def test_stats(self, tmp_path, make_channel):
        channel = make_channel(tmp_path)
        channel.send(b"abcd")
        channel.send(b"ef")
        channel.receive()
        assert channel.stats.messages_sent == 2
        assert channel.stats.bytes_sent == 6
        assert channel.stats.messages_received == 1

    def test_type_checked(self, tmp_path, make_channel):
        channel = make_channel(tmp_path)
        with pytest.raises(TypeError):
            channel.send("not bytes")


class TestFileChannelPersistence:
    def test_spool_survives_reopen(self, tmp_path):
        a = FileChannel(tmp_path / "spool")
        a.send(b"persisted")
        b = FileChannel(tmp_path / "spool")
        assert b.pending() == 1
        assert b.receive() == b"persisted"

    def test_gap_is_skipped_not_stalled(self, tmp_path):
        # A crashed consumer that deleted one file out of order must not
        # wedge the channel on the missing number forever.
        channel = FileChannel(tmp_path / "spool")
        for i in range(4):
            channel.send(b"m%d" % i)
        (tmp_path / "spool" / "000000001.msg").unlink()
        assert channel.receive() == b"m0"
        assert channel.receive() == b"m2"
        assert channel.receive() == b"m3"
        assert channel.receive() is None

    def test_pending_counts_files_on_disk(self, tmp_path):
        channel = FileChannel(tmp_path / "spool")
        for i in range(5):
            channel.send(b"x%d" % i)
        (tmp_path / "spool" / "000000002.msg").unlink()
        # Not 5 (counter arithmetic): only 4 messages still exist.
        assert channel.pending() == 4
        resumed = FileChannel(tmp_path / "spool")
        assert resumed.pending() == 4
        assert len(list(resumed.drain())) == 4
        assert resumed.pending() == 0

    def test_resume_ignores_non_numeric_msg_files(self, tmp_path):
        spool = tmp_path / "spool"
        channel = FileChannel(spool)
        channel.send(b"real")
        (spool / "notes.msg").write_bytes(b"junk someone dropped here")
        resumed = FileChannel(spool)
        assert resumed.pending() == 1
        assert resumed.receive() == b"real"


class TestBatchedFraming:
    """send_batch/drain_chunks round chunk frames through one message."""

    def frames(self):
        from repro.client import encode_chunk
        from repro.rawjson import JsonChunk, dump_record

        return [
            encode_chunk(JsonChunk(i, [dump_record({"v": i})]))
            for i in range(5)
        ]

    @pytest.mark.parametrize("make_channel", [
        lambda tmp: MemoryChannel(),
        lambda tmp: FileChannel(tmp / "spool"),
    ])
    def test_round_trip(self, tmp_path, make_channel):
        frames = self.frames()
        channel = make_channel(tmp_path)
        channel.send_batch(frames[:3])
        channel.send(frames[3])
        channel.send_batch(frames[4:])
        # 3 messages on the wire, 5 chunk frames delivered.
        assert channel.stats.messages_sent == 3
        assert channel.stats.bytes_sent == sum(len(f) for f in frames)
        assert list(channel.drain_chunks()) == frames

    def test_empty_batch_sends_nothing(self, tmp_path):
        channel = MemoryChannel()
        channel.send_batch([])
        assert channel.pending() == 0
        assert channel.stats.messages_sent == 0

    def test_batch_type_checked(self, tmp_path):
        channel = MemoryChannel()
        with pytest.raises(TypeError):
            channel.send_batch(["not bytes"])

    def test_drain_chunks_passes_single_frames_through(self, tmp_path):
        frames = self.frames()
        channel = MemoryChannel()
        for frame in frames:
            channel.send(frame)
        assert list(channel.drain_chunks()) == frames


class TestLinkModel:
    def test_transfer_time(self):
        link = LinkModel(bandwidth_mbps=8.0, latency_us=100.0)
        # 1000 bytes = 8000 bits at 8 Mbps = 1000 µs + latency.
        assert link.transfer_time_us(1000) == pytest.approx(1100.0)

    def test_zero_payload_costs_latency(self):
        assert LinkModel(latency_us=50).transfer_time_us(0) == 50

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            LinkModel().transfer_time_us(-1)


class TestSendFrames:
    """send_frames: the shared one-frame-vs-batch flush dispatch."""

    def frames(self):
        from repro.client import encode_chunk
        from repro.rawjson import JsonChunk, dump_record

        return [
            encode_chunk(JsonChunk(i, [dump_record({"v": i})]))
            for i in range(3)
        ]

    def test_empty_sends_nothing(self):
        channel = MemoryChannel()
        channel.send_frames([])
        assert channel.stats.messages_sent == 0

    def test_single_frame_sent_directly(self):
        frames = self.frames()
        channel = MemoryChannel()
        channel.send_frames(frames[:1])
        assert channel.stats.messages_sent == 1
        assert channel.receive() == frames[0]

    def test_many_frames_become_one_message(self):
        frames = self.frames()
        channel = MemoryChannel()
        channel.send_frames(frames)
        assert channel.stats.messages_sent == 1
        assert [bytes(f) for f in channel.drain_chunks()] == frames


# ----------------------------------------------------------------------
# Decorator channels + the declarative factory
# ----------------------------------------------------------------------
from pathlib import Path

from repro.transport import (
    ChannelSpec,
    LatencyChannel,
    LossyChannel,
    make_channel,
    per_client_channels,
)


class TestLossyChannel:
    def test_requires_explicit_seed(self):
        with pytest.raises(ValueError, match="seed"):
            LossyChannel(MemoryChannel(), drop_rate=0.1, seed=None)

    def test_drop_rate_bounds(self):
        with pytest.raises(ValueError, match="drop_rate"):
            LossyChannel(MemoryChannel(), drop_rate=1.0, seed=1)
        with pytest.raises(ValueError, match="drop_rate"):
            LossyChannel(MemoryChannel(), drop_rate=-0.1, seed=1)

    def test_deterministic_drop_sequence(self):
        """Same seed → byte-for-byte identical drop accounting."""
        counts = []
        for _ in range(2):
            channel = LossyChannel(MemoryChannel(), drop_rate=0.5, seed=42)
            for i in range(100):
                channel.send(f"m{i}".encode())
            counts.append(channel.stats.messages_dropped)
        assert counts[0] == counts[1]
        assert counts[0] > 0

    def test_reliable_delivery_despite_drops(self):
        """Drops are retransmitted: every payload arrives, in order."""
        channel = LossyChannel(MemoryChannel(), drop_rate=0.6, seed=7)
        payloads = [f"m{i}".encode() for i in range(50)]
        for p in payloads:
            channel.send(p)
        assert list(channel.drain()) == payloads
        assert channel.stats.messages_dropped > 0

    def test_drops_cost_bytes_not_data(self):
        channel = LossyChannel(MemoryChannel(), drop_rate=0.5, seed=3)
        for _ in range(40):
            channel.send(b"x" * 10)
        sent = channel.stats
        # Retransmissions inflate bytes beyond the 40 * 10 payload floor.
        assert sent.bytes_sent == 10 * (40 + sent.messages_dropped)
        assert channel.inner.stats.messages_sent == 40

    def test_different_seeds_differ(self):
        a = LossyChannel(MemoryChannel(), drop_rate=0.5, seed=1)
        b = LossyChannel(MemoryChannel(), drop_rate=0.5, seed=2)
        seq_a, seq_b = [], []
        for i in range(64):
            a.send(b"x")
            b.send(b"x")
            seq_a.append(a.stats.messages_dropped)
            seq_b.append(b.stats.messages_dropped)
        assert seq_a != seq_b


class TestLatencyChannel:
    def test_accumulates_modeled_time(self):
        link = LinkModel(bandwidth_mbps=8.0, latency_us=100.0)
        channel = LatencyChannel(MemoryChannel(), link)
        channel.send(b"x" * 1000)  # 8000 bits / 8 Mbps = 1000 µs + 100
        assert channel.modeled_us == pytest.approx(1100.0)
        channel.send(b"")
        assert channel.modeled_us == pytest.approx(1200.0)

    def test_delegates_delivery(self):
        channel = LatencyChannel(MemoryChannel())
        channel.send(b"hello")
        assert channel.pending() == 1
        assert channel.receive() == b"hello"
        assert channel.stats.messages_received == 1


class TestMakeChannel:
    def test_default_memory(self):
        assert isinstance(make_channel(), MemoryChannel)
        assert isinstance(make_channel("memory"), MemoryChannel)

    def test_file_spec(self, tmp_path):
        channel = make_channel(f"file:{tmp_path / 'spool'}")
        assert isinstance(channel, FileChannel)
        channel = make_channel("file", directory=tmp_path / "spool2")
        assert isinstance(channel, FileChannel)

    def test_instance_passthrough(self):
        channel = MemoryChannel()
        assert make_channel(channel) is channel

    def test_factory_called(self):
        channel = make_channel(lambda: MemoryChannel())
        assert isinstance(channel, MemoryChannel)

    def test_spec_composition_order(self):
        spec = ChannelSpec(drop_rate=0.3, seed=5, link=LinkModel())
        channel = make_channel(spec)
        # Loss outside, latency inside, storage at the core.
        assert isinstance(channel, LossyChannel)
        assert isinstance(channel.inner, LatencyChannel)
        assert isinstance(channel.inner.inner, MemoryChannel)

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError, match="unknown channel spec"):
            make_channel("carrier-pigeon")

    def test_spec_validation(self, tmp_path):
        with pytest.raises(ValueError, match="spool directory"):
            ChannelSpec(kind="file")
        with pytest.raises(ValueError, match="seed"):
            ChannelSpec(drop_rate=0.5)
        with pytest.raises(ValueError, match="kind"):
            ChannelSpec(kind="quantum")


class TestPerClientChannels:
    def test_independent_seeds_per_client(self):
        factory = per_client_channels(ChannelSpec(drop_rate=0.5, seed=9))
        a, b = factory("client-00"), factory("client-01")
        assert isinstance(a, LossyChannel)
        assert a.seed != b.seed
        # Replayable: the same client id re-derives the same seed.
        assert factory("client-00").seed == a.seed

    def test_file_channels_get_subdirectories(self, tmp_path):
        factory = per_client_channels(
            ChannelSpec(kind="file", directory=tmp_path)
        )
        a = factory("c0")
        a.send(b"x")
        assert (tmp_path / "c0").is_dir()

    def test_callable_passthrough(self):
        sentinel = []
        factory = per_client_channels(
            lambda cid: sentinel.append(cid) or MemoryChannel()
        )
        factory("c7")
        assert sentinel == ["c7"]

    def test_shared_instance_rejected(self):
        with pytest.raises(TypeError, match="cannot back a fleet"):
            per_client_channels(MemoryChannel())

    def test_file_string_needs_directory(self):
        with pytest.raises(ValueError, match="spool directory"):
            per_client_channels("file")


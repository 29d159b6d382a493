"""Parallel sharded ingest vs serial ingest, plus bit-vector kernel bench.

Two claims are measured:

1. **Kernel speedup** — the word-level big-int kernels behind
   ``BitVector.intersect_update``/``union_update`` must beat the seed's
   per-byte Python loop by ≥10× at 1M bits.  This is machine-independent
   (both sides run on the same interpreter) and asserted unconditionally.
2. **Ingest throughput** — a 4-shard :class:`ShardedIngestPipeline`
   (process mode: fork workers, true parallelism under the GIL) vs serial
   ``CiaoServer`` ingest of the identical encoded Yelp-style stream,
   in chunks/sec.  The ≥2× assertion is *core-gated*: parallel speedup is
   physics, not software — on a container restricted to fewer than 4 CPUs
   (``len(os.sched_getaffinity(0))``) a 4-shard pipeline cannot double
   throughput, so there the bench asserts a no-pathological-overhead floor
   instead and reports the measured ratio.  Override the threshold with
   ``REPRO_BENCH_MIN_SPEEDUP`` (a float) to pin it in CI.

A third measurement quantifies **batched chunk framing**: shipping
``DEFAULT_SHIP_BATCH`` chunk frames per channel message vs one, over both
in-memory and file-spool channels (the paper's deployment).  Per-message
overhead is what batching amortizes, so the file channel — four syscalls
per message — is where the win lives; the measured delta (archived in
``benchmarks/results/batched_framing.txt``) is why
``DEFAULT_SHIP_BATCH = 8`` is the default, and both this bench's ingest
streams and ``bench_fleet_loading.py`` ship batched.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_parallel_ingest.py``
(set ``REPRO_BENCH_SMOKE=1`` for a <60 s smoke configuration).
"""

from __future__ import annotations

import os
import time

from conftest import run_once

from repro.bench import emit, emit_json, format_table
from repro.obs import Metrics
from repro.bitvec import BitVector
from repro.client import DEFAULT_SHIP_BATCH, SimulatedClient, encode_chunk
from repro.core import (
    Budget,
    CiaoOptimizer,
    CostModel,
    DEFAULT_COEFFICIENTS,
)
from repro.data import make_generator
from repro.server import CiaoServer
from repro.transport import FileChannel, MemoryChannel
from repro.workload import estimate_selectivities, table3_workload

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
N_RECORDS = 1500 if SMOKE else 6000
CHUNK_SIZE = 250
N_SHARDS = 4
KERNEL_BITS = 1_000_000
SEED = 20260727


def _effective_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _min_speedup() -> float:
    override = os.environ.get("REPRO_BENCH_MIN_SPEEDUP")
    if override:
        return float(override)
    cores = _effective_cores()
    if cores >= N_SHARDS:
        return 2.0
    if cores >= 2:
        return 1.2
    # Single-core container: parallel ≥ serial is impossible; only guard
    # against pathological pipeline overhead.
    return 0.5


# ----------------------------------------------------------------------
# 1. Bit-vector kernel microbench
# ----------------------------------------------------------------------
def _seed_intersect_update(dst: bytearray, src: bytearray) -> None:
    """The seed's per-byte loop, kept as the baseline under test."""
    for i, byte in enumerate(src):
        dst[i] &= byte


def _seed_union_update(dst: bytearray, src: bytearray) -> None:
    for i, byte in enumerate(src):
        dst[i] |= byte


def _time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_bitvector_kernel_speedup(benchmark, results_dir):
    import random

    rng = random.Random(SEED)
    a = BitVector.from_bits(
        rng.getrandbits(1) for _ in range(KERNEL_BITS)
    )
    b = BitVector.from_bits(
        rng.getrandbits(1) for _ in range(KERNEL_BITS)
    )
    a_bytes = bytearray(a.to_bytes()[4:])
    b_bytes = bytearray(b.to_bytes()[4:])

    def kernels():
        work = a.copy()
        work.intersect_update(b)
        work.union_update(b)
        return work

    kernel_seconds = _time(kernels, repeats=5)
    seed_seconds = _time(
        lambda: (
            _seed_intersect_update(bytearray(a_bytes), b_bytes),
            _seed_union_update(bytearray(a_bytes), b_bytes),
        ),
        repeats=3,
    )
    ratio = seed_seconds / kernel_seconds
    lines = [
        f"bit-vector kernels at {KERNEL_BITS} bits "
        f"(intersect_update + union_update):",
        f"  seed per-byte loop : {seed_seconds * 1e3:8.2f} ms",
        f"  word-level kernels : {kernel_seconds * 1e3:8.2f} ms",
        f"  speedup            : {ratio:8.1f}x (floor 10x)",
    ]
    emit("parallel_ingest_kernels", "\n".join(lines), results_dir)
    emit_json("parallel_ingest_kernels", {
        "bits": KERNEL_BITS,
        "seed_seconds": seed_seconds,
        "kernel_seconds": kernel_seconds,
        "speedup": ratio,
        "floor": 10.0,
    }, results_dir)
    run_once(benchmark, kernels)
    assert ratio >= 10.0, (
        f"word-level kernels only {ratio:.1f}x over the per-byte loop"
    )


# ----------------------------------------------------------------------
# 2. Sharded ingest throughput
# ----------------------------------------------------------------------
def _prepare_payloads():
    """Annotated chunk stream, shipped with batched framing.

    The stream is built exactly as a client would emit it: encoded chunk
    frames concatenated ``DEFAULT_SHIP_BATCH`` per message
    (``SimulatedClient.ship(batch_size=...)`` through a channel); the
    server splits the frames back apart on ingest.
    """
    generator = make_generator("yelp", SEED)
    lines = list(generator.raw_lines(N_RECORDS))
    workload = table3_workload("yelp", "A", seed=SEED, n_queries=20)
    sels = estimate_selectivities(
        workload.candidate_pool, generator.sample(min(1000, N_RECORDS))
    )
    model = CostModel(DEFAULT_COEFFICIENTS, 160)
    plan = CiaoOptimizer(workload, sels, model).plan(Budget(20.0))
    client = SimulatedClient("bench", plan=plan, chunk_size=CHUNK_SIZE)
    channel = MemoryChannel()
    n_chunks = client.ship(lines, channel,
                           batch_size=DEFAULT_SHIP_BATCH)
    return plan, workload, list(channel.drain()), n_chunks


def _ingest(tmp_path, tag, plan, workload, payloads, n_shards,
            metrics=None):
    server = CiaoServer(
        tmp_path / tag, plan=plan, workload=workload,
        n_shards=n_shards, shard_mode="process", metrics=metrics,
    )
    start = time.perf_counter()
    for payload in payloads:
        server.ingest(payload)
    summary = server.finalize_loading()
    elapsed = time.perf_counter() - start
    return summary, elapsed


def test_parallel_ingest_speedup(benchmark, tmp_path, results_dir):
    plan, workload, payloads, n_chunks = _prepare_payloads()
    metrics = Metrics()

    def experiment():
        serial_summary, serial_seconds = _ingest(
            tmp_path, "serial", plan, workload, payloads, n_shards=1
        )
        parallel_summary, parallel_seconds = _ingest(
            tmp_path, "parallel", plan, workload, payloads,
            n_shards=N_SHARDS, metrics=metrics,
        )
        return (serial_summary, serial_seconds,
                parallel_summary, parallel_seconds)

    (serial_summary, serial_seconds,
     parallel_summary, parallel_seconds) = run_once(benchmark, experiment)

    serial_rate = n_chunks / serial_seconds
    parallel_rate = n_chunks / parallel_seconds
    speedup = parallel_rate / serial_rate
    floor = _min_speedup()
    cores = _effective_cores()
    lines = [
        f"parallel sharded ingest, yelp-style stream "
        f"({N_RECORDS} records, {n_chunks} chunks of {CHUNK_SIZE}, "
        f"shipped {DEFAULT_SHIP_BATCH} frames/message):",
        f"  effective cores      : {cores}",
        f"  serial ingest        : {serial_rate:8.1f} chunks/s "
        f"({serial_seconds:.2f} s)",
        f"  {N_SHARDS}-shard pipeline     : {parallel_rate:8.1f} chunks/s "
        f"({parallel_seconds:.2f} s)",
        f"  speedup              : {speedup:8.2f}x (floor {floor:.1f}x)",
        f"  accounting           : loaded={parallel_summary.loaded} "
        f"sidelined={parallel_summary.sidelined} "
        f"malformed={parallel_summary.malformed} (quarantined raw)",
    ]
    emit("parallel_ingest_throughput", "\n".join(lines), results_dir)
    emit_json("parallel_ingest_throughput", {
        "records": N_RECORDS,
        "chunks": n_chunks,
        "chunk_size": CHUNK_SIZE,
        "n_shards": N_SHARDS,
        "effective_cores": cores,
        "serial_chunks_per_s": serial_rate,
        "parallel_chunks_per_s": parallel_rate,
        "speedup": speedup,
        "floor": floor,
        "loaded": parallel_summary.loaded,
        "sidelined": parallel_summary.sidelined,
        "malformed": parallel_summary.malformed,
    }, results_dir, metrics=metrics)

    # Identical accounting regardless of shard count.
    assert parallel_summary.received == serial_summary.received
    assert parallel_summary.loaded == serial_summary.loaded
    assert parallel_summary.sidelined == serial_summary.sidelined
    assert parallel_summary.malformed == serial_summary.malformed
    assert speedup >= floor, (
        f"{N_SHARDS}-shard pipeline only {speedup:.2f}x over serial "
        f"(floor {floor:.1f}x on {cores} cores)"
    )


# ----------------------------------------------------------------------
# 3. Batched chunk framing amortization
# ----------------------------------------------------------------------
def _frame_roundtrip(frames, channel_factory, batch_size):
    """Ship pre-encoded frames at *batch_size* and drain them back.

    Isolates the transport + framing cost (annotation and parsing are
    excluded): sender-side message sends, receiver-side frame splits.
    Returns (seconds, messages, frames_received).
    """
    channel = channel_factory()
    start = time.perf_counter()
    batch = []
    for frame in frames:
        batch.append(frame)
        if len(batch) >= batch_size:
            channel.send_frames(batch)
            batch.clear()
    channel.send_frames(batch)
    received = sum(1 for _ in channel.drain_chunks())
    elapsed = time.perf_counter() - start
    return elapsed, channel.stats.messages_sent, received


#: Small-chunk stream for the framing bench: per-message overhead is a
#: fixed cost, so its relative weight — and batching's win — grows as
#: chunks shrink.
FRAMING_SMALL_CHUNK = 25


def test_batched_framing_amortization(benchmark, tmp_path, results_dir):
    """One-vs-batched framing delta; why DEFAULT_SHIP_BATCH is 8.

    Per-message overhead is a *fixed* cost, so batching matters in
    proportion to how small messages are: a stream of small chunks over
    the file-spool channel (the paper's deployment: four syscalls per
    message) is where the win must show, and big-chunk streams must at
    least not regress.  The assertion targets the file channel because
    I/O amortization is mechanical — independent of core count; memory
    deltas are reported for reference.
    """
    generator = make_generator("yelp", SEED)
    lines = list(generator.raw_lines(N_RECORDS))
    streams = {}
    for chunk_size in (FRAMING_SMALL_CHUNK, CHUNK_SIZE):
        client = SimulatedClient(f"framing-{chunk_size}",
                                 chunk_size=chunk_size)
        streams[chunk_size] = [
            encode_chunk(c) for c in client.process(lines)
        ]
    batch_sizes = [1, 4, DEFAULT_SHIP_BATCH, 32]

    def experiment():
        results = {}
        spool = 0
        for chunk_size, frames in streams.items():
            for factory_name, factory in (
                ("memory", MemoryChannel),
                ("file", lambda: FileChannel(tmp_path / f"spool-{spool}")),
            ):
                for batch in batch_sizes:
                    spool += 1
                    best = float("inf")
                    for _ in range(3):
                        seconds, messages, received = _frame_roundtrip(
                            frames, factory, batch
                        )
                        assert received == len(frames)
                        best = min(best, seconds)
                    results[(chunk_size, factory_name, batch)] = (
                        best, messages
                    )
        return results

    results = run_once(benchmark, experiment)

    rows = []
    for (chunk_size, channel_name, batch), (seconds, messages) \
            in results.items():
        baseline = results[(chunk_size, channel_name, 1)][0]
        rows.append(
            [
                chunk_size,
                channel_name,
                batch,
                messages,
                seconds * 1e3,
                baseline / seconds if seconds > 0 else float("inf"),
            ]
        )

    def speedup(chunk_size, channel_name):
        return (results[(chunk_size, channel_name, 1)][0]
                / results[(chunk_size, channel_name,
                           DEFAULT_SHIP_BATCH)][0])

    small_file = speedup(FRAMING_SMALL_CHUNK, "file")
    big_file = speedup(CHUNK_SIZE, "file")
    small_memory = speedup(FRAMING_SMALL_CHUNK, "memory")
    lines_out = [
        f"batched chunk framing over {N_RECORDS} records "
        f"(transport + framing only):",
        format_table(
            ["chunk", "channel", "frames/msg", "messages", "wall(ms)",
             "speedup"],
            rows,
        ),
        f"  default ship batch : {DEFAULT_SHIP_BATCH} frames/message — "
        f"file channel {small_file:.2f}x at {FRAMING_SMALL_CHUNK}-record "
        f"chunks, {big_file:.2f}x at {CHUNK_SIZE}-record chunks "
        f"(memory {small_memory:.2f}x at {FRAMING_SMALL_CHUNK}); "
        f"returns diminish past ~{DEFAULT_SHIP_BATCH} frames.",
    ]
    emit("batched_framing", "\n".join(lines_out), results_dir)
    emit_json("batched_framing", {
        "records": N_RECORDS,
        "default_ship_batch": DEFAULT_SHIP_BATCH,
        "rows": [
            {
                "chunk_size": chunk_size,
                "channel": channel_name,
                "frames_per_message": batch,
                "messages": messages,
                "wall_seconds": seconds,
            }
            for (chunk_size, channel_name, batch), (seconds, messages)
            in results.items()
        ],
        "small_file_speedup": small_file,
        "big_file_speedup": big_file,
        "small_memory_speedup": small_memory,
    }, results_dir)

    # Small chunks must show a real file-channel win; big chunks must
    # not regress (payload I/O dominates there, so ~1x is expected).
    # Pinnable in CI like the other bench floors.
    floor = float(
        os.environ.get("REPRO_BENCH_MIN_FRAMING_SPEEDUP", "1.5")
    )
    assert small_file >= floor, (
        f"batched framing only {small_file:.2f}x on the file channel "
        f"at {FRAMING_SMALL_CHUNK}-record chunks"
    )
    assert big_file >= 0.9
    assert small_memory >= 0.8

"""The repository benchmark: remote CIAO load and query, end to end.

Run from the repository root::

    python3 perfbench/run.py --workload yelp_pushdown --seed 1 \\
        --seconds 25 --trace 0

``--workload`` is one of the names in ``inputs.SPECS``, or ``all`` to run
each in turn (metric names are then prefixed with the workload's).
Each iteration spawns the server (``perfbench/server.py``) in its own
process, loads the workload's records through one ``RemoteSession``
over TCP and commits (a mid-load reader on a second connection runs
snapshot queries meanwhile, where the workload has one), then reads
whole passes over the workload's query list in a closed loop;
iterations repeat until ``--seconds`` have passed (at least
``MIN_ITERATIONS``).  See ``design.json`` for what each workload and
metric stands for.  Every answer is checked against
an oracle computed in process with no pushdown (every record parsed and
loaded), the commit report must account for every record, and mid-load
``COUNT`` answers must never fall or exceed their final value.

``--trace 0`` reports the end-to-end metrics, each timed one the
median of its repeats in the run scaled to the reference machine's
speed by the drift probe (see ``end_to_end``); ``--trace 1`` installs
the timing wrappers of ``layers.py`` in both processes on alternate
iterations and reports the per-layer metrics.  A table goes to stdout,
followed by one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  Exit code 0 when every check passed, 1 when a check
failed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_ITERATIONS = 3
READY_TIMEOUT = 90.0
REPLY_TIMEOUT = 60.0
#: Probe readings taken before the first iteration and after each one.
PROBE_REPS = 5
#: ``machine_ref_ms`` on the reference machine (a shared 2-vCPU Linux
#: container, Python 3.11.7): timed metrics are reported at this speed.
REF_MS = 20.0


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong answer)."""


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class ServerProcess:
    """One spawned server; ``setup_s`` is spawn → service accepting."""

    def __init__(self, inputs_path: Path, data_dir: Path, trace: bool,
                 log_path: Path):
        env = dict(os.environ)
        env["TMPDIR"] = str(data_dir.parent)
        self._log = open(log_path, "wb")
        self._buffer = b""
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), str(inputs_path),
             str(data_dir), "1" if trace else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._log, cwd=str(ROOT), env=env,
        )
        ready = self._expect("READY", READY_TIMEOUT)
        self.setup_s = time.perf_counter() - start
        self.address = (ready["host"], int(ready["port"]))

    def _readline(self, timeout: float) -> bytes:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            left = deadline - time.monotonic()
            if left <= 0:
                raise BenchError("server process did not answer in time")
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                data = os.read(fd, 65536)
                if not data:
                    raise BenchError("server process exited early")
                self._buffer += data
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line

    def _expect(self, tag: str, timeout: float = REPLY_TIMEOUT):
        line = self._readline(timeout).decode("utf-8")
        name, _, payload = line.partition(" ")
        if name != tag:
            raise BenchError(f"server said {line!r}, expected {tag}")
        return json.loads(payload)

    def _send(self, command: str) -> None:
        self.proc.stdin.write(command.encode("utf-8") + b"\n")
        self.proc.stdin.flush()

    def mark(self, phase: str) -> None:
        self._send(f"mark {phase}")
        self._expect("ok")

    def stop(self) -> dict:
        self._send("stop")
        done = self._expect("DONE")
        self.proc.wait(timeout=REPLY_TIMEOUT)
        return done

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=REPLY_TIMEOUT)
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()
        self._log.close()


# ----------------------------------------------------------------------
# Measurement helpers
# ----------------------------------------------------------------------
def machine_ref_ms() -> float:
    """A fixed pure-Python loop: the drift probe (``machine.ref_ms``).

    It runs in the driver between iterations, when no server process is
    alive, so nothing the program does can slow it.
    """
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return (time.perf_counter() - start) * 1e3


def answer_key(rows) -> str:
    """Rows as an order-free canonical string (GROUP BY order is free)."""
    return json.dumps(sorted(json.dumps(row, sort_keys=True)
                             for row in rows))


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def median(values):
    return statistics.median(values) if values else 0.0


def compute_oracle(inputs, work: Path):
    """Rows of every query from a no-pushdown, fully parsed load."""
    from repro.api import CiaoSession, DeploymentConfig, LineSource

    config = DeploymentConfig(mode="serial", partial_loading="off")
    with CiaoSession(config=config, data_dir=work / "oracle",
                     seed=inputs.seed) as session:
        session.load(LineSource(inputs.lines, name="oracle")).result()
        return {sql: session.query(sql).rows for sql in inputs.sql}


class Tally:
    """Attempted and failed operations, and why each check failed.

    Shared by the loading thread and the mid-load reader.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def attempt(self, count: int = 1) -> None:
        with self._lock:
            self.attempted += count

    def fail(self, what: str, count: int = 1) -> None:
        with self._lock:
            self.failed += count
            if len(self.problems) < 20:
                self.problems.append(what)


# ----------------------------------------------------------------------
# One iteration
# ----------------------------------------------------------------------
def run_iteration(inputs, oracle, work: Path, index: int, traced: bool,
                  recorder, tally: Tally):
    """One server lifetime; its measurements, or None when it failed."""
    from repro.service import RemoteError
    from repro.transport.base import TransportError

    data_dir = work / f"iter-{index}"
    server = None
    try:
        server = ServerProcess(work / "inputs.pkl", data_dir, traced,
                               work / f"server-{index}.log")
        return _measure(inputs, oracle, server, data_dir, traced,
                        recorder, tally)
    except (BenchError, RemoteError, TransportError) as exc:
        tally.fail(f"iteration {index}: {type(exc).__name__}: {exc}")
        if server is not None:
            log = (work / f"server-{index}.log").read_text(errors="replace")
            print(log[-2000:], file=sys.stderr)
        return None
    finally:
        recorder.enabled = False
        if server is not None:
            server.close()
        shutil.rmtree(data_dir, ignore_errors=True)


def _measure(inputs, oracle, server, data_dir, traced, recorder, tally):
    from inputs import CHUNK_SIZE, SHIP_BATCH
    from repro.obs import Metrics
    from repro.service import RemoteSession

    class Loader(RemoteSession):
        """Counts CHUNKS batches and signals the first INGEST_ACK."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.first_ack = threading.Event()

        def _ship(self, chunks):
            tally.attempt()
            accepted = super()._ship(chunks)
            self.first_ack.set()
            return accepted

    spec = inputs.spec
    n = len(inputs.lines)
    out = {"setup_s": server.setup_s, "traced": traced, "latencies": []}
    loader_metrics = Metrics() if traced else None
    with Loader(server.address, client_id="loader", chunk_size=CHUNK_SIZE,
                metrics=loader_metrics, timeout=REPLY_TIMEOUT) as loader:
        stop_reader = threading.Event()
        midload = []
        reader = None
        if spec.midload_reader:
            reader = threading.Thread(
                target=_midload_reader,
                args=(server.address, inputs.sql, loader.first_ack,
                      stop_reader, out["latencies"], midload, tally),
            )
            reader.start()
        recorder.reset()
        recorder.enabled = traced
        load_s, cpu_s = [], []
        try:
            # Each load + commit builds a fresh table on the same
            # server, fed by a fresh stream; queries read the last one.
            for k in range(spec.loads):
                start = time.perf_counter()
                cpu_start = time.thread_time()
                tally.attempt()  # the commit
                loader.load(inputs.lines, source_id=f"loader-{k}",
                            batch_size=SHIP_BATCH)
                report = loader.commit()
                load_s.append(time.perf_counter() - start)
                cpu_s.append(time.thread_time() - cpu_start)
                accounted = (report["loaded"] + report["sidelined"]
                             + report["malformed"])
                if not report["received"] == accounted == n:
                    tally.fail(f"commit accounts for {report} of {n} "
                               f"records")
        finally:
            stop_reader.set()
            loader.first_ack.set()
            if reader is not None:
                reader.join(timeout=REPLY_TIMEOUT)
        out["load_s"] = load_s
        out["load_total_s"] = sum(load_s)
        out["cpu_s"] = cpu_s
        out["client_load"] = recorder.snapshot()
        # Every load stores the same records the same way.
        out["store_bytes"] = tree_bytes(data_dir) / spec.loads
        out["report"] = report
        if traced:
            server.mark("load")
            counters = loader_metrics.snapshot()["counters"]
            out["wire_bytes"] = counters.get("socket.bytes_out", 0)
        _check_midload(midload, oracle, tally)

        # The post-commit closed-loop reader: whole passes over the query
        # list, so every query weighs the same in the latency sample
        # whatever the machine's speed.  The first pass, which runs cold
        # after the commit, is the query half of e2e.  A mid-load
        # reader's latency sample is the mid-load one only.
        timings, answers = [], []
        query_start = time.perf_counter()
        while not answers or (time.perf_counter() - query_start
                              < spec.read_seconds):
            for sql in inputs.sql:
                answers.append((sql, _timed_query(loader, sql, timings,
                                                  tally)))
            out.setdefault("pass_s", time.perf_counter() - query_start)
        out["query_s"] = time.perf_counter() - query_start
        out["first_pass"] = timings[:len(inputs.sql)]
        if not spec.midload_reader:
            out["latencies"] = timings
        out["client_end"] = recorder.snapshot()
        recorder.enabled = False
        expected = {sql: answer_key(rows) for sql, rows in oracle.items()}
        for sql, key in answers:
            if key is not None and key != expected[sql]:
                tally.fail(f"wrong answer to {sql!r}")
        if traced:
            out["stats"] = loader.stats()
    out["server"] = server.stop()
    return out


def _timed_query(remote, sql, latencies, tally, snapshot=False):
    """One query round trip; its rows' key (snapshot: rows), or None."""
    from repro.service import RemoteError
    from repro.transport.base import TransportError

    tally.attempt()
    start = time.perf_counter()
    try:
        result = (remote.snapshot_query(sql) if snapshot
                  else remote.query(sql))
    except (RemoteError, TransportError) as exc:
        tally.fail(f"query {sql!r} failed: {exc}")
        return None
    if latencies is not None:
        latencies.append((sql, time.perf_counter() - start))
    return result.rows if snapshot else answer_key(result.rows)


def _midload_reader(address, sqls, first_ack, stop, latencies, seen,
                    tally):
    """Snapshot queries from the first INGEST_ACK until COMMITTED.

    Starting at the first ack keeps the reader from asking a server
    that has nothing loaded yet, which is the benchmark's ordering
    rather than the program's behaviour.
    """
    from repro.service import RemoteSession

    first_ack.wait(timeout=REPLY_TIMEOUT)
    try:
        with RemoteSession(address, client_id="reader",
                           timeout=REPLY_TIMEOUT) as remote:
            i = 0
            while not stop.is_set():
                sql = sqls[i % len(sqls)]
                rows = _timed_query(remote, sql, latencies, tally,
                                    snapshot=True)
                if rows is not None:
                    seen.append((sql, rows))
                i += 1
    except Exception as exc:  # the thread's boundary: report, never hide
        tally.fail(f"mid-load reader stopped: {type(exc).__name__}: {exc}")


def _check_midload(seen, oracle, tally) -> None:
    """Per query, mid-load COUNTs never fall nor exceed the final one."""
    last = {}
    for sql, rows in seen:
        if len(rows) != 1 or len(rows[0]) != 1:
            tally.fail(f"mid-load {sql!r} returned {rows!r}")
            continue
        count = next(iter(rows[0].values()))
        final = next(iter(oracle[sql][0].values()))
        if count < last.get(sql, 0) or count > final:
            tally.fail(f"mid-load {sql!r} read {count} after "
                       f"{last.get(sql, 0)} (final {final})")
        last[sql] = max(count, last.get(sql, 0))


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def per_query_median(samples) -> dict:
    """Each query's median of its ``(sql, seconds)`` samples."""
    by_query = {}
    for sql, seconds in samples:
        by_query.setdefault(sql, []).append(seconds)
    return {sql: median(values) for sql, values in by_query.items()}


def end_to_end(inputs, iterations, probes) -> dict:
    n = len(inputs.lines)
    # Every timed figure is the median of its repeats in the run, at
    # the reference machine's speed: times are scaled by REF_MS over the
    # run's median probe.  The shared host switches between a fast and a
    # slow mode (up to 1.8x) for seconds to minutes at a time, longer
    # than a run, so raw times of runs of identical code differ by more
    # than any usable bound; the probe, timed in the same run, moves
    # with the host and not with the program.  Latency percentiles are
    # taken over the query list, of each query's median execution; e2e
    # adds the median load to one pass over the list at each query's
    # median first-pass execution.
    scale = REF_MS / median(probes)
    load_s = median([s for it in iterations for s in it["load_s"]]) * scale
    per_query = sorted(v * scale for v in per_query_median(
        sample for it in iterations for sample in it["latencies"]).values())
    first_pass = per_query_median(
        sample for it in iterations for sample in it["first_pass"])
    deciles = (statistics.quantiles(per_query, n=10, method="inclusive")
               if len(per_query) >= 2 else per_query * 9 or [0.0] * 9)
    cpu_s = median([s for it in iterations for s in it["cpu_s"]]) * scale
    return {
        "setup_s": (median([it["setup_s"] for it in iterations]) * scale,
                    "s"),
        "load_krec_per_s": (n / load_s / 1e3, "krec/s"),
        "client_us_per_rec": (cpu_s / n * 1e6, "us/rec"),
        "query_p50_ms": (median(per_query) * 1e3, "ms"),
        "query_p90_ms": (deciles[8] * 1e3, "ms"),
        "e2e_s": (load_s + sum(first_pass.values()) * scale, "s"),
        "store_bytes_per_raw_byte": (median(
            [it["store_bytes"] / inputs.raw_bytes for it in iterations]),
            "ratio"),
        "server_peak_rss_mb": (median(
            [it["server"]["peak_rss_kb"] / 1024 for it in iterations]),
            "MB"),
    }


def _phase(totals, name, field):
    entry = totals.get(name)
    return entry[field] if entry else 0


def _diff(end, start):
    zero = [0, 0.0, 0, 0.0]
    return {k: [v[i] - start.get(k, zero)[i] for i in range(len(zero))]
            for k, v in end.items()}


def _per_layer_one(inputs, it) -> dict:
    """Per-layer values of one traced iteration.

    Work is charged as the thread's CPU self time, waits (for an ack, an
    admission slot, a checkpoint's fsync, a commit) as wall time.
    """
    from layers import CALLS, CPU, ITEMS, WAIT_LAYERS, WALL

    loads = inputs.spec.loads
    n = len(inputs.lines) * loads  # records loaded in the iteration
    marks = it["server"]["marks"]
    s_load, s_end = marks["load"], marks["end"]
    s_query = _diff(s_end, s_load)
    c_load = it["client_load"]
    c_query = _diff(it["client_end"], c_load)
    # Mid-load readers query during the load, so per-query layers are
    # taken over the whole iteration there, over the query phase else.
    q = s_end if inputs.spec.midload_reader else s_query
    queries = max(1, _phase(q, "engine.execute", CALLS))
    batches = max(1, _phase(c_load, "transport.ack_wait", CALLS))
    checkpoints = _phase(s_end, "recovery.checkpoint", CALLS) / loads
    manifest = it["server"]["manifest_bytes"]
    counters = it["stats"].get("metrics", {}).get("counters", {})
    skipped = counters.get("scan.row_groups_skipped", 0)
    scanned = counters.get("scan.row_groups_scanned", 0)
    hits = counters.get("snapcache.hits", 0)
    misses = counters.get("snapcache.misses", 0)

    def busy(client, server):
        return sum(v[CPU] for k, v in list(client.items())
                   + list(server.items())
                   if k not in WAIT_LAYERS and k != "core.plan")

    return {
        "core.plan_s": _phase(s_end, "core.plan", WALL),
        "client.annotate_us_per_rec":
            _phase(c_load, "client.annotate", CPU) / n * 1e6,
        "client.encode_us_per_rec":
            _phase(c_load, "client.encode", CPU) / n * 1e6,
        "client.records_matched_frac":
            it["report"]["loaded"] / len(inputs.lines),
        "transport.ack_wait_ms_per_batch":
            _phase(c_load, "transport.ack_wait", WALL) / batches * 1e3,
        "transport.wire_bytes_per_raw_byte":
            it["wire_bytes"] / (inputs.raw_bytes * loads),
        "server.ingest_ms_per_batch":
            _phase(s_load, "server.ingest", WALL)
            / max(1, _phase(s_load, "server.ingest", CALLS)) * 1e3,
        "server.commit_s": _phase(s_load, "server.commit", WALL) / loads,
        "rawjson.parse_us_per_rec":
            _phase(s_load, "rawjson.parse", CPU) / n * 1e6,
        "storage.sideline_records_parsed_per_query":
            _phase(q, "storage.sideline_parse", ITEMS) / queries,
        "storage.sideline_parse_ms_per_query":
            _phase(q, "storage.sideline_parse", CPU) / queries * 1e3,
        "engine.sql_plan_ms_per_query":
            _phase(q, "engine.sql_plan", CPU) / queries * 1e3,
        "engine.execute_ms_per_query":
            _phase(q, "engine.execute", CPU) / queries * 1e3,
        "engine.row_groups_skipped_frac":
            skipped / (skipped + scanned) if skipped + scanned else 0.0,
        "engine.snapcache_hit_frac":
            hits / (hits + misses) if hits + misses else 0.0,
        "service.admission_wait_ms_per_query":
            _phase(q, "service.admission_wait", WALL) / queries * 1e3,
        "recovery.checkpoints": checkpoints,
        "recovery.checkpoint_ms_mean":
            _phase(s_end, "recovery.checkpoint", WALL)
            / max(1, checkpoints * loads) * 1e3,
        "recovery.manifest_bytes_per_checkpoint":
            statistics.mean(manifest) if manifest else 0.0,
        "trace.unattributed_frac.load":
            1.0 - busy(c_load, s_load) / it["load_total_s"],
        "trace.unattributed_frac.query":
            1.0 - busy(c_query, s_query) / it["query_s"],
    }


PER_LAYER_UNITS = {
    "core.plan_s": "s",
    "client.annotate_us_per_rec": "us/rec",
    "client.encode_us_per_rec": "us/rec",
    "client.records_matched_frac": "ratio",
    "transport.ack_wait_ms_per_batch": "ms",
    "transport.wire_bytes_per_raw_byte": "ratio",
    "server.ingest_ms_per_batch": "ms",
    "server.commit_s": "s",
    "rawjson.parse_us_per_rec": "us/rec",
    "storage.sideline_records_parsed_per_query": "count",
    "storage.sideline_parse_ms_per_query": "ms",
    "engine.sql_plan_ms_per_query": "ms",
    "engine.execute_ms_per_query": "ms",
    "engine.row_groups_skipped_frac": "ratio",
    "engine.snapcache_hit_frac": "ratio",
    "service.admission_wait_ms_per_query": "ms",
    "recovery.checkpoints": "count",
    "recovery.checkpoint_ms_mean": "ms",
    "recovery.manifest_bytes_per_checkpoint": "bytes",
    "trace.unattributed_frac.load": "ratio",
    "trace.unattributed_frac.query": "ratio",
}


def per_layer(inputs, iterations, probes) -> dict:
    traced = [it for it in iterations if it["traced"]]
    plain = [it for it in iterations if not it["traced"]]
    rows = [_per_layer_one(inputs, it) for it in traced]
    metrics = {name: (median([row[name] for row in rows]), unit)
               for name, unit in PER_LAYER_UNITS.items()}
    e2e_traced = median([median(it["load_s"]) + it["pass_s"]
                         for it in traced])
    e2e_plain = median([median(it["load_s"]) + it["pass_s"]
                        for it in plain])
    metrics["trace.overhead_frac"] = (e2e_traced / e2e_plain - 1.0,
                                      "ratio")
    metrics["machine.ref_ms"] = (median(probes), "ms")
    return metrics


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Measure one workload; returns (metrics, tally, info)."""
    from inputs import make_inputs
    from layers import Recorder, install_client

    recorder = Recorder()
    if trace:
        install_client(recorder)
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    try:
        inputs = make_inputs(name, seed)
        with open(work / "inputs.pkl", "wb") as handle:
            pickle.dump(inputs.server_args(), handle)
        oracle = compute_oracle(inputs, work)
        probes = [machine_ref_ms() for _ in range(PROBE_REPS)]
        iterations = []
        start = time.perf_counter()
        # Traced runs alternate traced and untraced iterations, so the
        # tracing overhead is measured in the same run.
        while (time.perf_counter() - start < seconds
               or len(iterations) < MIN_ITERATIONS):
            traced = trace and len(iterations) % 2 == 0
            it = run_iteration(inputs, oracle, work, len(iterations),
                               traced, recorder, tally)
            if it is None:
                break
            iterations.append(it)
            probes += [machine_ref_ms() for _ in range(PROBE_REPS)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len(iterations) < MIN_ITERATIONS:
        metrics = {}  # a failed iteration: the failure is the result
    elif trace:
        metrics = per_layer(inputs, iterations, probes)
    else:
        metrics = end_to_end(inputs, iterations, probes)
    info = {
        "iterations": len(iterations),
        "samples": sum(len(it["latencies"]) for it in iterations),
        "machine.ref_ms": median(probes),
    }
    return metrics, tally, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from inputs import SPECS

    # The driver, the probe and every server (which inherits the
    # affinity) share one CPU.  On a shared host the other vCPUs come
    # and go with the neighbours' load, which the probe cannot see; on
    # one CPU the probe times the very CPU the program runs on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    names = list(SPECS) if args.workload == "all" else [args.workload]
    if any(name not in SPECS for name in names):
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(SPECS)} or all", file=sys.stderr)
        return 2
    merged, attempted, failed = {}, 0, 0
    for name in names:
        metrics, tally, info = run_workload(
            name, args.seed, args.seconds, bool(args.trace))
        print(f"# {name} seed={args.seed} iterations={info['iterations']}"
              f" latency_samples={info['samples']}"
              f" machine.ref_ms={info['machine.ref_ms']:.3f}"
              f" time_scale={REF_MS / info['machine.ref_ms']:.4f}"
              f" attempted={tally.attempted} failed={tally.failed}")
        for metric, (value, unit) in metrics.items():
            print(f"  {metric:<44} {value:>14.6f} {unit}")
        for problem in tally.problems:
            print(f"  CHECK FAILED: {problem}")
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, (value, unit) in metrics.items():
            merged[prefix + metric] = {"value": value, "unit": unit}
        attempted += tally.attempted
        failed += tally.failed
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": merged}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

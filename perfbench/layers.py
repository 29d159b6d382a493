"""Per-layer timing for the traced run.

The traced run wraps each layer's public entry point with a stopwatch
that charges the layer its *self* time: the wrapped call's duration
minus the time spent in wrapped calls nested inside it.  Self time is
kept twice, as wall time and as the calling thread's CPU time: threads
of one process share the interpreter lock, so a layer's wall time also
counts the turns other threads took, while its CPU time does not.
Nesting is tracked per thread, so the shard workers' parses and a
router thread's ingest never steal time from each other.  Generators
(the sideline scans) are charged per ``next()``, which excludes the
consumer's work between yields, and count one item per yield.

Nothing here touches the program's source: wrappers are installed by
attribute assignment in the process that runs the layer, and only when
tracing is on.  With the recorder disabled a wrapper costs one
attribute check per call.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from typing import Callable, Dict, List, Union

#: A layer name, or a function choosing one from the caller's stack of
#: enclosing layer names (innermost last).
Name = Union[str, Callable[[List[str]], str]]


#: Positions in a layer's totals.
CALLS, WALL, ITEMS, CPU = range(4)


class Recorder:
    """Accumulates calls, wall and CPU self seconds and items per layer."""

    def __init__(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self.totals: Dict[str, List[float]] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, wall: float, cpu: float, items: int) -> None:
        with self._lock:
            entry = self.totals.setdefault(name, [0, 0.0, 0, 0.0])
            entry[CALLS] += 1
            entry[WALL] += wall
            entry[ITEMS] += items
            entry[CPU] += cpu

    def snapshot(self) -> Dict[str, List[float]]:
        with self._lock:
            return {k: list(v) for k, v in self.totals.items()}

    def reset(self) -> None:
        with self._lock:
            self.totals.clear()

    def _timed(self, name: Name, fn, args, kwargs, items: int = 0):
        stack = self._stack()
        label = name if isinstance(name, str) else \
            name([frame[0] for frame in stack])
        frame = [label, 0.0, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        cpu_start = time.thread_time()
        try:
            return fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - start
            cpu = time.thread_time() - cpu_start
            stack.pop()
            if stack:
                stack[-1][1] += wall
                stack[-1][2] += cpu
            self.add(label, wall - frame[1], cpu - frame[2], items)

    def wrap(self, name: Name, fn):
        """*fn* charged to layer *name* while the recorder is enabled."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            return self._timed(name, fn, args, kwargs)
        return wrapper

    def wrap_generator(self, name: str, fn):
        """A generator function charged per ``next()``; one item per yield."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not self.enabled:
                yield from gen
                return
            while True:
                try:
                    value = self._timed(name, next, (gen,), {}, items=1)
                except StopIteration:
                    return
                yield value
        return wrapper


def patch(recorder: Recorder, owner, attr: str, name: Name,
          generator: bool = False) -> None:
    """Replace ``owner.attr`` with its recorded version."""
    original = getattr(owner, attr)
    wrap = recorder.wrap_generator if generator else recorder.wrap
    setattr(owner, attr, wrap(name, original))


def _ack_or_reply(stack: List[str]) -> str:
    """Waits inside a CHUNKS round trip are the stop-and-wait stall."""
    if stack and stack[-1] == "transport.ship":
        return "transport.ack_wait"
    return "transport.reply_wait"


def install_client(recorder: Recorder) -> None:
    """Wrap the driver-side layers: client evaluation, encode, wire."""
    from repro.client import evaluator, protocol
    from repro.service import remote
    from repro.transport import sockets

    patch(recorder, evaluator.ClientEvaluator, "annotate",
          "client.annotate")
    patch(recorder, protocol, "encode_chunk", "client.encode")
    patch(recorder, remote.RemoteSession, "_ship", "transport.ship")
    patch(recorder, sockets.SocketChannel, "receive_wait", _ack_or_reply)


#: Layers that wait on another thread or process rather than work.
WAIT_LAYERS = ("transport.ack_wait", "transport.reply_wait",
               "service.admission_wait")


def install_server(recorder: Recorder) -> Dict[str, List[int]]:
    """Wrap the server-side layers; returns the manifest size log."""
    from repro.core import optimizer
    from repro.engine import executor
    from repro.recovery import manifest
    from repro.server import ciao, loader
    from repro.service import admission
    from repro.storage import jsonstore

    patch(recorder, optimizer.CiaoOptimizer, "plan", "core.plan")
    patch(recorder, ciao.IngestSession, "ingest_sequenced",
          "server.ingest")
    patch(recorder, loader, "try_parse", "rawjson.parse")
    patch(recorder, ciao.CiaoServer, "finalize_loading", "server.commit")
    patch(recorder, ciao.CiaoServer, "checkpoint", "recovery.checkpoint")
    patch(recorder, jsonstore.JsonSideStore, "iter_parsed",
          "storage.sideline_parse", generator=True)
    patch(recorder, jsonstore.SidelineView, "iter_parsed",
          "storage.sideline_parse", generator=True)
    patch(recorder, executor, "parse_sql", "engine.sql_plan")
    patch(recorder, executor, "plan_query", "engine.sql_plan")
    patch(recorder, executor.Executor, "execute_parsed", "engine.execute")
    patch(recorder, admission.QueryAdmission, "acquire",
          "service.admission_wait")

    sizes: Dict[str, List[int]] = {"manifest_bytes": []}
    write = manifest.Manifest.write

    @functools.wraps(write)
    def sized_write(self, doc):
        revision = write(self, doc)
        if recorder.enabled:
            sizes["manifest_bytes"].append(os.path.getsize(self.path))
        return revision

    manifest.Manifest.write = sized_write
    return sizes

"""The served side of one benchmark iteration, run in its own process.

Usage (by ``run.py``, never by hand)::

    python3 perfbench/server.py <inputs.pkl> <data_dir> <trace 0|1>

Loads the planning inputs the driver pickled, builds a ``CiaoSession``
on *data_dir*, plans it, and serves it through ``CiaoService``.  Once
the service accepts connections it prints one ``READY`` JSON line with
its address on stdout.  It then obeys line commands on stdin:

``mark <phase>``
    Record the layer totals so far under *phase*; replies ``ok``.
``stop``
    Close the service and session, print one ``DONE`` JSON line (peak
    RSS, and with tracing the per-phase layer totals and manifest
    sizes), and exit.
"""

from __future__ import annotations

import json
import pickle
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import Recorder, install_server  # noqa: E402


def _reply(tag: str, payload) -> None:
    sys.stdout.write(f"{tag} {json.dumps(payload)}\n")
    sys.stdout.flush()


def main(argv) -> int:
    inputs_path, data_dir, trace = argv[1], Path(argv[2]), argv[3] == "1"
    recorder = Recorder()
    sizes = install_server(recorder) if trace else {}
    recorder.enabled = trace

    from repro.api import Budget, CiaoSession, DeploymentConfig
    from repro.obs import Metrics
    from repro.service import CiaoService

    with open(inputs_path, "rb") as handle:
        args = pickle.load(handle)
    config = DeploymentConfig(
        mode="sharded", n_shards=2, shard_mode="thread",
        seal_interval=args["seal_interval"],
        chunk_size=args["chunk_size"], durable=args["durable"],
    )
    session = CiaoSession(
        args["workload"], config=config, data_dir=data_dir,
        seed=args["seed"], metrics=Metrics() if trace else None,
    )
    session.plan(Budget(args["budget"]), sample=args["sample"],
                 avg_record_length=args["avg_record_length"])
    service = CiaoService(session, checkpoint_every=args["checkpoint_every"])
    marks = {}
    try:
        host, port = service.address
        _reply("READY", {"host": host, "port": port})
        for line in sys.stdin:
            command = line.split()
            if command[:1] == ["mark"]:
                marks[command[1]] = recorder.snapshot()
                _reply("ok", {})
            elif command[:1] == ["stop"]:
                break
    finally:
        service.close()
        session.close()
    marks["end"] = recorder.snapshot()
    _reply("DONE", {
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "marks": marks if trace else {},
        "manifest_bytes": sizes.get("manifest_bytes", []),
    })
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""What a served process imports, and the lazy package exports behind it.

A server process imports ``repro.api`` and ``repro.service``, plans, and
serves.  It must not pay for modules that serving never runs: the fleet,
the linter, the dataset generators, compaction (unless configured),
``asyncio`` and ``numpy``.  Each package ``__init__`` exports its names
through a lazy table (``repro._lazy``), so importing a package no longer
imports its submodules.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: Modules a served process never loads, as exact names or prefixes of
#: dotted names ("repro.fleet" covers "repro.fleet.coordinator").
DENIED = (
    "asyncio",
    "hashlib",
    "numpy",
    "repro.api.aio",
    "repro.api.source",
    "repro.bench",
    "repro.compact",
    "repro.data.textgen",
    "repro.data.winlog",
    "repro.data.ycsb",
    "repro.data.yelp",
    "repro.fleet",
    "repro.rawcsv",
    "repro.simulate",
)

#: The runtime half of ``repro.analysis``; the linter is the rest.
ANALYSIS_RUNTIME = ("repro.analysis.annotations", "repro.analysis.sanitizer")

_DENY_CHECK = """
import sys

def denied_modules(denied, analysis_runtime):
    found = []
    for name in sorted(sys.modules):
        if any(name == d or name.startswith(d + ".") for d in denied):
            found.append(name)
        elif (name.startswith("repro.analysis.")
                and name not in analysis_runtime):
            found.append(name)
    return found
"""

_IMPORT_PROBE = _DENY_CHECK + """
import repro.api, repro.service
print(denied_modules(DENIED, ANALYSIS_RUNTIME))
"""

#: The loading client of the serve probe, run in its own interpreter so
#: that what it imports (data sources, the client device) is not
#: counted against the served process.  Prints the two answers.
_SERVE_CLIENT = """
import json, sys
from repro.service import RemoteSession

records = [{"id": i, "stars": i % 6, "city": "Townville" if i % 4 else "X"}
           for i in range(400)]
lines = [json.dumps(record) for record in records]
address = tuple(json.loads(sys.argv[1]))
with RemoteSession(address, client_id="c1", chunk_size=25) as remote:
    remote.load(lines)
    remote.commit()
    count = remote.query("SELECT COUNT(*) FROM t WHERE stars = 5").scalar()
    grouped = remote.query("SELECT stars, COUNT(*) FROM t GROUP BY stars").rows
print(json.dumps([count, len(grouped)]))
"""

_SERVE_PROBE = _DENY_CHECK + """
import json, os, subprocess, tempfile
from repro.api import Budget, CiaoSession, DeploymentConfig
from repro.core import Query, Workload, clause, key_value, substring
from repro.service import CiaoService

stars = clause(key_value("stars", 5))
city = clause(substring("city", "ville"))
workload = Workload((Query((stars,), frequency=3.0), Query((city,))))
records = [{"id": i, "stars": i % 6, "city": "Townville" if i % 4 else "X"}
           for i in range(400)]
lines = [json.dumps(record) for record in records]
config = DeploymentConfig(mode="sharded", n_shards=2, shard_mode="thread",
                          seal_interval=2, chunk_size=25, durable=True)
with tempfile.TemporaryDirectory() as data_dir:
    session = CiaoSession(workload, config=config, data_dir=data_dir, seed=3)
    session.plan(Budget(20.0), sample=records[:100],
                 avg_record_length=sum(map(len, lines)) / len(lines))
    service = CiaoService(session, checkpoint_every=2)
    try:
        client = subprocess.run(
            [sys.executable, "-c", SERVE_CLIENT,
             json.dumps(list(service.address))],
            env=os.environ, capture_output=True, text=True, timeout=120,
        )
    finally:
        service.close()
        session.close()
assert client.returncode == 0, client.stderr
count, groups = json.loads(client.stdout.strip().splitlines()[-1])
assert count == sum(r["stars"] == 5 for r in records), count
assert groups == 6, groups
print(denied_modules(DENIED, ANALYSIS_RUNTIME))
"""


def _run_probe(source: str) -> str:
    # A fresh interpreter: this test process has imported everything.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    constants = (f"DENIED = {DENIED!r}\n"
                 f"ANALYSIS_RUNTIME = {ANALYSIS_RUNTIME!r}\n"
                 f"SERVE_CLIENT = {_SERVE_CLIENT!r}\n")
    done = subprocess.run(
        [sys.executable, "-c", constants + source], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


def test_importing_the_served_api_loads_no_denied_module():
    assert _run_probe(_IMPORT_PROBE) == "[]"


def test_a_full_serve_loads_no_denied_module():
    # Plan, serve, take a load over loopback from a client process,
    # commit and query: nothing denied was only put off until the timed
    # paths.
    assert _run_probe(_SERVE_PROBE) == "[]"


def _packages():
    """Every ``repro`` package, as (dotted name, ``__init__.py`` path)."""
    for init in sorted((SRC / "repro").rglob("__init__.py")):
        parts = init.parent.relative_to(SRC).parts
        yield ".".join(parts), init


def _lazy_table(init: Path):
    """The ``{module: names}`` table a package hands ``lazy_exports``."""
    for stmt in ast.parse(init.read_text()).body:
        value = getattr(stmt, "value", None)
        if (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "lazy_exports"):
            return ast.literal_eval(value.args[1])
    return None


_RESOLVE_PROBE = """
import importlib, json, pkgutil, sys
import repro

tables = json.loads(sys.argv[1])
problems = []
first = {}
for package, table in tables.items():
    pkg = importlib.import_module(package)
    for module, names in table.items():
        for name in names:
            value = getattr(pkg, name)
            first[package, name] = value
            source = importlib.import_module(module, package)
            if value is not getattr(source, name):
                problems.append(f"{package}.{name} is not {module}'s object")
            owner = getattr(value, "__module__", None)
            qualname = getattr(value, "__qualname__", None)
            if (isinstance(owner, str) and owner.startswith("repro")
                    and isinstance(qualname, str)
                    and getattr(sys.modules[owner], qualname, None)
                    is not value):
                problems.append(f"{package}.{name} is not {owner}.{qualname}")
    listed = set(pkg.__all__)
    if not listed <= set(dir(pkg)):
        problems.append(f"dir({package}) misses {sorted(listed - set(dir(pkg)))}")
    namespace = {}
    exec(f"from {package} import *", namespace)
    if listed - {"__version__"} != {n for n in namespace if n[0] != "_"}:
        problems.append(f"from {package} import * differs from __all__")
# A submodule imported later must not shadow an exported name.
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if not info.name.endswith("__main__"):
        importlib.import_module(info.name)
for (package, name), value in first.items():
    if getattr(sys.modules[package], name) is not value:
        problems.append(f"{package}.{name} changed after importing submodules")
print(json.dumps(problems))
"""


def test_every_exported_name_resolves_to_its_defining_object():
    tables = {}
    for package, init in _packages():
        table = _lazy_table(init)
        assert table, f"{package} has no lazy export table"
        exported = sorted(n for names in table.values() for n in names)
        module_all = ast.literal_eval(next(
            stmt.value for stmt in ast.parse(init.read_text()).body
            if isinstance(stmt, ast.Assign)
            and getattr(stmt.targets[0], "id", "") == "__all__"))
        assert exported == sorted(set(module_all) - {"__version__"}), package
        tables[package] = table
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _RESOLVE_PROBE, json.dumps(tables)], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


def test_a_package_resolves_its_submodules():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = (
        "import sys, repro.server\n"
        "assert 'repro.server.skipping' not in sys.modules\n"
        "assert repro.server.skipping is sys.modules['repro.server.skipping']\n"
        "try:\n"
        "    repro.server.no_such_module\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('a missing name resolved')\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr

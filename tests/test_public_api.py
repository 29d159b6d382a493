"""The public-API contract, enforced by ciaolint's api-hygiene checker.

The per-package ``__all__`` completeness/sortedness/importability tests
that used to live here were promoted into the static api-hygiene
checker (``repro.analysis.hygiene``), which covers every package under
``src`` from the AST alone.  This file is the thin runtime half: one
assertion that the checker is clean, plus the two contracts a static
pass cannot express — the roadmap's promised top-level symbol set, and
actual star-import behavior.
"""

import importlib
from pathlib import Path

import pytest

from repro.analysis import run_analysis

SRC = Path(__file__).resolve().parents[1] / "src"

#: Symbols the roadmap promises at the top level (the satellite list:
#: fleet + streaming-query + deployment API symbols, exported
#: consistently).
PROMISED_TOP_LEVEL = {
    "Budget",
    "ChannelSpec",
    "CiaoOptimizer",
    "CiaoServer",
    "CiaoSession",
    "ClientPopulation",
    "DataSource",
    "DeploymentConfig",
    "FleetClientSpec",
    "FleetCoordinator",
    "FleetReport",
    "IngestSession",
    "LoadJob",
    "LoadReport",
    "LoadSummary",
    "LossyChannel",
    "SimulatedClient",
    "make_channel",
}


def test_api_hygiene_is_clean():
    """Every package __all__ is complete, sorted, and bound (API001-006)."""
    result = run_analysis([SRC], select=["api-hygiene"], root=SRC.parent)
    assert [f.render() for f in result.findings] == []


def test_all_entries_importable():
    """Every ``repro.__all__`` name resolves at runtime (no stale exports).

    The static checker proves each entry is *bound* in the module; this
    proves the top-level package actually imports — the one failure mode
    (a broken re-export chain) statics cannot see.
    """
    repro = importlib.import_module("repro")
    missing = [n for n in repro.__all__ if not hasattr(repro, n)]
    assert not missing, f"repro.__all__ lists unimportable: {missing}"


def test_promised_symbols_at_top_level():
    repro = importlib.import_module("repro")
    missing = sorted(PROMISED_TOP_LEVEL - set(repro.__all__))
    assert not missing, f"top-level __all__ lost: {missing}"


def test_star_import_matches_all():
    namespace = {}
    exec("from repro import *", namespace)
    imported = {n for n in namespace if not n.startswith("_")}
    repro = importlib.import_module("repro")
    assert imported == set(repro.__all__) - {"__version__"}


def test_removed_names_stay_gone():
    """Construction goes through ``CiaoServer(...)``/``DeploymentConfig``
    and channels through :mod:`repro.transport` — no second path."""
    for package in ("repro", "repro.api", "repro.server"):
        module = importlib.import_module(package)
        for name in ("ServerConfig", "EagerLoader"):
            assert name not in module.__all__
            assert not hasattr(module, name)
    simulate = importlib.import_module("repro.simulate")
    transport = importlib.import_module("repro.transport")
    assert not set(simulate.__all__) & set(transport.__all__)
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.simulate.network")

"""Shared configuration for the reproduction benchmarks.

Scale: the paper ran 5–27 GB datasets; these benches default to
laptop-scale record counts so the whole suite finishes in minutes.  Set
``REPRO_SCALE`` (a float multiplier, e.g. ``REPRO_SCALE=10``) to run
larger.  Every bench prints the paper-style series and archives it under
``benchmarks/results/``; a smoke (``REPRO_BENCH_SMOKE=1``) or down-scaled
(``REPRO_SCALE`` < 1) run writes to a temporary directory instead.

The test tree's oracles (e.g. ``engine_oracle``, the row-at-a-time
interpreter the query-engine bench times the batch engine against) are
importable here: ``tests/`` is put on ``sys.path``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

from repro.bench import ExperimentConfig

sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))

#: Global record-count multiplier.
SCALE = float(os.environ.get("REPRO_SCALE", "1"))

#: Where bench outputs are archived.
RESULTS = Path(__file__).parent / "results"

#: Smoke runs (``REPRO_BENCH_SMOKE``) and down-scaled runs shrink the
#: inputs, so their numbers must not replace the archived full runs.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def config_for(dataset: str, n_records: int, n_queries: int,
               chunk_size: int = 500) -> dict:
    """Standard (config, n_queries) pair for an end-to-end bench."""
    return {
        "config": ExperimentConfig(
            dataset=dataset,
            n_records=n_records,
            chunk_size=chunk_size,
            sample_size=min(2000, n_records),
            scale=SCALE,
        ),
        "n_queries": max(5, int(n_queries * min(SCALE, 1.0) + 0.5))
        if SCALE < 1 else n_queries,
    }


@pytest.fixture(scope="session")
def results_dir(tmp_path_factory) -> Path:
    """Archive directory for bench outputs (a temporary one when shrunk)."""
    if SMOKE or SCALE < 1:
        return tmp_path_factory.mktemp("results")
    RESULTS.mkdir(parents=True, exist_ok=True)
    return RESULTS


def run_once(benchmark, fn):
    """Run *fn* exactly once under pytest-benchmark timing.

    The experiments are minutes-scale deterministic pipelines; multiple
    rounds would add nothing but wall time.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)

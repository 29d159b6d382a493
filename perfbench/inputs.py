"""Workload definitions and seeded input generation.

Everything here runs before any timed region: the driver builds the
records, the planning sample, the prospective workload and the SQL
lists from ``--seed``, and hands the program only those inputs.

The plan's inputs -- the prospective workload (Table III workload A)
and the sample its selectivities are estimated from -- are drawn from a
fixed seed, so every run plans the same pushdown; ``--seed`` varies the
records that are loaded and queried.  A plan drawn per seed changes
how many predicates are pushed, and with it every load metric, by more
than the benchmark's bounds.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.data import make_generator
from repro.workload import table3_workload

#: Seed of the prospective workload and the planning sample.
PLAN_SEED = 20261016

#: Queries in the prospective workload (the paper's Table III size).
WORKLOAD_QUERIES = 200

#: Records per client chunk and chunk frames per CHUNKS message: small
#: enough that a load is a stream of stop-and-wait batches, not one.
CHUNK_SIZE = 100
SHIP_BATCH = 2

#: Records drawn for selectivity estimation at plan time.
SAMPLE_SIZE = 1000


@dataclass(frozen=True)
class Spec:
    """One benchmark workload."""

    name: str
    dataset: str
    n_records: int
    budget: float
    #: Queries outside the prospective workload to read instead of it.
    adhoc_sql: Tuple[str, ...] = ()
    #: Loads (each with its commit) per server, for a load too short
    #: to time once; queries read the last one.
    loads: int = 1
    #: A second connection issues snapshot queries while the first
    #: loads (closed loop, from the first INGEST_ACK until COMMITTED).
    midload_reader: bool = False
    durable: bool = False
    seal_interval: int = 8
    checkpoint_every: Optional[int] = None
    #: Keep only this many of the most frequent distinct queries.
    hot_queries: Optional[int] = None
    #: Post-commit closed-loop reader: whole passes over the query list
    #: until this many seconds have passed (at least one pass).
    read_seconds: float = 0.0


#: Ad-hoc queries outside workload A: none is covered by a pushed
#: predicate, so each one reads the whole sideline.
ADHOC_SQL: Tuple[str, ...] = (
    "SELECT COUNT(*) FROM t",
    "SELECT COUNT(*) FROM t WHERE stars = 4",
    "SELECT stars, COUNT(*) FROM t GROUP BY stars",
    "SELECT SUM(useful) FROM t",
)

#: Why each workload was chosen is recorded in ``design.json``.
#: ``winlog_durable_mixed`` is not among the workloads BENCHMARK.json
#: gates on: on a shared 2-vCPU host its spread between runs of
#: identical code exceeded every usable bound.  It stays runnable by
#: name for the layers only it exercises (snapshot reads mid-load).
SPECS: Dict[str, Spec] = {
    spec.name: spec for spec in (
        Spec(name="yelp_pushdown", dataset="yelp", n_records=8000,
             budget=20.0, durable=True, checkpoint_every=20,
             read_seconds=0.5),
        Spec(name="yelp_adhoc", dataset="yelp", n_records=1600,
             budget=1.0, adhoc_sql=ADHOC_SQL, loads=3,
             read_seconds=2.0),
        Spec(name="winlog_durable_mixed", dataset="winlog",
             n_records=16000, budget=2.0, midload_reader=True,
             durable=True, seal_interval=2, checkpoint_every=4,
             hot_queries=8),
    )
}


@dataclass
class Inputs:
    """Everything one run feeds the program, generated from a seed."""

    spec: Spec
    seed: int
    lines: List[str]
    sample: List[Dict[str, Any]]
    avg_record_length: float
    workload: Any
    #: The query list: one pass over it is the query half of ``e2e_s``,
    #: and the closed-loop readers cycle through it.
    sql: List[str] = field(default_factory=list)

    @property
    def raw_bytes(self) -> int:
        return sum(len(line.encode("utf-8")) for line in self.lines)

    def server_args(self) -> Dict[str, Any]:
        """What the server process needs to plan and serve."""
        spec = self.spec
        return {
            "workload": self.workload,
            "sample": self.sample,
            "avg_record_length": self.avg_record_length,
            "budget": spec.budget,
            "durable": spec.durable,
            "seal_interval": spec.seal_interval,
            "checkpoint_every": spec.checkpoint_every,
            "chunk_size": CHUNK_SIZE,
            "seed": self.seed,
        }


def make_inputs(name: str, seed: int) -> Inputs:
    """The inputs of workload *name* for data seed *seed*."""
    spec = SPECS[name]
    lines = list(make_generator(spec.dataset, seed)
                 .raw_lines(spec.n_records))
    planning = make_generator(spec.dataset, PLAN_SEED)
    sample = planning.sample(SAMPLE_SIZE)
    avg = planning.average_record_length()
    workload = table3_workload(spec.dataset, "A", seed=PLAN_SEED,
                               n_queries=WORKLOAD_QUERIES)
    if spec.adhoc_sql:
        sql = list(spec.adhoc_sql)
    else:
        # Distinct queries, most frequent first (ties in order of first
        # appearance): the workload repeats its hot queries, a pass
        # runs each once.
        counts = Counter(q.sql() for q in workload.queries)
        sql = sorted(counts, key=lambda text: -counts[text])
        sql = sql[:spec.hot_queries or len(sql)]
    return Inputs(spec, seed, lines, sample, avg, workload, sql)

"""Coordinated many-client loading: populations, budgets, stragglers.

CIAO's premise is that *clients* assist loading; this subsystem exercises
the optimization framework across a heterogeneous population instead of a
single simulated device.  A :class:`FleetCoordinator` runs N concurrent
clients — generated deterministically by :class:`ClientPopulation` from
the Table IV hardware profiles plus Zipf-skewed data shares — against one
(typically sharded) :class:`~repro.server.ciao.CiaoServer`, with bounded
per-channel backpressure, admission control, and straggler reassignment.
The outcome is a :class:`FleetReport`; the consistency contract is that
the fleet result equals serial single-client ingest of the union of the
per-client partitions.

**Per-client budget allocation policy.**  The fleet optimizes ONE global
pushdown plan (so predicate ids are consistent everywhere), then assigns
each client a budget-restricted *prefix* of it:

1. The administrator sets an *aggregate* budget ``B`` — the mean µs of
   predicate work per record across the fleet, in calibrated-machine
   units (paper §III's knob, fleet-wide).
2. :func:`repro.core.budgets.allocate_budgets` splits ``B × N`` across
   clients **proportionally to speed factor** and **capped by each
   client's slack**, water-filling what capped clients cannot absorb.
   Fast idle gateways therefore execute deep predicate prefixes; weak or
   duty-cycled sensors ship near-raw data and the server absorbs the
   parse cost — the trade-off the paper's introduction promises
   ("different budgets for different clients").
3. Each client's plan is ``global_plan.restrict(budget)`` — a prefix in
   greedy pick order, never a re-optimization, so every bit-vector id
   means the same thing on every chunk.  Chunks annotated with fewer
   than all pushed predicates load eagerly (§VI-B safety rule), so
   mixed-depth fleets stay exact.
4. **Online re-allocation** (``realloc_interval``): declared speed
   factors are priors, not truths.  Between loading intervals the
   coordinator measures each client's observed prefiltering throughput
   (records per wall-second from its
   :class:`~repro.simulate.runtime.CostLedger`), blends it with the
   current factors (:func:`repro.core.budgets.observed_speed_factors`),
   and re-runs the allocation; clients swap to their new prefix at the
   next chunk boundary.  Dead clients drop out and their budget share
   flows to survivors.
"""

from .. import _lazy

__all__ = [
    "ClientPopulation",
    "ClientRunReport",
    "DEFAULT_MAX_PENDING",
    "FleetAllocation",
    "FleetBudgetAllocator",
    "FleetClientSpec",
    "FleetCoordinator",
    "FleetReport",
    "REFERENCE_PLATFORM",
    "uniform_allocation",
]

__getattr__, __dir__ = _lazy.lazy_exports(__name__, {
    ".allocation": (
        "FleetAllocation", "FleetBudgetAllocator", "uniform_allocation"),
    ".coordinator": ("FleetCoordinator",),
    ".population": (
        "REFERENCE_PLATFORM", "ClientPopulation", "FleetClientSpec"),
    ".report": ("ClientRunReport", "FleetReport"),
    "..transport.base": ("DEFAULT_MAX_PENDING",),
})

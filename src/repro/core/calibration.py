"""Cost-model calibration by multivariate linear regression (paper §VII-F).

The paper randomly picks 100 predicates per dataset, times them on a 5 GB
sample, regresses the mean per-record cost on the model's features, and
reports R² per hardware platform (Table IV).  This module implements that
pipeline:

* :func:`measure_search_costs` times the compiled clause matchers clients
  run (:meth:`~repro.core.patterns.CompiledClause.matcher`) on this
  machine (the "Local" platform of our Table IV reproduction);
* :func:`fit` solves the least-squares problem for the five coefficients;
* :func:`r_squared` is the goodness-of-fit statistic.

Synthetic "other hardware" observations (cloud VM with hypervisor noise,
bare-metal cluster) come from :mod:`repro.simulate.hardware` and run through
the same :func:`fit`.

Note on the paper's R² formula: the text writes the denominator as
``Σ(ŷ_i − ȳ)²`` — that is the *explained* sum of squares, which would make
the statistic "1 − SSres/SSexp".  We implement the standard definition
``R² = 1 − SSres/SStot`` (total sum of squares), which is what every linear
regression package reports and evidently what the authors computed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from .cost_model import CostCoefficients
from .patterns import CompiledClause

# numpy is imported inside the three functions that use it: the server's
# import path reaches this module but never calibrates, and loading numpy
# would cost it ~80 ms per process start.


@dataclass(frozen=True)
class Observation:
    """One calibration data point: a predicate timed against a sample.

    Attributes:
        pattern_length: ``len(p)``, total pattern characters searched.
        record_length: ``len(t)``, mean record length of the sample.
        hit_rate: Fraction of records on which the pattern was found —
            the selectivity proxy the model's two branches split on.
        mean_cost_us: Mean measured (or simulated) evaluation cost, µs.
    """

    pattern_length: float
    record_length: float
    hit_rate: float
    mean_cost_us: float

    def features(self) -> Tuple[float, float, float, float, float]:
        """The regression features matching :class:`CostCoefficients`."""
        sel, lp, lt = self.hit_rate, self.pattern_length, self.record_length
        return (sel * lp, sel * lt, (1 - sel) * lp, (1 - sel) * lt, 1.0)


@dataclass(frozen=True)
class CalibrationReport:
    """Result of fitting the cost model to observations."""

    coefficients: CostCoefficients
    raw_solution: Tuple[float, ...]
    r_squared: float
    n_observations: int

    def summary(self) -> str:
        """One-line summary as printed by the Table IV bench."""
        k = self.coefficients
        return (
            f"n={self.n_observations} R²={self.r_squared:.3f} "
            f"k1={k.k1:.3e} k2={k.k2:.3e} k3={k.k3:.3e} "
            f"k4={k.k4:.3e} c={k.c:.3e}"
        )


def r_squared(y_true: Sequence[float], y_pred: Sequence[float]) -> float:
    """Standard coefficient of determination, 1 − SSres/SStot.

    Degenerate case: if every observation has the same true value, SStot is
    zero; we report 1.0 for a perfect fit and 0.0 otherwise.
    """
    import numpy as np

    yt = np.asarray(y_true, dtype=float)
    yp = np.asarray(y_pred, dtype=float)
    if yt.shape != yp.shape:
        raise ValueError("y_true and y_pred must have equal length")
    ss_res = float(np.sum((yt - yp) ** 2))
    ss_tot = float(np.sum((yt - yt.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


def fit(observations: Sequence[Observation]) -> CalibrationReport:
    """Least-squares fit of the five-coefficient model.

    Coefficients are clamped at zero for use in :class:`CostCoefficients`
    (a negative per-byte cost is physically meaningless and only arises from
    noise); R² is reported for the *unclamped* solution, faithful to what a
    plain multivariate regression would measure.
    """
    if len(observations) < 5:
        raise ValueError(
            f"need at least 5 observations to fit 5 coefficients, "
            f"got {len(observations)}"
        )
    import numpy as np

    design = np.array([obs.features() for obs in observations], dtype=float)
    target = np.array([obs.mean_cost_us for obs in observations], dtype=float)
    solution, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
    predictions = design @ solution
    score = r_squared(target, predictions)
    clamped = CostCoefficients(*(max(0.0, float(v)) for v in solution))
    return CalibrationReport(
        coefficients=clamped,
        raw_solution=tuple(float(v) for v in solution),
        r_squared=score,
        n_observations=len(observations),
    )


def measure_search_costs(
    compiled_clauses: Sequence[CompiledClause],
    records: Sequence[str],
    repeats: int = 3,
    timer: Callable[[], float] = time.perf_counter,
) -> List[Observation]:
    """Time real raw-pattern evaluation of each clause over *records*.

    This is the paper's calibration experiment run on the current machine:
    for each clause we measure mean per-record evaluation cost (µs) and the
    observed hit rate.  ``repeats`` takes the minimum over runs to shed
    scheduler noise, standard micro-benchmark practice.
    """
    if not records:
        raise ValueError("need a non-empty record sample")
    observations: List[Observation] = []
    mean_len = sum(len(r) for r in records) / len(records)
    for compiled in compiled_clauses:
        matcher = compiled.matcher()
        hits = sum(1 for raw in records if matcher(raw))
        best = float("inf")
        for _ in range(max(1, repeats)):
            start = timer()
            for raw in records:
                matcher(raw)
            elapsed = timer() - start
            best = min(best, elapsed)
        mean_us = best / len(records) * 1e6
        observations.append(
            Observation(
                pattern_length=compiled.total_pattern_length(),
                record_length=mean_len,
                hit_rate=hits / len(records),
                mean_cost_us=mean_us,
            )
        )
    return observations


def predict(coefficients: CostCoefficients,
            observations: Sequence[Observation]) -> List[float]:
    """Model predictions for *observations* under *coefficients*."""
    import numpy as np

    vec = np.asarray(coefficients.as_vector(), dtype=float)
    design = np.array([obs.features() for obs in observations], dtype=float)
    return [float(v) for v in design @ vec]

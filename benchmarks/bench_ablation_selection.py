"""Ablation — selection algorithm quality and cost.

Compares the paper's Algorithm 1 (naive greedy), Algorithm 2 (benefit-cost
greedy), the combined max-of-both selector, and the CELF-accelerated
variant: objective value f(S) against the brute-force optimum on a small
pool, and marginal-gain evaluation counts on a full-size pool.  It also
reports (without asserting) the wall seconds of building the objective
and of each arm on the full-size pool.
"""

import time

from conftest import run_once

from repro.bench import emit, emit_json, format_table
from repro.core import (
    Budget,
    CiaoOptimizer,
    CostModel,
    DEFAULT_COEFFICIENTS,
    SelectionObjective,
    celf_greedy,
    exhaustive_optimum,
    naive_greedy,
    ratio_greedy,
    select_predicates,
)
from repro.data import make_generator
from repro.data.randomness import rng_stream
from repro.workload import (
    PredicatePool,
    UNIFORM,
    estimate_selectivities,
    generate_workload,
    zipfian,
)

SEED = 20210223


def build_optimizer(max_per_template, n_queries, exponent):
    rng = rng_stream(SEED, f"ablation-sel:{max_per_template}")
    pool = PredicatePool.from_templates(
        "winlog", rng=rng, max_per_template=max_per_template
    )
    dist = zipfian(exponent) if exponent else UNIFORM
    workload = generate_workload(
        pool, n_queries, 3.0, dist, rng_stream(SEED, "ablation-sel-q")
    )
    gen = make_generator("winlog", SEED)
    sels = estimate_selectivities(
        workload.candidate_pool, gen.sample(1200)
    )
    model = CostModel(DEFAULT_COEFFICIENTS, gen.average_record_length())
    return CiaoOptimizer(workload, sels, model)


def timed(fn, *args):
    """``(fn(*args), wall seconds)``."""
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def test_ablation_selection_quality_and_evals(benchmark, results_dir):
    def experiment():
        # Small instance: compare against the exhaustive optimum.
        small = build_optimizer(max_per_template=3, n_queries=10,
                                exponent=1.0)
        quality_rows = []
        for budget in (0.5, 1.0, 2.0):
            opt = exhaustive_optimum(small.objective, small.costs, budget)
            for name, algo in [
                ("naive (Alg.1)", naive_greedy),
                ("ratio (Alg.2)", ratio_greedy),
                ("combined", select_predicates),
                ("celf", celf_greedy),
            ]:
                result = algo(small.objective, small.costs, budget)
                quality_rows.append(
                    (
                        budget, name, result.objective_value,
                        opt.objective_value,
                        result.objective_value
                        / max(opt.objective_value, 1e-12),
                    )
                )
        # Full-size pool: count evaluations and time each arm.
        large = build_optimizer(max_per_template=None, n_queries=100,
                                exponent=1.2)
        sels = {
            c: large.objective.selectivity(c)
            for c in large.workload.candidate_pool
        }
        _, build_s = timed(SelectionObjective, large.workload, sels)
        args = (large.objective, large.costs)
        eval_rows = []
        time_rows = []
        for budget in (2.0, 5.0, 10.0):
            eager, eager_s = timed(ratio_greedy, *args, budget)
            lazy, lazy_s = timed(celf_greedy, *args, budget)
            _, naive_s = timed(naive_greedy, *args, budget)
            _, combined_s = timed(select_predicates, *args, budget)
            assert lazy.selected == eager.selected
            eval_rows.append(
                (
                    budget, len(eager), eager.evaluations,
                    lazy.evaluations,
                    eager.evaluations / max(lazy.evaluations, 1),
                )
            )
            time_rows.append(
                (budget, build_s, naive_s, eager_s, lazy_s, combined_s)
            )
        return quality_rows, eval_rows, time_rows

    quality_rows, eval_rows, time_rows = run_once(benchmark, experiment)
    quality = format_table(
        ["budget", "algorithm", "f(S)", "OPT", "ratio to OPT"],
        quality_rows,
    )
    evals = format_table(
        ["budget", "#selected", "evals (eager)", "evals (CELF)",
         "saving"],
        eval_rows,
    )
    time_headers = ["budget", "objective build s", "naive s",
                    "ratio (eager) s", "celf s", "combined s"]
    walls = format_table(time_headers, time_rows)
    emit(
        "ablation_selection",
        f"== Selection ablation: quality ==\n{quality}\n\n"
        f"== Selection ablation: lazy evaluation ==\n{evals}\n\n"
        f"== Selection ablation: wall seconds (full-size pool, "
        f"reported only) ==\n{walls}",
        results_dir,
    )
    emit_json("ablation_selection", {
        "quality": {
            "headers": ["budget", "algorithm", "f(S)", "OPT",
                        "ratio to OPT"],
            "rows": [list(row) for row in quality_rows],
        },
        "lazy_evaluation": {
            "headers": ["budget", "#selected", "evals (eager)",
                        "evals (CELF)", "saving"],
            "rows": [list(row) for row in eval_rows],
        },
        "wall_seconds": {
            "headers": time_headers,
            "rows": [list(row) for row in time_rows],
        },
    }, results_dir)

    # Every algorithm clears the 0.316·OPT bound; combined ≥ both arms.
    for budget, name, value, opt, ratio in quality_rows:
        assert ratio >= 0.316 - 1e-9, (budget, name)
    # CELF strictly saves evaluations at scale.
    assert all(saving > 1.5 for *_, saving in eval_rows)

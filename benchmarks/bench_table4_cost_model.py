"""Table IV — robustness of the cost model across hardware platforms.

Paper setup: 100 random predicates per dataset timed on a 5 GB sample,
multivariate linear regression, R² per platform: local server 0.897,
Alibaba Cloud ECS 0.666 (hypervisor interference), PKU cluster 0.978.

Here the three platforms are simulated noise profiles (DESIGN.md §2) fed
through the same regression, plus a fourth row fitting real compiled
matcher timings (the scans clients run) measured on the current host.
"""

from conftest import run_once

from repro.bench import cost_model_experiment, emit, emit_json, format_table


def test_table4_cost_model_robustness(benchmark, results_dir):
    def experiment():
        return cost_model_experiment(
            predicates_per_dataset=100,
            hit_rate_records=400,
            include_real_local=True,
            real_records=250,
        )

    rows = run_once(benchmark, experiment)
    table = format_table(
        ["platform", "hardware", "R² (ours)", "R² (paper)"],
        [
            (r.platform, r.hardware, r.r_squared, r.paper_r_squared)
            for r in rows
        ],
    )
    details = "\n".join(
        f"{r.platform}: {r.report.summary()}" for r in rows
    )
    emit(
        "table4_cost_model",
        f"== Table IV ==\n{table}\n\nfit details:\n{details}",
        results_dir,
    )
    emit_json("table4_cost_model", {
        "headers": ["platform", "hardware", "r_squared",
                    "paper_r_squared"],
        "rows": [
            [r.platform, r.hardware, r.r_squared, r.paper_r_squared]
            for r in rows
        ],
    }, results_dir)

    simulated = {r.platform: r for r in rows[:3]}
    # Paper-matching values within tolerance...
    for name, row in simulated.items():
        assert abs(row.r_squared - row.paper_r_squared) < 0.2, name
    # ...and, more importantly, the ordering cloud < local < cluster.
    assert (
        simulated["alibaba"].r_squared
        < simulated["local"].r_squared
        < simulated["pku"].r_squared
    )
    # The real-host fit should be decent: the linear model captures a
    # compiled C-level scan.
    this_machine = rows[3]
    assert this_machine.r_squared > 0.5

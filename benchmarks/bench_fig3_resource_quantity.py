"""Figure 3 -- CIFAR10 under resource heterogeneity (column 1) and data
quantity heterogeneity (column 2).

Panels (a)/(b): total training time bars for vanilla/slow/uniform/random/
fast; (c)/(d): accuracy over rounds; (e)/(f): accuracy over wall-clock
time.  Shape assertions: the time ordering fast < random < uniform <
vanilla < slow; fast achieves a large speedup over vanilla (paper ~11x
for resource het, ~3x for quantity het); accuracy per round is comparable
across policies in the resource case, while in the quantity case ``fast``
clearly loses accuracy (tier 1 holds only 10% of the data).
"""


from repro.experiments import (
    ScenarioConfig,
    format_table,
    run_policy,
    save_artifact,
    speedup_table,
)
from repro.experiments.analysis import rounds_to_accuracy, time_to_accuracy
from repro.experiments.figures import accuracy_curves, accuracy_time_curves, time_bars
from repro.experiments.tables import series_preview

POLICIES = ("vanilla", "slow", "uniform", "random", "fast")
ROUNDS = 80
SEED = 21


def run_column(cfg):
    return {p: run_policy(cfg, p, rounds=ROUNDS, seed=SEED) for p in POLICIES}


def render(results, name, title):
    times = time_bars(results)
    lines = [speedup_table(times, title=f"{title}: training time for {ROUNDS} rounds")]
    lines.append("")
    lines.append(f"{title}: accuracy over rounds")
    for p, (rr, aa) in accuracy_curves(results).items():
        lines.append(series_preview(rr, aa, label=f"{p:8s}"))
    lines.append("")
    lines.append(f"{title}: accuracy over wall-clock time")
    for p, (tt, aa) in accuracy_time_curves(results).items():
        lines.append(series_preview(tt, aa, label=f"{p:8s}"))
    lines.append("")
    # panels (e)/(f) as time-to-accuracy, for a target every policy reaches
    target = 0.9 * min(r.final_accuracy for r in results.values())
    lines.append(
        format_table(
            ["policy", "final accuracy", f"rounds to {target:.3f}",
             f"time to {target:.3f} [s]"],
            [
                [p, r.final_accuracy, rounds_to_accuracy(r.history, target),
                 time_to_accuracy(r.history, target)]
                for p, r in results.items()
            ],
        )
    )
    save_artifact(name, "\n".join(lines))
    return times


def test_fig3_resource_heterogeneity(benchmark):
    cfg = ScenarioConfig(
        dataset="cifar10",
        resource_profile="heterogeneous",
        data_distribution="iid",
        num_clients=50,
        clients_per_round=5,
        train_size=2500,
        test_size=400,
        difficulty=0.65,
        # widen the compute/overhead ratio so the 4 -> 0.1 CPU spread
        # dominates round time, as on the paper's testbed
        base_overhead=0.1,
        cost_per_sample=0.02,
    )
    results = benchmark.pedantic(run_column, args=(cfg,), rounds=1, iterations=1)
    times = render(results, "fig3_col1_resource", "Fig 3 col 1 (resource het)")

    # panel (a): strict time ordering
    assert times["fast"] < times["random"] < times["uniform"] < times["vanilla"]
    assert times["vanilla"] < times["slow"]
    # paper: fast ~11x over vanilla; uniform's speedup is bounded at ~3.4x
    # by order statistics (E[max of 5] vs mean) -- see EXPERIMENTS.md; the
    # paper's own Table 2 gives slow/uniform = 3.56, which we match below.
    assert times["vanilla"] / times["fast"] > 8.0
    assert times["vanilla"] / times["uniform"] > 2.0
    assert times["slow"] / times["uniform"] > 2.5  # Table 2 analogue: 3.56
    # panel (c): with IID data the accuracy gap across policies stays small
    accs = [r.final_accuracy for r in results.values()]
    assert max(accs) - min(accs) < 0.15
    # panel (e): under a tight wall-clock budget TiFL reaches higher accuracy
    budget = times["fast"] * 1.5
    assert results["fast"].history.accuracy_at_time(budget) >= (
        results["vanilla"].history.accuracy_at_time(budget)
    )
    # ... because it fits several times more rounds into that budget
    assert results["fast"].history.rounds_within_time(budget) > 2 * (
        results["vanilla"].history.rounds_within_time(budget)
    )


def test_fig3_quantity_heterogeneity(benchmark):
    cfg = ScenarioConfig(
        dataset="cifar10",
        resource_profile="homogeneous",
        data_distribution="quantity",
        num_clients=50,
        clients_per_round=5,
        train_size=2500,
        test_size=400,
        difficulty=0.7,
        base_overhead=0.1,
        cost_per_sample=0.02,
    )
    results = benchmark.pedantic(run_column, args=(cfg,), rounds=1, iterations=1)
    times = render(results, "fig3_col2_quantity", "Fig 3 col 2 (quantity het)")

    # quantity skew alone creates the straggler effect (paper: ~3x speedup)
    assert times["fast"] < times["uniform"] < times["slow"]
    assert times["slow"] / times["fast"] > 1.8
    assert times["vanilla"] / times["fast"] > 1.5
    # panel (d): fast trains on 10% of the data and visibly loses accuracy
    assert results["fast"].final_accuracy < results["uniform"].final_accuracy
    # slow holds 30% of the data: decent accuracy despite worst time (paper)
    assert results["slow"].final_accuracy > results["fast"].final_accuracy

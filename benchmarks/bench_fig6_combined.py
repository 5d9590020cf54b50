"""Figure 6 -- CIFAR10 with resource + non-IID heterogeneity (column 1)
and resource + quantity + non-IID heterogeneity (column 2).

Column 1: non-IID(5) classes with equal quantities -- timing behaves like
the resource-only case; accuracy degrades slightly more than IID.
Column 2: adds the 10..30% quantity skew -- ``fast``'s accuracy collapses
further (quantity skew amplifies the class bias), and ``uniform`` is the
best-accuracy static policy, close to vanilla.
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
SEED = 37


def make_cfg(with_quantity):
    return ScenarioConfig(
        dataset="cifar10",
        resource_profile="heterogeneous",
        data_distribution="quantity_noniid" if with_quantity else "noniid",
        noniid_classes=5,
        num_clients=50,
        clients_per_round=5,
        train_size=2500,
        test_size=400,
        difficulty=0.7,
        base_overhead=0.1,
        cost_per_sample=0.02,
    )


def run_column(with_quantity):
    cfg = make_cfg(with_quantity)
    return {p: run_policy(cfg, p, rounds=ROUNDS, seed=SEED) for p in POLICIES}


def _render(results, name, title):
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


def test_fig6_resource_noniid(benchmark):
    results = benchmark.pedantic(run_column, args=(False,), rounds=1, iterations=1)
    times = _render(results, "fig6_col1_resource_noniid", "Fig 6 col 1")

    # timing mirrors the resource-heterogeneity-only case (paper)
    assert times["fast"] < times["random"] < times["uniform"] < times["vanilla"]
    assert times["vanilla"] < times["slow"]
    assert times["vanilla"] / times["fast"] > 8.0
    # equal quantities: tier bias costs some accuracy but not a collapse
    assert results["uniform"].final_accuracy > results["fast"].final_accuracy - 0.10


def test_fig6_full_combined(benchmark):
    results = benchmark.pedantic(run_column, args=(True,), rounds=1, iterations=1)
    times = _render(results, "fig6_col2_full_combined", "Fig 6 col 2")

    # timing unchanged: TiFL corrects the data-amount effect too (paper)
    assert times["fast"] < times["uniform"] < times["slow"]
    # accuracy: fast degrades a lot more -- quantity skew amplifies the
    # class bias (paper Sec. 5.2.4); uniform is the best static policy
    assert results["fast"].final_accuracy < results["uniform"].final_accuracy
    assert (
        results["uniform"].final_accuracy
        >= max(
            results["fast"], results["slow"], key=lambda r: r.final_accuracy
        ).final_accuracy
        - 0.05
    )
    # uniform tracks vanilla closely (both unbiased)
    assert abs(
        results["uniform"].final_accuracy - results["vanilla"].final_accuracy
    ) < 0.12

"""Figure 5 -- MNIST and Fashion-MNIST with resource + data-quantity
heterogeneity, under the fast1/fast2/fast3 sensitivity sweep.

The sweep progressively starves the slowest tier (selection probability
0.1 -> 0.05 -> 0): more aggressive policies buy more speedup; accuracy
stays close to vanilla except ``fast3``, which completely ignores tier
5's data and falls short (paper Sec. 5.2.4).
"""

from repro.experiments import (
    ScenarioConfig,
    format_table,
    run_policy,
    save_artifact,
    speedup_table,
)
from repro.experiments.analysis import selection_fairness
from repro.experiments.figures import accuracy_curves, time_bars
from repro.experiments.tables import series_preview

POLICIES = ("vanilla", "uniform", "fast1", "fast2", "fast3")
ROUNDS = 70
SEED = 29
NUM_CLIENTS = 50


def make_cfg(dataset):
    return ScenarioConfig(
        dataset=dataset,
        resource_profile="heterogeneous",  # 2 / 1 / 0.75 / 0.5 / 0.25 CPUs
        data_distribution="quantity",
        num_clients=NUM_CLIENTS,
        clients_per_round=5,
        train_size=2500,
        test_size=400,
        difficulty=0.55,
        base_overhead=0.1,
        cost_per_sample=0.01,
    )


def run_dataset(dataset):
    cfg = make_cfg(dataset)
    return {p: run_policy(cfg, p, rounds=ROUNDS, seed=SEED) for p in POLICIES}


def _render(results, dataset):
    times = time_bars(results)
    lines = [
        speedup_table(
            times, title=f"Fig 5 ({dataset}): training time for {ROUNDS} rounds"
        ),
        "",
        f"Fig 5 ({dataset}): accuracy over rounds",
    ]
    for p, (rr, aa) in accuracy_curves(results).items():
        lines.append(series_preview(rr, aa, label=f"{p:8s}"))
    lines.append("")
    # how evenly each policy spreads participation over the pool (Jain's
    # index of every client's selection count; starved clients count as 0)
    lines.append(
        format_table(
            ["policy", "final accuracy", "selection fairness"],
            [
                [p, r.final_accuracy, selection_fairness(r.history, NUM_CLIENTS)]
                for p, r in results.items()
            ],
        )
    )
    save_artifact(f"fig5_{dataset}", "\n".join(lines))
    return times


def _assert_shape(results, times):
    # the fast sweep monotonically reduces training time ...
    assert times["fast3"] <= times["fast2"] <= times["fast1"] * 1.05
    assert times["fast1"] < times["vanilla"]
    assert times["uniform"] < times["vanilla"]
    # ... while accuracy stays near vanilla for all but fast3
    vanilla_acc = results["vanilla"].final_accuracy
    for p in ("uniform", "fast1", "fast2"):
        assert results[p].final_accuracy > vanilla_acc - 0.12, p
    # fast3 ignores tier 5 entirely: it must not beat the unbiased policies
    assert 4 not in results["fast3"].history.tier_selection_counts()
    assert results["fast3"].final_accuracy <= (
        max(results["uniform"].final_accuracy, vanilla_acc) + 0.02
    )


def test_fig5_mnist(benchmark):
    results = benchmark.pedantic(run_dataset, args=("mnist",), rounds=1, iterations=1)
    times = _render(results, "mnist")
    _assert_shape(results, times)


def test_fig5_fmnist(benchmark):
    results = benchmark.pedantic(run_dataset, args=("fmnist",), rounds=1, iterations=1)
    times = _render(results, "fmnist")
    _assert_shape(results, times)

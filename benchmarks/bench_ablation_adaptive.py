"""Ablation: Algorithm 2 design knobs (DESIGN.md §5.1-5.2).

On the combined-heterogeneity federation (the paper's hardest case):

1. **Credit allocation** -- equal vs speed-weighted.  Speed-weighted
   credits cap slow-tier participation harder and should buy wall-clock
   time; equal credits let the accuracy feedback pull more slow-tier
   rounds in.
2. **Update interval I** -- sweep I in {5, 10, 20, 40}: very small
   intervals react to noise, very large ones barely adapt; the middle of
   the sweep should be competitive on a time-budgeted AUC metric.
"""


from repro.experiments import ScenarioConfig, format_table, save_artifact
from repro.experiments.analysis import auc_accuracy_over_time, tier_utilisation
from repro.experiments.runner import run_policy

SEED = 67
ROUNDS = 80


def base_cfg():
    return ScenarioConfig(
        dataset="cifar10",
        resource_profile="heterogeneous",
        data_distribution="quantity_noniid",
        noniid_classes=5,
        num_clients=50,
        clients_per_round=5,
        train_size=2500,
        test_size=300,
        difficulty=0.7,
        base_overhead=0.1,
        cost_per_sample=0.02,
    )


def run_credit_ablation():
    out = {}
    for strategy in ("speed_weighted", "equal"):
        res = run_policy(
            base_cfg(),
            "adaptive",
            rounds=ROUNDS,
            seed=SEED,
            adaptive_interval=10,
            server_kwargs={"credit_strategy": strategy},
        )
        out[strategy] = res
    return out


def run_interval_sweep():
    out = {}
    for interval in (5, 10, 20, 40):
        res = run_policy(
            base_cfg(),
            "adaptive",
            rounds=ROUNDS,
            seed=SEED,
            adaptive_interval=interval,
        )
        out[interval] = res
    return out


def test_ablation_credit_strategy(benchmark):
    results = benchmark.pedantic(run_credit_ablation, rounds=1, iterations=1)

    rows = [
        [s, r.total_time, r.final_accuracy,
         tier_utilisation(r.history, len(r.tier_sizes))[-1]]
        for s, r in results.items()
    ]
    save_artifact(
        "ablation_credit_strategy",
        format_table(
            ["credit strategy", f"time {ROUNDS}r [s]", "final accuracy",
             "slowest-tier share"],
            rows,
            title="Ablation: Alg. 2 credit allocation",
        ),
    )

    sw, eq = results["speed_weighted"], results["equal"]
    # speed-weighted credits starve slow tiers harder => faster training
    assert sw.total_time < eq.total_time
    # both remain in a sane accuracy band
    assert abs(sw.final_accuracy - eq.final_accuracy) < 0.2


def test_ablation_adaptive_interval(benchmark):
    results = benchmark.pedantic(run_interval_sweep, rounds=1, iterations=1)

    horizon = max(r.total_time for r in results.values())
    rows = [
        [i, r.total_time, r.final_accuracy,
         auc_accuracy_over_time(r.history, horizon)]
        for i, r in results.items()
    ]
    save_artifact(
        "ablation_adaptive_interval",
        format_table(
            ["interval I", f"time {ROUNDS}r [s]", "final acc", "AUC(t)"],
            rows,
            title="Ablation: Alg. 2 update interval",
        ),
    )

    # every interval must produce a working run in a tight accuracy band
    accs = [r.final_accuracy for r in results.values()]
    assert max(accs) - min(accs) < 0.25
    # and adaptivity should never be catastrophically slow
    times = [r.total_time for r in results.values()]
    assert max(times) / min(times) < 4.0

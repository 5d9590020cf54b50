"""Table 2 -- Estimated vs Actual training time (Eq. 6 validation).

For each static policy (slow / uniform / random / fast), the analytical
estimate ``L_all = sum_i (L_tier_i * P_i) * R`` is compared against the
measured simulated training time; the paper reports MAPE <= ~6% across
policies.  Like the paper ("Every experiment is run 5 times and we use
the average values"), the measured time is averaged over 5 seeds -- a
single run's tier-draw variance would otherwise dominate the error.
"""

import numpy as np

from repro.experiments import ScenarioConfig, format_table, run_policies, save_artifact
from repro.experiments.figures import mean_curves
from repro.tifl.estimator import estimate_training_time, mape

POLICIES = ("slow", "uniform", "random", "fast")
ROUNDS = 150
REPEATS = 5
SEED = 3


def run_table2():
    cfg = ScenarioConfig(
        dataset="cifar10",
        resource_profile="heterogeneous",
        num_clients=50,
        clients_per_round=5,
        train_size=2000,
        test_size=200,
    )
    runs = run_policies(
        cfg, POLICIES, rounds=ROUNDS, seed=SEED, repeats=REPEATS, eval_every=75
    )
    out = {}
    for policy, results in runs.items():
        est = float(np.mean([
            estimate_training_time(r.tier_latencies, r.tier_probs, ROUNDS)
            for r in results
        ]))
        act = float(np.mean([r.total_time for r in results]))
        _, accs = mean_curves(results)
        out[policy] = (est, act, mape(est, act), float(accs[-1]))
    return out


def test_table2_estimation_accuracy(benchmark):
    results = benchmark.pedantic(run_table2, rounds=1, iterations=1)

    rows = [[policy, *row] for policy, row in results.items()]
    save_artifact(
        "table2_estimation",
        format_table(
            ["policy", "estimated [s]", "actual [s]", "MAPE [%]", "mean final acc"],
            rows,
            title="Table 2: Estimated vs Actual training time",
        ),
    )

    # the paper's MAPE never exceeds ~6%; grant slack for the smaller run
    for policy, (est, act, err, _) in results.items():
        assert err < 12.0, f"{policy}: MAPE {err:.2f}% too high"
    # the estimator must also preserve the policy ordering
    est_order = sorted(POLICIES, key=lambda p: results[p][0])
    act_order = sorted(POLICIES, key=lambda p: results[p][1])
    assert est_order == act_order == ["fast", "random", "uniform", "slow"]

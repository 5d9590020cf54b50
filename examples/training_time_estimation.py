#!/usr/bin/env python
"""Training-time planning with the Eq. 6 analytical model (Section 4.5).

Given profiled tier latencies, the estimator predicts total training time
for any tier-probability mix *before* spending compute -- the paper's
intended use: navigating the time/accuracy trade-off under a budget.

This script profiles a federation once, sweeps a family of policies that
interpolate between ``uniform`` and ``fast``, prints predicted times (and
that of a piecewise schedule, the shape of an adaptive run), then
validates two points of the sweep against measured runs (Table 2 style).

Run:  python examples/training_time_estimation.py
"""

import numpy as np

from repro.experiments import ScenarioConfig, format_table, run_policy
from repro.experiments.scenarios import build_scenario
from repro.tifl import StaticTierPolicy, build_tiers, profile_clients
from repro.tifl.estimator import (
    estimate_schedule_time,
    estimate_training_time,
    mape,
    mape_from_history,
)

ROUNDS = 120
SEED = 19


def interpolate(alpha: float, num_tiers: int = 5) -> np.ndarray:
    """Blend uniform (alpha=0) towards fastest-only (alpha=1)."""
    uniform = np.full(num_tiers, 1.0 / num_tiers)
    fast = np.zeros(num_tiers)
    fast[0] = 1.0
    return (1 - alpha) * uniform + alpha * fast


def main() -> None:
    cfg = ScenarioConfig(
        dataset="cifar10",
        resource_profile="heterogeneous",
        num_clients=50,
        clients_per_round=5,
        train_size=2500,
        test_size=300,
    )
    scenario = build_scenario(cfg, seed=SEED)
    profiling = profile_clients(
        scenario.clients, scenario.model.num_params(), sync_rounds=3
    )
    assignment = build_tiers(profiling.client_ids, profiling.mean_latencies, num_tiers=5)
    lats = assignment.mean_latencies
    print("profiled tier latencies [s]:", np.round(lats, 3).tolist(), "\n")

    rows = []
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        probs = interpolate(alpha)
        est = estimate_training_time(lats, probs, ROUNDS)
        rows.append([f"{alpha:.2f}", str(np.round(probs, 3).tolist()), est])
    print(
        format_table(
            ["alpha", "tier probs", f"predicted time for {ROUNDS} rounds [s]"],
            rows,
            title="Eq. 6 sweep: uniform -> fast",
        )
    )

    # the adaptive policy changes probabilities every interval: Eq. 6
    # summed over the segments estimates such a schedule too
    schedule = [interpolate(alpha) for alpha in (0.0, 0.5, 1.0)]
    segments = [ROUNDS // 3] * 3
    print(
        f"\nschedule alpha 0 -> 0.5 -> 1, {segments} rounds: predicted "
        f"{estimate_schedule_time(lats, schedule, segments):.0f}s"
    )

    print("\nvalidating two sweep points against measured runs")
    print("(averaged over 5 seeds, like the paper's repeated experiments;")
    print("the last column is the error against the first seed's run alone):")
    val_rows = []
    for alpha in (0.0, 0.5):
        probs = interpolate(alpha)
        est = estimate_training_time(lats, probs, ROUNDS)
        policy = StaticTierPolicy(probs, name=f"alpha={alpha}")
        runs = [
            run_policy(cfg, policy, rounds=ROUNDS, seed=SEED + i, eval_every=60)
            for i in range(5)
        ]
        measured = float(np.mean([r.total_time for r in runs]))
        val_rows.append(
            [f"{alpha:.2f}", est, measured, mape(est, measured),
             mape_from_history(lats, probs, runs[0].history)]
        )
    print(
        format_table(
            ["alpha", "estimated [s]", "measured [s]", "MAPE [%]",
             "one-run MAPE [%]"],
            val_rows,
        )
    )


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Planning tier probabilities under a wall-clock budget (Sec. 4.5 closed
loop).

The paper's Eq. 6 estimates a policy's training time; this example uses
the repo's LP planner to go the other way: given a profiled federation
and a time budget, find the *fairest* tier-probability vector (maximum
minimum tier probability) whose Eq. 6 cost fits the budget, answer the
dual question (the smallest budget that keeps every tier above a
probability floor) -- then validate a plan by actually training with it.

Run:  python examples/budget_planning.py
"""

import numpy as np

from repro.experiments import ScenarioConfig, format_table, run_policy
from repro.experiments.scenarios import build_scenario
from repro.tifl import (
    StaticTierPolicy,
    build_tiers,
    estimate_training_time,
    min_budget_for_fairness,
    plan_fairest_probs,
    profile_clients,
)

ROUNDS = 100
SEED = 17


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
    lats = build_tiers(
        profiling.client_ids, profiling.mean_latencies, num_tiers=5
    ).mean_latencies
    print("profiled tier latencies [s]:", np.round(lats, 3).tolist())

    uniform_cost = estimate_training_time(lats, [0.2] * 5, ROUNDS)
    print(f"uniform policy would cost {uniform_cost:.0f}s for {ROUNDS} rounds\n")

    rows = []
    for fraction in (1.0, 0.6, 0.35, 0.15):
        budget = uniform_cost * fraction
        plan = plan_fairest_probs(lats, ROUNDS, budget)
        rows.append(
            [
                f"{fraction:.2f} x uniform",
                f"{budget:.0f}",
                str(np.round(plan.probs, 3).tolist()),
                plan.min_tier_prob,
                plan.expected_time,
            ]
        )
    print(
        format_table(
            ["budget", "[s]", "planned tier probs", "min tier prob",
             "Eq. 6 cost [s]"],
            rows,
            title="Max-min-fair plans under shrinking budgets",
        )
    )

    floor_rows = []
    for floor in (0.0, 0.05, 0.1, 0.2):
        plan = min_budget_for_fairness(lats, ROUNDS, floor)
        floor_rows.append(
            [floor, str(np.round(plan.probs, 3).tolist()), plan.expected_time]
        )
    print()
    print(
        format_table(
            ["min tier prob", "cheapest tier probs", "Eq. 6 cost [s]"],
            floor_rows,
            title="Smallest budget that keeps every tier above a floor",
        )
    )

    # validate the mid-budget plan with a real training run
    budget = uniform_cost * 0.35
    plan = plan_fairest_probs(lats, ROUNDS, budget)
    policy = StaticTierPolicy(plan.probs, name="planned")
    result = run_policy(cfg, policy, rounds=ROUNDS, seed=SEED, eval_every=25)
    print(
        f"\nvalidation: planned cost {plan.expected_time:.0f}s, measured "
        f"{result.total_time:.0f}s (budget {budget:.0f}s), final accuracy "
        f"{result.final_accuracy:.3f}"
    )


if __name__ == "__main__":
    main()

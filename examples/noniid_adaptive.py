#!/usr/bin/env python
"""Adaptive tier selection under non-IID data (Sections 4.4 & 5.2.5).

Builds a federation with *combined* heterogeneity -- five CPU groups plus
quantity skew plus 5-classes-per-client label skew (the paper's hardest
"Combine" case), sets its label skew beside a Dirichlet(0.5) split of
the same labels (the usual non-IID generator in the FL literature), and
traces how Algorithm 2 behaves:

* per-tier held-out accuracy ``A_t^r`` over time,
* the evolving tier-selection probabilities after each ``ChangeProbs``,
* remaining per-tier credits (the soft time bound).

Run:  python examples/noniid_adaptive.py
"""

import numpy as np

from repro.data.partition import partition_dirichlet
from repro.data.validation import classes_per_client
from repro.experiments import ScenarioConfig, format_table
from repro.experiments.scenarios import build_scenario
from repro.tifl.adaptive import AdaptiveTierPolicy
from repro.tifl.server import TiFLServer

ROUNDS = 80
INTERVAL = 10
SEED = 23


def main() -> None:
    cfg = ScenarioConfig(
        dataset="cifar10",
        resource_profile="heterogeneous",
        data_distribution="quantity_noniid",
        noniid_classes=5,
        num_clients=50,
        clients_per_round=5,
        train_size=2500,
        test_size=400,
        difficulty=0.7,
    )
    scenario = build_scenario(cfg, seed=SEED)
    labels, k = scenario.fed.train.y, scenario.fed.train.num_classes
    dirichlet = partition_dirichlet(labels, cfg.num_clients, alpha=0.5, rng=SEED)
    print(
        "mean classes per client: this federation "
        f"{classes_per_client(labels, scenario.fed.client_indices, k).mean():.1f}, "
        f"Dirichlet(0.5) {classes_per_client(labels, dirichlet, k).mean():.1f}\n"
    )

    server = TiFLServer(
        clients=scenario.clients,
        model=scenario.model,
        test_data=scenario.test_data,
        clients_per_round=cfg.clients_per_round,
        policy="adaptive",
        total_rounds=ROUNDS,
        adaptive_interval=INTERVAL,
        training=scenario.training,
        rng=SEED,
    )
    policy = server.tier_policy
    assert isinstance(policy, AdaptiveTierPolicy)

    print("Initial tiering:")
    print(server.assignment.describe())
    print(f"initial credits: {policy.credits.tolist()}")
    print(f"initial probs:   {np.round(policy.probs, 3).tolist()}\n")

    snapshots = []
    for r in range(ROUNDS):
        rec = server.run_round(r)
        if r % INTERVAL == 0:
            snapshots.append(
                [
                    r,
                    rec.tier,
                    f"{rec.accuracy:.3f}" if rec.accuracy is not None else "-",
                    str(np.round(policy.probs, 2).tolist()),
                    str(policy.credits.tolist()),
                ]
            )

    print(
        format_table(
            ["round", "tier", "global acc", "tier probs", "credits left"],
            snapshots,
            title="Algorithm 2 trace (every interval)",
        )
    )

    final_tier_accs = server.evaluate_tiers()
    print(
        "\nper-tier holdout accuracy A_t at the end: "
        + ", ".join(f"T{t}={a:.3f}" for t, a in sorted(final_tier_accs.items()))
    )
    print(
        f"probability updates: {policy.prob_updates}, "
        f"credit refills: {policy.credit_refills}"
    )
    print(server.history.summary())


if __name__ == "__main__":
    main()

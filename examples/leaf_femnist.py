#!/usr/bin/env python
"""LEAF / FEMNIST at paper scale (Section 5.2.6).

Builds the 182-writer FEMNIST federation (LEAF sampling fraction 0.05)
with inherent quantity/class/feature skew plus the five hardware groups,
and compares vanilla FedAvg against TiFL uniform and adaptive with
|C| = 10 clients per round.

Run:  python examples/leaf_femnist.py
"""

import numpy as np

from repro.config import TrainingConfig
from repro.experiments import format_table
from repro.experiments.scenarios import build_leaf_scenario
from repro.fl.selection import RandomSelector
from repro.fl.server import FLServer
from repro.rng import derive
from repro.tifl.server import TiFLServer

ROUNDS = 80
SEED = 31
# The scaled-down linear surrogate needs a larger step than the paper's
# SGD(0.004)-on-CNN setting; see DESIGN.md's substitution table.
TRAINING = TrainingConfig(optimizer="sgd", lr=0.5, lr_decay=1.0, batch_size=10)


def build():
    return build_leaf_scenario(
        num_clients=182,
        clients_per_round=10,
        shape=(8, 8, 1),
        sample_scale=0.15,
        base_overhead=0.1,
        cost_per_sample=0.02,
        training=TRAINING,
        seed=SEED,
    )


def main() -> None:
    scn = build()
    sizes = scn.clients.num_train_samples
    print(
        f"LEAF federation: {len(scn.clients)} writers, "
        f"{sizes.sum()} samples, per-writer sizes "
        f"min={sizes.min()} median={int(np.median(sizes))} max={sizes.max()}"
    )

    rows = []
    for policy in ("vanilla", "uniform", "adaptive"):
        scn = build()  # fresh, identical federation per policy
        if policy == "vanilla":
            server = FLServer(
                clients=scn.clients,
                model=scn.model,
                selector=RandomSelector(10, rng=derive(SEED, 1)),
                test_data=scn.test_data,
                training=scn.training,
                rng=derive(SEED, 2),
            )
        else:
            server = TiFLServer(
                clients=scn.clients,
                model=scn.model,
                test_data=scn.test_data,
                clients_per_round=10,
                policy=policy,
                num_tiers=5,
                sync_rounds=3,
                total_rounds=ROUNDS,
                adaptive_interval=10,
                # equal credits favour accuracy; "speed_weighted" (the
                # default) pushes harder on wall-clock time instead
                credit_strategy="equal",
                training=scn.training,
                rng=derive(SEED, 3),
            )
        history = server.run(ROUNDS)
        rows.append([policy, history.total_time, history.final_accuracy])
        if policy == "adaptive":
            pol = server.tier_policy
            print(
                f"adaptive: {pol.prob_updates} ChangeProbs updates fired "
                f"(Alg. 2 only deviates from uniform when a tier's "
                f"accuracy stalls over an interval)"
            )

    print(
        format_table(
            ["policy", f"time for {ROUNDS} rounds [s]", "final accuracy"],
            rows,
            title="FEMNIST (LEAF, 182 clients): vanilla vs TiFL",
        )
    )


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Straggler mitigation deep dive (the paper's Sections 4.2-4.3 & 5.2.2).

Walks the full TiFL pipeline step by step on a resource-heterogeneous
federation:

1. profile every client's response latency (Sec. 4.2),
2. split the latency histogram into 5 tiers,
3. compare every Table 1 static policy -- measured training time and the
   Eq. 6 analytical estimate side by side (Table 2's validation),
4. show how the over-selection baseline (Bonawitz et al.) compares.

Run:  python examples/straggler_mitigation.py
"""


from repro.experiments import ScenarioConfig, format_table, run_policy
from repro.experiments.scenarios import build_scenario
from repro.tifl import build_tiers, estimate_training_time, mape, profile_clients

ROUNDS = 100
SEED = 11


def main() -> None:
    cfg = ScenarioConfig(
        dataset="cifar10",
        resource_profile="heterogeneous",
        num_clients=50,
        clients_per_round=5,
        train_size=2500,
        test_size=400,
    )

    # -- steps 1 & 2: profile and tier ---------------------------------
    scenario = build_scenario(cfg, seed=SEED)
    profiling = profile_clients(
        scenario.clients, scenario.model.num_params(), sync_rounds=3
    )
    assignment = build_tiers(profiling.client_ids, profiling.mean_latencies, num_tiers=5)
    print("Profiled tier table (Sec. 4.2):")
    print(assignment.describe())
    print(f"dropouts excluded: {profiling.dropouts.tolist() or 'none'}\n")

    # -- step 3: static policies, measured vs estimated ----------------
    rows = []
    for policy in ("vanilla", "slow", "uniform", "random", "fast", "overselect"):
        result = run_policy(cfg, policy, rounds=ROUNDS, seed=SEED, eval_every=25)
        if result.tier_probs is not None:
            est = estimate_training_time(
                result.tier_latencies, result.tier_probs, ROUNDS
            )
            err = f"{mape(est, result.total_time):.1f}%"
            est_s = f"{est:.1f}"
        else:
            est_s, err = "-", "-"
        rows.append(
            [policy, result.total_time, est_s, err, result.final_accuracy]
        )

    print(
        format_table(
            ["policy", "measured [s]", "Eq. 6 estimate [s]", "MAPE", "accuracy"],
            rows,
            title=f"Static tier policies over {ROUNDS} rounds (Table 1 / Table 2)",
        )
    )

    vanilla = rows[0][1]
    fast = rows[4][1]
    print(
        f"\nselecting within one tier removes the per-round straggler bound: "
        f"fast is {vanilla / fast:.1f}x faster than vanilla."
    )


if __name__ == "__main__":
    main()

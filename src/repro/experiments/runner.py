"""Experiment runner: execute one policy on one scenario.

The central contract: *competing policies are compared on identical
federations*.  :func:`run_policy` therefore rebuilds the scenario from
``(config, seed)`` for every policy, so data partitions, client resources
and latency statistics match across the comparison; only the selection
behaviour differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.execution import ClientExecutor
from repro.experiments.scenarios import Scenario, ScenarioConfig, build_scenario
from repro.fl.history import TrainingHistory
from repro.fl.selection import OverSelector, RandomSelector
from repro.fl.server import FLServer
from repro.rng import derive
from repro.tifl.scheduler import TierPolicy
from repro.tifl.server import TiFLServer

__all__ = ["ExperimentResult", "run_policy", "run_policies"]

PolicyName = Union[str, TierPolicy]

#: Policies that bypass tiering entirely.
_UNTIERED = ("vanilla", "overselect")


@dataclass
class ExperimentResult:
    """Outcome of one (scenario, policy) training run."""

    policy: str
    history: TrainingHistory
    tier_latencies: Optional[np.ndarray] = None
    tier_sizes: Optional[np.ndarray] = None
    tier_probs: Optional[np.ndarray] = None
    dropouts: List[int] = field(default_factory=list)

    @property
    def total_time(self) -> float:
        return self.history.total_time

    @property
    def final_accuracy(self) -> float:
        return self.history.final_accuracy


def _policy_label(policy: PolicyName) -> str:
    if isinstance(policy, str):
        return policy
    return getattr(policy, "name", type(policy).__name__)


def run_policy(
    cfg: ScenarioConfig,
    policy: PolicyName,
    rounds: int,
    seed: int = 0,
    eval_every: int = 1,
    policy_family: Optional[str] = None,
    num_tiers: int = 5,
    sync_rounds: int = 3,
    adaptive_interval: int = 10,
    scenario: Optional[Scenario] = None,
    server_kwargs: Optional[dict] = None,
    executor: Union[str, "ClientExecutor", None] = None,
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Train ``rounds`` rounds under ``policy`` on the scenario ``cfg``.

    ``policy`` is ``"vanilla"`` (random selection, Alg. 1),
    ``"overselect"`` (the 130% discard baseline), a Table 1 preset name,
    ``"adaptive"`` (Alg. 2), or any :class:`TierPolicy` instance.

    Pass ``scenario`` to reuse a prebuilt federation (single-policy use);
    by default the scenario is rebuilt from ``(cfg, seed)`` so that
    results are comparable across policies.

    ``executor`` / ``workers`` pick the client-execution backend
    (:mod:`repro.execution`); all backends yield bit-identical histories,
    so parallel execution never perturbs a comparison.  ``executor`` may
    also be a ready :class:`~repro.execution.ClientExecutor` instance
    (e.g. a listening distributed coordinator), in which case ``workers``
    is ignored.
    """
    if rounds <= 0:
        raise ValueError(f"rounds must be positive, got {rounds}")
    scn = scenario or build_scenario(cfg, seed=seed)
    family = policy_family or (
        "mnist" if cfg.dataset in ("mnist", "fmnist") else "cifar"
    )
    selector_rng = derive(seed, 101)
    kwargs = dict(server_kwargs or {})
    if executor is not None:
        kwargs.setdefault("executor", executor)
    if workers is not None:
        kwargs.setdefault("workers", workers)

    if isinstance(policy, str) and policy in _UNTIERED:
        if policy == "vanilla":
            selector = RandomSelector(scn.clients_per_round, rng=selector_rng)
        else:
            selector = OverSelector(scn.clients_per_round, rng=selector_rng)
        with FLServer(
            clients=scn.clients,
            model=scn.model,
            selector=selector,
            test_data=scn.test_data,
            training=scn.training,
            eval_every=eval_every,
            rng=derive(seed, 202),
            **kwargs,
        ) as server:
            history = server.run(rounds)
        return ExperimentResult(policy=_policy_label(policy), history=history)

    with TiFLServer(
        clients=scn.clients,
        model=scn.model,
        test_data=scn.test_data,
        clients_per_round=scn.clients_per_round,
        policy=policy,
        policy_family=family,
        num_tiers=num_tiers,
        sync_rounds=sync_rounds,
        total_rounds=rounds,
        adaptive_interval=adaptive_interval,
        training=scn.training,
        eval_every=eval_every,
        rng=derive(seed, 303),
        **kwargs,
    ) as server:
        history = server.run(rounds)
        probs = server.tier_policy.tier_probs(rounds - 1)
    return ExperimentResult(
        policy=_policy_label(policy),
        history=history,
        tier_latencies=server.assignment.mean_latencies,
        tier_sizes=server.assignment.sizes,
        tier_probs=np.asarray(probs, dtype=np.float64),
        dropouts=list(server.profiling.dropouts),
    )


def run_policies(
    cfg: ScenarioConfig,
    policies: Sequence[PolicyName],
    rounds: int,
    seed: int = 0,
    repeats: int = 1,
    eval_every: int = 1,
    **kwargs,
) -> Dict[str, List[ExperimentResult]]:
    """Run several policies on identical federations.

    Returns ``{policy_name: [result per repeat]}``.  Repeats vary the seed
    (``seed + i``) to produce the averaged curves the paper reports
    ("Every experiment is run 5 times and we use the average values").
    """
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    out: Dict[str, List[ExperimentResult]] = {}
    for policy in policies:
        label = _policy_label(policy)
        runs = [
            run_policy(
                cfg,
                policy,
                rounds,
                seed=seed + i,
                eval_every=eval_every,
                **kwargs,
            )
            for i in range(repeats)
        ]
        out[label] = runs
    return out

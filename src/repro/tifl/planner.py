"""Tier-probability planning under a wall-clock budget (extension of
Section 4.5).

The paper's training-time model (Eq. 6) lets users *evaluate* a policy's
expected cost; this module closes the loop and *solves* for policies --
the "navigate the training time-accuracy trade-off" workflow the paper
motivates, made concrete as two linear programs over the probability
simplex (solved with :func:`scipy.optimize.linprog`; scipy is the
``plan`` extra and loads on the first call, not with the package):

* :func:`plan_fairest_probs` -- among all policies meeting a total time
  budget, find the one that maximises the *minimum* tier probability
  (max-min fairness).  Diverse tier participation is the paper's proxy
  for unbiased data coverage, so this is "as unbiased as the budget
  allows".
* :func:`min_budget_for_fairness` -- the dual question: the smallest
  budget under which every tier can keep at least a given probability
  floor.

Both reduce to LPs because Eq. 6 is linear in the probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.tifl.estimator import estimate_training_time

__all__ = ["PlanResult", "plan_fairest_probs", "min_budget_for_fairness"]


@dataclass(frozen=True)
class PlanResult:
    """Outcome of a planning LP."""

    probs: np.ndarray
    expected_time: float
    min_tier_prob: float
    feasible: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=np.float64))


def _linprog():
    """``scipy.optimize.linprog``, imported on first use.

    The planner is the package's only scipy user and nothing on a
    federation's path calls it, so the import (~0.5 s, ~40 MB) stays off
    ``import repro`` and off every worker's start.
    """
    try:
        from scipy.optimize import linprog
    except ImportError as exc:
        raise ImportError(
            "the tier-probability planner needs scipy, which is the "
            "optional 'plan' extra: pip install 'tifl-repro[plan]'"
        ) from exc
    return linprog


def _validate(latencies: Sequence[float], rounds: int) -> np.ndarray:
    lats = np.asarray(latencies, dtype=np.float64)
    if lats.ndim != 1 or lats.size == 0:
        raise ValueError("tier latencies must be a non-empty 1-D vector")
    if np.any(lats <= 0) or not np.all(np.isfinite(lats)):
        raise ValueError(f"tier latencies must be positive finite: {lats}")
    if rounds <= 0:
        raise ValueError(f"rounds must be positive, got {rounds}")
    return lats


def plan_fairest_probs(
    tier_latencies: Sequence[float],
    rounds: int,
    time_budget: float,
) -> PlanResult:
    """Max-min-fair tier probabilities under an Eq. 6 time budget.

    Solves::

        maximise   t
        subject to p_i >= t           for every tier i
                   sum_i p_i == 1
                   rounds * sum_i L_i p_i <= time_budget
                   p_i >= 0

    The optimum is ``t = 1/m`` (uniform) whenever the budget allows it;
    tighter budgets shave probability off the slowest tiers first.
    Infeasible budgets (below ``rounds * min(L)``) return
    ``feasible=False`` with the fastest-tier-only fallback.
    """
    lats = _validate(tier_latencies, rounds)
    if time_budget <= 0:
        raise ValueError(f"time_budget must be positive, got {time_budget}")
    m = lats.size

    fastest = np.zeros(m)
    fastest[int(np.argmin(lats))] = 1.0
    if time_budget < rounds * lats.min() - 1e-9:
        return PlanResult(
            probs=fastest,
            expected_time=estimate_training_time(lats, fastest, rounds),
            min_tier_prob=0.0 if m > 1 else 1.0,
            feasible=False,
        )

    # variables x = (p_1..p_m, t); maximise t  <=>  minimise -t
    c = np.zeros(m + 1)
    c[-1] = -1.0
    # p_i >= t  <=>  t - p_i <= 0
    a_ub = np.zeros((m + 1, m + 1))
    for i in range(m):
        a_ub[i, i] = -1.0
        a_ub[i, -1] = 1.0
    b_ub = np.zeros(m + 1)
    # budget row: rounds * L . p <= budget
    a_ub[m, :m] = rounds * lats
    b_ub[m] = time_budget
    a_eq = np.zeros((1, m + 1))
    a_eq[0, :m] = 1.0
    b_eq = np.array([1.0])
    bounds = [(0.0, 1.0)] * m + [(0.0, 1.0)]

    res = _linprog()(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
        method="highs",
    )
    if not res.success:  # pragma: no cover - feasibility pre-checked above
        return PlanResult(
            probs=fastest,
            expected_time=estimate_training_time(lats, fastest, rounds),
            min_tier_prob=0.0,
            feasible=False,
        )
    probs = np.clip(res.x[:m], 0.0, None)
    probs = probs / probs.sum()
    return PlanResult(
        probs=probs,
        expected_time=estimate_training_time(lats, probs, rounds),
        min_tier_prob=float(probs.min()),
        feasible=True,
    )


def min_budget_for_fairness(
    tier_latencies: Sequence[float],
    rounds: int,
    min_tier_prob: float,
) -> PlanResult:
    """Smallest Eq. 6 budget keeping every tier above a probability floor.

    Solves::

        minimise   rounds * sum_i L_i p_i
        subject to p_i >= min_tier_prob, sum_i p_i == 1

    The optimum floors every tier at ``min_tier_prob`` and dumps the
    remaining mass on the fastest tier.
    """
    lats = _validate(tier_latencies, rounds)
    m = lats.size
    if not 0.0 <= min_tier_prob <= 1.0 / m + 1e-12:
        raise ValueError(
            f"min_tier_prob must be in [0, 1/m] = [0, {1.0 / m:.4f}], "
            f"got {min_tier_prob}"
        )
    c = rounds * lats
    a_eq = np.ones((1, m))
    b_eq = np.array([1.0])
    bounds = [(min_tier_prob, 1.0)] * m
    res = _linprog()(c, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if not res.success:  # pragma: no cover - always feasible by validation
        raise RuntimeError(f"planning LP failed: {res.message}")
    probs = np.clip(res.x, 0.0, None)
    probs = probs / probs.sum()
    return PlanResult(
        probs=probs,
        expected_time=estimate_training_time(lats, probs, rounds),
        min_tier_prob=float(probs.min()),
        feasible=True,
    )

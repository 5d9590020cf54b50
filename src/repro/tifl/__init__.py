"""``repro.tifl`` -- the paper's core contribution.

Tier-based federated learning: profile client response latencies
(:mod:`profiler`), group clients into latency tiers (:mod:`tiering`),
then select each round's cohort from a single tier
(:mod:`scheduler`) under either a static probability policy
(:mod:`policies`, Table 1) or the adaptive credit-constrained,
accuracy-aware policy of Algorithm 2 (:mod:`adaptive`).  The analytical
training-time estimator of Eq. 6 lives in :mod:`estimator`, and
:class:`~repro.tifl.server.TiFLServer` ties everything to the FL round
loop.
"""

from repro.tifl.adaptive import AdaptiveTierPolicy, default_change_probs
from repro.tifl.credits import allocate_credits
from repro.tifl.estimator import estimate_training_time, mape
from repro.tifl.policies import (
    CIFAR_POLICIES,
    MNIST_POLICIES,
    StaticTierPolicy,
    static_policy_probs,
)
from repro.tifl.profiler import ProfilingResult, profile_clients
from repro.tifl.scheduler import TierPolicy, TierScheduler
from repro.tifl.server import TiFLServer
from repro.tifl.tiering import Tier, TierAssignment, build_tiers

__all__ = [
    "ProfilingResult",
    "profile_clients",
    "Tier",
    "TierAssignment",
    "build_tiers",
    "StaticTierPolicy",
    "static_policy_probs",
    "CIFAR_POLICIES",
    "MNIST_POLICIES",
    "TierPolicy",
    "TierScheduler",
    "AdaptiveTierPolicy",
    "default_change_probs",
    "allocate_credits",
    "estimate_training_time",
    "mape",
    "TiFLServer",
]

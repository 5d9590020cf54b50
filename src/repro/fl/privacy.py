"""Differential-privacy compatibility bookkeeping (Section 4.6).

The paper argues TiFL composes with client-level differentially-private
FL: if one round of local training is (eps, delta)-DP per client, random
participation *amplifies* the guarantee by the client's sampling rate q
(Beimel et al.): the per-round guarantee seen by any one client improves
to roughly ``(q * eps, q * delta)`` for small eps.

* Uniform selection: every client participates with ``q = |C| / |K|``.
* Tiered selection: a client in tier j participates with
  ``q_j = p_j * |C| / n_j`` where ``p_j`` is the tier's selection
  probability and ``n_j`` the tier size.  The worst-case client governs
  the guarantee, so TiFL reports ``q_max = max_j q_j``.

The printed formula in the paper's source is typographically garbled; the
reading implemented here (tier probability times the within-tier uniform
sampling rate) is the standard two-stage sampling decomposition and
matches the paper's claim that the tiered guarantee improves over
all-clients participation whenever ``q_max < 1``.

Composition over R rounds is provided in both basic (linear) and advanced
(Dwork-Rothblum-Vadhan) forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "PrivacyGuarantee",
    "amplify_by_sampling",
    "uniform_guarantee",
    "tier_sampling_rates",
    "tiered_guarantee",
    "compose_basic",
    "compose_advanced",
]

#: The ``delta'`` advanced composition spends to buy its sublinear eps.
DELTA_SLACK = 1e-6


@dataclass(frozen=True)
class PrivacyGuarantee:
    """An (epsilon, delta) differential-privacy guarantee."""

    eps: float
    delta: float

    def __post_init__(self) -> None:
        if self.eps < 0:
            raise ValueError(f"eps must be non-negative, got {self.eps}")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must be in [0, 1], got {self.delta}")

    def stronger_than(self, other: "PrivacyGuarantee") -> bool:
        """Component-wise comparison (smaller is stronger)."""
        return self.eps <= other.eps and self.delta <= other.delta


def amplify_by_sampling(base: PrivacyGuarantee, q: float) -> PrivacyGuarantee:
    """Subsampling amplification: (eps, delta) -> (~q*eps, q*delta).

    Uses the standard bound ``eps' = ln(1 + q * (e^eps - 1))`` (exact, and
    ~``q * eps`` for small eps) and ``delta' = q * delta``.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"sampling rate q must be in (0, 1], got {q}")
    eps_amp = float(np.log1p(q * np.expm1(base.eps)))
    return PrivacyGuarantee(eps=eps_amp, delta=q * base.delta)


def uniform_guarantee(
    base: PrivacyGuarantee, clients_per_round: int, pool_size: int
) -> Tuple[float, PrivacyGuarantee]:
    """Per-round guarantee under vanilla uniform selection.

    Returns ``(q, amplified)`` with ``q = |C| / |K|``.
    """
    if clients_per_round <= 0 or pool_size <= 0:
        raise ValueError("clients_per_round and pool_size must be positive")
    if clients_per_round > pool_size:
        raise ValueError(
            f"cannot select {clients_per_round} from a pool of {pool_size}"
        )
    q = clients_per_round / pool_size
    return q, amplify_by_sampling(base, q)


def tier_sampling_rates(
    tier_probs: Sequence[float],
    tier_sizes: Sequence[int],
    clients_per_round: int,
) -> np.ndarray:
    """Per-tier client sampling rates ``q_j = p_j * |C| / n_j``.

    ``p_j`` is the probability tier j is chosen this round and
    ``|C| / n_j`` the within-tier uniform inclusion probability.  Rates are
    clipped at 1 (a tier smaller than |C| would be selected wholesale).
    """
    probs = np.asarray(tier_probs, dtype=np.float64)
    sizes = np.asarray(tier_sizes, dtype=np.int64)
    if probs.shape != sizes.shape:
        raise ValueError(
            f"tier_probs and tier_sizes must align: {probs.shape} vs {sizes.shape}"
        )
    if np.any(probs < 0) or not np.isclose(probs.sum(), 1.0, atol=1e-9):
        raise ValueError(f"tier probabilities must be a distribution: {probs}")
    if np.any(sizes <= 0):
        raise ValueError(f"tier sizes must be positive: {sizes}")
    if clients_per_round <= 0:
        raise ValueError(
            f"clients_per_round must be positive, got {clients_per_round}"
        )
    return np.minimum(probs * clients_per_round / sizes, 1.0)


def tiered_guarantee(
    base: PrivacyGuarantee,
    tier_probs: Sequence[float],
    tier_sizes: Sequence[int],
    clients_per_round: int,
) -> Tuple[float, PrivacyGuarantee]:
    """Worst-case per-round guarantee under tiered selection.

    Returns ``(q_max, amplified)``; the guarantee is governed by the most
    frequently sampled client, i.e. ``q_max = max_j q_j``.
    """
    rates = tier_sampling_rates(tier_probs, tier_sizes, clients_per_round)
    q_max = float(rates.max())
    return q_max, amplify_by_sampling(base, q_max)


def compose_basic(per_round: PrivacyGuarantee, rounds: int) -> PrivacyGuarantee:
    """Basic composition over ``rounds`` rounds: linear in both components."""
    if rounds <= 0:
        raise ValueError(f"rounds must be positive, got {rounds}")
    return PrivacyGuarantee(
        eps=per_round.eps * rounds,
        delta=min(1.0, per_round.delta * rounds),
    )


def compose_advanced(per_round: PrivacyGuarantee, rounds: int) -> PrivacyGuarantee:
    """Advanced composition (DRV'10): sublinear eps growth.

    ``eps_total = sqrt(2 R ln(1/delta')) eps + R eps (e^eps - 1)``,
    ``delta_total = R delta + delta'``, with ``delta'`` = :data:`DELTA_SLACK`.
    """
    if rounds <= 0:
        raise ValueError(f"rounds must be positive, got {rounds}")
    eps = per_round.eps
    eps_total = float(
        np.sqrt(2.0 * rounds * np.log(1.0 / DELTA_SLACK)) * eps
        + rounds * eps * np.expm1(eps)
    )
    delta_total = min(1.0, rounds * per_round.delta + DELTA_SLACK)
    return PrivacyGuarantee(eps=eps_total, delta=delta_total)

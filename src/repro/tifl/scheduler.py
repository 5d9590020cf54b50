"""The tier scheduler (Section 4.1's "Tier Scheduler" box).

The scheduler is a :class:`~repro.fl.selection.ClientSelector`: each round
it asks its :class:`TierPolicy` for a tier, then uniformly selects ``|C|``
clients within that tier.  This two-stage selection is the entire
behavioural difference between TiFL and vanilla FL -- the server loop is
untouched (the paper's "non-intrusive, pluggable" design claim).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fl.selection import ClientSelector, SelectionPlan
from repro.rng import RngLike, choice_without_replacement, make_rng
from repro.tifl.tiering import TierAssignment

__all__ = ["TierPolicy", "TierScheduler"]


class TierPolicy:
    """Strategy interface: which tier trains this round?

    Implementations: :class:`repro.tifl.policies.StaticTierPolicy`
    (Section 4.3) and :class:`repro.tifl.adaptive.AdaptiveTierPolicy`
    (Algorithm 2).
    """

    def choose_tier(
        self,
        round_idx: int,
        eligible: np.ndarray,
        rng: np.random.Generator,
    ) -> int:
        """Return the tier index to train on.

        ``eligible[t]`` is False when tier ``t`` cannot field a full
        cohort this round.
        """
        raise NotImplementedError

    def tier_probs(self, round_idx: int) -> np.ndarray:
        """Current selection-probability vector (for Eq. 6 estimation)."""
        raise NotImplementedError

    def record_tier_accuracies(
        self, round_idx: int, accuracies: Dict[int, float]
    ) -> None:
        """Feedback hook: per-tier test accuracies after a round."""


class TierScheduler(ClientSelector):
    """Tier-then-client two-stage selector.

    Parameters
    ----------
    assignment:
        The tiering produced by :func:`repro.tifl.tiering.build_tiers`.
    policy:
        Tier-level selection strategy.
    clients_per_round:
        Cohort size ``|C|``; tiers currently holding fewer than this many
        available clients are ineligible that round.
    """

    def __init__(
        self,
        assignment: TierAssignment,
        policy: TierPolicy,
        clients_per_round: int,
        rng: RngLike = None,
    ) -> None:
        if clients_per_round <= 0:
            raise ValueError(
                f"clients_per_round must be positive, got {clients_per_round}"
            )
        if max(assignment.sizes) < clients_per_round:
            raise ValueError(
                f"no tier holds {clients_per_round} clients "
                f"(tier sizes: {assignment.sizes.tolist()}); "
                "reduce clients_per_round or the number of tiers"
            )
        self.assignment = assignment
        self.policy = policy
        self.clients_per_round = clients_per_round
        self._rng = make_rng(rng)
        # Per-tier member arrays, fixed for this scheduler's lifetime
        # (re-tiering builds a new scheduler).  Selection then runs off
        # one boolean availability mask: O(pool) vectorised work per pool
        # change instead of O(pool) Python set/loop work per round, which
        # is what keeps tier selection flat when the population hits 10^6.
        self._members = [
            np.asarray(t.client_ids, dtype=np.int64) for t in assignment.tiers
        ]
        self._id_bound = 1 + int(
            max(int(m.max()) for m in self._members if m.size)
        )
        # Last read-only pool, its per-tier members, eligibility (_tier_pools).
        self._pools_of: tuple = (None, None, None)

    def _avail_mask(self, available: Sequence[int]) -> np.ndarray:
        """Boolean availability mask over ``[0, id_bound)``.

        Accepts lists and the population store's int64 id column alike;
        ids outside the tiered range are simply ignored (they cannot be
        selected anyway).
        """
        avail = np.asarray(available, dtype=np.int64)
        mask = np.zeros(self._id_bound, dtype=bool)
        if avail.size:
            mask[avail[(avail >= 0) & (avail < self._id_bound)]] = True
        return mask

    def _tier_pools(self, available: Sequence[int]) -> Tuple[List[np.ndarray], np.ndarray]:
        """Per-tier available members (member order) and which tiers can
        field a full cohort.

        Kept for as long as the caller hands in *that same* read-only
        array (``PopulationStore.available_ids()`` does, until
        availability changes): the reference is held, so the identity
        cannot be recycled.  Lists and writable arrays are rescanned.
        """
        held, pools, eligible = self._pools_of
        if available is held:
            return pools, eligible
        mask = self._avail_mask(available)
        pools = [m[mask[m]] for m in self._members]  # member order: draws depend on it
        eligible = np.array([p.size >= self.clients_per_round for p in pools], dtype=bool)
        if isinstance(available, np.ndarray) and not available.flags.writeable:
            eligible.flags.writeable = False
            self._pools_of = (available, pools, eligible)
        return pools, eligible

    def select(self, round_idx: int, available: Sequence[int]) -> SelectionPlan:
        pools, eligible = self._tier_pools(available)
        if not eligible.any():
            raise RuntimeError(
                "no tier can field a full cohort from the available clients"
            )
        tier = int(self.policy.choose_tier(round_idx, eligible, self._rng))
        if not 0 <= tier < self.assignment.num_tiers:
            raise ValueError(f"policy returned invalid tier index {tier}")
        if not eligible[tier]:
            raise RuntimeError(
                f"policy chose ineligible tier {tier} "
                f"(eligible: {np.flatnonzero(eligible).tolist()})"
            )
        chosen = choice_without_replacement(self._rng, pools[tier], self.clients_per_round)
        return SelectionPlan(
            clients=[int(c) for c in chosen], tier=tier
        )

    def observe(
        self,
        round_idx: int,
        plan: SelectionPlan,
        round_latency: float,
        accuracy: Optional[float],
    ) -> None:
        # Tier-accuracy feedback flows through record_tier_accuracies (the
        # TiFL server calls it with the per-tier evaluation results).
        pass

    def record_tier_accuracies(
        self, round_idx: int, accuracies: Dict[int, float]
    ) -> None:
        self.policy.record_tier_accuracies(round_idx, accuracies)

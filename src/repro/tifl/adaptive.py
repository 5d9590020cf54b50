"""Adaptive tier selection (Algorithm 2, Section 4.4).

The adaptive policy balances two opposing objectives:

* **accuracy / bias** -- tiers whose held-out accuracy ``A_t^r`` lags have
  been under-represented in training, so their selection probability is
  *raised* (the data-heterogeneity-aware part), and
* **training time** -- slow tiers carry finite ``Credits_t``; once spent,
  the tier can never be selected again (the soft time bound).

Probability updates fire every ``interval`` (the paper's ``I``) rounds,
and only when the *current* tier's accuracy failed to improve over the
last interval (Alg. 2 line 4).  ``ChangeProbs`` is unspecified in the
paper beyond "lower accuracy tiers get higher probabilities"; the default
here sets ``p_t proportional to (1 - A_t)^gamma`` over creditable tiers,
which satisfies that monotonicity exactly.

Two small deviations from the paper's pseudo-code, both documented:

* Alg. 2 decrements the chosen tier's credits twice (lines 11 and 16) --
  an apparent typo; we decrement once per selection.
* Alg. 2's ``while True`` spins forever if every creditable tier is
  exhausted; we refill credits proportionally to the original allocation
  and count the refill (``credit_refills``), so pathological configs
  degrade gracefully instead of hanging.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.tifl.scheduler import TierPolicy

__all__ = ["AdaptiveTierPolicy", "default_change_probs"]

ChangeProbsFn = Callable[[np.ndarray], np.ndarray]


def default_change_probs(accuracies: np.ndarray, gamma: float = 1.0) -> np.ndarray:
    """``p_t ∝ (1 - A_t)^gamma``: lower accuracy ⇒ higher probability.

    Accuracies outside [0, 1] are clipped; a degenerate all-ones vector
    falls back to uniform.
    """
    a = np.clip(np.asarray(accuracies, dtype=np.float64), 0.0, 1.0)
    raw = (1.0 - a) ** gamma
    total = raw.sum()
    if total <= 0:
        return np.full(a.size, 1.0 / a.size)
    return raw / total


class AdaptiveTierPolicy(TierPolicy):
    """Algorithm 2: credit-constrained, accuracy-adaptive tier selection.

    Parameters
    ----------
    num_tiers:
        Number of tiers ``T``.
    credits:
        Initial per-tier credits (see :func:`repro.tifl.credits.allocate_credits`).
    interval:
        The update interval ``I``: probabilities may change every
        ``interval`` rounds.
    change_probs:
        Maps the latest per-tier accuracy vector to new probabilities.
    """

    def __init__(
        self,
        num_tiers: int,
        credits: Sequence[int],
        interval: int = 20,
        change_probs: ChangeProbsFn = default_change_probs,
    ) -> None:
        if num_tiers <= 0:
            raise ValueError(f"num_tiers must be positive, got {num_tiers}")
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        credits_arr = np.asarray(credits, dtype=np.int64)
        if credits_arr.shape != (num_tiers,):
            raise ValueError(
                f"credits must have shape ({num_tiers},), got {credits_arr.shape}"
            )
        if np.any(credits_arr < 0):
            raise ValueError(f"credits must be non-negative: {credits_arr}")
        if credits_arr.sum() == 0:
            raise ValueError("at least one tier needs positive credits")
        self.num_tiers = num_tiers
        self.interval = interval
        self.change_probs_fn = change_probs
        self._initial_credits = credits_arr.copy()
        self.credits = credits_arr.copy()
        # Alg. 2 line 1: equal initial probability 1/T.
        self.probs = np.full(num_tiers, 1.0 / num_tiers)
        self.current_tier: Optional[int] = None
        #: round -> {tier: accuracy}; the A_t^r table of Alg. 2.
        self.accuracy_log: Dict[int, Dict[int, float]] = {}
        self.credit_refills = 0
        self.prob_updates = 0

    # ------------------------------------------------------------------
    # feedback
    # ------------------------------------------------------------------
    def record_tier_accuracies(
        self, round_idx: int, accuracies: Dict[int, float]
    ) -> None:
        """Store ``A_t^r`` for every tier (Alg. 2 lines 22-24)."""
        clean = {}
        for t, a in accuracies.items():
            if not 0 <= int(t) < self.num_tiers:
                raise KeyError(f"tier index {t} out of range")
            clean[int(t)] = float(a)
        self.accuracy_log[int(round_idx)] = clean

    def _latest_accuracies(self, before_round: int) -> Optional[np.ndarray]:
        """Most recent full accuracy vector strictly before ``before_round``."""
        rounds = [r for r in self.accuracy_log if r < before_round]
        if not rounds:
            return None
        latest = self.accuracy_log[max(rounds)]
        if len(latest) < self.num_tiers:
            return None
        return np.array([latest[t] for t in range(self.num_tiers)])

    def _accuracy_of(self, tier: int, at_round: int) -> Optional[float]:
        """A_tier at the evaluation closest to (and at most) ``at_round``."""
        rounds = [
            r
            for r in self.accuracy_log
            if r <= at_round and tier in self.accuracy_log[r]
        ]
        if not rounds:
            return None
        return self.accuracy_log[max(rounds)][tier]

    # ------------------------------------------------------------------
    # Alg. 2 lines 3-7: interval-gated probability update
    # ------------------------------------------------------------------
    def _maybe_update_probs(self, round_idx: int) -> None:
        if round_idx % self.interval != 0 or round_idx < self.interval:
            return
        if self.current_tier is None:
            return
        # Alg. 2's A^r vs A^{r-I}: the latest evaluation (at or before
        # round r-1) against the closest evaluation at or before r-I.
        acc_now = self._accuracy_of(self.current_tier, round_idx - 1)
        acc_then = self._accuracy_of(self.current_tier, round_idx - self.interval)
        if acc_now is None or acc_then is None:
            # No interval-ago baseline yet: Alg. 2's condition
            # A^r <= A^{r-I} cannot be evaluated, so leave probs alone.
            return
        # Line 4: update only when the current tier's accuracy has not improved.
        if acc_now > acc_then:
            return
        latest = self._latest_accuracies(round_idx)
        if latest is None:
            return
        new_probs = np.asarray(self.change_probs_fn(latest), dtype=np.float64)
        if new_probs.shape != (self.num_tiers,) or np.any(new_probs < 0):
            raise ValueError(
                f"change_probs returned an invalid distribution: {new_probs}"
            )
        total = new_probs.sum()
        if total <= 0:
            return
        self.probs = new_probs / total
        self.prob_updates += 1

    # ------------------------------------------------------------------
    # Alg. 2 lines 8-16: credit-constrained tier draw
    # ------------------------------------------------------------------
    def choose_tier(
        self,
        round_idx: int,
        eligible: np.ndarray,
        rng: np.random.Generator,
    ) -> int:
        eligible = np.asarray(eligible, dtype=bool)
        if eligible.shape != (self.num_tiers,):
            raise ValueError(
                f"eligibility mask must have shape ({self.num_tiers},), "
                f"got {eligible.shape}"
            )
        self._maybe_update_probs(round_idx)

        selectable = eligible & (self.credits > 0)
        if not selectable.any():
            if not eligible.any():
                raise RuntimeError("no tier is eligible for selection")
            # Documented deviation: refill instead of spinning forever.
            self.credits = self.credits + np.maximum(self._initial_credits, 1)
            self.credit_refills += 1
            selectable = eligible & (self.credits > 0)

        masked = np.where(selectable, self.probs, 0.0)
        total = masked.sum()
        if total <= 0:
            masked = selectable.astype(np.float64)
            total = masked.sum()
        tier = int(rng.choice(self.num_tiers, p=masked / total))
        self.credits[tier] -= 1
        self.current_tier = tier
        return tier

    def tier_probs(self, round_idx: int) -> np.ndarray:
        return self.probs.copy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AdaptiveTierPolicy(T={self.num_tiers}, I={self.interval}, "
            f"probs={np.round(self.probs, 3)}, credits={self.credits.tolist()})"
        )

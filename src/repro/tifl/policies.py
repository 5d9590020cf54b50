"""Static tier-selection policies (Section 4.3 and Table 1).

A static policy is a fixed probability vector over tiers; each round one
tier is drawn from it and ``|C|`` clients are selected uniformly within
that tier.  Table 1 of the paper defines two preset families:

* CIFAR-10 / FEMNIST: ``slow``, ``uniform``, ``random``, ``fast``
  (plus ``vanilla`` = no tiering, handled by
  :class:`repro.fl.selection.RandomSelector`);
* MNIST / FMNIST: ``uniform``, ``fast1``, ``fast2``, ``fast3`` -- a
  sensitivity sweep that starves the slowest tier progressively.

Presets are defined for the paper's 5 tiers; :func:`resize_probs` adapts a
preset when the realised tier count differs (histogram tiering can merge
bins), preserving relative emphasis by positional interpolation.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.tifl.scheduler import TierPolicy

__all__ = [
    "CIFAR_POLICIES",
    "MNIST_POLICIES",
    "static_policy_probs",
    "resize_probs",
    "StaticTierPolicy",
]

#: Table 1, CIFAR-10 / FEMNIST block (tier 0 = fastest ... tier 4 = slowest).
CIFAR_POLICIES: Dict[str, Sequence[float]] = {
    "slow": (0.0, 0.0, 0.0, 0.0, 1.0),
    "uniform": (0.2, 0.2, 0.2, 0.2, 0.2),
    "random": (0.7, 0.1, 0.1, 0.05, 0.05),
    "fast": (1.0, 0.0, 0.0, 0.0, 0.0),
}

#: Table 1, MNIST / FMNIST block.
MNIST_POLICIES: Dict[str, Sequence[float]] = {
    "uniform": (0.2, 0.2, 0.2, 0.2, 0.2),
    "fast1": (0.225, 0.225, 0.225, 0.225, 0.1),
    "fast2": (0.2375, 0.2375, 0.2375, 0.2375, 0.05),
    "fast3": (0.25, 0.25, 0.25, 0.25, 0.0),
}


def validate_probs(probs: Sequence[float]) -> np.ndarray:
    """Check a tier-probability vector lies on the simplex."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("tier probabilities must be a non-empty 1-D vector")
    if np.any(p < 0):
        raise ValueError(f"tier probabilities must be non-negative: {p}")
    if not np.isclose(p.sum(), 1.0, atol=1e-9):
        raise ValueError(f"tier probabilities must sum to 1, got {p.sum()!r}")
    return p


def static_policy_probs(name: str, family: str = "cifar") -> np.ndarray:
    """Look up a Table 1 preset by name.

    ``family`` is ``"cifar"`` (also covers FEMNIST) or ``"mnist"`` (also
    covers Fashion-MNIST).  ``vanilla`` is intentionally *not* here: it is
    not a tier policy.
    """
    table = {"cifar": CIFAR_POLICIES, "mnist": MNIST_POLICIES}.get(family)
    if table is None:
        raise KeyError(f"unknown policy family {family!r}; use 'cifar' or 'mnist'")
    if name not in table:
        raise KeyError(
            f"unknown policy {name!r} in family {family!r}; "
            f"available: {sorted(table)}"
        )
    return validate_probs(table[name])


def resize_probs(probs: Sequence[float], num_tiers: int) -> np.ndarray:
    """Adapt a probability vector to a different tier count.

    Positional linear interpolation over the normalised tier axis,
    renormalised to the simplex.  Exact when ``num_tiers`` matches.
    """
    p = validate_probs(probs)
    if num_tiers <= 0:
        raise ValueError(f"num_tiers must be positive, got {num_tiers}")
    if num_tiers == p.size:
        return p
    if num_tiers == 1:
        return np.array([1.0])
    src = np.linspace(0.0, 1.0, p.size)
    dst = np.linspace(0.0, 1.0, num_tiers)
    q = np.interp(dst, src, p)
    total = q.sum()
    if total <= 0:
        # Every sample point landed on a zero (e.g. [0, 1, 0] -> 2
        # tiers samples only the endpoints): the source mass is
        # unrepresentable at this resolution, so fall back to uniform.
        return np.full(num_tiers, 1.0 / num_tiers)
    return q / total


class StaticTierPolicy(TierPolicy):
    """Fixed tier-selection probabilities (the straw-man of Section 4.3)."""

    def __init__(self, probs: Sequence[float], name: Optional[str] = None) -> None:
        self.probs = validate_probs(probs)
        self.name = name or "static"

    @classmethod
    def from_name(
        cls, name: str, family: str = "cifar", num_tiers: int = 5
    ) -> "StaticTierPolicy":
        """Build a preset policy, resized to ``num_tiers`` if needed."""
        probs = resize_probs(static_policy_probs(name, family), num_tiers)
        return cls(probs, name=name)

    @property
    def num_tiers(self) -> int:
        return int(self.probs.size)

    def tier_probs(self, round_idx: int) -> np.ndarray:
        return self.probs

    def choose_tier(
        self,
        round_idx: int,
        eligible: np.ndarray,
        rng: np.random.Generator,
    ) -> int:
        eligible = np.asarray(eligible, dtype=bool)
        if eligible.shape != self.probs.shape:
            raise ValueError(
                f"eligibility mask of size {eligible.size} does not match "
                f"{self.num_tiers} tiers"
            )
        masked = np.where(eligible, self.probs, 0.0)
        total = masked.sum()
        if total <= 0:
            # The policy puts zero mass on every eligible tier (e.g. `fast`
            # when tier 0 is depleted): fall back to uniform over eligible.
            if not eligible.any():
                raise RuntimeError("no tier is eligible for selection")
            masked = eligible.astype(np.float64)
            total = masked.sum()
        return int(rng.choice(self.num_tiers, p=masked / total))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StaticTierPolicy({self.name}, probs={np.round(self.probs, 4)})"

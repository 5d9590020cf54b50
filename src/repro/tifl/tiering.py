"""Tiering: group profiled clients into latency tiers (Section 4.2).

"The collected training latencies from clients creates a histogram, which
is split into m groups and the clients that fall into the same group forms
a tier."  Two splits are provided; empty bins are dropped, so the number
of realised tiers can be smaller than requested when latencies cluster.
Tiers are numbered fastest-first (tier 0 = "very fast" in Fig. 2; the
paper's prose uses 1-based "Tier 1").

The default is the **equal-frequency (quantile)** split: on the skewed
latency distributions that heterogeneous CPU allocations produce (the
paper's 4 -> 0.1 CPU spread covers a ~20x latency range), equal-width bins
collapse all but the slowest clients into one tier, whereas the quantile
split recovers the paper's five tiers exactly.  The equal-width histogram
(``method="width"``) matches the paper's literal wording and remains
available.

Invariants (property-tested):
* every responsive client lands in exactly one tier;
* tier mean latencies are strictly increasing with the tier index;
* within a tier, every client's latency lies inside the tier's bin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

__all__ = ["Tier", "TierAssignment", "build_tiers"]


@dataclass(frozen=True)
class Tier:
    """One latency tier."""

    index: int
    client_ids: Tuple[int, ...]
    mean_latency: float
    min_latency: float
    max_latency: float

    @property
    def size(self) -> int:
        return len(self.client_ids)


@dataclass
class TierAssignment:
    """The full tiering: an ordered list of tiers plus lookup tables."""

    tiers: List[Tier]
    _client_tier: Dict[int, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self.tiers:
            raise ValueError("a tier assignment needs at least one tier")
        self._client_tier = {}
        for t in self.tiers:
            if t.size == 0:
                raise ValueError(f"tier {t.index} is empty")
            for cid in t.client_ids:
                if cid in self._client_tier:
                    raise ValueError(f"client {cid} assigned to multiple tiers")
                self._client_tier[cid] = t.index
        means = [t.mean_latency for t in self.tiers]
        if any(b < a for a, b in zip(means, means[1:])):
            raise ValueError(f"tier mean latencies must be non-decreasing: {means}")

    @property
    def num_tiers(self) -> int:
        return len(self.tiers)

    @property
    def sizes(self) -> np.ndarray:
        return np.array([t.size for t in self.tiers], dtype=np.int64)

    @property
    def mean_latencies(self) -> np.ndarray:
        """The per-tier latency table used by the scheduler and Eq. 6."""
        return np.array([t.mean_latency for t in self.tiers])

    def tier_of(self, client_id: int) -> int:
        """Tier index of ``client_id`` (KeyError for unknown/dropout)."""
        return self._client_tier[client_id]

    def members(self, tier_index: int) -> Tuple[int, ...]:
        return self.tiers[tier_index].client_ids

    def describe(self) -> str:
        """Human-readable tier table (used by examples and logs)."""
        lines = [f"{'tier':>4} {'size':>5} {'mean lat [s]':>13} {'range [s]':>19}"]
        for t in self.tiers:
            lines.append(
                f"{t.index:>4} {t.size:>5} {t.mean_latency:>13.3f} "
                f"[{t.min_latency:>7.3f}, {t.max_latency:>7.3f}]"
            )
        return "\n".join(lines)


def _bin_edges(
    latencies: np.ndarray, num_tiers: int, method: str
) -> np.ndarray:
    lo, hi = float(latencies.min()), float(latencies.max())
    if method == "width":
        return np.linspace(lo, hi, num_tiers + 1)
    if method == "quantile":
        qs = np.linspace(0.0, 1.0, num_tiers + 1)
        return np.quantile(latencies, qs)
    raise ValueError(f"unknown tiering method {method!r}; use 'width' or 'quantile'")


def build_tiers(
    mean_latencies: Dict[int, float],
    num_tiers: int = 5,
    method: str = "quantile",
) -> TierAssignment:
    """Split profiled latencies into (at most) ``num_tiers`` tiers.

    Parameters
    ----------
    mean_latencies:
        Per-client mean profiled latency (dropouts already removed).
    num_tiers:
        Requested tier count ``m``; the paper uses 5 throughout.  Bins
        left empty by the histogram are discarded, so fewer tiers may be
        realised.
    method:
        ``"quantile"`` -- equal-population bins (default; see module
        docstring); ``"width"`` -- equal-width histogram bins (the
        paper's literal wording).
    """
    if num_tiers <= 0:
        raise ValueError(f"num_tiers must be positive, got {num_tiers}")
    if not mean_latencies:
        raise ValueError("cannot tier an empty latency table")
    if any(not np.isfinite(v) or v < 0 for v in mean_latencies.values()):
        raise ValueError("latencies must be finite and non-negative")

    ids = np.array(sorted(mean_latencies), dtype=np.int64)
    lats = np.array([mean_latencies[int(c)] for c in ids])

    if np.isclose(lats.min(), lats.max()):
        tier = Tier(
            index=0,
            client_ids=tuple(int(c) for c in ids),
            mean_latency=float(lats.mean()),
            min_latency=float(lats.min()),
            max_latency=float(lats.max()),
        )
        return TierAssignment(tiers=[tier])

    edges = _bin_edges(lats, num_tiers, method)
    # right-inclusive final bin; searchsorted gives bin index in [0, m-1]
    bins = np.clip(np.searchsorted(edges, lats, side="right") - 1, 0, num_tiers - 1)

    tiers: List[Tier] = []
    for b in range(num_tiers):
        mask = bins == b
        if not mask.any():
            continue
        members = ids[mask]
        tiers.append(
            Tier(
                index=len(tiers),
                client_ids=tuple(int(c) for c in members),
                mean_latency=float(lats[mask].mean()),
                min_latency=float(lats[mask].min()),
                max_latency=float(lats[mask].max()),
            )
        )
    return TierAssignment(tiers=tiers)

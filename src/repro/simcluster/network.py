"""Communication model for weight transfer.

A client's response latency in the paper is the full time between task
receipt and result return, so it includes downloading and uploading the
model.  The model here is the standard ``latency + size / bandwidth``
affine link model, applied once per direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.rng import RngLike, make_rng
from repro.simcluster.resources import ResourceSpec

__all__ = ["CommModel"]

_BITS_PER_FLOAT = 64  # weights travel as float64 in this simulation


@dataclass(frozen=True)
class CommModel:
    """Stochastic weight-transfer latency generator.

    Attributes
    ----------
    rtt:
        Fixed round-trip handshake time in seconds.
    jitter_sigma:
        Sigma of multiplicative log-normal jitter (0 = deterministic).
    """

    rtt: float = 0.05
    jitter_sigma: float = 0.02

    def __post_init__(self) -> None:
        if self.rtt < 0:
            raise ValueError(f"rtt must be non-negative, got {self.rtt}")
        if self.jitter_sigma < 0:
            raise ValueError(
                f"jitter_sigma must be non-negative, got {self.jitter_sigma}"
            )

    def _transfer_seconds(self, num_params: int, spec: ResourceSpec) -> float:
        bits = num_params * _BITS_PER_FLOAT
        return bits / (spec.bandwidth_mbps * 1e6)

    def mean_round_trip(self, num_params: int, spec: ResourceSpec) -> float:
        """Expected download + upload time for one round."""
        if num_params < 0:
            raise ValueError(f"num_params must be non-negative, got {num_params}")
        base = self.rtt + 2.0 * self._transfer_seconds(num_params, spec)
        return base * float(np.exp(self.jitter_sigma**2 / 2.0))

    def sample_round_trip(
        self, num_params: int, spec: ResourceSpec, rng: RngLike = None
    ) -> float:
        """Draw one noisy download + upload time."""
        if num_params < 0:
            raise ValueError(f"num_params must be non-negative, got {num_params}")
        base = self.rtt + 2.0 * self._transfer_seconds(num_params, spec)
        if self.jitter_sigma == 0.0:
            return base
        return base * float(np.exp(make_rng(rng).normal(0.0, self.jitter_sigma)))

    def sample_round_trip_cohort(
        self,
        num_params: int,
        bandwidth_mbps: "np.ndarray",
        rng: RngLike = None,
    ) -> np.ndarray:
        """Draw a whole cohort's transfer times in one vectorised pass.

        The comm twin of
        :meth:`repro.simcluster.latency.LatencyModel.sample_compute_cohort`,
        over the ``bandwidth_mbps`` column: the jitter for every client is
        one ``normal(size=n)`` call, which consumes the same bitstream
        positions as ``n`` scalar :meth:`sample_round_trip` calls against
        the same generator, so the values are bit-identical to the scalar
        loop (pinned by a regression test).  Returns shape ``(n,)``.
        """
        if num_params < 0:
            raise ValueError(f"num_params must be non-negative, got {num_params}")
        bits = num_params * _BITS_PER_FLOAT
        bandwidth = np.asarray(bandwidth_mbps, dtype=np.float64)
        base = self.rtt + 2.0 * (bits / (bandwidth * 1e6))
        if self.jitter_sigma == 0.0 or base.size == 0:
            return base
        factors = np.exp(
            make_rng(rng).normal(0.0, self.jitter_sigma, size=base.size)
        )
        return base * factors

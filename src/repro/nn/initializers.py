"""Weight initializers.

Each initializer takes an explicit :class:`numpy.random.Generator` so model
construction is deterministic under the package-wide seeding discipline
(see :mod:`repro.rng`).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["glorot_uniform", "zeros_init", "fan_in_out"]


def fan_in_out(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Compute (fan_in, fan_out) for dense and conv kernels.

    Dense kernels are ``(in, out)``; conv kernels are
    ``(kh, kw, in_ch, out_ch)`` with receptive-field scaling.
    """
    if len(shape) == 2:
        return shape[0], shape[1]
    if len(shape) == 4:
        receptive = shape[0] * shape[1]
        return receptive * shape[2], receptive * shape[3]
    raise ValueError(f"unsupported kernel shape for fan computation: {shape}")


def glorot_uniform(rng: np.random.Generator, shape: Tuple[int, ...]) -> np.ndarray:
    """Glorot/Xavier uniform: U(-limit, limit), limit = sqrt(6/(fan_in+fan_out))."""
    fin, fout = fan_in_out(shape)
    limit = np.sqrt(6.0 / (fin + fout))
    return rng.uniform(-limit, limit, size=shape).astype(np.float64)


def zeros_init(_rng: np.random.Generator, shape: Tuple[int, ...]) -> np.ndarray:
    """All-zeros (biases)."""
    return np.zeros(shape, dtype=np.float64)

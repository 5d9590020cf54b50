"""Deterministic random-number utilities.

Every stochastic component in this repository draws from a
:class:`numpy.random.Generator` handed to it explicitly -- there is no
hidden global state.  Experiments therefore reproduce bit-for-bit from a
single integer seed.

The central primitive is :func:`spawn`, which derives independent child
generators from a parent using :class:`numpy.random.SeedSequence` spawning,
the mechanism NumPy recommends for parallel / multi-actor simulations.  Each
simulated client, the server, the profiler and the latency model all receive
their own stream, so adding or removing one consumer never perturbs the
draws seen by another (a property the test-suite checks).
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

__all__ = ["make_rng", "spawn", "derive", "RngLike"]

RngLike = Union[int, np.random.Generator, np.random.SeedSequence, None]


def make_rng(seed: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a flexible seed spec.

    Parameters
    ----------
    seed:
        ``None`` (non-deterministic), an ``int`` seed, an existing
        ``Generator`` (returned as-is), or a ``SeedSequence``.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, n: int) -> List[np.random.Generator]:
    """Spawn ``n`` statistically independent child generators from ``rng``.

    Child streams are independent of each other *and* of the parent's
    subsequent draws.
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of streams: {n}")
    seeds = rng.bit_generator.seed_seq.spawn(n)  # type: ignore[attr-defined]
    return [np.random.default_rng(s) for s in seeds]


def derive(seed: int, *keys: int) -> np.random.Generator:
    """Derive a generator from an integer ``seed`` and an integer key path.

    Useful for addressable streams, e.g. ``derive(seed, round_idx,
    client_id)`` always yields the same stream for the same coordinates
    regardless of evaluation order.  ``seed`` may be a Python or numpy
    integer; anything else (``None``, a ``Generator``, a
    ``SeedSequence``) raises ``TypeError`` rather than silently sharing
    one stream.
    """
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"derive needs an integer seed, got {type(seed).__name__}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in keys))
    return np.random.default_rng(ss)


def choice_without_replacement(
    rng: np.random.Generator, pool: Sequence[int], k: int
) -> np.ndarray:
    """Uniformly choose ``k`` distinct items from ``pool``.

    Raises ``ValueError`` when ``k`` exceeds the pool size -- callers in the
    FL stack treat that as a configuration error rather than silently
    shrinking the round cohort.
    """
    if k > len(pool):
        raise ValueError(
            f"cannot select {k} clients from a pool of size {len(pool)}"
        )
    return rng.choice(np.asarray(pool), size=k, replace=False)

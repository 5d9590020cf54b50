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

A PCG64 stream position also has one byte form, :data:`PCG64_ROW`: the
wire's UPDATE frame carries a trained client's train-stream position in
it, and the population store's eviction ledger keeps every evicted
client's positions in it.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Mapping, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "make_rng",
    "spawn",
    "derive",
    "RngLike",
    "PCG64_ROW",
    "pcg64_row",
    "pcg64_state",
    "pack_pcg64",
    "unpack_pcg64",
]

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


# --- PCG64 positions as bytes ------------------------------------------
#: One PCG64 position, 37 bytes: ``state`` and ``inc`` as big-endian
#: u128 (``inc`` odd, as PCG64 keeps it), ``has_uint32`` a u8 (0 or 1)
#: and ``uinteger`` a u32.  All zeros is no PCG64 state (``inc`` even).
PCG64_ROW = struct.Struct("!16s16sBI")


def pcg64_row(state: Mapping[str, Any]) -> Tuple[int, int, int, int]:
    """The four ints ``(state, inc, has_uint32, uinteger)`` of a PCG64
    ``bit_generator.state`` (``ValueError`` for another generator's)."""
    if state.get("bit_generator") != "PCG64":
        raise ValueError(f"a {state.get('bit_generator')} state is not a PCG64 row")
    inner = state["state"]
    return int(inner["state"]), int(inner["inc"]), int(state["has_uint32"]), int(state["uinteger"])


def pcg64_state(row: Sequence[int]) -> Dict[str, Any]:
    """A row's four ints as the dict numpy's ``bit_generator.state`` takes."""
    state, inc, has_uint32, uinteger = row
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": has_uint32,
        "uinteger": uinteger,
    }


def pack_pcg64(state: Mapping[str, Any]) -> bytes:
    """A PCG64 ``bit_generator.state`` as its :data:`PCG64_ROW` bytes."""
    s, inc, has_uint32, uinteger = pcg64_row(state)
    return PCG64_ROW.pack(s.to_bytes(16, "big"), inc.to_bytes(16, "big"), has_uint32, uinteger)


def unpack_pcg64(buf, offset: int = 0) -> Tuple[int, int, int, int]:
    """The four ints of the :data:`PCG64_ROW` at ``offset`` of ``buf``,
    unchecked: bytes from a peer go through the wire's own check."""
    s, inc, has_uint32, uinteger = PCG64_ROW.unpack_from(buf, offset)
    return int.from_bytes(s, "big"), int.from_bytes(inc, "big"), has_uint32, uinteger

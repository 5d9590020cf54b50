"""Literal pins of FedAvg's output bits (Alg. 1, line 8).

Every round of every policy ends in :func:`repro.fl.aggregator.fedavg`,
and every ``history_digest`` downstream reads its output.  Each case
draws ``C`` client vectors of length ``P`` from a seeded generator, at
client-specific scales (powers of ten from 1e-3 to 1e3, so the roundings
of the weighted sum matter), with integer or fractional sizes, and
records the sha256 of the averaged vector.  One literal covers every
``C`` of one ``(sizes, P)`` pair, in the order of :data:`COHORTS`.

A change to how the weighted mean is computed has to reproduce every
literal bit for bit.  ``P = 1`` is left out on purpose: it is the one
length where the summation order may differ (``docs/numerics.md``,
"Aggregation order").
"""

import hashlib

import numpy as np
import pytest

from repro.fl.aggregator import fedavg

COHORTS = (1, 2, 3, 5, 8, 9, 20, 64)

PINS = {
    ("integer", 2): "d5d483218b887f8eee6cb00a63c1e8ce",
    ("integer", 3): "ac9f28ce27f64cd69935fc0c1ef21f3d",
    ("integer", 8): "530cf4893f8fd9a68116f9cae3541dba",
    ("integer", 9): "f087e1794f63f0780fac442c099e4c49",
    ("integer", 650): "fcd25591fe921c7cbb8f654db05590ad",
    ("integer", 49_866): "03591c118e82c42434469f33326b5755",
    ("integer", 151_306): "9d9b33d5ca8f3d98931096b27d31c8b3",
    ("fractional", 2): "335572c79afa065c1f9ae11e8334ad75",
    ("fractional", 3): "d466e03ec0e2b11d36eca2c2a7b38e09",
    ("fractional", 8): "f1be0f2eb2bcdb82e5babc5cbf0fea7a",
    ("fractional", 9): "83b0ae5234f8d89a8d2b7376cc2535c5",
    ("fractional", 650): "64f006d67066f686be688bbae90cb302",
    ("fractional", 49_866): "75268231f2bb33eef8f442e2ace00c59",
    ("fractional", 151_306): "7313025b21ba2aacae4a88c81fb65f14",
}


def case(kind: str, cohort: int, length: int):
    """The ``(weights, sizes)`` of one case, drawn from its own seed."""
    rng = np.random.default_rng([cohort, length, kind == "fractional"])
    scales = 10.0 ** rng.integers(-3, 4, size=(cohort, 1))
    stack = rng.standard_normal((cohort, length)) * scales
    if kind == "integer":
        sizes = [float(s) for s in rng.integers(1, 600, size=cohort)]
    else:
        sizes = [float(s) for s in rng.uniform(0.1, 50.0, size=cohort)]
    return list(stack), sizes


@pytest.mark.parametrize("kind,length", list(PINS), ids=[f"{k}-P{p}" for k, p in PINS])
def test_fedavg_output_bits_are_pinned(kind, length):
    h = hashlib.sha256()
    for cohort in COHORTS:
        out = fedavg(*case(kind, cohort, length))
        assert out.dtype == np.float64 and out.shape == (length,)
        h.update(out.tobytes())
    assert h.hexdigest()[:32] == PINS[(kind, length)]

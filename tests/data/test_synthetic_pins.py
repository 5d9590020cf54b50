"""Literal pins of the synthetic generator's output.

Every dataset in the tree -- each scenario's pool and test set, the
LEAF federation, every client a store materialises -- is drawn by
:func:`repro.data.synthetic.generate_synthetic`, so its bytes feed every
numerics stream and every ``history_digest``.  Each case records
``sha256`` over the returned arrays and the caller's generator state
after the draw (what the next draw from that generator starts from).

The sample counts straddle 1 024 rows -- below, equal, above, and zero
-- and one case adds a writer shift.  The literals were recorded at
``be59e4a``, the last tree that drew the noise of a whole dataset in
one ``standard_normal`` call and added it out of place; a change to how
the samples are assembled has to reproduce them bit for bit.
"""

import hashlib

import numpy as np
import pytest

from repro.data import cifar10_like, femnist_like, make_femnist_leaf, mnist_like
from repro.data.synthetic import SyntheticSpec, class_prototypes, generate_synthetic

FACTORIES = {"mnist": mnist_like, "cifar10": cifar10_like, "femnist": femnist_like}
SHAPES = {"mnist": (4, 4, 1), "cifar10": (4, 4, 3), "femnist": (5, 5, 1)}
#: (train_size, test_size): below, equal to and above 1 024 rows, and empty.
SIZES = ((1000, 10), (1024, 1024), (2500, 3), (0, 0))


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(str((arr.dtype, arr.shape)).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:32]


def state_of(g: np.random.Generator) -> str:
    s = g.bit_generator.state
    assert s["bit_generator"] == "PCG64"
    return "{:032x}/{:032x}/{}/{}".format(
        s["state"]["state"], s["state"]["inc"], s["has_uint32"], s["uinteger"]
    )


def observe_factory(name: str, train_size: int, test_size: int):
    g = np.random.default_rng(2900 + train_size)
    train, test = FACTORIES[name](
        train_size=train_size, test_size=test_size, shape=SHAPES[name], rng=g
    )
    return digest(train.x, train.y, test.x, test.y), state_of(g)


def observe_writer_shift():
    spec = SyntheticSpec(shape=(4, 4, 2), num_classes=5, difficulty=0.4)
    g = np.random.default_rng(2950)
    protos = class_prototypes(spec, g)
    shift = g.standard_normal(spec.dim) * 0.3
    x, y = generate_synthetic(spec, 1500, g, prototypes=protos, writer_shift=shift)
    return digest(x, y), state_of(g)


def observe_leaf():
    g = np.random.default_rng(2951)
    fed = make_femnist_leaf(
        num_clients=7, shape=(4, 4, 1), num_classes=62, scale=0.2, test_size=90, rng=g
    )
    return digest(fed.train.x, fed.train.y, fed.test.x, fed.test.y), state_of(g)


#: ``case -> (data digest, generator state after the draw)``.
PINS = {
    "cifar10/1000/10": (
        "cf8a24581873e3bd3f6ea10ffefcdca9",
        "4503a2469448e04b85d935227682d63c/"
        "cffe16032848e60276a427d0843ed4ff/0/720764833",
    ),
    "cifar10/1024/1024": (
        "eb7cf8ad5fbc8f050cbde73c44070cfc",
        "2e80b3e07802e16c0abe357a3bf7b471/"
        "77d272112c7f39ea4a08c16c0b0b29d9/0/4023699400",
    ),
    "cifar10/2500/3": (
        "4bac1d9d7b2ca8b3d6c80ca406bf1e3d",
        "cc585b7324a329c17a748af2fe5b460b/"
        "88de92d8f9caccbb8adc1b1fba466d33/1/1228889834",
    ),
    "cifar10/0/0": (
        "f2e9fac390bca643c301bb215e156896",
        "844db08d9bacbb78006dfd0b9d598b02/"
        "ad056b0b540685f52650c78235cedb45/0/0",
    ),
    "femnist/1000/10": (
        "6f4965ae437b631957bf7ceae03a1289",
        "f7cdbd4bf64c359a2547a90a48018033/"
        "cffe16032848e60276a427d0843ed4ff/1/3187303395",
    ),
    "femnist/1024/1024": (
        "7f4e0a3fbd0ffdd18e836a48c7680ee2",
        "a2f004a532b070c7fe51ddd5cc208ad6/"
        "77d272112c7f39ea4a08c16c0b0b29d9/1/3709187355",
    ),
    "femnist/2500/3": (
        "26922c8e974a6b88c66eb7d56a2d5c52",
        "761e81b89632b0860fe454e90a768ef3/"
        "88de92d8f9caccbb8adc1b1fba466d33/1/3325861084",
    ),
    "femnist/0/0": (
        "9ace5808c24294f0cbd8d2dec12d2723",
        "f09e8d706187ec2edcd718ec88df2e5e/"
        "ad056b0b540685f52650c78235cedb45/0/0",
    ),
    "mnist/1000/10": (
        "b0793c8da31ae3dbd32a495362756a0a",
        "9189503a069034255f791fbcf9e0102a/"
        "cffe16032848e60276a427d0843ed4ff/1/4035114799",
    ),
    "mnist/1024/1024": (
        "9726f565f18693025e4427854e2e9087",
        "3cbd19eb281146d94cfb73b7ff38b801/"
        "77d272112c7f39ea4a08c16c0b0b29d9/0/914392712",
    ),
    "mnist/2500/3": (
        "c64a388f922d89f4b72d5a2b9a63cbda",
        "2ca2829db353f36ee817b1a6bb44df04/"
        "88de92d8f9caccbb8adc1b1fba466d33/1/3479373924",
    ),
    "mnist/0/0": (
        "fa57517586c788f6264779bd604eabcc",
        "67adc9f8263bcb7080be293589ded3a0/"
        "ad056b0b540685f52650c78235cedb45/0/0",
    ),
    "writer_shift": (
        "f4edb4316cf550d6839b0a781842b368",
        "a1611b4485d6c8f2c073dc70052344f2/"
        "c85972895ac8472d08dcb23933c70705/0/1969479332",
    ),
    "leaf": (
        "c2d651627cacbf409edc3938acf33874",
        "f4c7374fdf5411f5ae474081cb0db644/"
        "9471687f4a058cb5932938d2d8d3806f/0/2703836241",
    ),
}


@pytest.mark.parametrize("name", sorted(FACTORIES))
@pytest.mark.parametrize("train_size,test_size", SIZES)
def test_factory_pins(name, train_size, test_size):
    observed = observe_factory(name, train_size, test_size)
    assert observed == PINS[f"{name}/{train_size}/{test_size}"]


def test_writer_shift_pin():
    assert observe_writer_shift() == PINS["writer_shift"]


def test_leaf_pin():
    assert observe_leaf() == PINS["leaf"]

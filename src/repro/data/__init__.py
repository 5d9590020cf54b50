"""``repro.data`` -- synthetic datasets and federated partitioners.

The paper evaluates on MNIST, Fashion-MNIST, CIFAR-10 and LEAF's FEMNIST.
None of those can be downloaded in this offline environment, so this
subpackage generates *synthetic* image-classification datasets with the
same label cardinality and tensor shapes, plus controllable class/feature
structure.  What TiFL's evaluation actually exercises is the *distribution
of labels, features and quantities across clients* -- which the partitioners
here control exactly -- rather than the pixel statistics of the original
images (see DESIGN.md, substitution table).
"""

from repro.data.datasets import (
    Dataset,
    cifar10_like,
    femnist_like,
    fmnist_like,
    make_dataset,
    mnist_like,
)
from repro.data.leaf import make_femnist_leaf
from repro.data.partition import (
    FederatedData,
    partition_iid,
    partition_noniid_classes,
    partition_quantity_skew,
)
from repro.data.synthetic import SyntheticSpec, generate_synthetic
from repro.data.validation import check_partition, partition_class_table

__all__ = [
    "Dataset",
    "SyntheticSpec",
    "generate_synthetic",
    "make_dataset",
    "mnist_like",
    "fmnist_like",
    "cifar10_like",
    "femnist_like",
    "FederatedData",
    "partition_iid",
    "partition_noniid_classes",
    "partition_quantity_skew",
    "make_femnist_leaf",
    "check_partition",
    "partition_class_table",
]

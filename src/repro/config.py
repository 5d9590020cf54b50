"""Shared configuration dataclasses.

:class:`TrainingConfig` captures the paper's local-training hyperparameters
(Section 5.2 "Training Hyperparameters"): RMSprop, lr 0.01, multiplicative
decay 0.995 per round, batch size 10, one local epoch; FEMNIST instead uses
SGD with lr 0.004.  The learning-rate decay is applied *per global round*
(the schedule lives at the server), so the factory takes the round index.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro.nn.optimizers import SGD, Optimizer, RMSprop

__all__ = [
    "EXECUTOR_BACKENDS",
    "TrainingConfig",
    "PAPER_SYNTHETIC_TRAINING",
    "PAPER_FEMNIST_TRAINING",
    "parse_endpoint",
]

#: Every client-execution backend, by name.  Defined in this leaf module
#: because :class:`TrainingConfig` validates against it at import time;
#: :mod:`repro.execution` re-exports the same object and builds them.
EXECUTOR_BACKENDS = ("serial", "process", "distributed")


def parse_endpoint(endpoint: str) -> "tuple[str, int]":
    """Split a ``"host:port"`` string; raises ``ValueError`` when malformed.

    The single source of truth for endpoint syntax -- used both by
    :class:`TrainingConfig` validation and by :mod:`repro.distributed`
    (which re-exports it), so the two can never drift apart.  Lives here
    rather than in the distributed package because config must not import
    the networking stack.
    """
    host, sep, port_s = endpoint.rpartition(":")
    if not sep or not host:
        raise ValueError(f"endpoint must look like 'host:port', got {endpoint!r}")
    if not port_s.isdigit():
        raise ValueError(f"endpoint port must be an integer, got {port_s!r}")
    port = int(port_s)
    if port > 65535:
        raise ValueError(f"endpoint port out of range: {port}")
    return host, port


@dataclass(frozen=True)
class TrainingConfig:
    """Local-training hyperparameters shared by every client.

    Attributes
    ----------
    optimizer:
        ``"rmsprop"`` or ``"sgd"``.
    lr / lr_decay:
        Initial learning rate and multiplicative per-round decay.
    batch_size / epochs:
        Local mini-batch size and local epochs per round.
    momentum:
        SGD momentum (ignored for RMSprop).
    prox_mu:
        FedProx proximal coefficient; 0 disables the proximal term
        (plain FedAvg).
    executor / workers:
        Default client-execution backend (one of
        :data:`EXECUTOR_BACKENDS`, see :mod:`repro.execution`) and its
        worker count.  Servers use these unless an explicit executor is
        passed to them.  ``serial``, ``process`` and ``distributed`` are
        bit-identical to each other.  ``workers`` is meaningless to
        ``serial`` (single-process).
    endpoint:
        ``host:port`` the ``distributed`` coordinator listens on (worker
        agents connect to it); ignored by the in-process backends.
        ``None`` lets the coordinator default to a loopback ephemeral
        port.
    codec:
        Weight-transport codec (``"raw" | "delta"``, see
        :mod:`repro.codec`) used wherever weight vectors cross a machine
        boundary -- the BROADCAST/UPDATE frames of the ``process`` and
        ``distributed`` pools.  Both are lossless and bit-identical to
        serial execution; serial passes weights by reference and ignores
        the codec.
    """

    optimizer: str = "rmsprop"
    lr: float = 0.01
    lr_decay: float = 0.995
    batch_size: int = 10
    epochs: int = 1
    momentum: float = 0.0
    prox_mu: float = 0.0
    executor: str = "serial"
    workers: int = 1
    endpoint: Optional[str] = None
    codec: str = "raw"

    def __post_init__(self) -> None:
        if self.optimizer not in ("rmsprop", "sgd"):
            raise ValueError(
                f"optimizer must be 'rmsprop' or 'sgd', got {self.optimizer!r}"
            )
        if self.executor not in EXECUTOR_BACKENDS:
            raise ValueError(
                f"executor must be one of {EXECUTOR_BACKENDS}, got {self.executor!r}"
            )
        if self.workers <= 0:
            raise ValueError(f"workers must be positive, got {self.workers}")
        # Imported here so config stays a leaf module with no
        # import-time dependency on the codec layer.
        from repro.codec import CODEC_NAMES

        if self.codec not in CODEC_NAMES:
            raise ValueError(
                f"codec must be one of {CODEC_NAMES}, got {self.codec!r}"
            )
        if self.endpoint is not None:
            parse_endpoint(self.endpoint)
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.epochs <= 0:
            raise ValueError(f"epochs must be positive, got {self.epochs}")
        if self.prox_mu < 0:
            raise ValueError(f"prox_mu must be non-negative, got {self.prox_mu}")

    def lr_at(self, round_idx: int) -> float:
        """Learning rate in effect at global round ``round_idx``."""
        if round_idx < 0:
            raise ValueError(f"round_idx must be non-negative, got {round_idx}")
        return self.lr * (self.lr_decay**round_idx)

    def optimizer_factory(self, round_idx: int) -> Callable[[], Optimizer]:
        """Factory producing a fresh optimizer at this round's decayed lr.

        Clients get fresh optimizer state each round: in cross-device FL a
        client cannot be assumed to keep moment estimates between the rare
        rounds in which it participates.
        """
        lr = self.lr_at(round_idx)
        if self.optimizer == "rmsprop":
            return lambda: RMSprop(lr=lr, decay=1.0)
        return lambda: SGD(lr=lr, momentum=self.momentum, decay=1.0)

    def with_(self, **changes) -> "TrainingConfig":
        """Functional update helper."""
        return replace(self, **changes)


#: Paper defaults for MNIST / FMNIST / CIFAR-10 (Sec. 5.2).
PAPER_SYNTHETIC_TRAINING = TrainingConfig(
    optimizer="rmsprop", lr=0.01, lr_decay=0.995, batch_size=10, epochs=1
)
#: Paper defaults for FEMNIST under LEAF (Sec. 5.2).
PAPER_FEMNIST_TRAINING = TrainingConfig(
    optimizer="sgd", lr=0.004, lr_decay=1.0, batch_size=10, epochs=1
)

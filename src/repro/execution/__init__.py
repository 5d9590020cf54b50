"""Pluggable client-training execution backends.

The TiFL testbed trains every selected client *concurrently* on real
hardware; this package gives the reproduction the same property.  Pick a
backend by name through :func:`create_executor` (what the servers, the
experiment runner and the CLI's ``--executor`` flag do) or construct one
directly:

>>> from repro.execution import create_executor
>>> executor = create_executor("process", workers=4)

The v1 backends (serial / process / distributed) satisfy the
determinism contract documented in :mod:`repro.execution.base`: given
the same cohort and global weights they produce bit-identical updates in
the same deterministic order, so switching between them never changes a
training trajectory -- only its wall-clock time.

The ``distributed`` backend (:mod:`repro.distributed`) extends the same
contract across machines: a coordinator executor drives worker agent
processes over TCP.  It is registered here by name but imported lazily,
so in-process users never pay for the networking stack.

The ``batched`` backend (:mod:`repro.execution.batched`) trains each
homogeneous cohort group as one stacked tensor program -- a separate
**versioned numerics stream**: results match serial to accuracy
tolerance (gated by golden-value tests), not to the bit, because
stacked matmuls reassociate float64 sums.  See ``docs/numerics.md``.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.config import EXECUTOR_BACKENDS
from repro.execution.base import (
    ClientExecutor,
    EvalRequest,
    ExecutorError,
    TrainRequest,
    evaluate_holdouts,
    order_updates,
)
from repro.execution.batched import BatchedExecutor
from repro.execution.process import ProcessExecutor
from repro.execution.serial import SerialExecutor

__all__ = [
    "ClientExecutor",
    "ExecutorError",
    "TrainRequest",
    "EvalRequest",
    "evaluate_holdouts",
    "order_updates",
    "SerialExecutor",
    "ProcessExecutor",
    "BatchedExecutor",
    "EXECUTOR_BACKENDS",
    "BIT_IDENTICAL_BACKENDS",
    "create_executor",
    "resolve_executor",
]

#: The v1 numerics stream: backends whose trained weights are
#: bit-identical to serial by contract (the CI hard gate).  ``batched``
#: is deliberately absent -- it is a separate versioned numerics stream
#: gated by accuracy tolerance instead (see docs/numerics.md).
BIT_IDENTICAL_BACKENDS = ("serial", "process", "distributed")


def create_executor(
    backend: str, workers: int = 1, endpoint: Optional[str] = None
) -> ClientExecutor:
    """Instantiate a backend by name (one of :data:`EXECUTOR_BACKENDS`).

    ``workers`` must be >= 1 (the constructors raise otherwise -- a typo'd
    worker count should fail loudly, not degrade to serial speed).
    ``endpoint`` is the ``host:port`` the ``distributed`` coordinator
    listens on (ignored by the in-process backends).
    """
    if backend == "serial":
        return SerialExecutor()
    if backend == "process":
        return ProcessExecutor(workers=workers)
    if backend == "batched":
        return BatchedExecutor(workers=workers)
    if backend == "distributed":
        # Imported lazily: the networking stack is only needed when the
        # distributed backend is actually requested.
        from repro.distributed.coordinator import DistributedExecutor

        return DistributedExecutor(workers=workers, endpoint=endpoint)
    raise ValueError(
        f"unknown executor backend {backend!r}; expected one of {EXECUTOR_BACKENDS}"
    )


def resolve_executor(
    executor: Union[str, ClientExecutor, None],
    workers: Optional[int] = None,
    endpoint: Optional[str] = None,
) -> ClientExecutor:
    """Accept a backend name, a ready instance, or ``None`` (-> serial).

    When ``executor`` is already a :class:`ClientExecutor` instance it is
    returned as-is and ``workers`` / ``endpoint`` are **ignored** -- a
    ready instance was constructed with its own worker count, and resizing
    a possibly-started pool here would be a silent lie.  Pass a backend
    *name* if you want ``workers`` to take effect.
    """
    if executor is None:
        executor = "serial"
    if isinstance(executor, ClientExecutor):
        return executor
    if isinstance(executor, str):
        return create_executor(
            executor, workers=1 if workers is None else workers, endpoint=endpoint
        )
    raise TypeError(
        f"executor must be a backend name or ClientExecutor, got {type(executor)!r}"
    )

"""Pluggable client-training execution backends.

The TiFL testbed trains every selected client *concurrently* on real
hardware; this package gives the reproduction the same property.  Pick a
backend by name through :func:`create_executor` (what the servers, the
experiment runner and the CLI's ``--executor`` flag do) or construct one
directly:

>>> from repro.execution import create_executor
>>> executor = create_executor("process", workers=4)

Every backend (serial / process / distributed) satisfies the
determinism contract documented in :mod:`repro.execution.base`: given
the same cohort and global weights they produce bit-identical updates in
the same deterministic order, so switching between them never changes a
training trajectory -- only its wall-clock time.

``process`` and ``distributed`` are one coordinator
(:mod:`repro.distributed`) over forked socketpair workers or TCP ones,
registered here by name and imported on first :func:`create_executor`:
serial users never pay for the networking stack.
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
from repro.execution.serial import SerialExecutor

__all__ = [
    "ClientExecutor",
    "ExecutorError",
    "TrainRequest",
    "EvalRequest",
    "evaluate_holdouts",
    "order_updates",
    "SerialExecutor",
    "EXECUTOR_BACKENDS",
    "create_executor",
    "resolve_executor",
]


def create_executor(
    backend: str, workers: int = 1, endpoint: Optional[str] = None
) -> ClientExecutor:
    """Instantiate a backend by name (one of :data:`EXECUTOR_BACKENDS`).

    ``workers`` must be >= 1 for every backend, ``serial`` included (a
    typo'd worker count should fail loudly, not degrade to serial speed).
    ``endpoint`` is the ``host:port`` the ``distributed`` coordinator
    listens on (ignored by every other backend).
    """
    if backend not in EXECUTOR_BACKENDS:
        raise ValueError(
            f"unknown executor backend {backend!r}; expected one of {EXECUTOR_BACKENDS}"
        )
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    if backend == "serial":
        return SerialExecutor()
    # The pools are imported lazily: the networking stack is only needed
    # when one is actually requested.
    if backend == "process":
        from repro.distributed.launch import ProcessExecutor

        return ProcessExecutor(workers=workers)
    from repro.distributed.coordinator import DistributedExecutor

    return DistributedExecutor(workers=workers, endpoint=endpoint)


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

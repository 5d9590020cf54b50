"""Serial executor: the seed's single-workspace training loop.

Clients train one after another inside the server's own model shell, so
memory stays at exactly one model and behaviour is bit-for-bit the
pre-executor code path.  This is the default backend and the reference
the parallel backends are tested against.  Training, holdout evaluation
(one weight load per cohort) and global evaluation are all the base
class's in-server passes.
"""

from __future__ import annotations

from repro.execution.base import ClientExecutor

__all__ = ["SerialExecutor"]


class SerialExecutor(ClientExecutor):
    """Train the cohort sequentially in the bound model's workspace:
    every operation is the base class's in-server pass."""

    name = "serial"

"""Fault injection: a client's sampled latency, degraded.

Section 4.2 of the paper handles clients that repeatedly time out during
profiling (they are excluded as dropouts), and real deployments see
transient stragglers.  A :class:`FaultInjector` wraps a client's sampled
latency (``inf`` = never responds) so both behaviours can be reproduced;
:class:`SlowdownInjector` is the straggler the examples drive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set

__all__ = ["FaultInjector", "SlowdownInjector"]


class FaultInjector:
    """Interface: transforms a sampled latency for (client, round)."""

    def apply(self, client_id: int, round_idx: int, latency: float) -> float:
        """Return the possibly-degraded latency.

        ``float('inf')`` means the client never responds this round.
        """
        raise NotImplementedError


@dataclass
class SlowdownInjector(FaultInjector):
    """Multiply the latency of ``slow_clients`` by ``factor``.

    When ``slow_clients`` is ``None`` every client is affected -- useful to
    model a system-wide performance regression for the periodic
    re-profiling tests.

    ``start_round`` may be negative: the profiler labels its rounds with
    negative indices (``-1, -2, ...``), so a negative ``start_round``
    makes the slowdown visible during (re-)profiling as well.
    """

    factor: float = 1.0
    slow_clients: Optional[Set[int]] = None
    start_round: int = 0

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ValueError(f"slowdown factor must be >= 1, got {self.factor}")

    def apply(self, client_id: int, round_idx: int, latency: float) -> float:
        if round_idx < self.start_round:
            return latency
        if self.slow_clients is not None and client_id not in self.slow_clients:
            return latency
        return latency * self.factor

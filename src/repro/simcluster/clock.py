"""The simulated wall clock.

Synchronous FL advances in lock-step: each round costs
``max(client latencies)`` (paper Eq. 1).  The clock accumulates those
round costs so "accuracy over wall-clock time" figures (Figs. 3/6 e,f)
fall out of the same run as "accuracy over rounds".

The clock also carries an opt-in **event queue** for population-scale
simulation: callbacks scheduled at future simulated times (availability
churn windows, diurnal on/off edges) fire *during* :meth:`advance`, in
chronological order, with ``now`` set to each event's timestamp.  A
clock with no scheduled events behaves exactly as before -- the queue
is free when unused, so small-N runs without churn stay bit-identical.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Tuple

__all__ = ["SimulatedClock"]

ClockCallback = Callable[["SimulatedClock"], None]


class SimulatedClock:
    """Monotonically advancing simulated time in seconds."""

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError(f"start time must be non-negative, got {start}")
        self._now = float(start)
        self._events: List[Tuple[float, int, ClockCallback]] = []
        self._event_seq = 0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def advance(self, dt: float) -> float:
        """Move time forward by ``dt`` seconds; returns the new time.

        Events due within the window fire in chronological order (FIFO
        among ties), each seeing ``now`` at its own timestamp; a
        callback may :meth:`schedule` follow-up events, including ones
        still inside the window.
        """
        if dt < 0:
            raise ValueError(f"cannot advance the clock backwards (dt={dt})")
        target = self._now + float(dt)
        while self._events and self._events[0][0] <= target:
            when, _, callback = heapq.heappop(self._events)
            self._now = when
            callback(self)
        self._now = target
        return self._now

    def schedule(self, when: float, callback: ClockCallback) -> None:
        """Run ``callback(clock)`` once simulated time reaches ``when``."""
        when = float(when)
        if when < self._now:
            raise ValueError(
                f"cannot schedule an event in the past "
                f"(when={when}, now={self._now})"
            )
        heapq.heappush(self._events, (when, self._event_seq, callback))
        self._event_seq += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SimulatedClock(now={self._now:.3f}s, events={len(self._events)})"
        )

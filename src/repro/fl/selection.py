"""Client-selection strategies of the *conventional* FL substrate.

* :class:`RandomSelector` -- the paper's ``vanilla`` policy: uniformly
  select ``|C|`` clients from the full pool ``K`` each round (Alg. 1,
  line 3), agnostic to heterogeneity.
* :class:`OverSelector` -- the Bonawitz et al. baseline discussed in
  Related Work: select ``over_factor x |C|`` clients (130% by default) and
  aggregate only the fastest ``|C|`` responders, discarding stragglers.

TiFL's tier-aware selection lives in :mod:`repro.tifl.scheduler`; both
sides implement the same :class:`ClientSelector` contract so the server
loop is selection-agnostic (the "non-intrusive plug-in" property claimed
in Section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.rng import RngLike, choice_without_replacement, make_rng

__all__ = ["SelectionPlan", "ClientSelector", "RandomSelector", "OverSelector"]


@dataclass
class SelectionPlan:
    """What a selector hands the server for one round.

    Attributes
    ----------
    clients:
        Client ids asked to participate.
    keep:
        When set, the server aggregates only the fastest ``keep``
        responders and the round latency is the ``keep``-th order
        statistic (the over-selection baseline); ``None`` means wait for
        everyone.
    tier:
        The tier index this cohort was drawn from (``None`` for
        tier-agnostic policies); recorded in the history.
    """

    clients: List[int]
    keep: Optional[int] = None
    tier: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.clients:
            raise ValueError("a selection plan must name at least one client")
        if len(set(self.clients)) != len(self.clients):
            raise ValueError(f"duplicate clients in plan: {self.clients}")
        if self.keep is not None and not 1 <= self.keep <= len(self.clients):
            raise ValueError(
                f"keep must be in [1, {len(self.clients)}], got {self.keep}"
            )


class ClientSelector:
    """Base selector: choose the round's cohort from the available pool."""

    def select(self, round_idx: int, available: Sequence[int]) -> SelectionPlan:
        raise NotImplementedError

    def observe(
        self,
        round_idx: int,
        plan: SelectionPlan,
        round_latency: float,
        accuracy: Optional[float],
    ) -> None:
        """Post-round feedback hook (adaptive policies override this)."""


class RandomSelector(ClientSelector):
    """Uniform random selection of ``clients_per_round`` from the pool."""

    def __init__(self, clients_per_round: int, rng: RngLike = None) -> None:
        if clients_per_round <= 0:
            raise ValueError(
                f"clients_per_round must be positive, got {clients_per_round}"
            )
        self.clients_per_round = clients_per_round
        self._rng = make_rng(rng)

    def select(self, round_idx: int, available: Sequence[int]) -> SelectionPlan:
        # np.asarray inside choice_without_replacement accepts lists and
        # int64 availability columns alike (a no-copy view for the
        # latter), and the draw is bit-identical either way -- so the
        # store-backed population path costs O(cohort) here, not O(pool).
        chosen = choice_without_replacement(
            self._rng, available, self.clients_per_round
        )
        return SelectionPlan(clients=[int(c) for c in chosen])


class OverSelector(ClientSelector):
    """Over-select then discard stragglers (Bonawitz et al., Sec. 2).

    Selects ``ceil(over_factor * target)`` clients and keeps the fastest
    ``target`` -- a ~30% straggler tolerance at the cost of discarding the
    slowest clients' data every round.
    """

    def __init__(
        self, target: int, over_factor: float = 1.3, rng: RngLike = None
    ) -> None:
        if target <= 0:
            raise ValueError(f"target must be positive, got {target}")
        if over_factor < 1.0:
            raise ValueError(f"over_factor must be >= 1, got {over_factor}")
        self.target = target
        self.over_factor = over_factor
        self._rng = make_rng(rng)

    def select(self, round_idx: int, available: Sequence[int]) -> SelectionPlan:
        want = int(np.ceil(self.target * self.over_factor))
        want = min(want, len(available))
        if want < self.target:
            raise ValueError(
                f"pool of {len(available)} cannot satisfy target {self.target}"
            )
        chosen = choice_without_replacement(self._rng, available, want)
        return SelectionPlan(clients=[int(c) for c in chosen], keep=self.target)

"""The staged round engine: the six phases of a round and their contract.

A synchronous FL round decomposes into six phases with a declared data
contract (who writes which :class:`RoundContext` field):

====================  =====================================================
phase                 contract
====================  =====================================================
``select``            ``plan``, ``latencies``, ``kept``, ``dropped``,
                      ``round_latency`` -- the cohort and its simulated
                      timing.  Reads selector state and the latency RNG
                      streams; both advance in strict round order.
``broadcast``         ``broadcast_weights`` -- the exact weight vector the
                      cohort trains from (a pool executor ships it as
                      a BROADCAST frame).
``train``             ``updates`` -- one :class:`ClientUpdate` per kept
                      client, in request order (the executor contract),
                      each with ``flat_weights=None``: its vector went
                      into ``folded``, the round's
                      :class:`~repro.fl.aggregator.FedAvgAccumulator`,
                      as the executor handed it over.
``aggregate``         ``eval_weights`` (the post-round global weights;
                      aggregation produces a fresh vector, never an
                      in-place write), ``sim_time`` (the clock advances
                      here, in round order).  Consumes ``updates``,
                      ``folded`` and ``broadcast_weights``: leaves them
                      ``[]``, ``None`` and ``None``, so neither the sum
                      nor the pre-round vector outlives the phase.
``eval``              ``accuracy`` and subclass extras (TiFL's per-tier
                      accuracies), computed against ``eval_weights``.
``record``            ``record`` -- the :class:`RoundRecord`; selector
                      feedback (``observe`` / tier-accuracy recording) and
                      the history append happen here, in round order.
====================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.fl.aggregator import FedAvgAccumulator
from repro.fl.history import RoundRecord
from repro.fl.selection import SelectionPlan
from repro.simcluster.client import ClientUpdate

__all__ = ["RoundContext"]


@dataclass
class RoundContext:
    """Mutable carrier of one round's state as it moves through phases.

    Fields are written by exactly one phase each (see the module
    docstring's contract table) and read only by later phases; the
    aggregate phase also clears the three it consumes (``updates``,
    ``folded``, ``broadcast_weights``), so eval and record cannot read
    them.
    """

    round_idx: int
    # -- select --------------------------------------------------------
    plan: Optional[SelectionPlan] = None
    latencies: Dict[int, float] = field(default_factory=dict)
    kept: List[int] = field(default_factory=list)
    dropped: List[int] = field(default_factory=list)
    round_latency: float = 0.0
    # -- broadcast -----------------------------------------------------
    broadcast_weights: Optional[np.ndarray] = None
    # -- train ---------------------------------------------------------
    updates: List[ClientUpdate] = field(default_factory=list)
    folded: Optional[FedAvgAccumulator] = None
    # -- aggregate -----------------------------------------------------
    eval_weights: Optional[np.ndarray] = None
    sim_time: float = 0.0
    # -- eval ----------------------------------------------------------
    accuracy: Optional[float] = None
    tier_accuracies: Optional[Dict[int, float]] = None
    # -- record --------------------------------------------------------
    record: Optional[RoundRecord] = None

"""Training history: the raw material of every figure in the paper.

One :class:`RoundRecord` per global round captures the simulated round
latency (Eq. 1), cumulative wall-clock time, test accuracy, cohort and
tier.  :class:`TrainingHistory` provides the series extractors the figure
harnesses consume (accuracy-over-rounds, accuracy-over-time, total time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["RoundRecord", "TrainingHistory"]


@dataclass
class RoundRecord:
    """Outcome of one synchronous global round."""

    round_idx: int
    round_latency: float
    sim_time: float
    accuracy: Optional[float]
    selected: Tuple[int, ...]
    tier: Optional[int] = None
    dropped: Tuple[int, ...] = ()
    tier_accuracies: Optional[Dict[int, float]] = None


@dataclass
class TrainingHistory:
    """Append-only record of a full training run.

    ``telemetry`` optionally carries the run-end metrics snapshot
    (:func:`repro.telemetry.snapshot`) -- populated by
    :meth:`repro.fl.server.FLServer.run` when telemetry collection is
    on, ``None`` otherwise.  It is observability payload only: no
    equality/fingerprint path reads it, so a traced run's history stays
    bit-identical to an untraced one.
    """

    records: List[RoundRecord] = field(default_factory=list)
    telemetry: Optional[Dict] = None

    def append(self, record: RoundRecord) -> None:
        if self.records and record.round_idx <= self.records[-1].round_idx:
            raise ValueError(
                f"round indices must increase: {record.round_idx} after "
                f"{self.records[-1].round_idx}"
            )
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    # series extractors
    # ------------------------------------------------------------------
    @property
    def round_latencies(self) -> np.ndarray:
        return np.array([r.round_latency for r in self.records])

    @property
    def times(self) -> np.ndarray:
        """Cumulative simulated wall-clock time after each round."""
        return np.array([r.sim_time for r in self.records])

    @property
    def total_time(self) -> float:
        """Total simulated training time (the bar charts of Figs. 3/5/6/9)."""
        return float(self.records[-1].sim_time) if self.records else 0.0

    def accuracy_series(self) -> Tuple[np.ndarray, np.ndarray]:
        """(rounds, accuracy) restricted to evaluated rounds."""
        pts = [
            (r.round_idx, r.accuracy)
            for r in self.records
            if r.accuracy is not None
        ]
        if not pts:
            return np.empty(0, dtype=np.int64), np.empty(0)
        rounds, accs = zip(*pts)
        return np.asarray(rounds, dtype=np.int64), np.asarray(accs)

    def accuracy_over_time(self) -> Tuple[np.ndarray, np.ndarray]:
        """(sim_time, accuracy) restricted to evaluated rounds."""
        pts = [(r.sim_time, r.accuracy) for r in self.records if r.accuracy is not None]
        if not pts:
            return np.empty(0), np.empty(0)
        times, accs = zip(*pts)
        return np.asarray(times), np.asarray(accs)

    @property
    def final_accuracy(self) -> float:
        """Last evaluated accuracy."""
        for r in reversed(self.records):
            if r.accuracy is not None:
                return float(r.accuracy)
        raise ValueError("no accuracy was recorded in this history")

    def accuracy_at_time(self, budget: float) -> float:
        """Best accuracy achieved within a wall-clock budget (Fig. 3e reading)."""
        accs = [
            r.accuracy
            for r in self.records
            if r.accuracy is not None and r.sim_time <= budget
        ]
        if not accs:
            return 0.0
        return float(max(accs))

    def rounds_within_time(self, budget: float) -> int:
        """How many rounds complete within ``budget`` seconds."""
        return int(np.sum(self.times <= budget))

    def tier_selection_counts(self) -> Dict[int, int]:
        """How often each tier was selected (None key = tier-agnostic rounds)."""
        counts: Dict[int, int] = {}
        for r in self.records:
            key = -1 if r.tier is None else r.tier
            counts[key] = counts.get(key, 0) + 1
        return counts

    def selection_counts(self) -> Dict[int, int]:
        """Per-client participation counts over the run."""
        counts: Dict[int, int] = {}
        for r in self.records:
            for c in r.selected:
                counts[c] = counts.get(c, 0) + 1
        return counts

    def summary(self) -> str:
        """One-line run summary for logs and tables."""
        acc = f"{self.final_accuracy:.4f}" if any(
            r.accuracy is not None for r in self.records
        ) else "n/a"
        return (
            f"{len(self.records)} rounds, total_time={self.total_time:.1f}s, "
            f"final_acc={acc}"
        )

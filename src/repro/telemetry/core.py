"""Process-wide metrics registry and span API with a no-op default.

Telemetry is **off by default** and off means *free*: :func:`span`,
:func:`counter`, :func:`gauge` and :func:`histogram` return shared
no-op singletons, so an instrumented hot path costs one ``enabled``
check and an attribute call -- no allocation, no lock, and above all no
RNG interaction, so tracing can never perturb bit-identity.  The only
clocks touched when tracing is on are ``time.perf_counter`` /
``time.time``; numpy's random state is never read or advanced.

:func:`configure` turns collection on (optionally streaming every
closed span to a JSONL trace file -- see :mod:`repro.telemetry.trace`);
:func:`snapshot` renders the registry as a plain dict (embedded in
:class:`repro.fl.history.TrainingHistory` and runner JSON at run end);
:func:`span_records` exposes the in-memory span list, which the
benchmarks read their timings from instead of keeping private
stopwatches.

Thread-safety: one process-wide lock guards registry mutation; spans
may close from any thread (the coordinator's reader threads).
Fork-safety: a forked child inherits the registry but the trace writer
drops its writes (see :class:`~repro.telemetry.trace.TraceWriter`).
"""

from __future__ import annotations

import bisect
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.telemetry.trace import SCHEMA_VERSION, TraceWriter

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_TIME_BUCKETS",
    "SpanRecord",
    "configure",
    "shutdown",
    "reset",
    "enabled",
    "span",
    "counter",
    "gauge",
    "histogram",
    "count",
    "observe",
    "snapshot",
    "flush",
    "span_records",
    "clear_spans",
    "trace_path",
]

#: Default histogram boundaries, tuned for durations in seconds: five
#: decades of sub-second resolution plus coarse multi-second buckets.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    1e-5,
    1e-4,
    1e-3,
    1e-2,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)

_LabelKey = Tuple[Tuple[str, Any], ...]


def _label_key(labels: Dict[str, Any]) -> _LabelKey:
    return tuple(sorted(labels.items()))


def _render_key(name: str, labels: _LabelKey) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


# ----------------------------------------------------------------------
# live metric objects
# ----------------------------------------------------------------------
class Counter:
    """Monotonic sum; ``add`` is the only mutator."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(
        self, name: str, labels: _LabelKey, lock: threading.RLock
    ) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = lock

    def add(self, n: float = 1.0) -> None:
        with self._lock:
            self.value += n


class Gauge:
    """Last-write-wins scalar."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(
        self, name: str, labels: _LabelKey, lock: threading.RLock
    ) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = lock

    def set(self, v: float) -> None:
        with self._lock:
            self.value = float(v)


class Histogram:
    """Fixed-boundary histogram (cumulative ``le`` semantics on export).

    ``buckets`` are the inclusive upper boundaries; one implicit
    overflow bucket catches everything above the last boundary.
    Boundaries are fixed at creation so snapshots from different
    processes/runs are mergeable by position.
    """

    __slots__ = (
        "name",
        "labels",
        "buckets",
        "counts",
        "sum",
        "count",
        "min",
        "max",
        "_lock",
    )

    def __init__(
        self,
        name: str,
        labels: _LabelKey,
        buckets: Sequence[float],
        lock: threading.RLock,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"histogram buckets must be non-empty and strictly "
                f"increasing, got {buckets!r}"
            )
        self.name = name
        self.labels = labels
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")
        self._lock = lock

    def observe(self, v: float) -> None:
        v = float(v)
        idx = bisect.bisect_left(self.buckets, v)
        with self._lock:
            self.counts[idx] += 1
            self.sum += v
            self.count += 1
            if v < self.min:
                self.min = v
            if v > self.max:
                self.max = v

    def percentile(self, q: float) -> float:
        """Bucket-resolution upper-bound estimate of the ``q`` quantile."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if self.count == 0:
                return 0.0
            target = q * self.count
            seen = 0
            for idx, n in enumerate(self.counts):
                seen += n
                if seen >= target and n:
                    if idx < len(self.buckets):
                        return self.buckets[idx]
                    return self.max
            return self.max

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "count": self.count,
                "sum": self.sum,
                "min": self.min if self.count else 0.0,
                "max": self.max if self.count else 0.0,
                "p50": self.percentile(0.5),
                "p95": self.percentile(0.95),
                "buckets": [
                    [b, n] for b, n in zip(self.buckets, self.counts)
                ]
                + [["+inf", self.counts[-1]]],
            }


# ----------------------------------------------------------------------
# no-op singletons (the disabled path)
# ----------------------------------------------------------------------
class _NoopMetric:
    __slots__ = ()

    def add(self, n: float = 1.0) -> None:
        pass

    def set(self, v: float) -> None:
        pass

    def observe(self, v: float) -> None:
        pass

    def percentile(self, q: float) -> float:
        return 0.0


class _NoopSpan:
    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def annotate(self, **attrs: Any) -> None:
        pass


_NOOP_METRIC = _NoopMetric()
_NOOP_SPAN = _NoopSpan()


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
@dataclass
class SpanRecord:
    """One closed span: wall start, monotonic start, duration, origin."""

    name: str
    ts: float  # wall clock at start (unix seconds)
    start: float  # perf_counter at start (for intra-process ordering)
    duration: float
    pid: int
    tid: int
    attrs: Dict[str, Any] = field(default_factory=dict)


class Span:
    """Context manager measuring one named region; reentrant-safe by
    virtue of being a fresh object per :func:`span` call."""

    __slots__ = ("name", "attrs", "_ts", "_start")

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self._ts = 0.0
        self._start = 0.0

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes discovered mid-span (e.g. bytes moved)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self._ts = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> bool:
        duration = time.perf_counter() - self._start
        record = SpanRecord(
            name=self.name,
            ts=self._ts,
            start=self._start,
            duration=duration,
            pid=os.getpid(),
            tid=threading.get_ident(),
            attrs=self.attrs,
        )
        state = _STATE
        with state.lock:
            if state.enabled:
                state.spans.append(record)
                writer = state.writer
            else:  # disabled mid-span: drop silently
                writer = None
        if writer is not None:
            writer.write_span(
                record.name,
                record.ts,
                record.duration,
                record.attrs,
                record.pid,
                record.tid,
            )
        return False


# ----------------------------------------------------------------------
# process-wide state
# ----------------------------------------------------------------------
class _State:
    def __init__(self) -> None:
        self.enabled = False
        self.lock = threading.RLock()
        self.counters: Dict[Tuple[str, _LabelKey], Counter] = {}
        self.gauges: Dict[Tuple[str, _LabelKey], Gauge] = {}
        self.histograms: Dict[Tuple[str, _LabelKey], Histogram] = {}
        self.spans: List[SpanRecord] = []
        self.writer: Optional[TraceWriter] = None


_STATE = _State()


def enabled() -> bool:
    """Whether telemetry collection is on (the one hot-path check)."""
    return _STATE.enabled


def configure(
    enabled: bool = True,
    trace_path: Optional[str] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> None:
    """Turn collection on (or off), optionally streaming to a trace file.

    ``meta`` lands on the trace's first (``meta``) line; pass
    :func:`repro.telemetry.trace.run_metadata` output to make the file
    attributable.  Reconfiguring with a new ``trace_path`` closes the
    previous writer after flushing the registry into it.
    """
    state = _STATE
    with state.lock:
        if state.writer is not None:
            _flush_locked(state)
            state.writer.close()
            state.writer = None
        state.enabled = bool(enabled)
        if enabled and trace_path is not None:
            state.writer = TraceWriter(trace_path, meta=meta)


def shutdown() -> None:
    """Flush metrics to the trace (if any) and stop collection.

    The in-memory registry survives so a caller can still
    :func:`snapshot` after the run; :func:`reset` wipes it.
    """
    configure(enabled=False)


def reset() -> None:
    """Stop collection and wipe every metric and span (test isolation)."""
    state = _STATE
    with state.lock:
        if state.writer is not None:
            state.writer.close()
            state.writer = None
        state.enabled = False
        state.counters.clear()
        state.gauges.clear()
        state.histograms.clear()
        state.spans.clear()


def trace_path() -> Optional[str]:
    """Path of the active trace file, or ``None``."""
    writer = _STATE.writer
    return writer.path if writer is not None else None


# ----------------------------------------------------------------------
# registry access
# ----------------------------------------------------------------------
def counter(name: str, **labels: Any) -> Counter:
    state = _STATE
    if not state.enabled:
        return _NOOP_METRIC  # type: ignore[return-value]
    key = (name, _label_key(labels))
    with state.lock:
        metric = state.counters.get(key)
        if metric is None:
            metric = state.counters[key] = Counter(name, key[1], state.lock)
    return metric


def gauge(name: str, **labels: Any) -> Gauge:
    state = _STATE
    if not state.enabled:
        return _NOOP_METRIC  # type: ignore[return-value]
    key = (name, _label_key(labels))
    with state.lock:
        metric = state.gauges.get(key)
        if metric is None:
            metric = state.gauges[key] = Gauge(name, key[1], state.lock)
    return metric


def histogram(
    name: str, buckets: Optional[Sequence[float]] = None, **labels: Any
) -> Histogram:
    """Fixed-bucket histogram; boundaries are set by the first caller."""
    state = _STATE
    if not state.enabled:
        return _NOOP_METRIC  # type: ignore[return-value]
    key = (name, _label_key(labels))
    with state.lock:
        metric = state.histograms.get(key)
        if metric is None:
            metric = state.histograms[key] = Histogram(
                name, key[1], buckets or DEFAULT_TIME_BUCKETS, state.lock
            )
    return metric


def count(name: str, n: float = 1.0, **labels: Any) -> None:
    """Convenience: ``counter(name, **labels).add(n)``."""
    counter(name, **labels).add(n)


def observe(name: str, value: float, **labels: Any) -> None:
    """Convenience: ``histogram(name, **labels).observe(value)``."""
    histogram(name, **labels).observe(value)


def span(name: str, **attrs: Any):
    """A context manager timing one named region.

    Disabled telemetry returns a shared no-op singleton: no allocation,
    no clock read, no RNG interaction.  Enabled telemetry records a
    :class:`SpanRecord` (and streams a trace event when a trace file is
    configured) on exit.
    """
    if not _STATE.enabled:
        return _NOOP_SPAN
    return Span(name, dict(attrs))


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------
def span_records(name: Optional[str] = None) -> List[SpanRecord]:
    """Closed spans recorded so far (optionally filtered by name).

    Returns a copy; the benchmarks read their timings from here instead
    of keeping private stopwatches.
    """
    state = _STATE
    with state.lock:
        if name is None:
            return list(state.spans)
        return [s for s in state.spans if s.name == name]


def clear_spans() -> None:
    """Drop recorded spans (metrics stay) -- bench warmup/run separation."""
    state = _STATE
    with state.lock:
        state.spans.clear()


def snapshot() -> Dict[str, Any]:
    """Render the registry as a plain JSON-able dict.

    Embedded in :class:`~repro.fl.history.TrainingHistory` and runner
    JSON at run end; the ``spans`` block is a per-name rollup (count and
    total seconds), not the full span list.
    """
    state = _STATE
    with state.lock:
        counters = {
            _render_key(name, labels): c.value
            for (name, labels), c in sorted(state.counters.items())
        }
        gauges = {
            _render_key(name, labels): g.value
            for (name, labels), g in sorted(state.gauges.items())
        }
        histograms = {
            _render_key(name, labels): h.to_dict()
            for (name, labels), h in sorted(state.histograms.items())
        }
        rollup: Dict[str, Dict[str, float]] = {}
        for rec in state.spans:
            agg = rollup.setdefault(rec.name, {"count": 0, "total_s": 0.0})
            agg["count"] += 1
            agg["total_s"] += rec.duration
    return {
        "schema_version": SCHEMA_VERSION,
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
        "spans": rollup,
    }


def _flush_locked(state: _State) -> None:
    writer = state.writer
    if writer is None:
        return
    ts = time.time()
    for (name, labels), c in sorted(state.counters.items()):
        writer.write_metric("counter", name, dict(labels), c.value, ts=ts)
    for (name, labels), g in sorted(state.gauges.items()):
        writer.write_metric("gauge", name, dict(labels), g.value, ts=ts)
    for (name, labels), h in sorted(state.histograms.items()):
        writer.write_metric("histogram", name, dict(labels), h.to_dict(), ts=ts)
    writer.flush()


def flush() -> None:
    """Write the current metric values to the trace file (if any)."""
    state = _STATE
    with state.lock:
        _flush_locked(state)

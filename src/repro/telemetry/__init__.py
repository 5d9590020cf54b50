"""``repro.telemetry``: tracing, metrics, and logging for the whole stack.

One instrumentation layer instead of N ad-hoc stopwatches: the staged
round engine, every executor backend, the distributed coordinator /
worker pair, and the codec registry all report through this package.

* **Spans** -- ``with telemetry.span("fl.train", round=r, backend=...)``
  times a region; with tracing off (the default) the call returns a
  shared no-op and costs ~nothing, and it *never* touches numpy RNG, so
  bit-identity gates are unaffected either way.
* **Metrics** -- process-wide counters, gauges and fixed-bucket
  histograms (:func:`counter` / :func:`gauge` / :func:`histogram`),
  rendered by :func:`snapshot` and embedded in
  ``TrainingHistory`` / runner JSON at run end.
* **Traces** -- :func:`configure` with ``trace_path`` streams every
  closed span (plus metric flushes) to a schema-versioned JSONL file;
  ``python -m repro.cli report <trace.jsonl>`` summarizes it.
* **Logging** -- :mod:`repro.telemetry.log` is the one place logging is
  configured (``--log-level``); every module logs through
  :func:`~repro.telemetry.log.get_logger`.
"""

from repro.telemetry.core import (
    DEFAULT_TIME_BUCKETS,
    SCHEMA_VERSION,
    configure,
    count,
    counter,
    enabled,
    flush,
    gauge,
    histogram,
    observe,
    reset,
    shutdown,
    snapshot,
    span,
)
from repro.telemetry.trace import (
    TraceWriter,
    config_digest,
    run_metadata,
    validate_trace_event,
    validate_trace_file,
)

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_TIME_BUCKETS",
    "TraceWriter",
    "config_digest",
    "configure",
    "count",
    "counter",
    "enabled",
    "flush",
    "gauge",
    "histogram",
    "observe",
    "reset",
    "run_metadata",
    "shutdown",
    "snapshot",
    "span",
    "validate_trace_event",
    "validate_trace_file",
]

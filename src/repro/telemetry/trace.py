"""Schema-versioned JSONL trace emission and validation.

A trace file is a sequence of JSON objects, one per line.  Every event
carries ``schema`` (this module's :data:`SCHEMA_VERSION`), a ``kind``
and a wall-clock ``ts`` (seconds since the epoch):

==========  ==========================================================
kind        payload
==========  ==========================================================
``meta``    first line of every file: ``meta`` dict with run metadata
            (git sha, config digest, UTC timestamp -- see
            :func:`run_metadata`).
``span``    one closed span: ``name``, ``dur`` (seconds), ``pid``,
            ``tid`` and an ``attrs`` dict (``round``, ``backend``,
            ...).  ``ts`` is the span's *start*.
``metric``  one metric at flush time: ``metric`` (``counter`` /
            ``gauge`` / ``histogram``), ``name``, ``labels`` and
            ``value`` (a number, or for histograms a dict with
            ``count`` / ``sum`` / ``min`` / ``max`` / ``buckets``).
==========  ==========================================================

:func:`validate_trace_event` / :func:`validate_trace_file` enforce the
schema; CI validates the trace a loopback smoke run produces, and the
``python -m repro.cli report`` summarizer refuses malformed files
rather than mis-summarizing them.

The writer is thread-safe and fork-safe: a forked child (the process
executor's workers, local TCP workers) inherits the file object but
silently drops writes and never flushes it, so one process -- the one
that called ``configure`` -- owns the file.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import threading
import time
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "SCHEMA_VERSION",
    "TraceWriter",
    "validate_trace_event",
    "validate_trace_file",
    "run_metadata",
    "config_digest",
]

#: Version of the trace-event schema (and of the metrics snapshot / bench
#: metadata blocks that embed it).  Bump on any incompatible change.
SCHEMA_VERSION = 1

_EVENT_KINDS = ("meta", "span", "metric")
_METRIC_KINDS = ("counter", "gauge", "histogram")

#: Trace files a forked child closed: never finalised in the child.
_FORKED_HANDLES: List[Any] = []


def _json_default(obj: Any) -> Any:
    # numpy scalars and other non-JSON leaves degrade to str/float rather
    # than poisoning the whole event.
    try:
        return float(obj)
    except (TypeError, ValueError):
        return str(obj)


class TraceWriter:
    """Append schema-versioned JSONL events to a trace file."""

    def __init__(
        self, path: str, meta: Optional[Dict[str, Any]] = None
    ) -> None:
        self.path = str(path)
        self._lock = threading.Lock()
        self._pid = os.getpid()
        self._fh = open(self.path, "w", encoding="utf-8")
        self._closed = False
        self._write(
            {
                "schema": SCHEMA_VERSION,
                "kind": "meta",
                "ts": time.time(),
                "meta": dict(meta or {}),
            }
        )

    # ------------------------------------------------------------------
    def _write(self, event: Dict[str, Any]) -> None:
        line = json.dumps(
            event, separators=(",", ":"), sort_keys=True, default=_json_default
        )
        with self._lock:
            if self._closed or os.getpid() != self._pid:
                return  # fork-safety: only the owning process writes
            self._fh.write(line + "\n")

    def write_span(
        self,
        name: str,
        ts: float,
        dur: float,
        attrs: Dict[str, Any],
        pid: int,
        tid: int,
    ) -> None:
        self._write(
            {
                "schema": SCHEMA_VERSION,
                "kind": "span",
                "name": name,
                "ts": ts,
                "dur": dur,
                "pid": pid,
                "tid": tid,
                "attrs": dict(attrs),
            }
        )

    def write_metric(
        self,
        metric: str,
        name: str,
        labels: Dict[str, Any],
        value: Any,
        ts: Optional[float] = None,
    ) -> None:
        self._write(
            {
                "schema": SCHEMA_VERSION,
                "kind": "metric",
                "metric": metric,
                "name": name,
                "labels": dict(labels),
                "value": value,
                "ts": time.time() if ts is None else ts,
            }
        )

    def flush(self) -> None:
        with self._lock:
            if not self._closed and os.getpid() == self._pid:
                self._fh.flush()

    def close(self) -> None:
        if os.getpid() != self._pid:
            # A forked copy: its buffer holds the owner's pending lines,
            # which finalising the handle would write a second time, and
            # its lock may be held by an owner thread that is not here.
            # Keep the handle alive until this process exits.
            _FORKED_HANDLES.append(self._fh)
            self._closed = True
            return
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._fh.flush()
            self._fh.close()


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def _fail(msg: str) -> None:
    raise ValueError(f"invalid trace event: {msg}")


def _check_number(event: Dict[str, Any], key: str) -> None:
    v = event.get(key)
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        _fail(f"{key!r} must be a number, got {v!r}")


def validate_trace_event(event: Any) -> None:
    """Raise ``ValueError`` unless ``event`` is a valid trace event."""
    if not isinstance(event, dict):
        _fail(f"expected an object, got {type(event).__name__}")
    if event.get("schema") != SCHEMA_VERSION:
        _fail(
            f"schema must be {SCHEMA_VERSION}, got {event.get('schema')!r}"
        )
    kind = event.get("kind")
    if kind not in _EVENT_KINDS:
        _fail(f"kind must be one of {_EVENT_KINDS}, got {kind!r}")
    _check_number(event, "ts")
    if kind == "meta":
        if not isinstance(event.get("meta"), dict):
            _fail("meta event requires a 'meta' object")
        return
    name = event.get("name")
    if not isinstance(name, str) or not name:
        _fail(f"'name' must be a non-empty string, got {name!r}")
    if kind == "span":
        _check_number(event, "dur")
        if event["dur"] < 0:
            _fail(f"span duration must be >= 0, got {event['dur']}")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                _fail(f"span {key!r} must be an integer")
        if not isinstance(event.get("attrs"), dict):
            _fail("span 'attrs' must be an object")
        return
    # kind == "metric"
    metric = event.get("metric")
    if metric not in _METRIC_KINDS:
        _fail(f"metric must be one of {_METRIC_KINDS}, got {metric!r}")
    labels = event.get("labels")
    if not isinstance(labels, dict) or any(
        not isinstance(k, str) for k in labels
    ):
        _fail("metric 'labels' must be an object with string keys")
    value = event.get("value")
    if metric == "histogram":
        if not isinstance(value, dict):
            _fail("histogram value must be an object")
        for key in ("count", "sum"):
            if not isinstance(value.get(key), (int, float)) or isinstance(
                value.get(key), bool
            ):
                _fail(f"histogram value requires numeric {key!r}")
        buckets = value.get("buckets")
        if not isinstance(buckets, list):
            _fail("histogram value requires a 'buckets' list")
    elif not isinstance(value, (int, float)) or isinstance(value, bool):
        _fail(f"{metric} value must be a number, got {value!r}")


def validate_trace_file(path: str) -> Dict[str, int]:
    """Validate every line of a trace file; returns counts per kind.

    Raises ``ValueError`` (with the 1-based line number) on the first
    malformed line, on a non-``meta`` first line, or on an empty file.
    """
    counts: Dict[str, int] = {kind: 0 for kind in _EVENT_KINDS}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
                validate_trace_event(event)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if lineno == 1 and event["kind"] != "meta":
                raise ValueError(
                    f"{path}:1: first event must be 'meta', got "
                    f"{event['kind']!r}"
                )
            counts[event["kind"]] += 1
    if sum(counts.values()) == 0:
        raise ValueError(f"{path}: empty trace")
    return counts


def load_trace(
    path: str,
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Load and validate a trace; returns ``(meta, events)``.

    ``meta`` is the first event's metadata block; ``events`` holds every
    subsequent span/metric event in file order.
    """
    meta: Dict[str, Any] = {}
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        first = True
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
                validate_trace_event(event)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if first:
                if event["kind"] != "meta":
                    raise ValueError(
                        f"{path}:1: first event must be 'meta', got "
                        f"{event['kind']!r}"
                    )
                meta = event["meta"]
                first = False
            else:
                events.append(event)
    if first:
        raise ValueError(f"{path}: empty trace")
    return meta, events


# ----------------------------------------------------------------------
# run metadata (the meta block of a trace)
# ----------------------------------------------------------------------
def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            timeout=5,
            check=True,
        )
        return out.stdout.decode("ascii", "replace").strip()
    except Exception:
        return os.environ.get("GITHUB_SHA", "unknown")


def config_digest(config: Any) -> str:
    """Stable short digest of a JSON-able config mapping."""
    payload = json.dumps(
        config, sort_keys=True, separators=(",", ":"), default=_json_default
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def run_metadata(config: Any = None) -> Dict[str, Any]:
    """The identity block a trace's meta line carries (``cli run
    --trace-out`` is the caller).

    ``git_sha`` + ``config_digest`` make a trace attributable to one
    commit and one exact configuration; ``schema_version`` lets
    downstream tooling reject blocks it does not understand;
    ``timestamp_utc`` orders a trajectory of traces.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "git_sha": _git_sha(),
        "config_digest": None if config is None else config_digest(config),
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
    }

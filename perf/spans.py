"""Span tracing from outside the program, for the traced child only.

``Tracer.install`` wraps the layers' public callables (module functions,
class methods, and -- for names imported by value -- the importing
module's binding) with span recorders.  Nothing in ``src/`` is edited
and the untraced children never import this module's wrappers, so the
end-to-end numbers are measured with tracing absent, not merely off.

A span is (name, start, end, id, parent id, round, thread).  Parents come
from a per-thread stack; ``self_s`` is a span's duration minus the part
its direct children cover.  High-volume spans (the ``nn.*`` and
per-client calls below the executor) are *folded* per round into
``(round, name, parent) -> [calls, total]`` records to bound memory;
everything else is kept whole and exported as Chrome trace events.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

perf_counter = time.perf_counter

# Counter hooks: ``(args, kwargs, result) -> [(counter, value)]``.
def _frame_bytes(args, kwargs, result):
    payload = args[2] if len(args) > 2 else kwargs.get("payload", b"")
    return [("distributed.send.bytes", len(payload))]


def _recv_bytes(args, kwargs, result):
    return [("distributed.recv.bytes", len(result[1]))]


def _eval_samples(args, kwargs, result):
    return [("nn.evaluate.samples", int(args[1].shape[0]))]


def _train_samples(args, kwargs, result):
    return [("nn.train_samples", int(args[1].shape[0]))]


def _blob_bytes(args, kwargs, result):
    return [("serialization.shard_to_bytes.bytes", len(result))]


def _eval_requests(args, kwargs, result):
    return [("execution.evaluate_cohort.requests", len(args[1]))]


def _encode_bytes(args, kwargs, result):
    return [
        ("codec.encode.bytes_in", int(args[1].nbytes)),
        ("codec.encode.bytes_out", len(result)),
    ]


def _decode_bytes(args, kwargs, result):
    return [
        ("codec.decode.bytes_in", len(args[1])),
        ("codec.decode.bytes_out", int(result.nbytes)),
    ]


_PROTOCOL_ENCODERS = (
    "encode_train", "encode_eval", "encode_eval_model", "encode_broadcast",
    "encode_bind_eval", "encode_assign", "encode_assign_shard",
    "encode_welcome",
)
_PROTOCOL_DECODERS = (
    "decode_update", "decode_eval_result", "decode_eval_model_result",
    "decode_hello", "decode_telemetry", "decode_trainfail",
)


def _target(name: str, path: str, fold: bool = False,
            counts: Optional[Callable] = None) -> tuple:
    """One static wrap target: span name, ``"module:attr.path"``, whether
    its spans are folded per round, and an optional counter hook.  The
    executor and codec classes differ per workload and are wrapped through
    :meth:`Tracer.wrap_executor` / :meth:`Tracer.wrap_codec` instead."""
    return (name, path, fold, counts)


STATIC_TARGETS = [
    _target("experiments.build", "repro.experiments.scenarios:build_scenario"),
    _target("experiments.build", "repro.experiments.scenarios:build_population_scenario"),
    _target("tifl.profile", "repro.tifl.server:profile_clients"),
    _target("tifl.build_tiers", "repro.tifl.server:build_tiers"),
    _target("tifl.select", "repro.tifl.scheduler:TierScheduler.select"),
    _target("tifl.observe", "repro.tifl.scheduler:TierScheduler.observe"),
    _target("tifl.observe", "repro.tifl.scheduler:TierScheduler.record_tier_accuracies"),
    _target("fl.round", "repro.fl.server:FLServer.run_round"),
    _target("fl.select", "repro.fl.selection:RandomSelector.select"),
    _target("fl.available", "repro.fl.server:FLServer.available_clients"),
    _target("fl.aggregate", "repro.fl.server:fedavg"),
    _target("simcluster.materialize", "repro.simcluster.population:PopulationStore.materialize", fold=True),
    _target("simcluster.available_ids", "repro.simcluster.population:PopulationStore.available_ids"),
    _target("simcluster.latency", "repro.simcluster.latency:CohortLatencySampler.sample_cohort"),
    _target("simcluster.latency", "repro.simcluster.client:SimClient.response_latency", fold=True),
    _target("simcluster.clock", "repro.simcluster.clock:SimulatedClock.advance"),
    _target("simcluster.shard", "repro.simcluster.population:PopulationStore.shard"),
    _target("serialization.shard_to_bytes", "repro.distributed.coordinator:shard_to_bytes", counts=_blob_bytes),
    _target("simcluster.client_train", "repro.simcluster.client:SimClient.train", fold=True),
    _target("simcluster.client_eval", "repro.simcluster.client:SimClient.evaluate", fold=True),
    _target("nn.forward", "repro.nn.model:Sequential.forward", fold=True),
    _target("nn.backward", "repro.nn.model:Sequential.backward", fold=True),
    _target("nn.loss", "repro.nn.model:softmax_cross_entropy", fold=True),
    _target("nn.optimizer", "repro.nn.optimizers:RMSprop.update", fold=True),
    _target("nn.optimizer", "repro.nn.optimizers:SGD.update", fold=True),
    _target("nn.train_step", "repro.nn.model:Sequential.train_step", fold=True, counts=_train_samples),
    _target("nn.evaluate", "repro.nn.model:Sequential.evaluate", fold=True, counts=_eval_samples),
    _target("nn.set_weights", "repro.nn.model:Sequential.set_flat_weights", fold=True),
    _target("nn.get_weights", "repro.nn.model:Sequential.get_flat_weights", fold=True),
    _target("distributed.send", "repro.distributed.transport:Connection.send", counts=_frame_bytes),
    _target("distributed.recv", "repro.distributed.transport:Connection.recv", counts=_recv_bytes),
] + [
    _target("distributed.encode_frames", "repro.distributed.protocol:" + fn)
    for fn in _PROTOCOL_ENCODERS
] + [
    _target("distributed.decode_frames", "repro.distributed.protocol:" + fn)
    for fn in _PROTOCOL_DECODERS
]

EXECUTOR_METHODS = (
    ("execution.bind", "bind", None),
    ("execution.bind", "bind_eval_data", None),
    ("execution.train_cohort", "train_cohort", None),
    ("execution.evaluate_cohort", "evaluate_cohort", _eval_requests),
    ("execution.evaluate_model", "evaluate_model", None),
    ("execution.close", "close", None),
)

def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile (numpy's default rule)."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


#: Stat slots of one (phase, name) row.
CALLS, BUSY, SELF, FAILED = range(4)


class _ThreadState:
    """Per-thread recorder: no cross-thread read-modify-write anywhere."""

    def __init__(self, tid: int, main: bool) -> None:
        self.tid = tid
        self.main = main
        self.stack: List[list] = []
        self.stats: Dict[Tuple[str, str], List[float]] = {}
        self.folded: Dict[Tuple[int, str, str], List[float]] = {}
        self.spans: List[tuple] = []
        self.counters: Dict[Tuple[str, str], float] = {}


class Tracer:
    def __init__(self) -> None:
        self.origin = perf_counter()
        #: ``setup`` -> ``run`` -> ``close``; set by the child.
        self.phase = "setup"
        #: The round in flight -- the identifier every span of it shares.
        self.round = 0
        self.missing: List[str] = []
        #: Span and counter names with at least one live wrapper.
        self.installed: set = set()
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()

    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            tid = threading.get_ident()
            st = _ThreadState(tid, tid == self._main)
            self._local.state = st
            with self._states_lock:
                self._states.append(st)
        return st

    def count(self, counter: str, value: float = 1) -> None:
        st = self._state()
        key = (self.phase, counter)
        st.counters[key] = st.counters.get(key, 0) + value

    def wrap(self, fn: Callable, name: str, fold: bool = False,
             counts: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            parent = stack[-1] if stack else None
            # frame: [name, child seconds, span id (0 when folded)]
            frame = [name, 0.0, 0 if fold else next(tracer._ids)]
            stack.append(frame)
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                key = (tracer.phase, name)
                row = st.stats.get(key)
                if row is None:
                    row = st.stats[key] = [0, 0.0, 0.0, 0]
                row[CALLS] += 1
                row[BUSY] += dur
                row[SELF] += dur - frame[1]
                if failed:
                    row[FAILED] += 1
                elif counts is not None:
                    for counter, value in counts(args, kwargs, result):
                        ckey = (tracer.phase, counter)
                        st.counters[ckey] = st.counters.get(ckey, 0) + value
                if fold:
                    fkey = (tracer.round, name, parent[0] if parent else "")
                    cell = st.folded.get(fkey)
                    if cell is None:
                        st.folded[fkey] = [1, dur]
                    else:
                        cell[0] += 1
                        cell[1] += dur
                else:
                    st.spans.append(
                        (name, start, end, frame[2],
                         parent[2] if parent else 0, tracer.round)
                    )

        wrapper.__perf_wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, name: str, fold: bool, counts) -> bool:
        """Replace ``owner.attr`` with its span-recording wrapper."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return False
        if getattr(fn, "__perf_wrapped__", None) is None:
            setattr(owner, attr, self.wrap(fn, name, fold, counts))
        self.installed.add(name)
        return True

    def install(self) -> None:
        """Wrap every static target; a missing one is recorded, never fatal."""
        for name, path, fold, counts in STATIC_TARGETS:
            module_name, _, attr_path = path.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = attr_path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
            except (ImportError, AttributeError):
                self.missing.append(path)
                continue
            if not self._patch(owner, attr, name, fold, counts):
                self.missing.append(path)
        self._count_clock_events()

    def _count_clock_events(self) -> None:
        """``simcluster.clock.events``: count callbacks as they fire by
        wrapping each one on its way through ``SimulatedClock.schedule``."""
        try:
            from repro.simcluster.clock import SimulatedClock

            schedule = SimulatedClock.schedule
        except (ImportError, AttributeError):
            self.missing.append("repro.simcluster.clock:SimulatedClock.schedule")
            return
        if getattr(schedule, "__perf_wrapped__", None) is not None:
            return
        tracer = self

        def counting_schedule(clock, when, callback):
            def fire(clk):
                tracer.count("simcluster.clock.events")
                return callback(clk)

            return schedule(clock, when, fire)

        counting_schedule.__perf_wrapped__ = schedule
        SimulatedClock.schedule = counting_schedule
        self.installed.add("simcluster.clock.events")

    def wrap_executor(self, executor_cls) -> None:
        for name, attr, counts in EXECUTOR_METHODS:
            if not self._patch(executor_cls, attr, name, False, counts):
                self.missing.append(f"{executor_cls.__name__}.{attr}")

    def wrap_codec(self, codec_cls) -> None:
        for name, attr, counts in (
            ("codec.encode", "encode", _encode_bytes),
            ("codec.decode", "decode", _decode_bytes),
        ):
            if not self._patch(codec_cls, attr, name, False, counts):
                self.missing.append(f"{codec_cls.__name__}.{attr}")

    # ------------------------------------------------------------------
    # reduction
    # ------------------------------------------------------------------
    def stat(self, phase: str, name: str, slot: int,
             main_only: bool = False) -> float:
        total = 0.0
        for st in list(self._states):
            if main_only and not st.main:
                continue
            row = st.stats.get((phase, name))
            if row is not None:
                total += row[slot]
        return total

    def counter(self, phase: str, counter: str) -> float:
        return sum(
            st.counters.get((phase, counter), 0) for st in list(self._states)
        )

    def durations(self, name: str, first_round: int) -> List[float]:
        """Main-thread durations of the kept spans ``name`` from
        ``first_round`` on."""
        return [
            end - start
            for st in list(self._states) if st.main
            for span, start, end, _, _, round_idx in st.spans
            if span == name and round_idx >= first_round
        ]

    def wrapped(self, name: str) -> bool:
        return name in self.installed

    def dump(self, path: str, meta: dict) -> None:
        """Write the kept spans as Chrome trace-event JSON (Perfetto opens
        it); the folded per-round records ride along under ``folded``."""
        pid = os.getpid()
        events = []
        folded = []
        for st in list(self._states):
            events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": st.tid,
                "args": {"name": "main" if st.main else f"thread-{st.tid}"},
            })
            for name, start, end, span_id, parent_id, round_idx in st.spans:
                events.append({
                    "name": name, "cat": name.split(".", 1)[0], "ph": "X",
                    "ts": (start - self.origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": pid, "tid": st.tid,
                    "args": {"id": span_id, "parent": parent_id,
                             "round": round_idx},
                })
            for (round_idx, name, parent), (calls, total) in st.folded.items():
                folded.append({
                    "round": round_idx, "name": name, "parent": parent,
                    "tid": st.tid, "calls": calls, "total_s": total,
                })
        with open(path, "w") as fh:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms",
                 "folded": folded, "meta": meta},
                fh,
            )


# ----------------------------------------------------------------------
# the per-layer table
# ----------------------------------------------------------------------
_SLOTS = {"calls": CALLS, "busy_s": BUSY, "self_s": SELF}

#: (span name, phase, stats) rows of the table; README.md says which
#: end-to-end metric each should move, on which workload.
_SPAN_ROWS = (
    ("experiments.build", "setup", ("busy_s",)),
    ("tifl.profile", "setup", ("calls", "busy_s")),
    ("tifl.build_tiers", "setup", ("calls", "busy_s")),
    ("simcluster.shard", "setup", ("calls", "busy_s")),
    ("serialization.shard_to_bytes", "setup", ("calls", "busy_s")),
    ("execution.bind", "setup", ("busy_s",)),
    ("execution.close", "close", ("busy_s",)),
    ("tifl.select", "run", ("calls", "busy_s")),
    ("tifl.observe", "run", ("calls", "busy_s")),
    ("fl.round", "run", ("calls", "busy_s", "self_s")),
    ("fl.select", "run", ("calls", "busy_s")),
    ("fl.available", "run", ("calls", "busy_s")),
    ("fl.aggregate", "run", ("calls", "busy_s")),
    ("simcluster.materialize", "run", ("calls", "busy_s")),
    ("simcluster.available_ids", "run", ("calls", "busy_s")),
    ("simcluster.latency", "run", ("calls", "busy_s")),
    ("simcluster.clock", "run", ("calls", "busy_s")),
    ("simcluster.client_train", "run", ("calls", "busy_s", "self_s")),
    ("simcluster.client_eval", "run", ("calls", "busy_s", "self_s")),
    ("execution.train_cohort", "run", ("calls", "busy_s", "self_s")),
    ("execution.evaluate_cohort", "run", ("calls", "busy_s", "self_s")),
    ("execution.evaluate_model", "run", ("calls", "busy_s", "self_s")),
    ("nn.forward", "run", ("calls", "busy_s", "self_s")),
    ("nn.backward", "run", ("calls", "busy_s", "self_s")),
    ("nn.loss", "run", ("calls", "busy_s", "self_s")),
    ("nn.optimizer", "run", ("calls", "busy_s", "self_s")),
    ("nn.train_step", "run", ("calls", "busy_s", "self_s")),
    ("nn.evaluate", "run", ("calls", "busy_s", "self_s")),
    ("nn.set_weights", "run", ("calls", "busy_s")),
    ("nn.get_weights", "run", ("calls", "busy_s")),
    ("codec.encode", "run", ("calls", "busy_s")),
    ("codec.decode", "run", ("calls", "busy_s")),
    ("distributed.encode_frames", "run", ("calls", "busy_s")),
    ("distributed.decode_frames", "run", ("calls", "busy_s")),
    ("distributed.send", "run", ("calls", "busy_s")),
    ("distributed.recv", "run", ("calls", "busy_s")),
)

#: (counter, phase, the span whose wrapper feeds it).
_COUNTER_ROWS = (
    ("serialization.shard_to_bytes.bytes", "setup", "serialization.shard_to_bytes"),
    ("simcluster.clock.events", "run", "simcluster.clock.events"),
    ("execution.evaluate_cohort.requests", "run", "execution.evaluate_cohort"),
    ("nn.evaluate.samples", "run", "nn.evaluate"),
    ("nn.train_samples", "run", "nn.train_step"),
    ("codec.encode.bytes_in", "run", "codec.encode"),
    ("codec.encode.bytes_out", "run", "codec.encode"),
    ("codec.decode.bytes_in", "run", "codec.decode"),
    ("codec.decode.bytes_out", "run", "codec.decode"),
    ("distributed.send.bytes", "run", "distributed.send"),
    ("distributed.recv.bytes", "run", "distributed.recv"),
)


def layer_metrics(tr: Tracer, facts: dict) -> Dict[str, Optional[float]]:
    """Reduce the traced child's spans and counters to the layer table.

    ``None`` means "could not be measured": the wrap target is gone (see
    ``trace.missing_targets``) or the backend does not keep the counter.
    ``self_s`` is main-thread only; ``busy_s`` and ``calls`` sum every
    thread (the coordinator's reader threads block in ``recv``).
    """
    m: Dict[str, Optional[float]] = {}
    for name, phase, stats in _SPAN_ROWS:
        for stat_name in stats:
            slot = _SLOTS[stat_name]
            m[f"{name}.{stat_name}"] = (
                tr.stat(phase, name, slot, main_only=slot == SELF)
                if tr.wrapped(name) else None
            )
    for counter, phase, feeder in _COUNTER_ROWS:
        m[counter] = tr.counter(phase, counter) if tr.wrapped(feeder) else None

    # Round 0's train_cohort forces fork / HELLO-WELCOME / shard shipping.
    m["execution.warmup_round.busy_s"] = (
        tr.stat("setup", "execution.train_cohort", BUSY)
        if tr.wrapped("execution.train_cohort") else None
    )
    m["execution.failed_requests"] = sum(
        tr.stat(phase, name, FAILED)
        for phase in ("setup", "run", "close")
        for name in ("execution.train_cohort", "execution.evaluate_cohort",
                     "execution.evaluate_model")
    )
    calls = m["simcluster.materialize.calls"]
    m["simcluster.materialize.hit_ratio"] = (
        1.0 - facts["materialized_run"] / calls if calls else None
    )
    bytes_in = m["codec.encode.bytes_in"]
    m["codec.ratio"] = m["codec.encode.bytes_out"] / bytes_in if bytes_in else None

    per_round = facts["per_round"]
    m["execution.ipc_bytes_per_round"] = per_round.get("ipc_bytes")
    m["execution.worker_peak_rss_mb"] = facts["worker_peak_rss_mb"]
    m["distributed.setup_bytes"] = facts["setup_wire_bytes"]
    m["distributed.wire_bytes_per_round"] = per_round.get("wire_bytes")
    m["distributed.broadcast_bytes_per_round"] = per_round.get("broadcast_bytes")
    m["distributed.update_bytes_per_round"] = per_round.get("update_bytes")
    m["distributed.workers_lost"] = facts["workers_lost"]
    m["distributed.worker_busy_share"] = facts["worker_busy_share"]

    run_s = facts["run_s"]
    in_rounds = tr.stat("run", "fl.round", BUSY, main_only=True)
    glue = tr.stat("run", "fl.round", SELF, main_only=True)
    # The tail percentile lives here, not among the bounded end-to-end
    # metrics: it does not repeat within a bound on a shared 2-core box.
    round_spans = tr.durations("fl.round", first_round=1)
    m["fl.round.p90_s"] = quantile(round_spans, 0.9) if round_spans else None
    m["trace.unattributed_share"] = (
        (glue + (run_s - in_rounds)) / run_s
        if run_s > 0 and tr.wrapped("fl.round") else None
    )
    m["trace.missing_targets"] = len(tr.missing)
    # trace.overhead_share needs the untraced run_s: bench.py adds it.
    return m

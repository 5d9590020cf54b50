"""Unit tests for the process-wide metrics registry and span API.

The two load-bearing properties: disabled telemetry is *free* (shared
no-op singletons, no state mutation), and enabled telemetry only ever
touches monotonic/wall clocks -- numpy's RNG is never read, which the
bit-identity suite (``test_bit_identity.py``) verifies end to end.
"""

from __future__ import annotations

import threading

import pytest

from repro import telemetry
from repro.telemetry.core import _NOOP_METRIC, _NOOP_SPAN


class TestDisabledIsFree:
    def test_disabled_returns_shared_noop_singletons(self):
        assert not telemetry.enabled()
        assert telemetry.counter("x") is _NOOP_METRIC
        assert telemetry.gauge("x") is _NOOP_METRIC
        assert telemetry.histogram("x") is _NOOP_METRIC
        assert telemetry.span("x") is _NOOP_SPAN

    def test_disabled_records_nothing(self):
        telemetry.count("c", 5)
        telemetry.observe("h", 0.1)
        with telemetry.span("s"):
            pass
        snap = telemetry.snapshot()
        assert snap["counters"] == {}
        assert snap["histograms"] == {}
        assert snap["spans"] == {}


class TestRegistry:
    def test_counter_accumulates_and_labels_partition(self):
        telemetry.configure(enabled=True)
        telemetry.count("frames", 1, msg_type="TRAIN")
        telemetry.count("frames", 2, msg_type="TRAIN")
        telemetry.count("frames", 7, msg_type="EVAL")
        snap = telemetry.snapshot()
        assert snap["counters"]["frames{msg_type=TRAIN}"] == 3
        assert snap["counters"]["frames{msg_type=EVAL}"] == 7

    def test_gauge_is_last_write_wins(self):
        telemetry.configure(enabled=True)
        telemetry.gauge("busy").set(1.5)
        telemetry.gauge("busy").set(0.25)
        assert telemetry.snapshot()["gauges"]["busy"] == 0.25

    def test_histogram_stats_and_percentiles(self):
        telemetry.configure(enabled=True)
        h = telemetry.histogram("lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v)
        d = h.to_dict()
        assert d["count"] == 4
        assert d["sum"] == pytest.approx(6.05)
        assert d["min"] == 0.05
        assert d["max"] == 5.0
        # bucket-resolution upper bounds
        assert h.percentile(0.5) == 1.0
        assert h.percentile(1.0) == 10.0
        assert [n for _, n in d["buckets"]] == [1, 2, 1, 0]

    def test_histogram_rejects_bad_buckets(self):
        telemetry.configure(enabled=True)
        with pytest.raises(ValueError, match="strictly increasing"):
            telemetry.histogram("bad", buckets=(1.0, 1.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            telemetry.histogram("bad2", buckets=(2.0, 1.0))

    def test_histogram_overflow_bucket(self):
        telemetry.configure(enabled=True)
        h = telemetry.histogram("o", buckets=(1.0,))
        h.observe(100.0)
        assert h.to_dict()["buckets"][-1] == ["+inf", 1]

    def test_same_name_same_labels_is_same_object(self):
        telemetry.configure(enabled=True)
        assert telemetry.counter("c", a=1) is telemetry.counter("c", a=1)
        assert telemetry.counter("c", a=1) is not telemetry.counter("c", a=2)

    def test_counter_threads_do_not_lose_increments(self):
        telemetry.configure(enabled=True)
        c = telemetry.counter("racy")

        def bump():
            for _ in range(1000):
                c.add(1)

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 4000


class TestSpans:
    def test_snapshot_rolls_spans_up_per_name(self):
        telemetry.configure(enabled=True)
        for _ in range(3):
            with telemetry.span("fl.round"):
                pass
        roll = telemetry.snapshot()["spans"]["fl.round"]
        assert roll["count"] == 3
        assert roll["total_s"] >= 0

    def test_shutdown_stops_collection_but_keeps_registry(self):
        telemetry.configure(enabled=True)
        telemetry.count("c", 1)
        telemetry.shutdown()
        assert not telemetry.enabled()
        telemetry.count("c", 1)  # no-op now
        assert telemetry.snapshot()["counters"]["c"] == 1

    def test_reset_wipes_everything(self):
        telemetry.configure(enabled=True)
        telemetry.count("c", 1)
        with telemetry.span("s"):
            pass
        telemetry.reset()
        snap = telemetry.snapshot()
        assert snap["counters"] == {}
        assert snap["spans"] == {}

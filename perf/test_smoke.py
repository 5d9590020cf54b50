"""Self-test of the benchmark harness (about a minute).

    python -m pytest perf/test_smoke.py -q

Not part of the tier-1 suite (``pyproject.toml`` collects ``tests/``
only): it spawns worker processes and TCP workers, which is the
benchmark's job, not a unit test's.
"""

import json
import os
import re
import subprocess
import sys

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
sys.path.insert(0, PERF_DIR)

import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_meets_the_contract():
    spec = _spec()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["paths"] == ["perf"]
    assert spec["command"] == ["python3", "perf/bench.py"]
    assert spec["run_seconds"] == workloads.RUN_SECONDS
    assert 1 <= spec["run_seconds"] <= 60

    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS
    ]
    assert 2 <= len(spec["workloads"]) <= 8
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]

    assert 1 <= len(spec["end_to_end"]) <= 16
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])

    assert 1 <= len(spec["per_layer"]) <= 128
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}

    names = [m["name"] for m in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024


def test_smoke_run_passes_every_check_and_compares_equal(tmp_path):
    out = str(tmp_path / "smoke.json")
    run = subprocess.run(
        [sys.executable, os.path.join(PERF_DIR, "bench.py"), "--smoke", "--out", out],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    with open(out) as fh:
        payload = json.load(fh)
    assert payload["provenance"]["cpu_count"] == os.cpu_count()

    spec = _spec()
    layer_names = {m["name"] for m in spec["per_layer"]}
    assert [r["workload"] for r in payload["results"]] == [
        w.name for w in workloads.WORKLOADS
    ]
    for res in payload["results"]:
        assert res["failures"] == [] and res["failed"] == 0
        assert res["history_digest"]
        assert set(res["per_layer"]) == layer_names
        assert res["missing_targets"] == []
        for metric in spec["end_to_end"]:
            assert all(v > 0 for v in res["end_to_end"][metric["name"]])
        wire = res["end_to_end"]["wire_bytes_per_round"]
        assert (wire[0] is not None) == res["workload"].startswith("loopback")
        with open(os.path.join(ROOT, res["trace_file"])) as fh:
            assert json.load(fh)["traceEvents"]

    same = subprocess.run(
        [sys.executable, os.path.join(PERF_DIR, "bench.py"), "--compare", out, out],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert same.returncode == 0, same.stdout[-2000:]
    assert "0 pair(s) regressed" in same.stdout

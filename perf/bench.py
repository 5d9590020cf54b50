"""The repo's one benchmark: six workloads, end-to-end + per-layer metrics.

    python perf/bench.py                       # all workloads, 3 repeats each
    python perf/bench.py --trace               # ... plus the per-layer table
    python perf/bench.py --smoke               # 1/20 size, checks only (<1 min)
    python perf/bench.py --compare A.json B.json
    python perf/bench.py --workload W --seed N --seconds S --trace 0|1
                                               # the BENCHMARK.json contract

Closed loop, fixed work: each workload runs in fresh child processes
(``child.py``), one at a time, for a number of rounds that depends only
on ``--seconds``.  See README.md for the protocol and what each metric
means; BENCHMARK.json declares the metric names, units and bounds this
command is checked against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
sys.path.insert(0, PERF_DIR)

import workloads  # noqa: E402
from spans import quantile  # noqa: E402
from workloads import RESULT_MARKER  # noqa: E402

CHILD_TIMEOUT_S = 150
#: Set-up is measured this many times per run (full + set-up-only children).
SETUP_SAMPLES = 3
#: End-to-end metrics the suite table reports beyond BENCHMARK.json's, with
#: the (unit, bound) ``--compare`` applies.  BENCHMARK.json may carry no
#: metric that is ever 0 or absent on a workload, and every metric it does
#: carry must repeat within its bound on this box.
SUITE_ONLY = {
    # Too noisy on a shared 2-core box to carry a bound (README.md).
    "round_s_p90": ("s", 0.25),
    "wire_bytes_per_round": ("B", 0.01),
    "failed_ops_share": ("ratio", 0.0),
}


class ChildCrashed(RuntimeError):
    """A child produced no result at all (as opposed to a failed check)."""


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------
def run_child(workload: str, seed: int, rounds: int, stop_after=None,
              executor=None, trace_out=None) -> dict:
    cmd = [sys.executable, os.path.join(PERF_DIR, "child.py"),
           "--workload", workload, "--seed", str(seed), "--rounds", str(rounds)]
    if stop_after is not None:
        cmd += ["--stop-after", str(stop_after)]
    if executor is not None:
        cmd += ["--executor", executor]
    if trace_out is not None:
        cmd += ["--trace-out", trace_out]
    # Own session: a hung child is killed with every worker it started.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildCrashed(f"{workload}: child exceeded {CHILD_TIMEOUT_S}s")
    for line in reversed(out.splitlines()):
        if line.startswith(RESULT_MARKER):
            return json.loads(line[len(RESULT_MARKER):])
    raise ChildCrashed(
        f"{workload}: child exited {proc.returncode} without a result\n"
        + err[-2000:]
    )


def measure_workload(w, seed: int, rounds: int, repeats: int, traced: bool,
                     prime: bool, setup_samples: int, out_dir: str) -> dict:
    """Run one workload's children and fold them into per-metric samples."""
    if prime:  # page cache / .pyc; discarded
        run_child(w.name, seed, rounds, stop_after=0)
    full = [run_child(w.name, seed, rounds) for _ in range(repeats)]
    setup_only = [
        run_child(w.name, seed, rounds, stop_after=0)
        for _ in range(max(0, setup_samples - repeats))
    ]
    children = full + setup_only
    if w.reference:
        children.append(run_child(
            w.name, seed, rounds, executor="serial",
            stop_after=min(workloads.PREFIX_ROUNDS, rounds),
        ))
    trace_path = None
    if traced:
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(out_dir, f"trace-{w.name}.json")
        children.append(run_child(w.name, seed, rounds, trace_out=trace_path))

    failures = [f for c in children for f in c["failures"]]
    # Same seed => same history, whatever the backend, traced or not: the
    # children must agree on every digest they share (round 0, the
    # PREFIX_ROUNDS prefix the serial reference replays, the full run).
    digests: Dict[str, str] = {}
    for c in children:
        for key, value in c["digests"].items():
            if digests.setdefault(key, value) != value:
                failures.append(
                    f"history digest after round {key} differs between "
                    f"children (executor={c['executor']}, traced={c['traced']})"
                )
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    if failures:
        failed = attempted

    samples = {
        "setup_s": [c["setup_s"] for c in full + setup_only],
        "run_s": [c["run_s"] for c in full],
        "round_s_p50": [statistics.median(c["round_s"]) for c in full],
        "round_s_p90": [quantile(c["round_s"], 0.9) for c in full],
        "peak_rss_mb": [c["peak_rss_mb"] for c in full],
        "wire_bytes_per_round": [c["wire_bytes_per_round"] for c in full],
        "failed_ops_share": [failed / attempted],
    }
    result = {
        "workload": w.name,
        "rounds": rounds,
        "round_samples": len(full[0]["round_s"]),
        "history_digest": digests.get(str(rounds)),
        "digests": digests,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "end_to_end": samples,
        "round_s": [c["round_s"] for c in full],
        "numpy": full[0]["numpy"],
    }
    if traced:
        layers = children[-1]["layers"]
        untraced = statistics.median(samples["run_s"])
        layers["trace.overhead_share"] = children[-1]["run_s"] / untraced - 1.0
        result["per_layer"] = layers
        result["missing_targets"] = children[-1]["missing_targets"]
        result["trace_file"] = os.path.relpath(trace_path, ROOT)
    return result


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float) and value != int(value):
        return f"{value:.6g}"
    return str(int(value))


def print_tables(results: List[dict], spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update({name: unit for name, (unit, _) in SUITE_ONLY.items()})
    print("workload · metric · median · min · max · n · unit")
    for res in results:
        for name, values in res["end_to_end"].items():
            present = [v for v in values if v is not None]
            stats = (
                (statistics.median(present), min(present), max(present))
                if present else (None, None, None)
            )
            n = res["round_samples"] if name.startswith("round_s") else len(present)
            print(f"{res['workload']} · {name} · "
                  + " · ".join(_fmt(v) for v in stats)
                  + f" · {n} · {units[name]}")
        print(f"{res['workload']} · history_digest · {res['history_digest']}")
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for res in results:
        if "per_layer" not in res:
            continue
        print(f"\nper-layer ({res['workload']}, one traced child) · value · unit")
        for name, value in res["per_layer"].items():
            print(f"{res['workload']} · {name} · {_fmt(value)} · "
                  f"{layer_units.get(name, '?')}")
        if res["missing_targets"]:
            print(f"{res['workload']} · trace.missing_targets: "
                  + ", ".join(res["missing_targets"]))


def check_names(results: List[dict], spec: dict) -> List[str]:
    """The output must carry exactly the names BENCHMARK.json declares."""
    problems = []
    want_e2e = {m["name"] for m in spec["end_to_end"]} | set(SUITE_ONLY)
    want_layers = {m["name"] for m in spec["per_layer"]}
    for res in results:
        got = set(res["end_to_end"])
        if got != want_e2e:
            problems.append(
                f"{res['workload']}: end-to-end names differ from "
                f"BENCHMARK.json: {sorted(got ^ want_e2e)}"
            )
        if "per_layer" in res and set(res["per_layer"]) != want_layers:
            problems.append(
                f"{res['workload']}: per-layer names differ from "
                f"BENCHMARK.json: {sorted(set(res['per_layer']) ^ want_layers)}"
            )
    return problems


def provenance(seed: int, seconds: float, numpy_version: str) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {
        "git_sha": sha,
        "seed": seed,
        "seconds": seconds,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cpu_count": os.cpu_count(),
        "sched_affinity": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "blas_threads_env": {
            v: "1" for v in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "python": platform.python_version(),
        "numpy": numpy_version,
        "workers": workloads.WORKERS,
    }


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def compare(path_a: str, path_b: str, spec: dict) -> int:
    """Judge B against A, metric by metric, with the benchmark's bounds."""
    a, b = ({r["workload"]: r for r in _load(path)["results"]}
            for path in (path_a, path_b))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bounds.update({name: bound for name, (_, bound) in SUITE_ONLY.items()})
    bad = 0
    print("workload · metric · A median · B median · change · bound · verdict")
    for name in a:
        if name not in b:
            continue
        for metric, bound in bounds.items():
            va = [v for v in a[name]["end_to_end"][metric] if v is not None]
            vb = [v for v in b[name]["end_to_end"][metric] if v is not None]
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / ma if ma else (0.0 if mb == ma else float("inf"))
            # All metrics are lower-is-better.
            verdict = ("regressed" if change > bound
                       else "improved" if change < -bound else "unchanged")
            noisy = any(
                (max(v) - min(v)) > bound * statistics.median(v) for v in (va, vb)
            )
            separated = max(vb) < min(va) or min(vb) > max(va)
            if verdict == "unchanged" and noisy and not separated:
                verdict = "unresolved"
            bad += verdict in ("regressed", "unresolved")
            print(f"{name} · {metric} · {_fmt(ma)} · {_fmt(mb)} · "
                  f"{change:+.2%} · {bound:.0%} · {verdict}")
        same = a[name]["history_digest"] == b[name]["history_digest"]
        bad += not same
        print(f"{name} · history_digest · {'identical' if same else 'DIFFERENT'}")
    print(f"{bad} pair(s) regressed, unresolved or different")
    return 1 if bad else 0


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.BY_NAME),
                    help="run one workload and print the BENCHMARK.json "
                         "contract's result object as the last line")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help=f"size of the measured section (default "
                         f"{workloads.RUN_SECONDS}); rounds scale linearly")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    help="also run one traced child per workload")
    ap.add_argument("--repeats", type=int, default=None,
                    help="untraced full children per workload "
                         "(default 3; 1 with --workload or --smoke)")
    ap.add_argument("--smoke", action="store_true",
                    help="1/20 of the rounds, traced, one repeat: exercises "
                         "every check and the schema, measures nothing")
    ap.add_argument("--out", default=os.path.join(PERF_DIR, "out"),
                    help="JSON file, or directory for it and the traces")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = ap.parse_args(argv)
    spec = _load(os.path.join(ROOT, "BENCHMARK.json"))
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)

    contract = args.workload is not None
    seconds = args.seconds if args.seconds is not None else workloads.RUN_SECONDS
    traced = bool(args.trace)
    if args.smoke:
        seconds, traced = workloads.RUN_SECONDS / 20.0, True
    repeats = args.repeats or (1 if contract or args.smoke else 3)
    selected = [workloads.BY_NAME[args.workload]] if contract else workloads.WORKLOADS
    if args.out.endswith(".json"):
        out_file, out_dir = args.out, os.path.dirname(os.path.abspath(args.out))
    else:
        tag = args.workload or ("smoke" if args.smoke else "all")
        out_dir = args.out
        out_file = os.path.join(out_dir, f"bench-{tag}-seed{args.seed}.json")

    results = []
    try:
        for w in selected:
            results.append(measure_workload(
                w, args.seed, w.rounds_for(seconds), repeats, traced,
                prime=not (contract or args.smoke),
                # A traced contract run reports per-layer numbers only, and
                # a smoke run measures nothing: no extra set-up samples.
                setup_samples=1 if traced and (contract or args.smoke)
                else SETUP_SAMPLES,
                out_dir=out_dir,
            ))
    except ChildCrashed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print_tables(results, spec)
    problems = check_names(results, spec)
    failures = [f"{r['workload']}: {f}" for r in results for f in r["failures"]]
    for line in problems + failures:
        print(f"FAILED {line}", file=sys.stderr)
    os.makedirs(out_dir, exist_ok=True)
    with open(out_file, "w") as fh:
        json.dump({"provenance": provenance(args.seed, seconds, results[0]["numpy"]),
                   "smoke": args.smoke, "results": results}, fh, indent=1)
    print(f"wrote {os.path.relpath(out_file)}")

    if contract and not problems:
        res = results[0]
        declared = spec["per_layer"] if traced else spec["end_to_end"]
        source = res["per_layer"] if traced else {
            k: statistics.median(v) for k, v in res["end_to_end"].items()
            if k not in SUITE_ONLY
        }
        print(json.dumps({
            "correct": not res["failures"],
            "attempted": res["attempted"],
            "failed": res["failed"],
            # A layer that could not be measured reads 0 here (the contract
            # wants numbers); trace.missing_targets says how many.
            "metrics": {
                m["name"]: {"value": source[m["name"]] or 0, "unit": m["unit"]}
                for m in declared
            },
        }))
    return 1 if problems or failures else 0


if __name__ == "__main__":
    sys.exit(main())

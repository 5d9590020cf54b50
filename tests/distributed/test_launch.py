"""How local workers are launched, and the launch a remote node uses.

``spawn_local_workers`` forks each worker from the coordinator; the
child must behave like the fresh ``python -m repro.cli worker`` a remote
node starts: no copy of the coordinator's listener, no lines in the
coordinator's trace file, stderr where it was asked to go, and the
capacity it was given.  The fresh-interpreter command itself stays
under the serial bit-identity bar here, because a remote worker re-draws
the pool from its recipe with an empty memo.
"""

import json
import os
import select
import socket
import subprocess
import sys
import time

import pytest

from repro import telemetry
from repro.distributed import (
    DistributedExecutor,
    spawn_local_workers,
    terminate_workers,
)
from repro.distributed.worker import EXIT_CONNECTION_LOST, EXIT_OK
from repro.execution import TrainRequest
from repro.nn import build_mlp
from tests.conftest import subprocess_env
from tests.distributed.test_distributed_executor import (
    FAST_TIMEOUTS,
    TRAIN,
    make_pool,
    run_server,
)
from tests.distributed.test_population_sharding import fingerprint, run_population


def test_forked_worker_does_not_keep_the_listener_open():
    """A worker that connected but was never accepted sees the listener
    close: new connections are refused and the worker exits on its own."""
    ex = DistributedExecutor(workers=1, **FAST_TIMEOUTS)
    endpoint = ex.listen()
    procs = spawn_local_workers(endpoint, 1)
    try:
        # Readable means a connection waits in the accept queue.
        readable, _, _ = select.select([ex._listener], [], [], 30.0)
        assert readable, "the worker never connected"
        # Let it send HELLO before the close.  A local agent dials once,
        # so a reset that lands earlier ends it the same way (connection
        # lost): the wait only fixes which path the close takes.
        time.sleep(0.5)
    finally:
        ex.close()
    host, port = endpoint.rsplit(":", 1)
    try:
        refused = False
        socket.create_connection((host, int(port)), timeout=5.0).close()
    except ConnectionRefusedError:
        refused = True
    codes = terminate_workers(procs)
    assert refused, "a copy of the closed listener still accepts connections"
    assert codes == [EXIT_CONNECTION_LOST]


def test_workers_of_a_coordinator_closed_before_its_first_cohort_exit_at_once():
    """The agents dial once: whether the close reset their queued
    connection or refused their dial, each exits on its own (code 1)
    instead of retrying a refused endpoint until it is terminated."""
    ex = DistributedExecutor(workers=2, **FAST_TIMEOUTS)
    procs = spawn_local_workers(ex.listen(), 2)
    ex.close()
    start = time.monotonic()
    codes = terminate_workers(procs)
    assert time.monotonic() - start < 2.0
    assert codes == [EXIT_CONNECTION_LOST, EXIT_CONNECTION_LOST]


def test_traced_run_writes_the_coordinators_lines_only(tmp_path):
    """Telemetry on in the coordinator, with trace lines still buffered
    when the workers fork: the file holds each of them once and spans
    from the coordinator's pid only."""
    trace = tmp_path / "loopback.jsonl"
    telemetry.reset()
    telemetry.configure(enabled=True, trace_path=str(trace))
    try:
        with telemetry.span("test.before_fork"):
            pass
        ex = DistributedExecutor(workers=2, **FAST_TIMEOUTS)
        procs = spawn_local_workers(ex.listen(), 2)
        try:
            run_server(ex, rounds=2)
        finally:
            ex.close()
            codes = terminate_workers(procs)
    finally:
        telemetry.flush()
        telemetry.reset()
    assert codes == [EXIT_OK, EXIT_OK]
    counts = telemetry.validate_trace_file(str(trace))
    assert counts["meta"] == 1
    events = [json.loads(line) for line in trace.read_text().splitlines()]
    spans = [e for e in events if e["kind"] == "span"]
    assert {e["pid"] for e in spans} == {os.getpid()}
    assert [e["name"] for e in spans].count("test.before_fork") == 1


def test_log_dir_and_capacities_reach_the_workers(tmp_path):
    pool = make_pool(num_clients=6)
    model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=7)
    ex = DistributedExecutor(workers=2, **FAST_TIMEOUTS)
    ex.bind(pool, model, TRAIN)
    procs = spawn_local_workers(ex.listen(), 2, capacities=[3, 1], log_dir=str(tmp_path))
    try:
        ex.train_cohort(0, [TrainRequest(0)], model.get_flat_weights())
        handles = list(ex._handles.values())
        by_pid = {h.pid: h.capacity for h in handles}
    finally:
        ex.close()
        codes = terminate_workers(procs)
    assert codes == [EXIT_OK, EXIT_OK]
    assert by_pid == {procs[0].pid: 3, procs[1].pid: 1}
    for i in range(2):
        log = (tmp_path / f"worker-{i}.log").read_text()
        assert "registered with coordinator (capacity" in log
        assert "shutdown requested; exiting cleanly" in log


def test_cli_worker_processes_match_serial():
    """What a remote node runs: ``python -m repro.cli worker`` in a new
    interpreter, whose empty memo re-draws the pool from its recipe."""
    ref_history, _ = run_population("serial")
    ex = DistributedExecutor(workers=2, **FAST_TIMEOUTS)
    cmd = [sys.executable, "-m", "repro.cli", "worker", "--connect", ex.listen()]
    env = subprocess_env()
    procs = [subprocess.Popen(cmd, env=env, stderr=subprocess.DEVNULL) for _ in range(2)]
    try:
        history, _ = run_population(ex)
    finally:
        ex.close()
        for proc in procs:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    assert [proc.returncode for proc in procs] == [EXIT_OK, EXIT_OK]
    assert fingerprint(history) == fingerprint(ref_history)


#: Runs in a child interpreter: a ``process`` pool trains one cohort,
#: prints its workers' pids and waits to be killed.
_POOL_COORDINATOR = """
import sys, time
from repro.distributed import ProcessExecutor
from repro.execution import TrainRequest
from repro.nn import build_mlp
from tests.distributed.test_distributed_executor import TRAIN, make_pool

pool = make_pool(num_clients=4)
model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=7)
ex = ProcessExecutor(workers=2)
ex.bind(pool, model, TRAIN)
ex.train_cohort(0, [TrainRequest(c) for c in sorted(pool)], model.get_flat_weights())
print(" ".join(str(ex.worker_pid(w)) for w in range(2)), flush=True)
time.sleep(120)
"""


def _exited(pid):
    """Gone, or a zombie nobody reaped yet."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
def test_local_pool_workers_exit_when_their_coordinator_dies():
    """Each forked worker closes every coordinator-side socketpair end it
    inherited -- its own and its elder sibling's -- so a SIGKILLed
    coordinator reads as EOF in both and neither outlives it."""
    env = subprocess_env()
    env["PYTHONPATH"] += os.pathsep + os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    coordinator = subprocess.Popen(
        [sys.executable, "-c", _POOL_COORDINATOR], env=env, stdout=subprocess.PIPE, text=True
    )
    try:
        pids = [int(p) for p in coordinator.stdout.readline().split()]
        assert len(pids) == 2 and not any(_exited(pid) for pid in pids)
    finally:
        coordinator.kill()
        coordinator.wait(timeout=30)
    deadline = time.monotonic() + 30.0
    while not all(_exited(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert all(_exited(pid) for pid in pids)

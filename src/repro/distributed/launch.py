"""Local worker processes: the ``process`` pool and the loopback helpers.

Both fork their workers from the coordinator (spawn them where ``fork``
is unavailable: :func:`worker_context`), so a worker reaches HELLO
without paying for an interpreter and its imports, and both run the one
:class:`~repro.distributed.worker.WorkerAgent` in the child.  The child
closes every coordinator-side socket it inherited (an at-fork hook in
:mod:`repro.distributed.coordinator`), starts with telemetry off and an
empty registry, and freezes the inherited objects out of the garbage
collector's reach.  What differs is the pipe:

* :class:`ProcessExecutor` (``--executor process``) hands each child one
  end of a ``socket.socketpair()`` and registers the other through the
  coordinator's one handshake path.  There is no listening socket, so
  nothing else on the machine can register, and nothing can join: a dead
  local worker's jobs are re-dealt over the survivors.
* :func:`spawn_local_workers` runs the ``worker`` command in the child
  against a TCP endpoint, the *loopback* topology of the equivalence
  tests and the ``loopback_*`` workloads of ``perf/``: it gets
  everything over TCP, like a remote worker (production deployments
  start ``python -m repro.cli worker`` on each node themselves), and the
  inherited memory only makes its pool re-derivation a memo hit.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import os
import socket
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro import telemetry
from repro.distributed import protocol as proto
from repro.data.partition import FederatedData
from repro.distributed.coordinator import COORDINATOR_SOCKETS, PoolExecutor
from repro.distributed.transport import Connection
from repro.distributed.worker import WorkerAgent
from repro.execution.base import ExecutorError
from repro.simcluster.population import PopulationStore

__all__ = ["ProcessExecutor", "spawn_local_workers", "terminate_workers"]


def worker_context():
    """The ``multiprocessing`` context local workers start in: ``fork``
    where available (cheap: the parent's data is shared copy-on-write),
    else ``spawn``."""
    return mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")


def _run_worker(argv: List[str], stderr_path: Optional[str]) -> None:
    """Child body: ``python -m repro.cli worker <argv>`` in this process.

    ``stderr_path`` (a log file or the null device) replaces fd 2;
    ``None`` keeps the parent's.  ``sys.stderr`` is rebound to fd 2
    either way, as a fresh interpreter's would be.
    """
    gc.freeze()
    telemetry.reset()
    if stderr_path is not None:
        fd = os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        os.dup2(fd, 2)
        os.close(fd)
    sys.stderr = open(2, "w", buffering=1, errors="backslashreplace", closefd=False)
    from repro.cli import main

    sys.exit(main(["worker", *argv]))


class _PairedAgent(WorkerAgent):
    """A worker agent on one end of a socketpair: nothing to dial, so a
    lost connection ends it (there is no second socket to dial)."""

    def __init__(self, sock: socket.socket) -> None:
        super().__init__("", 0, log=open(os.devnull, "w"))
        self._sock: Optional[socket.socket] = sock

    def _connect(self) -> Connection:
        sock, self._sock = self._sock, None
        if sock is None:
            raise ConnectionError("the socketpair to the coordinator is gone")
        return Connection(sock, max_payload=proto.HANDSHAKE_MAX_PAYLOAD)


def _run_paired(sock: socket.socket) -> None:
    """Child body of a :class:`ProcessExecutor` worker."""
    gc.freeze()
    telemetry.reset()
    sys.exit(_PairedAgent(sock).run())


class ProcessExecutor(PoolExecutor):
    """Train cohorts across local worker processes, one socketpair each.

    The coordinator is :class:`~repro.distributed.coordinator.PoolExecutor`
    -- the frames, cost-balanced dealing, collector, codec, eval-set
    shipping and re-deal of a dead worker's jobs that ``distributed``
    runs -- over
    ``min(workers, clients)`` children forked at the first cohort.
    ``result_timeout`` is the wall-clock deadline of one cohort.  What
    crosses the pairs is read off :attr:`bytes_shipped`.
    """

    name = "process"

    def __init__(self, workers: int = 2, result_timeout: float = 600.0) -> None:
        super().__init__(workers=workers, result_timeout=result_timeout)
        self._procs: List[mp.process.BaseProcess] = []

    @property
    def bytes_shipped(self) -> int:
        """Frame bytes sent to and received from the workers, set-up included."""
        return self._total("bytes_sent") + self._total("bytes_received")

    def _register_workers(self) -> None:
        clients = self._require_bound()
        if isinstance(clients, PopulationStore):
            # A recipe federation's shard frame carries its pool's digest,
            # which the worker checks on decode: hashing once here, before
            # the fork, leaves every child the cached digest instead of its
            # own re-hash.
            fed = getattr(clients.shard(clients.client_ids[:1]).dataset_for, "__self__", None)
            if isinstance(fed, FederatedData) and fed.recipe is not None:
                fed.pool_digest
        ctx = worker_context()
        ends = []
        for wid in range(min(self.workers, len(clients))):
            ours, theirs = socket.socketpair()
            # In the set before the fork: every later child closes it.
            COORDINATOR_SOCKETS.add(ours)
            proc = ctx.Process(
                target=_run_paired, args=(theirs,), daemon=True, name=f"repro-exec-{wid}"
            )
            proc.start()
            theirs.close()
            self._procs.append(proc)
            ends.append(ours)
        # Registered after every fork, so the children boot in parallel.
        for sock in ends:
            handle = self._register(sock)
            if handle is None:
                raise ExecutorError(f"a local {self.name} worker failed its handshake")
            self._handles[handle.id] = handle

    def close(self) -> None:
        super().close()
        terminate_workers(self._procs)
        self._procs = []


def spawn_local_workers(
    endpoint: str,
    num_workers: int,
    capacities: Optional[Sequence[int]] = None,
    stderr=subprocess.DEVNULL,
    log_dir: Optional[str] = None,
) -> List[mp.Process]:
    """Start ``num_workers`` agents pointed at ``endpoint``.

    ``endpoint`` is already listening (a coordinator's
    :meth:`~repro.distributed.coordinator.DistributedExecutor.listen`),
    so each agent dials it once (``--connect-timeout 0``) and rejoins
    with one dial: an agent refused by a coordinator that closed before
    it dialled exits at once instead of retrying for 30 s.

    ``capacities`` optionally sets a per-worker ``--capacity``; pass
    ``stderr=None`` to see worker logs on the parent's stderr (the
    default, ``subprocess.DEVNULL``, discards them).

    ``log_dir`` (or the ``REPRO_WORKER_LOG_DIR`` environment variable,
    which CI sets so worker logs can be uploaded as artifacts when the
    distributed smoke fails) redirects each worker's stderr to
    ``<log_dir>/worker-<i>.log``, appending -- several spawns within one
    test session share the files instead of clobbering each other.
    """
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    if capacities is not None and len(capacities) != num_workers:
        raise ValueError(
            f"got {len(capacities)} capacities for {num_workers} workers"
        )
    if stderr not in (None, subprocess.DEVNULL):
        raise ValueError("stderr must be None or subprocess.DEVNULL")
    if log_dir is None:
        log_dir = os.environ.get("REPRO_WORKER_LOG_DIR") or None
    if log_dir is not None:
        os.makedirs(log_dir, exist_ok=True)
    ctx = worker_context()
    procs: List[mp.Process] = []
    for i in range(num_workers):
        argv = ["--connect", endpoint, "--connect-timeout", "0"]
        if capacities is not None:
            argv += ["--capacity", str(capacities[i])]
        if log_dir is not None:
            stderr_path = str(Path(log_dir) / f"worker-{i}.log")
        else:
            stderr_path = None if stderr is None else os.devnull
        # Daemonic: a worker never outlives the process that forked it.
        proc = ctx.Process(target=_run_worker, args=(argv, stderr_path), daemon=True)
        proc.start()
        procs.append(proc)
    return procs


def terminate_workers(procs: Sequence[mp.Process], timeout: float = 5.0) -> List[int]:
    """Reap worker processes; returns their exit codes.

    Workers that received SHUTDOWN exit on their own; anything still
    alive is terminated (then killed) so a failed test can never leak
    processes.  Codes read like ``Popen.returncode``: the worker's exit
    status, or ``-signal`` for a worker a signal ended.
    """
    codes: List[int] = []
    for proc in procs:
        proc.join(timeout)
        if proc.exitcode is None:
            proc.terminate()
            proc.join(timeout)
        if proc.exitcode is None:
            proc.kill()
            proc.join(timeout)
        codes.append(proc.exitcode)
    return codes

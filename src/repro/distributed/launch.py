"""Helpers for launching worker agents as local processes.

Production deployments start ``python -m repro.cli worker`` on each node
themselves; these helpers cover the *loopback* topology -- real worker
processes, real TCP sockets, one machine -- used by the equivalence
tests and the ``loopback_*`` workloads of ``perf/``.

A local worker is forked from the coordinator (spawned where ``fork``
is unavailable: :func:`repro.execution.pool.worker_context`, which the
``process`` pool starts its workers in too) and runs the ``worker``
command in the child, so it reaches HELLO without paying for an
interpreter and its imports.  It still gets everything over TCP, like a
remote worker: the inherited memory only makes its pool re-derivation a
memo hit.  The child closes its copy of the coordinator's listener (an
at-fork hook in :mod:`repro.distributed.coordinator`), starts with
telemetry off and an empty registry, and freezes the inherited objects
out of the garbage collector's reach.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import os
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro import telemetry
from repro.execution.pool import worker_context

__all__ = ["spawn_local_workers", "terminate_workers"]


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


def spawn_local_workers(
    endpoint: str,
    num_workers: int,
    capacities: Optional[Sequence[int]] = None,
    stderr=subprocess.DEVNULL,
    log_dir: Optional[str] = None,
) -> List[mp.Process]:
    """Start ``num_workers`` agents pointed at ``endpoint``.

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
        argv = ["--connect", endpoint]
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

"""Helpers for launching worker agents as local subprocesses.

Production deployments start ``python -m repro.cli worker`` on each node
themselves; these helpers cover the *loopback* topology -- real worker
processes, real TCP sockets, one machine -- used by the equivalence
tests and the ``loopback_*`` workloads of ``perf/``.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Sequence

__all__ = ["spawn_local_workers", "terminate_workers"]


def _worker_env() -> dict:
    """Subprocess environment with the repro package importable."""
    import repro

    env = os.environ.copy()
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_dir if not existing else src_dir + os.pathsep + existing
    return env


def spawn_local_workers(
    endpoint: str,
    num_workers: int,
    capacities: Optional[Sequence[int]] = None,
    python: str = sys.executable,
    stderr=subprocess.DEVNULL,
    log_dir: Optional[str] = None,
) -> List[subprocess.Popen]:
    """Start ``num_workers`` agents pointed at ``endpoint``.

    ``capacities`` optionally sets a per-worker ``--capacity``; pass
    ``stderr=None`` to see worker logs on the parent's stderr.

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
    if log_dir is None:
        log_dir = os.environ.get("REPRO_WORKER_LOG_DIR") or None
    if log_dir is not None:
        os.makedirs(log_dir, exist_ok=True)
    env = _worker_env()
    procs: List[subprocess.Popen] = []
    for i in range(num_workers):
        cmd = [python, "-m", "repro.cli", "worker", "--connect", endpoint]
        if capacities is not None:
            cmd += ["--capacity", str(capacities[i])]
        if log_dir is not None:
            with open(Path(log_dir) / f"worker-{i}.log", "ab") as log_file:
                # Popen duplicates the fd; closing our handle right after
                # keeps the parent's descriptor table bounded.
                procs.append(subprocess.Popen(cmd, env=env, stderr=log_file))
        else:
            procs.append(subprocess.Popen(cmd, env=env, stderr=stderr))
    return procs


def terminate_workers(
    procs: Sequence[subprocess.Popen], timeout: float = 5.0
) -> List[int]:
    """Reap worker subprocesses; returns their exit codes.

    Workers that received SHUTDOWN exit on their own; anything still
    alive is terminated (then killed) so a failed test can never leak
    processes.
    """
    codes: List[int] = []
    for proc in procs:
        try:
            codes.append(proc.wait(timeout=timeout))
            continue
        except subprocess.TimeoutExpired:
            pass
        proc.terminate()
        try:
            codes.append(proc.wait(timeout=timeout))
        except subprocess.TimeoutExpired:
            proc.send_signal(signal.SIGKILL)
            codes.append(proc.wait(timeout=timeout))
    return codes

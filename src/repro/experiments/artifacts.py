"""Artifact persistence for the benchmark harnesses.

``pytest --benchmark-only`` captures stdout, so each benchmark *also*
writes its rendered tables/series to a text file.  The destination
defaults to ``benchmarks/results/`` relative to the current working
directory and can be overridden via the ``REPRO_ARTIFACTS_DIR``
environment variable.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["artifacts_dir", "save_artifact"]


def artifacts_dir() -> Path:
    """Resolve (and create) the artifact output directory."""
    root = os.environ.get("REPRO_ARTIFACTS_DIR", "benchmarks/results")
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def save_artifact(name: str, text: str) -> Path:
    """Write ``text`` to ``<artifacts_dir>/<name>.txt`` and return the path.

    The text is also echoed to stdout so ``pytest -s`` shows it live.
    """
    if not name or "/" in name or "\\" in name:
        raise ValueError(f"artifact name must be a bare filename stem: {name!r}")
    path = artifacts_dir() / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n{text}\n[saved to {path}]")
    return path

"""Centralized logging configuration for every ``repro`` module.

One formatter, one handler, one namespace: every module gets its logger
via :func:`get_logger` (which pins it under the ``repro.`` hierarchy)
and the process configures output exactly once via
:func:`configure_logging` -- the CLI's ``--log-level`` flag and the
distributed worker's log-dir redirection both land here, so every line
in a worker log or a CI artifact carries a timestamp and, for workers,
the worker id the coordinator gave the current session.

``configure_logging`` is idempotent: it replaces only the handler it
installed, so a host application's own logging setup is never clobbered
(``repro`` loggers stop propagating to the root logger once configured,
and not before).
"""

from __future__ import annotations

import logging
import sys
from typing import IO, Optional, Union

__all__ = [
    "LOG_FORMAT",
    "LOG_DATEFMT",
    "get_logger",
    "configure_logging",
    "stream_logger",
    "parse_level",
]

#: Every configured line: ISO-ish UTC-offset-free timestamp, level,
#: logger name, message.  Worker lines embed the session's worker id in
#: the message (see ``repro.distributed.worker``).
LOG_FORMAT = "%(asctime)s.%(msecs)03d %(levelname)s %(name)s: %(message)s"
LOG_DATEFMT = "%Y-%m-%dT%H:%M:%S"

_HANDLER_TAG = "_repro_telemetry_handler"

_LEVELS = {
    "critical": logging.CRITICAL,
    "error": logging.ERROR,
    "warning": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def parse_level(level: Union[str, int]) -> int:
    """Accept ``"debug"``/``"INFO"``/numeric levels; raise on junk."""
    if isinstance(level, int):
        return level
    try:
        return _LEVELS[str(level).lower()]
    except KeyError:
        raise ValueError(
            f"unknown log level {level!r}; choose from {sorted(_LEVELS)}"
        ) from None


def get_logger(name: str) -> logging.Logger:
    """A logger under the ``repro`` hierarchy.

    ``get_logger("repro.tifl.server")`` and ``get_logger("tifl.server")``
    return the same logger; every caller inherits the handler
    :func:`configure_logging` installs.
    """
    if name != "repro" and not name.startswith("repro."):
        name = f"repro.{name}"
    return logging.getLogger(name)


def stream_logger(
    name: str,
    stream: IO[str],
    level: Union[str, int] = "info",
) -> logging.Logger:
    """A standalone logger bound to one specific stream.

    Unlike :func:`get_logger`, the returned logger is constructed
    directly (never registered with the logging manager), so several
    instances may coexist with the same name, each writing to its own
    stream with the shared :data:`LOG_FORMAT` -- exactly what a
    :class:`~repro.distributed.worker.WorkerAgent` needs when its
    ``log=`` stream is a per-process file or a test's ``StringIO``.
    """
    logger = logging.Logger(name, parse_level(level))
    handler = logging.StreamHandler(stream)
    handler.setFormatter(logging.Formatter(LOG_FORMAT, datefmt=LOG_DATEFMT))
    logger.addHandler(handler)
    return logger


def configure_logging(
    level: Union[str, int] = "info",
    stream: Optional[IO[str]] = None,
) -> logging.Logger:
    """Install (or replace) the single ``repro`` stream handler.

    Returns the ``repro`` root logger.  Safe to call repeatedly -- only
    the handler this function previously installed is replaced, and
    nothing outside the ``repro.*`` namespace is touched.
    """
    root = logging.getLogger("repro")
    root.setLevel(parse_level(level))
    for handler in list(root.handlers):
        if getattr(handler, _HANDLER_TAG, False):
            root.removeHandler(handler)
            handler.close()
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(logging.Formatter(LOG_FORMAT, datefmt=LOG_DATEFMT))
    setattr(handler, _HANDLER_TAG, True)
    root.addHandler(handler)
    root.propagate = False
    return root

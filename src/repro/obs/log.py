"""Structured logging shared by the CLI and sweep workers.

Everything under the ``repro`` logger namespace flows through one
stderr handler configured by :func:`setup_logging`; machine-readable
program output (reports, JSON payloads) stays on stdout, so piping
``repro bench --json -`` into a file never mixes in diagnostics.

Worker-process safety: the parallel sweep engine's pool initializer
calls :func:`setup_logging` with the level exported through the
``REPRO_LOG_LEVEL`` environment variable (see
:func:`worker_log_level`), so spawned workers — which inherit no
handler state — log with the same format and threshold as the parent,
tagged with their process name.
"""

from __future__ import annotations

import logging
import os
import sys
from typing import Optional, TextIO

#: environment variable that propagates the log level to worker processes
LOG_LEVEL_ENV = "REPRO_LOG_LEVEL"

#: one shared format; ``processName`` distinguishes pool workers
LOG_FORMAT = "%(asctime)s %(levelname)-7s %(processName)s %(name)s: %(message)s"
LOG_DATEFMT = "%H:%M:%S"

_ROOT = "repro"


def get_logger(name: str = "") -> logging.Logger:
    """A logger under the shared ``repro`` namespace.

    ``get_logger("core.orchestrator")`` returns
    ``repro.core.orchestrator``;
    an empty name returns the package root logger.
    """
    return logging.getLogger(f"{_ROOT}.{name}" if name else _ROOT)


def verbosity_to_level(verbosity: int) -> int:
    """Map a CLI verbosity knob to a ``logging`` level.

    ``-1`` (``--quiet``) → WARNING, ``0`` (default) → INFO,
    ``>= 1`` (``--verbose``) → DEBUG.
    """
    if verbosity < 0:
        return logging.WARNING
    if verbosity == 0:
        return logging.INFO
    return logging.DEBUG


def setup_logging(
    verbosity: int = 0,
    stream: Optional[TextIO] = None,
    level: Optional[int] = None,
) -> logging.Logger:
    """Configure the ``repro`` logger; idempotent.

    Repeated calls adjust the level and stream of the one installed
    handler instead of stacking new ones (re-invoking ``main()`` in
    tests must not multiply output).  The resolved level is exported in
    ``REPRO_LOG_LEVEL`` so worker processes can mirror it.
    """
    if level is None:
        level = verbosity_to_level(verbosity)
    logger = logging.getLogger(_ROOT)
    logger.setLevel(level)
    logger.propagate = False
    handler = None
    for existing in logger.handlers:
        if getattr(existing, "_repro_handler", False):
            handler = existing
            break
    if handler is None:
        handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
        handler._repro_handler = True  # type: ignore[attr-defined]
        handler.setFormatter(logging.Formatter(LOG_FORMAT, LOG_DATEFMT))
        logger.addHandler(handler)
    else:
        # Rebind on every call: under pytest's capsys, sys.stderr is a
        # fresh object per test, and a handler holding the previous
        # test's stream would write into a dead capture.  setStream
        # flushes the old stream first, which raises if the old capture
        # is already closed — fall back to swapping it directly.
        target = stream if stream is not None else sys.stderr
        if handler.stream is not target:
            try:
                handler.setStream(target)
            except ValueError:
                handler.stream = target
    handler.setLevel(level)
    os.environ[LOG_LEVEL_ENV] = logging.getLevelName(level)
    return logger


def worker_log_level() -> int:
    """The log level a worker process should adopt (from the environment).

    Falls back to WARNING so an unconfigured pool (library use without
    :func:`setup_logging`) stays quiet.
    """
    name = os.environ.get(LOG_LEVEL_ENV, "").strip().upper()
    if not name:
        return logging.WARNING
    level = logging.getLevelName(name)
    return level if isinstance(level, int) else logging.WARNING


def setup_worker_logging() -> None:
    """Configure logging inside a sweep worker (pool initializer hook)."""
    setup_logging(level=worker_log_level())

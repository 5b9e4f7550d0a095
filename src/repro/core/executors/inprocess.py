"""In-process executor: the serial fast path.

Semantics are pinned by ``tests/core/test_parallel_failures.py``: each
task is retried once in place (transient failures), a second failure
raises :class:`~repro.core.orchestrator.TaskError` naming the
``(config, replication)``, and ``GridStats`` counts one retry plus a
failure per attempt.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..orchestrator import Orchestrator

_log = logging.getLogger("repro.core.executors.inprocess")


class InProcessExecutor:
    """Run every pending task in the calling process, in grid order."""

    name = "in-process"

    def execute(self, orchestrator: "Orchestrator") -> None:
        unique = orchestrator.unique
        stats = orchestrator.stats
        for _cid, chunk in orchestrator.pending_chunks().items():
            for ui, rep in chunk:
                orchestrator.check_cancelled()
                fn = orchestrator.runner
                try:
                    result = fn(unique[ui], rep)
                except Exception as first:
                    from ..orchestrator import TaskError

                    key = f"{unique[ui].describe()} rep {rep}"
                    _log.warning(
                        "task %s failed (%r); retrying once", key, first
                    )
                    if stats is not None:
                        stats.record_failure(key)
                        stats.retries += 1
                    try:
                        result = fn(unique[ui], rep)
                    except Exception as exc:
                        if stats is not None:
                            stats.record_failure(key)
                        raise TaskError(
                            unique[ui].describe(), rep, repr(exc)
                        ) from exc
                orchestrator.record(ui, rep, result)

"""Process-pool executor: one persistent pool for the whole grid.

Extracted from ``core/parallel.py``; failure handling is pinned by
``tests/core/test_parallel_failures.py`` and comes in two tiers:

* a task raising inside a worker surfaces as
  :class:`~repro.core.orchestrator.TaskError`; its chunk is retried
  once on the same (healthy) pool;
* a worker *crashing* breaks the whole pool and cannot tell us which
  task did it — every in-flight task is a suspect.  The remaining work
  is retried once on a fresh pool; a second crash raises ``TaskError``
  naming the first suspect.
"""

from __future__ import annotations

import logging
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

if TYPE_CHECKING:
    from ..config import ExperimentConfig
    from ..orchestrator import Orchestrator, RunnerFn, Task
    from ..results import ExperimentResult

from ..experiment import CALIBRATIONS, Calibration, CalibrationKey, calibration_table
from ..orchestrator import TaskError

_log = logging.getLogger("repro.core.executors.pool")

#: soft cap on in-flight chunks per worker (bounds parent-side memory
#: while keeping every worker busy)
_INFLIGHT_PER_WORKER = 2


class _PoolBroken(Exception):
    """Internal: the process pool died; ``suspects`` were in flight."""

    def __init__(self, suspects: list["Task"]) -> None:
        super().__init__(suspects)
        self.suspects = suspects


# -- worker side ---------------------------------------------------------

_WORKER_CONFIGS: Sequence["ExperimentConfig"] = ()
_WORKER_RUNNER: Optional["RunnerFn"] = None


def _init_worker(
    configs: Sequence["ExperimentConfig"],
    runner: Optional["RunnerFn"] = None,
    calibrations: Optional[Mapping[CalibrationKey, Calibration]] = None,
) -> None:
    """Pool initializer: install the unique-config table and the
    parent's load calibrations once per worker."""
    global _WORKER_CONFIGS, _WORKER_RUNNER
    # repro-lint: disable=PAR001 -- the pool initializer installs the
    # per-process config table exactly once, before any task runs; this
    # is the mechanism that *avoids* per-task state shipping
    _WORKER_CONFIGS = configs
    # repro-lint: disable=PAR001 -- same single-shot initializer install
    _WORKER_RUNNER = runner
    if calibrations:
        CALIBRATIONS.install(calibrations)
    # Spawned workers inherit no handler state; mirror the parent's
    # logging setup from the environment (deferred import: obs imports
    # core at its own import time).
    from ...obs.log import setup_worker_logging

    setup_worker_logging()


def _run_chunk(
    tasks: Sequence["Task"],
) -> list[tuple[int, int, "ExperimentResult"]]:
    """Run a chunk of ``(config_index, replication)`` tasks in one worker.

    Any task exception is wrapped in :class:`TaskError` so the parent
    learns *which* ``(config, replication)`` failed, not just that
    something somewhere in the chunk raised.
    """
    if _WORKER_RUNNER is not None:
        fn = _WORKER_RUNNER
    else:
        from ..experiment import run_single

        fn = run_single
    out = []
    for ci, rep in tasks:
        cfg = _WORKER_CONFIGS[ci]
        try:
            out.append((ci, rep, fn(cfg, rep)))
        except Exception as exc:
            raise TaskError(cfg.describe(), rep, repr(exc)) from exc
    return out


# -- parent side ---------------------------------------------------------

class PoolExecutor:
    """Fan pending chunks over one ``ProcessPoolExecutor``, as-completed."""

    name = "process-pool"

    def __init__(self, n_workers: int) -> None:
        self.n_workers = max(1, int(n_workers))

    def execute(self, orchestrator: "Orchestrator") -> None:
        chunks = orchestrator.pending_chunks()
        n_tasks = sum(len(c) for c in chunks.values())
        if n_tasks == 0:
            return
        n_workers = min(self.n_workers, n_tasks)
        # Fit the pending tasks' load calibrations once, here, rather
        # than once per worker; the initializer ships them with the
        # configs (fork inheritance alone would miss spawn/forkserver).
        unique = orchestrator.unique
        calibrations = calibration_table(
            (unique[ci], rep) for chunk in chunks.values() for ci, rep in chunk
        )
        for attempt in (0, 1):
            try:
                self._drain_pool(
                    orchestrator, chunks, n_workers, calibrations,
                    allow_chunk_retry=(attempt == 0),
                )
                return
            except _PoolBroken as broken:
                ci, rep = broken.suspects[0]
                stats = orchestrator.stats
                _log.warning(
                    "worker pool crashed with %d task(s) in flight "
                    "(first suspect: %s rep %d)%s",
                    len(broken.suspects), unique[ci].describe(), rep,
                    "" if attempt == 1 else "; rerunning on a fresh pool",
                )
                if stats is not None:
                    stats.record_failure(
                        f"{unique[ci].describe()} rep {rep}"
                    )
                if attempt == 1:
                    raise TaskError(
                        unique[ci].describe(),
                        rep,
                        "worker process crashed (BrokenProcessPool); "
                        f"{len(broken.suspects)} in-flight task(s) "
                        "suspected",
                    ) from broken
                if stats is not None:
                    stats.retries += 1
                chunks = orchestrator.pending_chunks()

    def _drain_pool(
        self,
        orchestrator: "Orchestrator",
        chunks: dict[int, list["Task"]],
        n_workers: int,
        calibrations: Mapping[CalibrationKey, Calibration],
        allow_chunk_retry: bool,
    ) -> None:
        """Run ``chunks`` on one pool, removing each as it completes.

        On a pool crash, raises :class:`_PoolBroken` with every
        in-flight task as a suspect; the orchestrator still tracks all
        unfinished work so the caller can rerun it on a fresh pool.
        """
        stats = orchestrator.stats
        retried: set[int] = set()
        with ProcessPoolExecutor(
            max_workers=n_workers,
            initializer=_init_worker,
            initargs=(
                tuple(orchestrator.unique), orchestrator.runner, calibrations,
            ),
        ) as pool:
            backlog = iter(list(chunks.items()))
            in_flight: dict[Future, tuple[int, list["Task"]]] = {}

            def submit(cid: int, chunk: list["Task"]) -> None:
                try:
                    fut = pool.submit(_run_chunk, chunk)
                except BrokenProcessPool:
                    # The pool died under us; surface every in-flight
                    # task (plus this one) as a suspect for the outer
                    # retry.
                    suspects = list(chunk)
                    for _, other in in_flight.values():
                        suspects.extend(other)
                    raise _PoolBroken(suspects) from None
                in_flight[fut] = (cid, chunk)

            def submit_next() -> None:
                item = next(backlog, None)
                if item is not None:
                    submit(*item)

            for _ in range(n_workers * _INFLIGHT_PER_WORKER):
                submit_next()
            while in_flight:
                # Cooperative cancellation between batches; exiting the
                # pool context waits for in-flight chunks, then stops.
                orchestrator.check_cancelled()
                finished, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                crashed: list["Task"] = []
                for fut in finished:
                    cid, chunk = in_flight.pop(fut)
                    try:
                        results = fut.result()
                    except TaskError as err:
                        _log.warning("worker task failed: %s", err)
                        if stats is not None:
                            stats.record_failure(
                                f"{err.description} rep {err.replication}"
                            )
                        if allow_chunk_retry and cid not in retried:
                            retried.add(cid)
                            if stats is not None:
                                stats.retries += 1
                            submit(cid, chunk)
                            continue
                        raise
                    except BrokenProcessPool:
                        # Don't raise yet: sibling futures in this
                        # batch may hold completed results worth
                        # keeping.
                        crashed.extend(chunk)
                        continue
                    for ci, rep, result in results:
                        orchestrator.record(ci, rep, result)
                    del chunks[cid]
                    submit_next()
                if crashed:
                    suspects = crashed
                    for _, other in in_flight.values():
                        suspects.extend(other)
                    raise _PoolBroken(suspects)

"""Span tracing around the program's layer entry points, from outside.

The traced run wraps the public functions listed in :data:`LAYER_SPANS`
with thin timing wrappers.  Each call becomes a span (name, start, end,
parent) kept in per-thread arrays; nothing is written until the run
ends.  A span's *self time* is its duration minus the time covered by
its direct child spans, so ``sched.submit.self_s`` excludes the
``profile.*`` work a CBF submit triggers.

Wrappers are installed only by :func:`traced` and removed when it
exits: every patched attribute is the original object again
afterwards, which :func:`originals_restored` checks.  Module-level
functions are patched under every name a ``repro`` module binds them
to (``from x import f`` copies), so a call through an alias is seen.

Work done inside pool worker processes is invisible here: a forked
worker inherits the wrappers but its spans die with it.  The pool
workload's per-layer figures therefore come from the results the
workers return (see ``perfbench/layers.py``).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

import numpy as np

#: (span name, module, attribute path) for every wrapped entry point
LAYER_SPANS: tuple[tuple[str, str, str], ...] = (
    ("sim.run", "repro.sim.engine", "Simulator.run"),
    ("sched.submit", "repro.sched.base", "Scheduler.submit"),
    ("sched.cancel", "repro.sched.base", "Scheduler.cancel"),
    ("profile.can_place", "repro.sched.profile", "Profile.can_place"),
    ("profile.find_start", "repro.sched.profile", "Profile.find_start"),
    ("profile.adjust", "repro.sched.profile", "Profile.adjust"),
    ("coordinator.schedule_job", "repro.core.coordinator",
     "Coordinator.schedule_job"),
    ("coordinator.submit_job", "repro.core.coordinator",
     "Coordinator.submit_job"),
    ("coordinator.dispatch_cancellations", "repro.core.coordinator",
     "Coordinator.dispatch_cancellations"),
    ("online.observe_completion", "repro.obs.stream",
     "OnlineMetrics.observe_completion"),
    ("workload.calibrate", "repro.workload.lublin", "scaled_for_load"),
    ("workload.generate", "repro.workload.stream",
     "generate_platform_streams"),
    ("run_single", "repro.core.experiment", "run_single"),
    ("orchestrator.prepare", "repro.core.orchestrator",
     "Orchestrator.prepare"),
    ("orchestrator.record", "repro.core.orchestrator",
     "Orchestrator.record"),
    ("orchestrator.assemble", "repro.core.orchestrator",
     "Orchestrator.assemble"),
    ("pool.execute", "repro.core.executors.pool", "PoolExecutor.execute"),
    ("cache.get", "repro.core.cache", "ResultCache.get"),
    ("cache.put", "repro.core.cache", "ResultCache.put"),
    ("service.handle", "repro.service.server", "SweepService.handle"),
    ("service.encode", "repro.service.jobs", "encode_chunk_results"),
    ("service.decode", "repro.service.jobs", "decode_chunk_results"),
    ("service.write_results", "repro.service.jobs", "JobStore.write_results"),
)


class _ThreadSpans:
    """One thread's spans; parents always live in the same thread."""

    __slots__ = ("name", "parent", "start", "end", "stack")

    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []


class Tracer:
    """Collects spans and return-value observations for one traced run."""

    def __init__(self) -> None:
        self.names = [name for name, _, _ in LAYER_SPANS]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self._tls = threading.local()
        self._buffers: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        #: name -> callback(result, args) run after a call returns
        self.observers: dict[str, Callable[[Any, tuple], None]] = {}
        self._patches: list[tuple[object, str, object]] = []
        #: every (owner, attribute, original) the last install patched
        self.installed: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _buffer(self) -> _ThreadSpans:
        buf = _ThreadSpans()
        with self._lock:
            self._buffers.append(buf)
        self._tls.buf = buf
        return buf

    def _wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._ids[name]
        tls = self._tls
        new_buffer = self._buffer
        clock = time.perf_counter
        observers = self.observers

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            try:
                buf = tls.buf
            except AttributeError:
                buf = new_buffer()
            stack = buf.stack
            idx = len(buf.name)
            buf.name.append(nid)
            buf.parent.append(stack[-1] if stack else -1)
            buf.start.append(0.0)
            buf.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                buf.start[idx] = t0
                buf.end[idx] = t1
            observe = observers.get(name)
            if observe is not None:
                observe(out, args)
            return out

        span._perfbench_span = True  # type: ignore[attr-defined]
        return span

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in :data:`LAYER_SPANS`."""
        for name, module_name, attr in LAYER_SPANS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, original, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in list(sys.modules.values()):
                if (
                    getattr(mod, "__name__", "").startswith("repro")
                    and getattr(mod, attr, None) is original
                ):
                    self._patch(mod, attr, original, wrapper)
        self.installed = list(self._patches)

    def _patch(self, owner: object, attr: str, original: object,
               wrapper: object) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """All spans as flat arrays (parent indices made global)."""
        names, parents, starts, ends, threads = [], [], [], [], []
        offset = 0
        with self._lock:
            buffers = list(self._buffers)
        for tid, buf in enumerate(buffers):
            n = len(buf.name)
            if n == 0:
                continue
            parent = np.frombuffer(buf.parent, dtype=np.int32).astype(np.int64)
            names.append(np.frombuffer(buf.name, dtype=np.int32).copy())
            parents.append(np.where(parent >= 0, parent + offset, -1))
            starts.append(np.frombuffer(buf.start, dtype=np.float64).copy())
            ends.append(np.frombuffer(buf.end, dtype=np.float64).copy())
            threads.append(np.full(n, tid, dtype=np.int32))
            offset += n

        def cat(parts: list, dtype: Any) -> np.ndarray:
            return np.concatenate(parts) if parts else np.zeros(0, dtype)

        return {
            "name": cat(names, np.int32),
            "parent": cat(parents, np.int64),
            "start": cat(starts, np.float64),
            "end": cat(ends, np.float64),
            "thread": cat(threads, np.int32),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds and self seconds."""
        sp = self.spans()
        dur = sp["end"] - sp["start"]
        has_parent = sp["parent"] >= 0
        child = np.bincount(
            sp["parent"][has_parent], weights=dur[has_parent],
            minlength=len(dur),
        )
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(sp["name"], minlength=k)
        total = np.bincount(sp["name"], weights=dur, minlength=k)
        own = np.bincount(sp["name"], weights=self_time, minlength=k)
        return {
            name: {
                "calls": int(calls[i]),
                "s": float(total[i]),
                "self_s": float(own[i]),
            }
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.spans())


@contextlib.contextmanager
def traced(tracer: Optional[Tracer]) -> Iterator[Optional[Tracer]]:
    """Install ``tracer``'s wrappers for the block (no-op for ``None``)."""
    if tracer is None:
        yield None
        return
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def originals_restored(targets: list[tuple[object, str, object]]) -> bool:
    """True when every formerly patched attribute is its original again
    and no ``repro`` module or class still holds a span wrapper."""
    if not all(
        (owner.__dict__.get(attr) if isinstance(owner, type)
         else getattr(owner, attr, None)) is original
        for owner, attr, original in targets
    ):
        return False
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for value in list(vars(mod).values()):
            scopes = [value]
            if isinstance(value, type):
                scopes.extend(vars(value).values())
            if any(_is_span(v) for v in scopes):
                return False
    return True


def _is_span(value: object) -> bool:
    try:
        return getattr(value, "_perfbench_span", False) is True
    except Exception:  # an attribute hook that raises is not a span
        return False

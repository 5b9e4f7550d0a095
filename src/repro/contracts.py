"""Behavioural contracts checked statically by ``repro lint``.

The work-queue executor, the result cache and the paired-replication
design are only sound because ``run_single(config, replication)`` is a
*pure* function of its arguments: recomputing a task on another worker,
deduplicating it through the content-addressed cache, or replaying it
after a crash must all yield the same bytes.  Before this module that
invariant lived in docstrings; :func:`declared_pure` turns it into a
machine-checked contract.

Decorating a function does nothing at runtime beyond setting a marker
attribute — the function object is returned unchanged, so pickling by
qualified name (process-pool dispatch) still works.  The lint pass
(rule **PURE001**, see ``repro.lint.rules.purity``) resolves the
project call graph and rejects any declared-pure function whose
*transitive* effect set contains RNG draws outside keyed streams,
wall-clock reads, filesystem/network I/O, module-global writes, or
blocking calls.  Host *timing* reads (``time.perf_counter``) are
tolerated: they feed only the ``wall_time_s``/``phase_timings``
diagnostics that every canonical payload strips.
"""

from __future__ import annotations

from typing import Callable, TypeVar

_F = TypeVar("_F", bound=Callable[..., object])

#: attribute set on functions carrying the purity contract
PURITY_ATTRIBUTE = "__declared_pure__"


def declared_pure(fn: _F) -> _F:
    """Mark ``fn`` as pure-modulo-host-timing; enforced by PURE001.

    "Pure" here means: the result depends only on the arguments, and
    calling the function leaves no trace observable outside the call —
    no module/global writes, no I/O, no unkeyed randomness.  Mutating
    objects constructed *inside* the call (the simulation state a run
    builds and discards) is fine; memoisation caches
    (``functools.lru_cache``, the load-calibration memo
    ``repro.core.experiment.CALIBRATIONS``) are treated as
    observationally pure.
    """
    setattr(fn, PURITY_ATTRIBUTE, True)
    return fn

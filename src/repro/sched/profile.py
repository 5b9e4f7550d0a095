"""Node-availability profile: free nodes as a step function of time.

Backfilling schedulers plan against the *future* availability implied by
the requested (not actual) runtimes of running and reserved requests.
This module provides that plan as an explicit step function supporting
the operations conservative backfilling needs:

* :meth:`Profile.reserve` / :meth:`Profile.adjust` — commit or undo a
  reservation or a running hold over a finite window;
* :meth:`Profile.find_start` — earliest instant at which ``nodes`` nodes
  are continuously free for ``duration`` seconds;
* :meth:`Profile.can_place` — feasibility check for a specific start,
  optionally ignoring the request's own stale reservation;
* :meth:`Profile.backfill_mask` — the same check for many pending
  requests at once, each starting *now* and ignoring its own
  reservation (CBF's backfill scan);
* :meth:`Profile.trim` — garbage-collect segments that fell into the
  past (the profile is long-lived in the incremental CBF).

The representation is two parallel **numpy arrays** ``times``/``free``
where ``free[i]`` holds over ``[times[i], times[i+1])`` and the last
value extends to infinity.  All operations are vectorised: breakpoint
lookup is ``searchsorted``, window validation and the in-place
adjustment fast path are single array expressions, and ``find_start``
evaluates every candidate segment in one shot instead of walking the
step function — under the paper's overload the profile grows to
hundreds of segments and the former per-segment Python loops were the
CBF hot spot.  ``backfill_mask`` goes one step further and answers the
whole backfill scan with one running minimum and one ``searchsorted``,
instead of one ``can_place`` call per candidate.  The original
list-backed implementation survives as
:class:`repro.sched.profile_ref.ReferenceProfile`, and the property
suite drives both through identical interleavings to prove exact
agreement.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Tuple

import numpy as np

__all__ = ["Profile", "ProfileError"]


class ProfileError(RuntimeError):
    """Raised when an adjustment would violate 0 <= free <= capacity."""


class Profile:
    """Step function of free nodes over ``[origin, inf)``.

    Parameters
    ----------
    origin:
        Left edge of the horizon (usually the current simulated time).
    free_now:
        Free nodes at the origin.
    total_nodes:
        Capacity bound; availability must stay within ``[0, total]``.
    """

    __slots__ = ("times", "free", "total_nodes")

    def __init__(self, origin: float, free_now: int, total_nodes: int) -> None:
        if not 0 <= free_now <= total_nodes:
            raise ValueError(f"free_now={free_now} outside [0, {total_nodes}]")
        #: breakpoint times (float64, strictly increasing)
        self.times: np.ndarray = np.array([float(origin)], dtype=np.float64)
        #: free nodes per segment (int64, aligned with ``times``)
        self.free: np.ndarray = np.array([int(free_now)], dtype=np.int64)
        self.total_nodes = int(total_nodes)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_running(
        cls,
        now: float,
        total_nodes: int,
        running: Iterable[Tuple[float, int]],
    ) -> "Profile":
        """Build the profile implied by running requests.

        ``running`` yields ``(expected_end, nodes)`` pairs; each pair
        returns ``nodes`` nodes to the pool at ``expected_end``.
        """
        busy = 0
        releases = []
        for end, nodes in running:
            busy += nodes
            releases.append((end, nodes))
        if busy > total_nodes:
            raise ProfileError(f"running jobs hold {busy} > {total_nodes} nodes")
        prof = cls(now, total_nodes - busy, total_nodes)
        for end, nodes in releases:
            prof.adjust(max(end, now), math.inf, nodes)
        return prof

    def copy(self) -> "Profile":
        """Independent deep copy (used by tests and what-if probing)."""
        dup = Profile.__new__(Profile)
        dup.times = self.times.copy()
        dup.free = self.free.copy()
        dup.total_nodes = self.total_nodes
        return dup

    # -- mutation --------------------------------------------------------

    def adjust(self, start: float, end: float, delta: int) -> None:
        """Add ``delta`` free nodes over ``[start, end)`` (``end`` may be inf).

        Raises :exc:`ProfileError` (leaving the profile unchanged) if the
        result would leave ``[0, total_nodes]`` anywhere in the window.

        The window is validated *before* any mutation — one vectorised
        bounds check over the covered segments — then applied in a
        single batched update: when both window edges already coincide
        with breakpoints (the dominant case under backfill churn, where
        reservations are released over the exact windows that created
        them) the update is one in-place slice assignment with **zero**
        reallocation; otherwise the arrays are rebuilt with a single
        concatenation inserting the (at most two) new breakpoints.
        """
        if end <= start:
            raise ValueError(f"empty window [{start}, {end})")
        if delta == 0:
            return
        times, free = self.times, self.free
        n = len(times)
        i = int(np.searchsorted(times, start, side="right")) - 1
        if i < 0:
            raise ProfileError(
                f"time {start} precedes profile origin {float(times[0])}"
            )
        if math.isfinite(end):
            # Segment containing ``end``; j >= i because end > start.
            j = int(np.searchsorted(times, end, side="right")) - 1
            split_end = bool(times[j] != end)
            hi = j if split_end else j - 1
        else:
            j = n - 1
            split_end = False
            hi = n - 1
        split_start = bool(times[i] != start)

        # Validate the whole window first — failure leaves no trace.
        total = self.total_nodes
        window = free[i:hi + 1] + delta
        bad = (window < 0) | (window > total)
        if bad.any():
            k = i + int(np.argmax(bad))
            nf = int(free[k]) + delta
            raise ProfileError(
                f"adjust({start}, {end}, {delta:+d}) drives availability "
                f"to {nf} at t={max(float(times[k]), start)} (capacity {total})"
            )

        if not split_start and not split_end:
            # Fast path: boundaries already exist, adjust in place.
            free[i:hi + 1] = window
            return

        # One concatenation covering segments i..hi, inserting the new
        # breakpoints along the way (dtypes pinned so empty pieces never
        # upcast the result).
        if split_start:
            ins_t = np.array([times[i], start], dtype=np.float64)
            ins_f = np.array([free[i], free[i] + delta], dtype=np.int64)
        else:
            ins_t = np.array([times[i]], dtype=np.float64)
            ins_f = np.array([free[i] + delta], dtype=np.int64)
        if split_end:
            end_t = np.array([end], dtype=np.float64)
            end_f = np.array([free[j]], dtype=np.int64)
        else:
            end_t = np.empty(0, dtype=np.float64)
            end_f = np.empty(0, dtype=np.int64)
        self.times = np.concatenate(
            (times[:i], ins_t, times[i + 1:hi + 1], end_t, times[hi + 1:])
        )
        self.free = np.concatenate(
            (free[:i], ins_f, window[1:], end_f, free[hi + 1:])
        )

    def reserve(self, start: float, duration: float, nodes: int) -> None:
        """Subtract ``nodes`` over ``[start, start + duration)``."""
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        if nodes <= 0:
            raise ValueError(f"nodes must be positive, got {nodes}")
        self.adjust(start, start + duration, -nodes)

    def release_window(self, start: float, end: float, nodes: int) -> None:
        """Give back ``nodes`` over ``[start, end)`` (undo part of a hold)."""
        if nodes <= 0:
            raise ValueError(f"nodes must be positive, got {nodes}")
        self.adjust(start, end, nodes)

    def trim(self, t: float) -> None:
        """Drop breakpoints strictly before ``t``; new origin becomes ``t``.

        Availability in the discarded past is forgotten — only call with
        ``t <= now`` once no queries before ``t`` will ever be issued.
        """
        i = int(np.searchsorted(self.times, t, side="right")) - 1
        if i <= 0:
            return
        self.times = np.concatenate(
            (np.array([t], dtype=np.float64), self.times[i + 1:])
        )
        self.free = self.free[i:].copy()

    # -- queries ---------------------------------------------------------

    def free_at(self, t: float) -> int:
        """Free nodes at time ``t`` (t >= origin)."""
        i = int(np.searchsorted(self.times, t, side="right")) - 1
        if i < 0:
            raise ProfileError(
                f"time {t} precedes profile origin {float(self.times[0])}"
            )
        return int(self.free[i])

    def can_place(
        self,
        start: float,
        duration: float,
        nodes: int,
        bonus: Optional[Tuple[float, float, int]] = None,
    ) -> bool:
        """Whether ``nodes`` nodes are free throughout ``[start, start+duration)``.

        ``bonus`` is an optional ``(b_start, b_end, b_nodes)`` window of
        *extra* availability, used to ignore the candidate's own stale
        reservation without mutating the profile.
        """
        end = start + duration
        times, free = self.times, self.free
        i = int(np.searchsorted(times, start, side="right")) - 1
        if i < 0:
            raise ProfileError(f"time {start} precedes profile origin")
        # Segments i..k-1 overlap [start, end): k is the first
        # breakpoint at or past the window end (k >= i+1 since end > start).
        k = int(np.searchsorted(times, end, side="left"))
        seg_free = free[i:k]
        short = seg_free < nodes
        if not short.any():
            return True
        if bonus is None:
            return False
        # Every short sub-window must be wholly inside the bonus window
        # and bridged by its extra nodes; a partially covered sub-window
        # keeps the base availability on the uncovered piece.
        b_start, b_end, b_nodes = bonus
        idx = np.flatnonzero(short) + i
        seg_starts = np.maximum(times[idx], start)
        nxt = np.append(times[1:], np.inf)
        win_ends = np.minimum(nxt[idx], end)
        ok = (
            (seg_starts >= b_start)
            & (win_ends <= b_end)
            & (free[idx] + b_nodes >= nodes)
        )
        return bool(ok.all())

    def backfill_mask(
        self,
        now: float,
        durations: np.ndarray,
        nodes: np.ndarray,
        reserved: np.ndarray,
    ) -> np.ndarray:
        """Which pending requests could start at ``now`` without delaying
        any other reservation.

        Element ``j`` equals ``can_place(now, durations[j], nodes[j],
        bonus=(reserved[j], reserved[j] + durations[j], nodes[j]))``:
        request ``j`` starts now, ignoring its own reservation window.

        Requires every ``reserved[j] > now`` (CBF guarantees it once the
        due reservations have started).  Then the bonus covers exactly
        the part of ``[now, now + d)`` at or after ``rs``: it starts
        after ``now`` and ends at ``rs + d >= now + d``, and it adds the
        request's own ``n`` nodes, so ``free + n >= n`` under it.  So the
        answer is whether the minimum free count over ``[now,
        min(now + d, rs))`` is at least ``n`` — one running minimum from
        the segment holding ``now``, one ``searchsorted`` over every
        horizon, and one compare.  Raises :exc:`ProfileError` if the
        precondition fails rather than answer a bit it cannot prove.
        """
        times, free = self.times, self.free
        i = int(np.searchsorted(times, now, side="right")) - 1
        if i < 0:
            raise ProfileError(f"time {now} precedes profile origin")
        if (reserved <= now).any():
            raise ProfileError(
                f"backfill_mask needs every reservation after now={now}"
            )
        horizon = np.minimum(now + durations, reserved)
        # Segments i..k-1 overlap [now, horizon); k >= i + 1.
        k = np.searchsorted(times, horizon, side="left")
        run_min = np.minimum.accumulate(free[i:int(k.max(initial=i + 1))])
        return run_min[k - 1 - i] >= nodes

    def find_start(self, nodes: int, duration: float, earliest: float) -> float:
        """Earliest ``t >= earliest`` with ``nodes`` free throughout
        ``[t, t + duration)``.

        Always succeeds for ``nodes <= total_nodes`` because reservations
        and holds are finite, so the final step has full availability.

        Vectorised: every segment with enough free nodes is a candidate
        start; a candidate is feasible iff its window ends before the
        next under-provisioned segment begins.  Both sides are single
        array expressions, and the earliest feasible candidate is the
        answer (segment-skipping in the old walk was only ever an
        optimisation — a candidate blocked at segment ``b`` forces every
        later candidate before ``b`` to be blocked at ``b`` too).
        """
        if nodes > self.total_nodes:
            raise ProfileError(
                f"request for {nodes} nodes can never fit in {self.total_nodes}"
            )
        if nodes <= 0:
            raise ValueError(f"nodes must be positive, got {nodes}")
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        times, free = self.times, self.free
        earliest = max(earliest, float(times[0]))
        start_idx = int(np.searchsorted(times, earliest, side="right")) - 1
        good = free >= nodes
        cand = np.flatnonzero(good[start_idx:]) + start_idx
        if cand.size:
            # Candidate start times: ``earliest`` inside the segment the
            # search begins in, the segment's breakpoint afterwards.
            t_cand = np.maximum(times[cand], earliest)
            bad_idx = np.flatnonzero(~good)
            if bad_idx.size:
                # Time of the first under-provisioned segment after each
                # candidate (inf when none follows).
                pos = np.searchsorted(bad_idx, cand)
                safe = np.minimum(pos, bad_idx.size - 1)
                next_bad = np.where(
                    pos < bad_idx.size, times[bad_idx[safe]], np.inf
                )
            else:
                next_bad = np.full(cand.size, np.inf)
            feasible = np.flatnonzero(t_cand + duration <= next_bad)
            if feasible.size:
                return float(t_cand[feasible[0]])
        raise ProfileError(
            f"no feasible start for {nodes} nodes x {duration}s; the profile "
            "tail should always be feasible (capacity leak?)"
        )

    def segments(self) -> list[Tuple[float, int]]:
        """Return ``(time, free)`` breakpoints (Python scalars, a copy)."""
        return list(zip(self.times.tolist(), self.free.tolist()))

    def check_invariants(self) -> None:
        """Verify representation invariants; raise on any breakage.

        Explicit raises rather than ``assert`` so the runtime auditor
        (which calls this on every CBF pass) keeps its teeth under
        ``python -O``.
        """
        if len(self.times) != len(self.free):
            raise ProfileError(
                f"times/free length mismatch: {len(self.times)} != "
                f"{len(self.free)}"
            )
        diffs_ok = np.diff(self.times) > 0
        if not diffs_ok.all():
            k = int(np.argmin(diffs_ok))
            raise ProfileError(
                "breakpoints not strictly increasing: "
                f"{float(self.times[k])} >= {float(self.times[k + 1])}"
            )
        in_bounds = (self.free >= 0) & (self.free <= self.total_nodes)
        if not in_bounds.all():
            k = int(np.argmin(in_bounds))
            raise ProfileError(
                f"availability {int(self.free[k])} at t={float(self.times[k])} "
                f"outside [0, {self.total_nodes}]"
            )

    def __len__(self) -> int:
        return len(self.times)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        segs = ", ".join(f"{t:.1f}:{f}" for t, f in self.segments()[:8])
        return f"Profile[{segs}{'...' if len(self.times) > 8 else ''}]"

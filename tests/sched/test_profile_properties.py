"""Property tests pinning the profile against naive reference models.

``test_profile.py`` covers the operations individually; these
properties check whole random interleavings against an O(segments x
probes) reference implementation that recomputes availability from the
raw adjustment list — so any representation-level shortcut (the batched
splice in ``adjust``, the segment walk in ``can_place``) is compared
against first principles, not against itself.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched.profile import Profile, ProfileError
from repro.sched.profile_ref import ReferenceProfile

TOTAL = 8

windows = st.tuples(
    st.floats(min_value=0.0, max_value=100.0),   # start
    st.floats(min_value=0.1, max_value=50.0),    # duration
    st.integers(min_value=-TOTAL, max_value=TOTAL).filter(lambda d: d != 0),
)


def reference_free(applied, t):
    """Availability at ``t`` implied by the raw adjustment list."""
    free = TOTAL
    for start, end, delta in applied:
        if start <= t < end:
            free += delta
    return free


def reference_feasible(applied, start, end, delta):
    """Whether the window keeps availability within [0, TOTAL] throughout."""
    points = {start} | {
        t for s, e, _ in applied for t in (s, e) if start < t < end
    }
    return all(
        0 <= reference_free(applied, t) + delta <= TOTAL for t in points
    )


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(windows, max_size=15))
def test_adjust_interleavings_match_reference(ops):
    """Any interleaving of accepted/rejected adjustments leaves the profile
    equal to the reference model, with invariants intact."""
    p = Profile(0.0, TOTAL, TOTAL)
    applied = []
    for start, duration, delta in ops:
        end = start + duration
        feasible = reference_feasible(applied, start, end, delta)
        try:
            p.adjust(start, end, delta)
            assert feasible, f"profile accepted an infeasible {delta:+d}"
            applied.append((start, end, delta))
        except ProfileError:
            assert not feasible, f"profile rejected a feasible {delta:+d}"
        p.check_invariants()
    probes = {0.0, 1e9} | {t for s, e, _ in applied for t in (s, e)}
    for t in probes:
        assert p.free_at(t) == reference_free(applied, t)


def naive_can_place(p, start, duration, nodes, bonus):
    """Pointwise reference for can_place: split at every breakpoint of the
    profile *and* the bonus window, then check each constant piece."""
    end = start + duration
    points = {start} | {t for t in p.times if start < t < end}
    if bonus is not None:
        points |= {b for b in bonus[:2] if start < b < end}
    for t in points:
        avail = p.free_at(t)
        if bonus is not None and bonus[0] <= t < bonus[1]:
            avail += bonus[2]
        if avail < nodes:
            return False
    return True


@settings(max_examples=200, deadline=None)
@given(
    reservations=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=60.0),
            st.floats(min_value=0.1, max_value=30.0),
            st.integers(min_value=1, max_value=TOTAL),
        ),
        max_size=8,
    ),
    query=st.tuples(
        st.floats(min_value=0.0, max_value=80.0),   # start
        st.floats(min_value=0.1, max_value=40.0),   # duration
        st.integers(min_value=1, max_value=TOTAL),  # nodes
    ),
    bonus_window=st.one_of(
        st.none(),
        st.tuples(
            st.floats(min_value=0.0, max_value=90.0),
            st.floats(min_value=0.1, max_value=40.0),
            st.integers(min_value=1, max_value=TOTAL),
        ),
    ),
)
def test_can_place_with_bonus_matches_reference(reservations, query, bonus_window):
    """can_place is exact, not merely conservative: it agrees with the
    pointwise reference for every bonus window, including ones that only
    partially overlap a blocked segment."""
    p = Profile(0.0, TOTAL, TOTAL)
    for start, duration, nodes in reservations:
        try:
            p.reserve(start, duration, nodes)
        except ProfileError:
            pass  # overcommitted sample; skip
    start, duration, nodes = query
    bonus = None
    if bonus_window is not None:
        b_start, b_len, b_nodes = bonus_window
        bonus = (b_start, b_start + b_len, b_nodes)
    assert p.can_place(start, duration, nodes, bonus=bonus) == naive_can_place(
        p, start, duration, nodes, bonus
    )


@settings(max_examples=150, deadline=None)
@given(
    reservations=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=60.0),
            st.floats(min_value=0.1, max_value=30.0),
            st.integers(min_value=1, max_value=TOTAL),
        ),
        max_size=8,
    ),
    own=st.tuples(
        st.floats(min_value=0.0, max_value=60.0),
        st.floats(min_value=0.1, max_value=30.0),
        st.integers(min_value=1, max_value=TOTAL),
    ),
)
def test_bonus_equals_releasing_own_reservation(reservations, own):
    """The backfill idiom: passing one's own reservation window as the
    bonus must answer exactly like a profile with that window released."""
    p = Profile(0.0, TOTAL, TOTAL)
    for start, duration, nodes in reservations:
        try:
            p.reserve(start, duration, nodes)
        except ProfileError:
            pass
    o_start, o_dur, o_nodes = own
    try:
        p.reserve(o_start, o_dur, o_nodes)
    except ProfileError:
        return  # own reservation did not fit; nothing to compare
    released = p.copy()
    released.adjust(o_start, o_start + o_dur, +o_nodes)
    bonus = (o_start, o_start + o_dur, o_nodes)
    for t in [0.0, o_start, o_start + o_dur, *p.times[:6].tolist()]:
        for duration in (0.5, 5.0, 25.0):
            for nodes in (1, o_nodes, TOTAL):
                assert p.can_place(t, duration, nodes, bonus=bonus) == \
                    released.can_place(t, duration, nodes)


@settings(max_examples=150, deadline=None)
@given(
    reservations=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=60.0),
            st.floats(min_value=0.1, max_value=30.0),
            st.integers(min_value=1, max_value=TOTAL),
        ),
        max_size=10,
    ),
    cut=st.floats(min_value=0.0, max_value=80.0),
)
def test_trim_preserves_future(reservations, cut):
    """trim() must not change availability at or after the cut point."""
    p = Profile(0.0, TOTAL, TOTAL)
    applied = []
    for start, duration, nodes in reservations:
        try:
            p.reserve(start, duration, nodes)
            applied.append((start, start + duration, -nodes))
        except ProfileError:
            pass
    probes = [cut, cut + 0.1, cut + 20.0, 1e9] + [
        t for t in p.times if t >= cut
    ]
    before = [p.free_at(t) for t in probes]
    p.trim(cut)
    p.check_invariants()
    assert [p.free_at(t) for t in probes] == before
    assert math.isfinite(p.times[0])


# -- vectorised vs list-backed reference lockstep ---------------------------
#
# The numpy Profile replaced the original pure-Python implementation
# (kept verbatim as ReferenceProfile).  These interleavings drive both
# through identical operation sequences — mutations, trims and every
# query — asserting exact agreement on results, raised error types and
# the resulting step function after every single operation.

profile_ops = st.lists(
    st.one_of(
        st.tuples(st.just("adjust"), windows),
        st.tuples(
            st.just("trim"), st.floats(min_value=0.0, max_value=120.0)
        ),
        st.tuples(
            st.just("find_start"),
            st.tuples(
                st.integers(min_value=1, max_value=TOTAL),
                st.floats(min_value=0.1, max_value=60.0),
                st.floats(min_value=0.0, max_value=150.0),
            ),
        ),
        st.tuples(
            st.just("can_place"),
            st.tuples(
                st.floats(min_value=0.0, max_value=120.0),
                st.floats(min_value=0.1, max_value=60.0),
                st.integers(min_value=1, max_value=TOTAL),
                st.one_of(
                    st.none(),
                    st.tuples(
                        st.floats(min_value=0.0, max_value=120.0),
                        st.floats(min_value=0.1, max_value=60.0),
                        st.integers(min_value=1, max_value=TOTAL),
                    ),
                ),
            ),
        ),
        st.tuples(
            st.just("free_at"), st.floats(min_value=0.0, max_value=200.0)
        ),
    ),
    max_size=25,
)


def _apply(profile, op, arg):
    """Run one op; return ("ok", result) or ("err", exception type)."""
    try:
        if op == "adjust":
            start, duration, delta = arg
            return "ok", profile.adjust(start, start + duration, delta)
        if op == "trim":
            # Trims are only legal behind the query horizon; clamp to
            # the origin-relative past the same way CBF does (t <= now).
            return "ok", profile.trim(arg)
        if op == "find_start":
            nodes, duration, earliest = arg
            return "ok", profile.find_start(nodes, duration, earliest)
        if op == "can_place":
            start, duration, nodes, bonus_w = arg
            bonus = None
            if bonus_w is not None:
                b_start, b_len, b_nodes = bonus_w
                bonus = (b_start, b_start + b_len, b_nodes)
            return "ok", profile.can_place(start, duration, nodes, bonus=bonus)
        assert op == "free_at"
        return "ok", profile.free_at(arg)
    except (ProfileError, ValueError) as exc:
        return "err", type(exc)


@settings(max_examples=200, deadline=None)
@given(ops=profile_ops)
def test_vectorised_profile_matches_reference_lockstep(ops):
    """Exact behavioural equivalence of the numpy and list profiles."""
    vec = Profile(0.0, TOTAL, TOTAL)
    ref = ReferenceProfile(0.0, TOTAL, TOTAL)
    horizon = 0.0
    for op, arg in ops:
        if op == "trim":
            # Keep the interleaving legal: never trim past a point the
            # next query could look behind (mirrors CBF's trim(now)).
            arg = min(arg, horizon)
        elif op == "free_at":
            horizon = max(horizon, arg)
        elif op == "find_start":
            horizon = max(horizon, arg[2])
        elif op == "can_place":
            horizon = max(horizon, arg[0])
        got = _apply(vec, op, arg)
        want = _apply(ref, op, arg)
        assert got == want, f"{op}{arg}: vectorised {got} != reference {want}"
        vec.check_invariants()
        ref.check_invariants()
        assert vec.segments() == ref.segments(), f"state diverged after {op}"
        assert len(vec) == len(ref)


@settings(max_examples=100, deadline=None)
@given(
    running=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=80.0),
            st.integers(min_value=1, max_value=4),
        ),
        max_size=4,
    )
)
def test_from_running_matches_reference(running):
    """Construction from running holds agrees between implementations."""
    try:
        vec = Profile.from_running(10.0, TOTAL, running)
    except ProfileError:
        try:
            ReferenceProfile.from_running(10.0, TOTAL, running)
        except ProfileError:
            return
        raise AssertionError("reference accepted what vectorised rejected")
    ref = ReferenceProfile.from_running(10.0, TOTAL, running)
    assert vec.segments() == ref.segments()


# -- batch backfill check ---------------------------------------------------
#
# CBF's backfill scan asks one question per pending request: can it
# start now if its own (future) reservation is ignored?  backfill_mask
# answers it for all requests at once; these properties pin every bit to
# the scalar can_place, the list-backed reference and the pointwise
# model.  Coordinates are drawn on a half-second grid as well as freely,
# so reservation starts, window ends and ``now`` land exactly on
# breakpoints often.

coords = st.one_of(
    st.integers(min_value=0, max_value=120).map(lambda x: x / 2),
    st.floats(min_value=0.0, max_value=60.0),
)
lengths = st.one_of(
    st.integers(min_value=1, max_value=80).map(lambda x: x / 2),
    st.floats(min_value=0.1, max_value=40.0),
    st.just(1e6),  # reaches past every breakpoint
)


def _build(ops):
    """The same reserve/adjust interleaving on both implementations."""
    vec = Profile(0.0, TOTAL, TOTAL)
    ref = ReferenceProfile(0.0, TOTAL, TOTAL)
    for kind, start, length, amount in ops:
        delta = -amount if kind == "reserve" else amount
        try:
            vec.adjust(start, start + length, delta)
        except ProfileError:
            continue  # infeasible sample; both reject it
        ref.adjust(start, start + length, delta)
    assert vec.segments() == ref.segments()
    return vec, ref


def _expected(p, ref, now, cands):
    bits = []
    for rs, d, n in cands:
        bonus = (rs, rs + d, n)
        want = p.can_place(now, d, n, bonus=bonus)
        assert ref.can_place(now, d, n, bonus=bonus) == want
        assert naive_can_place(p, now, d, n, bonus) == want
        bits.append(want)
    return bits


def _mask(p, now, cands):
    rs, d, n = (np.array(col) for col in zip(*cands))
    return p.backfill_mask(
        now, d.astype(np.float64), n.astype(np.int64), rs.astype(np.float64)
    )


profile_builds = st.lists(
    st.tuples(
        st.sampled_from(("reserve", "release")),
        coords,
        lengths,
        st.integers(min_value=1, max_value=TOTAL),
    ),
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(ops=profile_builds, now=coords, data=st.data())
def test_backfill_mask_matches_scalar_checks(ops, now, data):
    """Every bit equals can_place with the own reservation as bonus."""
    p, ref = _build(ops)
    later = [t for t in p.times.tolist() if t > now]
    offsets = st.one_of(
        st.integers(min_value=1, max_value=80).map(lambda x: x / 2),
        st.floats(min_value=1e-6, max_value=60.0),
    )
    starts = offsets.map(lambda x: now + x)
    if later:
        # Reservations starting exactly on a breakpoint.
        starts = st.one_of(starts, st.sampled_from(later))
    cands = data.draw(st.lists(
        st.tuples(starts, lengths, st.integers(min_value=1, max_value=TOTAL)),
        min_size=1, max_size=8,
    ))
    assert _mask(p, now, cands).tolist() == _expected(p, ref, now, cands)


@settings(max_examples=200, deadline=None)
@given(ops=profile_builds, now=coords, data=st.data())
def test_backfill_mask_windows_ending_on_breakpoints(ops, now, data):
    """``now + d`` exactly on a breakpoint, before or after ``rs``."""
    p, ref = _build(ops)
    later = [t for t in p.times.tolist() if t > now]
    if not later:
        return
    cands = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        end = data.draw(st.sampled_from(later))
        d = end - now
        if now + d != end:
            continue  # inexact in floats; grid coordinates are always exact
        rs = data.draw(st.sampled_from(later + [end + 1.0, end + 50.0]))
        cands.append((rs, d, data.draw(st.integers(1, TOTAL))))
    if not cands:
        return
    assert _mask(p, now, cands).tolist() == _expected(p, ref, now, cands)


def test_backfill_mask_edge_cases():
    """Hand-placed breakpoints: each case against can_place."""
    p = Profile(0.0, TOTAL, TOTAL)
    p.reserve(10.0, 10.0, 6)   # free 2 over [10, 20)
    p.reserve(30.0, 5.0, 3)    # free 5 over [30, 35)
    now = 5.0
    cands = [
        (10.0, 5.0, 4),   # now + d == rs == breakpoint: fits
        (10.0, 6.0, 4),   # rs on a breakpoint, window past it: bonus covers
        (12.0, 10.0, 4),  # short segment [10, 12) before rs: blocked
        (40.0, 5.0, 8),   # rs >= now + d, window ends on a breakpoint
        (40.0, 6.0, 8),   # rs >= now + d, window crosses [10, 20)
        (20.0, 1e6, 2),   # window past every breakpoint, free >= 2 until rs
        (35.0, 1e6, 5),   # blocked at [10, 20) long before rs
        (1e9, 1e6, 2),    # everything before rs, minimum 2
    ]
    want = [p.can_place(now, d, n, bonus=(rs, rs + d, n)) for rs, d, n in cands]
    assert want == [True, True, False, True, False, True, False, True]
    assert _mask(p, now, cands).tolist() == want
    # ``now`` on a breakpoint itself.
    at = [(12.0, 3.0, 2), (12.0, 3.0, 3), (21.0, 3.0, 3)]
    want = [p.can_place(10.0, d, n, bonus=(rs, rs + d, n)) for rs, d, n in at]
    assert want == [True, False, False]
    assert _mask(p, 10.0, at).tolist() == want


def test_backfill_mask_refuses_reservations_not_after_now():
    """``rs <= now`` breaks the proof: raise, never answer a bit."""
    p = Profile(0.0, TOTAL, TOTAL)
    p.reserve(10.0, 10.0, 6)
    for rs in (5.0, 4.0, 0.0):
        with pytest.raises(ProfileError, match="after now"):
            _mask(p, 5.0, [(20.0, 1.0, 1), (rs, 3.0, 2)])
    assert _mask(p, 5.0, [(5.5, 3.0, 2)]).tolist() == [True]


def test_backfill_mask_rejects_queries_before_origin():
    p = Profile(10.0, TOTAL, TOTAL)
    with pytest.raises(ProfileError, match="precedes"):
        _mask(p, 5.0, [(20.0, 1.0, 1)])

"""Batch estimators against the frozen per-value reference.

``WelfordAccumulator.observe_many`` and ``P2Quantile.observe_many``
keep the estimator state in locals and unroll P²'s marker loop; they
must still perform the float operations of the one-value updates in
``stream_ref``, in the same order.  Every comparison here is on
``repr``, so equal means equal to the bit (``-0.0`` and ``0.0``
included), not approximately equal.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.stream import (
    ONLINE_QUANTILES,
    NonFiniteObservationError,
    OnlineMetrics,
    P2Quantile,
    WelfordAccumulator,
)

from .stream_ref import RefP2Quantile, RefWelford

_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
_quantiles = st.sampled_from(ONLINE_QUANTILES + (0.1, 0.25, 0.75))


def welford_state(acc: WelfordAccumulator) -> str:
    return repr((
        acc.count, acc.mean, acc.m2, acc.total, acc.minimum, acc.maximum,
    ))


def p2_state(est: P2Quantile) -> str:
    return repr((
        est.count, est._heights, est._pos, est._desired, est.value,
    ))


def ref_p2_state(ref: RefP2Quantile) -> str:
    # The reference also advanced the two outer desired positions,
    # which no update ever reads; compare the three interior ones.
    return repr((
        ref.count, ref._heights, ref._pos, ref._desired[1:4], ref.value,
    ))


def assert_matches_reference(values: list[float], p: float) -> None:
    acc, ref_acc = WelfordAccumulator(), RefWelford()
    est, ref_est = P2Quantile(p), RefP2Quantile(p)
    acc.observe_many(values)
    est.observe_many(values)
    for x in values:
        ref_acc.observe(x)
        ref_est.observe(x)
    assert welford_state(acc) == repr(ref_acc.state())
    assert p2_state(est) == ref_p2_state(ref_est)


class TestBitIdenticalToReference:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_floats, max_size=4), _quantiles)
    def test_fewer_than_five_values(self, values, p):
        assert_matches_reference(values, p)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.sampled_from([-2.0, -0.0, 0.0, 1.0, 1.0, 3.5]),
            min_size=5,
            max_size=300,
        ),
        _quantiles,
    )
    def test_heavy_ties(self, values, p):
        assert_matches_reference(values, p)

    @settings(max_examples=50, deadline=None)
    @given(_floats, st.integers(min_value=1, max_value=300), _quantiles)
    def test_constant_stream(self, value, n, p):
        assert_matches_reference([value] * n, p)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(["lognormal", "pareto"]),
        st.integers(min_value=5, max_value=2000),
        _quantiles,
    )
    def test_heavy_tailed_draws(self, seed, law, n, p):
        rng = np.random.default_rng(seed)
        if law == "lognormal":
            draws = rng.lognormal(mean=1.0, sigma=3.0, size=n)
        else:
            draws = 1.0 + rng.pareto(0.8, size=n)
        assert_matches_reference([float(x) for x in draws], p)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(_floats, max_size=200),
        st.lists(st.integers(min_value=0, max_value=200), max_size=8),
        _quantiles,
    )
    def test_chunked_equals_one_batch(self, values, cuts, p):
        bounds = [0, *sorted(c % (len(values) + 1) for c in cuts), len(values)]
        acc, est = WelfordAccumulator(), P2Quantile(p)
        for lo, hi in zip(bounds, bounds[1:]):
            acc.observe_many(values[lo:hi])
            est.observe_many(values[lo:hi])
        one_acc, one_est = WelfordAccumulator(), P2Quantile(p)
        one_acc.observe_many(values)
        one_est.observe_many(values)
        assert welford_state(acc) == welford_state(one_acc)
        assert p2_state(est) == p2_state(one_est)
        assert_matches_reference(values, p)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_floats, max_size=60))
    def test_one_value_calls_equal_one_batch(self, values):
        single, batch = OnlineMetrics(), OnlineMetrics()
        for x in values:
            single.observe_completion(wait=x, stretch=-x, slowdown=2.0 * x)
            single.observe_waste(abs(x))
        batch.replay(
            values, [-x for x in values], [2.0 * x for x in values],
            [abs(x) for x in values],
        )
        assert repr(single.to_dict()) == repr(batch.to_dict())


class TestNonFiniteRejected:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_welford_refuses_and_keeps_state(self, bad):
        acc = WelfordAccumulator()
        acc.observe_many([1.0, 2.0])
        before = welford_state(acc)
        with pytest.raises(NonFiniteObservationError, match="non-finite"):
            acc.observe_many([3.0, bad])
        assert welford_state(acc) == before

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_p2_refuses_and_keeps_state(self, bad):
        est = P2Quantile(0.9)
        est.observe_many([float(i) for i in range(10)])
        before = p2_state(est)
        with pytest.raises(NonFiniteObservationError):
            est.observe(bad)
        assert p2_state(est) == before

    def test_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            WelfordAccumulator().observe(math.nan)

    def test_replay_names_the_metric_and_changes_nothing(self):
        om = OnlineMetrics()
        om.replay([1.0], [2.0], [2.0], [5.0])
        before = json.dumps(om.to_dict(), allow_nan=False)
        with pytest.raises(NonFiniteObservationError, match="wasted_node_seconds"):
            om.replay([1.0], [2.0], [2.0], [math.nan])
        with pytest.raises(NonFiniteObservationError, match="stretch"):
            om.observe_completion(wait=1.0, stretch=math.inf, slowdown=1.0)
        # The payload is untouched and still strict JSON.
        assert json.dumps(om.to_dict(), allow_nan=False) == before

"""Streaming (online) statistics: Welford moments and P² quantiles.

The paper's harmfulness verdict rests on distribution-level statistics
— stretch quantiles, waste fractions — that the repo historically
computed post-hoc from fully materialised per-request arrays.  That is
a dead end for multi-million-job streaming replay (ROADMAP item 5) and
for knee detection (item 3), where the signal must come from estimators
whose state does not grow with the stream.  This module provides that
O(1)-memory substrate:

* :class:`WelfordAccumulator` — numerically stable online mean and
  variance (Welford's update, Chan's parallel merge), plus min/max and
  a running total.
* :class:`P2Quantile` — the Jain & Chlamtac (1985) P² algorithm: a
  five-marker piecewise-parabolic estimator of one quantile that never
  stores the population.  Exact below five observations.
* :class:`OnlineStat` — one metric's bundle (moments + p50/p90/p99).
* :class:`OnlineMetrics` — the per-run set (stretch, wait, bounded
  slowdown, wasted work), replayed at finalize in completion order: the
  coordinator records finishing requests during the run and feeds the
  estimators once, afterwards, one column per metric.
* :class:`MergedOnlineMetrics` — the sweep-level reduction.  Its merge
  is list concatenation of immutable per-run summaries, so it is
  *exactly* associative: ``(a + b) + c`` and ``a + (b + c)`` hold the
  same part list and every derived aggregate — computed by a
  deterministic left fold over that list — is bit-identical.  Workers
  may therefore reduce partial sweeps in any grouping, as long as the
  final part order is the deterministic ``(config, replication)`` task
  order (which :func:`~repro.core.parallel.run_grid` guarantees).

Both estimators take values in batches through ``observe_many``, which
keeps the state in locals for the whole batch (and unrolls P²'s marker
loop) but performs the float operations of the one-value update in the
same order: any split of a stream into batches, down to one value per
call (``observe``), gives the same bits.  ``tests/obs/stream_ref.py``
keeps the original one-value code as the oracle.  A NaN or infinite
value is refused with :class:`NonFiniteObservationError` before any
state changes: one would poison the moments, null every quantile and
make the payload non-strict JSON.

Accuracy contract (verified by ``tests/obs/test_stream.py`` and
``tests/obs/test_probes.py``).  P² error is stated in *CDF space* —
``|F̂(q̂_p) − p|`` where ``F̂`` is the exact empirical CDF — because
value-space error is meaningless for the 4-decade heavy-tailed stretch
distributions this repo produces:

* IID moderate-tailed streams of n ≥ 50 observations
  (uniform/exponential/normal, the hypothesis suite): CDF error
  ≤ 2/√n at every tracked quantile — the same order as the sampling
  noise of the exact quantile itself (empirical worst over 20k
  streams: 0.185 at n ≈ 50, 0.05 at n ≈ 400, margin ≥ 35%
  everywhere).  No bound is claimed for adversarial non-IID
  orderings: P² is an interpolation scheme, not a sketch with
  worst-case rank guarantees;
* the smoke experiment grid (≈180 completed jobs, stretch spanning
  1 to ~2·10⁴): CDF error ≤ 0.15 for the median and ≤ 0.05 for
  p90/p99 — the tails, which carry the paper's verdict, are the
  accurate end;
* streams of fewer than five observations: exact (the warm-up buffer
  interpolates the true empirical quantile).

Merged sweep quantiles are count-weighted means of per-run P²
estimates — an approximation documented here rather than hidden: it is
exact when the runs are identically distributed replications (the
sweep case) and degrades gracefully otherwise.

Everything here is pure Python over plain floats: no numpy arrays to
pickle, no RNG draws, no event-queue interaction — attaching online
statistics to a run cannot perturb its trajectory.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

#: version of the ``online_metrics`` payload carried by
#: :class:`~repro.core.results.ExperimentResult`, ``repro bench --json``
#: and run manifests; bump when keys change meaning.
ONLINE_SCHEMA_VERSION = 1

#: quantiles every :class:`OnlineStat` tracks by default (the paper's
#: median plus the tail the helpful/harmful crossover lives in).
ONLINE_QUANTILES: tuple[float, ...] = (0.5, 0.9, 0.99)

#: metric names :class:`OnlineMetrics` maintains, in payload order.
ONLINE_METRIC_NAMES: tuple[str, ...] = (
    "stretch", "wait", "slowdown", "wasted_node_seconds",
)

#: estimator families enabled by this implementation (recorded in run
#: manifests so replayed runs are auditable).
ONLINE_ESTIMATORS: tuple[str, ...] = ("welford", "p2")


def quantile_label(p: float) -> str:
    """Canonical payload key for quantile ``p``: 0.5 -> ``"p50"``."""
    return f"p{100 * p:g}".replace(".", "_")


class NonFiniteObservationError(ValueError):
    """An online estimator was handed a NaN or infinite value.

    One such value would turn ``mean``/``m2``/``total`` into NaN and
    null every quantile, and the payload would stop being strict JSON,
    so the batch path refuses the whole batch before touching any state.
    """


def _require_finite(values: Sequence[float], what: str = "observation") -> None:
    """Raise :class:`NonFiniteObservationError` if any value is NaN/inf."""
    if not all(map(math.isfinite, values)):
        bad = next(x for x in values if not math.isfinite(x))
        raise NonFiniteObservationError(
            f"non-finite {what} {bad!r}: online estimators take finite "
            f"values only"
        )


class WelfordAccumulator:
    """Online mean/variance/min/max/total in O(1) memory.

    Uses Welford's recurrence for observations and Chan et al.'s
    pairwise update for :meth:`merge`, both numerically stable.  The
    running ``total`` is kept separately (not ``count * mean``) so waste
    totals do not pick up mean-rounding drift.
    """

    __slots__ = ("count", "mean", "m2", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, x: float) -> None:
        self.observe_many((x,))

    def observe_many(self, values: Sequence[float]) -> None:
        """Apply Welford's update to ``values`` in order.

        The state lives in locals for the whole batch; the float
        operations and their order are those of one update per value,
        so any split of a stream into batches gives the same bits.
        """
        _require_finite(values)
        count, mean, m2 = self.count, self.mean, self.m2
        total, lo, hi = self.total, self.minimum, self.maximum
        for x in values:
            count += 1
            delta = x - mean
            mean += delta / count
            m2 += delta * (x - mean)
            total += x
            if x < lo:
                lo = x
            if x > hi:
                hi = x
        self.count, self.mean, self.m2 = count, mean, m2
        self.total, self.minimum, self.maximum = total, lo, hi

    def merge(self, other: "WelfordAccumulator") -> None:
        """Fold ``other`` into ``self`` (Chan's parallel combination)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self.m2 = other.m2
            self.total = other.total
            self.minimum = other.minimum
            self.maximum = other.maximum
            return
        n = self.count + other.count
        delta = other.mean - self.mean
        self.m2 += other.m2 + delta * delta * self.count * other.count / n
        self.mean += delta * other.count / n
        self.count = n
        self.total += other.total
        if other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum > self.maximum:
            self.maximum = other.maximum

    @property
    def variance(self) -> float:
        """Population variance (the MetricSummary/np.var convention)."""
        if self.count == 0:
            return float("nan")
        return self.m2 / self.count

    @property
    def std(self) -> float:
        v = self.variance
        return math.sqrt(v) if v == v else float("nan")


def _exact_quantile(sorted_values: Sequence[float], p: float) -> float:
    """Linear-interpolation quantile of a small sorted buffer."""
    n = len(sorted_values)
    if n == 0:
        return float("nan")
    pos = p * (n - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


class P2Quantile:
    """One-quantile P² estimator (Jain & Chlamtac, CACM 1985).

    Five markers track the minimum, the ``p/2``, ``p`` and
    ``(1 + p)/2`` quantiles and the maximum.  Marker heights move by
    piecewise-parabolic (falling back to linear) interpolation as
    observations arrive, so the ``p`` estimate is available at any time
    without storing the stream.  For fewer than five observations the
    estimate is the exact interpolated empirical quantile.

    Only the three interior markers keep desired positions: the outer
    two belong at positions 1 and ``count``, which is where they always
    are, so no update reads theirs.
    """

    __slots__ = ("p", "count", "_heights", "_pos", "_desired", "_inc")

    def __init__(self, p: float) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {p}")
        self.p = p
        self.count = 0
        self._heights: list[float] = []
        self._pos = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p]
        self._inc = (p / 2.0, p, (1.0 + p) / 2.0)

    def observe(self, x: float) -> None:
        self.observe_many((x,))

    def observe_many(self, values: Sequence[float]) -> None:
        """Feed ``values`` through P² in order, in one call.

        Markers live in locals ``h0..h4`` (heights), ``n0..n4``
        (positions) and ``d1..d3`` (desired positions) for the whole
        batch, and the per-marker loop is unrolled.  Each value goes
        through the textbook update: (1) find its cell, moving an
        extreme marker if it falls outside; (2) shift the positions
        above the cell and advance the desired ones; (3) move each
        interior marker that is a position or more from where it should
        be one step toward it, by the parabolic formula if that keeps
        the heights ordered and linearly otherwise.  The float
        operations and their order are those of the one-value update,
        so any split of a stream into batches gives the same bits.
        """
        _require_finite(values)
        h = self._heights
        count = self.count
        it = iter(values)
        # Warm-up: collect the first five observations exactly.
        while count < 5:
            x = next(it, None)
            if x is None:
                self.count = count
                return
            count += 1
            h.append(x)
            h.sort()
        h0, h1, h2, h3, h4 = h
        n0, n1, n2, n3, n4 = self._pos
        d1, d2, d3 = self._desired
        i1, i2, i3 = self._inc
        for x in it:
            count += 1
            # (1) + (2): cell search, extreme markers, position shifts.
            if x < h0:
                h0 = x
                n1 += 1.0
                n2 += 1.0
                n3 += 1.0
            elif x >= h4:
                h4 = x
            elif x < h1:
                n1 += 1.0
                n2 += 1.0
                n3 += 1.0
            elif x < h2:
                n2 += 1.0
                n3 += 1.0
            elif x < h3:
                n3 += 1.0
            n4 += 1.0
            d1 += i1
            d2 += i2
            d3 += i3
            # (3) interior markers, in order 1, 2, 3.
            d = d1 - n1
            if (d >= 1.0 and n2 - n1 > 1.0) or (d <= -1.0 and n0 - n1 < -1.0):
                s = 1.0 if d >= 1.0 else -1.0
                q = h1 + s / (n2 - n0) * (
                    (n1 - n0 + s) * (h2 - h1) / (n2 - n1)
                    + (n2 - n1 - s) * (h1 - h0) / (n1 - n0)
                )
                if h0 < q < h2:
                    h1 = q
                elif s > 0.0:
                    h1 = h1 + s * (h2 - h1) / (n2 - n1)
                else:
                    h1 = h1 + s * (h0 - h1) / (n0 - n1)
                n1 += s
            d = d2 - n2
            if (d >= 1.0 and n3 - n2 > 1.0) or (d <= -1.0 and n1 - n2 < -1.0):
                s = 1.0 if d >= 1.0 else -1.0
                q = h2 + s / (n3 - n1) * (
                    (n2 - n1 + s) * (h3 - h2) / (n3 - n2)
                    + (n3 - n2 - s) * (h2 - h1) / (n2 - n1)
                )
                if h1 < q < h3:
                    h2 = q
                elif s > 0.0:
                    h2 = h2 + s * (h3 - h2) / (n3 - n2)
                else:
                    h2 = h2 + s * (h1 - h2) / (n1 - n2)
                n2 += s
            d = d3 - n3
            if (d >= 1.0 and n4 - n3 > 1.0) or (d <= -1.0 and n2 - n3 < -1.0):
                s = 1.0 if d >= 1.0 else -1.0
                q = h3 + s / (n4 - n2) * (
                    (n3 - n2 + s) * (h4 - h3) / (n4 - n3)
                    + (n4 - n3 - s) * (h3 - h2) / (n3 - n2)
                )
                if h2 < q < h4:
                    h3 = q
                elif s > 0.0:
                    h3 = h3 + s * (h4 - h3) / (n4 - n3)
                else:
                    h3 = h3 + s * (h2 - h3) / (n2 - n3)
                n3 += s
        self.count = count
        self._heights = [h0, h1, h2, h3, h4]
        self._pos = [n0, n1, n2, n3, n4]
        self._desired = [d1, d2, d3]

    @property
    def value(self) -> float:
        """Current estimate of the ``p`` quantile (NaN before any data)."""
        if self.count == 0:
            return float("nan")
        if self.count <= 5:
            return _exact_quantile(self._heights, self.p)
        return self._heights[2]


class OnlineStat:
    """Moments plus a bank of P² quantile estimators for one metric."""

    __slots__ = ("welford", "quantiles")

    def __init__(self, quantiles: Sequence[float] = ONLINE_QUANTILES) -> None:
        self.welford = WelfordAccumulator()
        self.quantiles = [P2Quantile(p) for p in quantiles]

    def observe(self, x: float) -> None:
        self.observe_many((x,))

    def observe_many(self, values: Sequence[float]) -> None:
        """Feed ``values``, in order, to the moments and every quantile."""
        self.welford.observe_many(values)
        for q in self.quantiles:
            q.observe_many(values)

    def summary(self) -> dict:
        """Immutable plain-dict snapshot (the mergeable part payload).

        Undefined statistics (empty stream) serialise as ``None``, not
        NaN: NaN is not strict JSON and ``nan != nan`` would break the
        bit-equality contracts cached results rely on.
        """
        w = self.welford
        quantiles = {}
        for q in self.quantiles:
            value = q.value
            quantiles[quantile_label(q.p)] = value if value == value else None
        return {
            "count": w.count,
            "mean": w.mean if w.count else None,
            "m2": w.m2,
            "total": w.total,
            "min": w.minimum if w.count else None,
            "max": w.maximum if w.count else None,
            "quantiles": quantiles,
        }


class OnlineMetrics:
    """Per-run streaming metrics, replayed at finalize in completion order.

    The coordinator records each finishing request during the run and,
    at :meth:`~repro.core.coordinator.Coordinator.finalize`, hands
    :meth:`replay` one column per metric: wait, stretch and bounded
    slowdown of every completed job, in the order the winners finished,
    and the node-seconds of every duplicate copy, in the order they
    finished, followed by the partial node-seconds of duplicates still
    running at the horizon.  The estimators therefore see exactly the
    sequence a per-completion feed would have produced, and the payload
    is the same to the bit.  The population matches the post-hoc arrays
    exactly: the ``stretch`` count equals ``len(result.jobs)`` and the
    wasted-work total equals ``result.wasted_node_seconds`` up to
    float-summation order.

    :meth:`observe_completion` and :meth:`observe_waste` are one-value
    calls into the same batch code, for callers that feed values as
    they arrive.
    """

    __slots__ = ("stats",)

    def __init__(self, quantiles: Sequence[float] = ONLINE_QUANTILES) -> None:
        self.stats = {name: OnlineStat(quantiles) for name in ONLINE_METRIC_NAMES}

    def replay(
        self,
        waits: Sequence[float],
        stretches: Sequence[float],
        slowdowns: Sequence[float],
        wastes: Sequence[float],
    ) -> None:
        """Feed one column per metric, each in its own arrival order.

        Raises :class:`NonFiniteObservationError`, naming the metric,
        before any estimator changes if a column holds NaN or inf.
        """
        columns = {
            "stretch": stretches,
            "wait": waits,
            "slowdown": slowdowns,
            "wasted_node_seconds": wastes,
        }
        for name, values in columns.items():
            _require_finite(values, name)
        for name, values in columns.items():
            self.stats[name].observe_many(values)

    def observe_completion(
        self, wait: float, stretch: float, slowdown: float
    ) -> None:
        self.replay((wait,), (stretch,), (slowdown,), ())

    def observe_waste(self, node_seconds: float) -> None:
        self.replay((), (), (), (node_seconds,))

    def to_dict(self) -> dict:
        """The ``ExperimentResult.online_metrics`` payload."""
        return {
            "schema": ONLINE_SCHEMA_VERSION,
            "metrics": {
                name: self.stats[name].summary() for name in ONLINE_METRIC_NAMES
            },
        }


# -- sweep-level reduction ----------------------------------------------


class MergedOnlineMetrics:
    """Exactly-associative reduction of per-run online payloads.

    Holds the flat tuple-of-parts (one part per run, in insertion
    order); every aggregate is a pure left fold over that tuple.  Merge
    of two reductions is concatenation, so any grouping of the same
    ordered part sequence produces bit-identical aggregates.
    """

    __slots__ = ("parts",)

    def __init__(self) -> None:
        #: per-run payloads (the ``to_dict`` dicts), in insertion order
        self.parts: list[dict] = []

    def add(self, payload: Optional[dict]) -> None:
        """Fold one run's ``online_metrics`` payload in (None = no-op)."""
        if payload is None:
            return
        if payload.get("schema") != ONLINE_SCHEMA_VERSION:
            raise ValueError(
                f"online-metrics schema mismatch: expected "
                f"{ONLINE_SCHEMA_VERSION}, got {payload.get('schema')!r}"
            )
        self.parts.append(payload)

    def merge(self, other: "MergedOnlineMetrics") -> None:
        """Concatenate another reduction's parts after this one's."""
        self.parts.extend(other.parts)

    @property
    def n_runs(self) -> int:
        return len(self.parts)

    def _metric_parts(self, name: str) -> list[dict]:
        return [p["metrics"][name] for p in self.parts]

    def count(self, name: str) -> int:
        return sum(p["count"] for p in self._metric_parts(name))

    def total(self, name: str) -> float:
        total = 0.0
        for p in self._metric_parts(name):
            total += p["total"]
        return total

    def mean_variance(self, name: str) -> tuple[float, float]:
        """Chan-fold mean and population variance across all parts."""
        acc = WelfordAccumulator()
        for p in self._metric_parts(name):
            if p["count"] == 0:
                continue
            part = WelfordAccumulator()
            part.count = p["count"]
            part.mean = p["mean"]
            part.m2 = p["m2"]
            part.total = p["total"]
            part.minimum = p["min"]
            part.maximum = p["max"]
            acc.merge(part)
        if acc.count == 0:
            return float("nan"), float("nan")
        return acc.mean, acc.variance

    def quantile(self, name: str, p: float) -> float:
        """Count-weighted mean of per-run P² estimates for quantile ``p``.

        Exact when parts are IID replications of one distribution (the
        sweep case); an approximation otherwise — see the module
        docstring's accuracy contract.
        """
        label = quantile_label(p)
        weight = 0.0
        weighted = 0.0
        for part in self._metric_parts(name):
            n = part["count"]
            if n == 0:
                continue
            value = part["quantiles"].get(label)
            if value is None or value != value:
                continue
            weight += n
            weighted += n * value
        if weight == 0.0:
            return float("nan")
        return weighted / weight

    def summary(self) -> Optional[dict]:
        """Aggregate payload for bench/knee surfacing (None when empty)."""
        if not self.parts:
            return None
        metrics = {}
        for name in ONLINE_METRIC_NAMES:
            count = self.count(name)
            mean, variance = self.mean_variance(name)
            parts = self._metric_parts(name)
            mins = [p["min"] for p in parts if p["count"]]
            maxs = [p["max"] for p in parts if p["count"]]
            quantiles = {}
            for p in ONLINE_QUANTILES:
                value = self.quantile(name, p)
                quantiles[quantile_label(p)] = value if value == value else None
            metrics[name] = {
                "count": count,
                "mean": mean if count else None,
                "variance": variance if count else None,
                "total": self.total(name),
                "min": min(mins) if mins else None,
                "max": max(maxs) if maxs else None,
                "quantiles": quantiles,
            }
        return {
            "schema": ONLINE_SCHEMA_VERSION,
            "n_runs": self.n_runs,
            "metrics": metrics,
        }


def merge_online_payloads(
    payloads: Iterable[Optional[dict]],
) -> Optional[dict]:
    """One-shot reduction of per-run payloads in iteration order."""
    merged = MergedOnlineMetrics()
    for payload in payloads:
        merged.add(payload)
    return merged.summary()

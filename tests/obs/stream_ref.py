"""Reference per-value Welford and P² estimators (the pre-batch code).

These are the ``WelfordAccumulator.observe`` and ``P2Quantile.observe``
bodies that :mod:`repro.obs.stream` used while the coordinator fed the
estimators one completion at a time, preserved verbatim.  They exist
only as the differential oracle: ``tests/obs/test_stream_batch.py``
checks that the batch ``observe_many`` loops reproduce them bit for bit
(compared with ``repr``), and ``benchmarks/test_bench_perf_substrates.py``
times the two against each other.
"""

from __future__ import annotations

import math
from typing import Sequence


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


class RefWelford:
    """Welford's recurrence, one Python call per observation."""

    __slots__ = ("count", "mean", "m2", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, x: float) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)
        self.total += x
        if x < self.minimum:
            self.minimum = x
        if x > self.maximum:
            self.maximum = x

    def state(self) -> tuple:
        return (
            self.count, self.mean, self.m2, self.total,
            self.minimum, self.maximum,
        )


class RefP2Quantile:
    """Jain & Chlamtac P² with list-held markers and helper methods."""

    __slots__ = ("p", "count", "_heights", "_pos", "_desired", "_inc")

    def __init__(self, p: float) -> None:
        self.p = p
        self.count = 0
        self._heights: list[float] = []
        self._pos = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0]
        self._inc = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]

    def observe(self, x: float) -> None:
        self.count += 1
        h = self._heights
        if self.count <= 5:
            # Warm-up: collect the first five observations exactly.
            h.append(x)
            h.sort()
            return
        pos = self._pos
        # 1. Find the cell x falls into; adjust the extreme markers.
        if x < h[0]:
            h[0] = x
            k = 0
        elif x >= h[4]:
            h[4] = x
            k = 3
        else:
            k = 0
            while k < 3 and x >= h[k + 1]:
                k += 1
        # 2. Shift actual positions above the cell; advance desired ones.
        for i in range(k + 1, 5):
            pos[i] += 1.0
        for i in range(5):
            self._desired[i] += self._inc[i]
        # 3. Nudge the three interior markers toward their desired
        #    positions, parabolic where monotone, linear otherwise.
        for i in range(1, 4):
            d = self._desired[i] - pos[i]
            if (d >= 1.0 and pos[i + 1] - pos[i] > 1.0) or (
                d <= -1.0 and pos[i - 1] - pos[i] < -1.0
            ):
                step = 1.0 if d >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] = self._linear(i, step)
                pos[i] += step
        return

    def _parabolic(self, i: int, d: float) -> float:
        h, n = self._heights, self._pos
        return h[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        h, n = self._heights, self._pos
        j = i + int(d)
        return h[i] + d * (h[j] - h[i]) / (n[j] - n[i])

    @property
    def value(self) -> float:
        if self.count == 0:
            return float("nan")
        if self.count <= 5:
            return _exact_quantile(self._heights, self.p)
        return self._heights[2]

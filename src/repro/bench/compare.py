"""Compare two ``repro bench --json`` payloads benchmark-by-benchmark.

The checked-in bench trajectory (``BENCH_*.json`` at the repo root)
records a before/after pair per optimisation PR.  ``repro bench
--compare OLD NEW`` diffs any two payloads — raw ``--json`` output or a
trajectory wrapper (its ``after`` half is used) — and exits non-zero
when any benchmark regressed by more than :data:`REGRESSION_THRESHOLD`,
so CI can hold the line without a human reading timing tables.

Timings are wall-clock and therefore noisy; the 20% default threshold
is deliberately loose enough to absorb machine variance while still
catching the order-of-magnitude mistakes (an accidentally quadratic
queue scan, a cache that stopped hitting).

The gate only holds between payloads measured on the same host.  When
the two manifests disagree on any of :data:`HOST_FIELDS` (a trajectory
point taken on a 1-CPU host against a 2-CPU one, say), the ratios are
still printed but nothing counts as a regression.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

#: relative slowdown above which a benchmark counts as regressed
REGRESSION_THRESHOLD = 0.20
#: manifest fields that identify the host a payload was measured on
HOST_FIELDS = ("cpu_count", "python", "platform")


def load_bench_payload(path: Union[str, Path]) -> dict:
    """Load a bench payload from ``path``.

    Accepts either a raw ``repro bench --json`` payload (has
    ``timings_s``) or a trajectory wrapper with ``before``/``after``
    halves, in which case the ``after`` half is returned.
    """
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict) and "timings_s" in data:
        return data
    if (
        isinstance(data, dict)
        and isinstance(data.get("after"), dict)
        and "timings_s" in data["after"]
    ):
        return data["after"]
    raise ValueError(
        f"{path}: not a bench payload (expected 'timings_s', or a "
        f"trajectory wrapper with an 'after' half)"
    )


@dataclass
class BenchComparison:
    """Per-benchmark deltas between two payloads."""

    threshold: float
    #: rows: name, old_s, new_s, ratio (new/old), regressed
    rows: list[dict] = field(default_factory=list)
    #: benchmarks present in only one payload (compared as nothing)
    missing: list[str] = field(default_factory=list)
    #: host fields on which the payloads differ, as "field old -> new";
    #: non-empty means the timings are not comparable and nothing gates
    host_differences: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[dict]:
        return [r for r in self.rows if r["regressed"]]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        lines = []
        if self.host_differences:
            lines.append(
                "not comparable: host differs ("
                + "; ".join(self.host_differences) + ")"
            )
        lines.append(
            f"  {'benchmark':<12} {'old':>9} {'new':>9} {'delta':>8} "
            f"{'ratio':>7}"
        )
        for r in self.rows:
            delta = 100.0 * (r["ratio"] - 1.0)
            flag = "  << REGRESSION" if r["regressed"] else ""
            lines.append(
                f"  {r['name']:<12} {r['old_s']:8.2f}s {r['new_s']:8.2f}s "
                f"{delta:+7.1f}% {r['ratio']:6.2f}x{flag}"
            )
        for name in self.missing:
            lines.append(f"  {name:<12} (present in only one payload)")
        if self.host_differences:
            lines.append("OK: ratios only; no regression gate across hosts")
        elif self.ok:
            lines.append(
                f"OK: no benchmark regressed by more than "
                f"{100.0 * self.threshold:.0f}%"
            )
        else:
            names = ", ".join(r["name"] for r in self.regressions)
            lines.append(
                f"FAIL: {len(self.regressions)} benchmark(s) regressed by "
                f"more than {100.0 * self.threshold:.0f}%: {names}"
            )
        return "\n".join(lines)


def compare_payloads(
    old: dict, new: dict, threshold: float = REGRESSION_THRESHOLD
) -> BenchComparison:
    """Diff the ``timings_s`` of two payloads.

    A benchmark regresses when ``new > old * (1 + threshold)`` and both
    payloads come from the same host (:func:`host_differences`).
    Benchmarks appearing in only one payload are reported but never
    fail the comparison (grids legitimately gain and lose entries).
    """
    old_t = old.get("timings_s", {})
    new_t = new.get("timings_s", {})
    comparison = BenchComparison(
        threshold=threshold, host_differences=host_differences(old, new)
    )
    gated = not comparison.host_differences
    for name in sorted(old_t.keys() | new_t.keys()):
        if name not in old_t or name not in new_t:
            comparison.missing.append(name)
            continue
        old_s, new_s = float(old_t[name]), float(new_t[name])
        ratio = new_s / old_s if old_s > 0 else float("inf")
        comparison.rows.append(
            {
                "name": name,
                "old_s": old_s,
                "new_s": new_s,
                "ratio": ratio,
                "regressed": gated and new_s > old_s * (1.0 + threshold),
            }
        )
    return comparison


def host_differences(old: dict, new: dict) -> list[str]:
    """The :data:`HOST_FIELDS` on which two payloads' manifests differ.

    A payload without a manifest identifies no host; it is compared as
    if measured on the same one.
    """
    old_m, new_m = old.get("manifest"), new.get("manifest")
    if not isinstance(old_m, dict) or not isinstance(new_m, dict):
        return []
    return [
        f"{name} {old_m.get(name)} -> {new_m.get(name)}"
        for name in HOST_FIELDS
        if old_m.get(name) != new_m.get(name)
    ]

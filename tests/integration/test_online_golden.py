"""Byte-identity of the ``online_metrics`` payload.

The golden was recorded while the coordinator still fed the Welford and
P² estimators from a scheduler finish callback, one completion at a
time.  They are now replayed once, at ``Coordinator.finalize``, in
completion order; every stored float must come out bit for bit the same
(``json.dumps`` writes floats with ``repr``, so equal text means equal
bits).

The grid covers each scheduler under each of ``NONE``, ``R2`` and
``ALL``, plus three runs that charge waste: cancel-on-complete stopped
at the horizon (duplicates still running there are charged their
partial node-seconds), a 60 s cancellation latency (duplicates that
start inside the window and finish before the horizon), and lost
cancellations (orphans that run to completion).
"""

import json
from pathlib import Path

from repro.core.config import ExperimentConfig
from repro.core.experiment import run_single
from repro.faults import FaultConfig

GOLDEN = Path(__file__).parent / "data" / "online_golden.json"

BASE = dict(
    n_clusters=3,
    nodes_per_cluster=16,
    duration=600.0,
    offered_load=2.0,
    seed=20060619,
)

CONFIGS = tuple(
    ExperimentConfig(algorithm=algorithm, scheme=scheme, **BASE)
    for algorithm in ("easy", "cbf", "fcfs")
    for scheme in ("NONE", "R2", "ALL")
) + (
    ExperimentConfig(
        scheme="ALL", cancellation_policy="cancel-on-complete", **BASE
    ),
    ExperimentConfig(
        algorithm="cbf", scheme="R2", cancellation_latency=60.0, **BASE
    ),
    ExperimentConfig(
        scheme="R2", faults=FaultConfig(p_cancel_loss=0.3), drain=True, **BASE
    ),
)


def render_online(configs) -> str:
    """One JSON line per config: replication 0's ``online_metrics``."""
    lines = []
    for ci, cfg in enumerate(configs):
        payload = run_single(cfg, replication=0).online_metrics
        lines.append(json.dumps(
            {"config": ci, "online_metrics": payload},
            sort_keys=True,
            separators=(",", ":"),
        ))
    return "\n".join(lines) + "\n"


def test_online_metrics_byte_identical():
    assert render_online(CONFIGS) == GOLDEN.read_text()


def test_golden_exercises_every_waste_path():
    """The grid must keep charging waste, or the golden proves little."""
    rows = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    waste = [
        row["online_metrics"]["metrics"]["wasted_node_seconds"]["count"]
        for row in rows
    ]
    assert all(n > 0 for n in waste[-3:])

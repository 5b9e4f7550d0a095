"""Byte-identity of Conservative Backfilling traces.

The policy golden runs EASY only, and the kernel-equivalence test
compares two event queues under the same scheduler code, so neither can
see a change to CBF's own decisions.  This golden was recorded from the
per-candidate ``Profile.can_place`` backfill scan, before it became one
batch availability query per early start; the scan must still start the
same requests at the same instants, byte for byte.

Two configurations: the paper's ``ALL`` scheme under CBF, and the same
run with cancellation faults and queue-preserving outages, so that
reservations fall due while the daemon is down (``_restore_overdue``)
and backfill resumes after each recovery.
"""

from pathlib import Path

from repro.core.config import ExperimentConfig
from repro.faults import FaultConfig

from .golden import render_traces

GOLDEN = Path(__file__).parent / "data" / "cbf_all_golden.jsonl"

BASE = dict(
    scheme="ALL",
    algorithm="cbf",
    n_clusters=3,
    nodes_per_cluster=16,
    duration=300.0,
    offered_load=2.0,
    drain=True,
    seed=20060619,
)

CONFIGS = (
    ExperimentConfig(**BASE),
    ExperimentConfig(
        faults=FaultConfig(
            p_cancel_loss=0.3,
            cancel_delay_mean=30.0,
            outage_rate=4.0,
            outage_duration=300.0,
            outage_drop_queue=False,
            resubmit_policy="resubmit",
        ),
        **BASE,
    ),
)


def test_cbf_traces_byte_identical():
    assert render_traces(CONFIGS) == GOLDEN.read_text()

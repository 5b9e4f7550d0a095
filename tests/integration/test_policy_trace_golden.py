"""Byte-identity of cancel-on-start traces across the policy refactor.

The golden file was recorded from the pre-refactor coordinator (the
inlined cancellation-dispatch block) over three configurations chosen to
exercise every dispatch path: zero-latency immediate cancellation,
scalar cancellation latency, and fault-injected per-loser delays with
outages and resubmission.  The policy layer extracted that block into
``Coordinator.dispatch_cancellations`` — this test proves the default
``cancel-on-start`` policy reproduces the exact event stream, byte for
byte, so the refactor is observationally free.
"""

from pathlib import Path

from repro.core.config import ExperimentConfig
from repro.faults import FaultConfig

from .golden import render_traces

GOLDEN = Path(__file__).parent / "data" / "cancel_on_start_golden.jsonl"

BASE = dict(
    n_clusters=3,
    nodes_per_cluster=16,
    duration=300.0,
    offered_load=2.0,
    drain=True,
    seed=20060619,
)

#: zero latency / scalar latency / fault-injected delays + outages
CONFIGS = (
    ExperimentConfig(scheme="R2", **BASE),
    ExperimentConfig(scheme="R3", cancellation_latency=30.0, **BASE),
    ExperimentConfig(
        scheme="ALL",
        faults=FaultConfig(
            p_cancel_loss=0.3,
            cancel_delay_mean=30.0,
            cancel_delay_distribution="exponential",
            outage_rate=2.0,
            outage_duration=300.0,
            outage_drop_queue=True,
            resubmit_policy="resubmit",
        ),
        **BASE,
    ),
)


def test_cancel_on_start_traces_byte_identical():
    assert render_traces(CONFIGS) == GOLDEN.read_text()

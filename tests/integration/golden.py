"""Shared rendering for the byte-identity trace goldens."""

import json

from repro.obs.trace import run_single_traced


def render_traces(configs) -> str:
    """One JSON line per lifecycle event of each config's replication 0."""
    lines = []
    for ci, cfg in enumerate(configs):
        traced = run_single_traced(cfg, replication=0)
        for t, etype, cluster, request_id, job_id in traced.events:
            lines.append(json.dumps(
                {
                    "config": ci,
                    "t": t,
                    "type": etype,
                    "cluster": cluster,
                    "request": request_id,
                    "job": job_id,
                },
                sort_keys=True,
                separators=(",", ":"),
            ))
    return "\n".join(lines) + "\n"

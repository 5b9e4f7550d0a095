"""Output checks: the benchmark's own result digest and invariants.

The digest is computed here, over plain field values, rather than with
the service's schema-versioned results codec, so that a later change
to that codec cannot move it.  Host-timing fields are dropped first;
the list mirrors the program's idea of which result fields are
nondeterministic, restated here so a program change cannot silently
widen what the digest ignores.

Every grid the benchmark produces also passes :func:`grid_failures`,
a set of invariants any correct drained, fault-free sweep satisfies
(request accounting, the first-start-wins cancellation count, job
timing, and common random numbers across schemes).  They hold for
every seed, so they check runs whose digest is not pinned.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Iterable, Sequence

#: per-result fields that carry host timing, never part of a digest
TIMING_FIELDS = ("wall_time_s", "phase_timings")


def _plain(obj: Any) -> Any:
    """JSON fallback for numpy scalars/arrays inside result fields."""
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError(f"not JSON-serialisable: {type(obj).__name__}")


def _fields(obj: Any) -> dict:
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def result_row(result: Any) -> dict:
    """An ExperimentResult (or its JSON row) as timing-free field data.

    Rows built from objects and rows parsed from JSON serialise to the
    same digest text.
    """
    if dataclasses.is_dataclass(result):
        row = _fields(result)
        row["jobs"] = [_fields(job) for job in result.jobs]
        row["clusters"] = [_fields(c) for c in result.clusters]
    else:
        row = dict(result)
    for key in TIMING_FIELDS:
        row.pop(key, None)
    return row


def digest_rows(grid: Sequence[Sequence[dict]]) -> str:
    """SHA-256 over a grid of timing-free rows, in grid order."""
    h = hashlib.sha256()
    for per_config in grid:
        for row in per_config:
            h.update(json.dumps(row, sort_keys=True, separators=(",", ":"),
                                default=_plain).encode())
            h.update(b"\n")
        h.update(b"|")
    return h.hexdigest()


def combine(digests: Iterable[str]) -> str:
    """One digest over an ordered list of digests."""
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def _job_key(job: dict) -> tuple:
    return (job["job_id"], job["origin"], job["nodes"], job["runtime"],
            job["requested_time"], job["submit_time"])


def row_failures(row: dict, scheme: str, replication: int,
                 n_clusters: int) -> list[str]:
    """Invariant violations of one drained, fault-free result row."""
    out = []
    if row["scheme"] != scheme or row["replication"] != replication:
        out.append(f"row is {row['scheme']}/r{row['replication']}, "
                   f"expected {scheme}/r{replication}")
    jobs, clusters = row["jobs"], row["clusters"]
    n_jobs, requests = row["n_submitted_jobs"], row["total_requests"]
    if n_jobs < 1 or len(jobs) != n_jobs:
        out.append(f"{len(jobs)} of {n_jobs} jobs completed in a drained run")
    if sum(c["submitted"] for c in clusters) != requests:
        out.append("cluster submissions do not add up to total_requests")
    for c in clusters:
        if c["submitted"] != c["cancelled"] + c["completed"]:
            out.append(f"cluster {c['cluster']}: submitted != "
                       "cancelled + completed")
    if row["total_cancellations"] != requests - n_jobs:
        out.append("cancellations != requests - jobs (first start wins)")
    if scheme == "NONE" and requests != n_jobs:
        out.append("NONE submitted more than one request per job")
    for job in jobs:
        if job["start_time"] < job["submit_time"]:
            out.append(f"job {job['job_id']} started before submission")
            break
        end = job["start_time"] + job["runtime"]
        if abs(job["end_time"] - end) > 1e-6 * max(1.0, abs(end)):
            out.append(f"job {job['job_id']} end != start + runtime")
            break
        if not (1 <= job["n_copies"] <= n_clusters) or (
                scheme == "NONE" and job["n_copies"] != 1):
            out.append(f"job {job['job_id']} has {job['n_copies']} copies")
            break
        if not 0 <= job["winner_cluster"] < n_clusters:
            out.append(f"job {job['job_id']} ran on a nonexistent cluster")
            break
    online = row.get("online_metrics")
    if not online or online["metrics"]["stretch"]["count"] != len(jobs):
        out.append("online stretch count != completed jobs")
    return out


def grid_failures(grid: Sequence[Sequence[dict]], schemes: Sequence[str],
                  replications: Sequence[int],
                  n_clusters: int) -> list[list[list[str]]]:
    """Per-row failure lists for one scheme grid (config x replication).

    Besides :func:`row_failures`, every scheme's replication ``r`` must
    have simulated exactly the job stream of the NONE baseline's
    replication ``r`` (common random numbers).
    """
    failures = [
        [row_failures(row, scheme, rep, n_clusters)
         for row, rep in zip(per_config, replications)]
        for per_config, scheme in zip(grid, schemes)
    ]
    for k, rep in enumerate(replications):
        base = sorted(_job_key(j) for j in grid[0][k]["jobs"])
        for ci in range(1, len(grid)):
            if sorted(_job_key(j) for j in grid[ci][k]["jobs"]) != base:
                failures[ci][k].append(
                    f"replication {rep} job stream differs from NONE's")
    return failures

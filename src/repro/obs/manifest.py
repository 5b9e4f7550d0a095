"""Sweep artifacts: run manifests, the run journal, JSONL recordings.

A manifest answers, months later, "what exactly produced this trace /
bench payload?": the content-addressed fingerprint of every config, the
master seed and the RNG derivation rule, the package and cache schema
versions, the platform it ran on, and how long it took.  Together with
the determinism guarantees of the sweep engine (results and traces are
pure functions of ``(config, replication)``), a manifest plus the repo
at the recorded version regenerates the artifact bit-for-bit.

Traced and probed sweeps share one artifact layout, written by
:func:`record_jsonl_sweep`: a schema-versioned JSONL file (header line,
then one canonical record per line, via :func:`write_jsonl` /
:func:`read_jsonl`) beside ``manifest.json``.
"""

from __future__ import annotations

import json
import os
import platform as _platform
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from ..contracts import declared_pure
from ..core.cache import CACHE_SCHEMA_VERSION, config_fingerprint
from ..core.config import ExperimentConfig
from ..core.orchestrator import GridStats, run_grid
from ..core.results import ExperimentResult
from .stream import ONLINE_SCHEMA_VERSION

#: bump when the manifest layout changes incompatibly
#: (2: online_schema_version field — every result now carries streaming
#:  Welford/P² statistics, and an auditable replay must know which
#:  payload layout was in force)
MANIFEST_SCHEMA_VERSION = 2

#: canonical manifest file name inside a recording directory
MANIFEST_FILENAME = "manifest.json"

#: one-line statement of how every random stream is derived; recorded
#: verbatim so an artifact is interpretable without reading the code
RNG_DERIVATION = (
    "numpy SeedSequence([master_seed, *sha256(key)]) per component key; "
    "replication r of a config uses keys ('rep', r, <component>) only"
)


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record written alongside every traced sweep."""

    schema: int
    created_unix: float
    created_iso: str
    repro_version: str
    python: str
    platform: str
    cpu_count: Optional[int]
    cache_schema_version: int
    #: layout version of the online-metrics payloads riding the results
    #: (:data:`repro.obs.stream.ONLINE_SCHEMA_VERSION` at record time)
    online_schema_version: int
    rng_derivation: str
    configs: list[dict]
    n_replications: int
    first_replication: int
    n_workers: int
    wall_time_s: float
    grid_stats: dict = field(default_factory=dict)
    command: Optional[list[str]] = None
    extra: dict = field(default_factory=dict)
    #: numpy version (``None`` in manifests written before it was kept)
    numpy: Optional[str] = None

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> dict:
        return {"kind": "repro-manifest", **asdict(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def write(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def from_dict(cls, payload: dict) -> "RunManifest":
        if payload.get("kind") != "repro-manifest":
            raise ValueError("not a repro manifest (bad 'kind')")
        if payload.get("schema") != MANIFEST_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported manifest schema {payload.get('schema')!r} "
                f"(this build reads {MANIFEST_SCHEMA_VERSION})"
            )
        fields = {k: v for k, v in payload.items() if k != "kind"}
        return cls(**fields)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunManifest":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


class RunJournal:
    """Append-only JSONL progress journal for resumable sweeps.

    The orchestrator appends one entry per lifecycle event (grid
    prepared, executor attached, chunk completed); ``repro serve``
    keeps one journal per job next to its manifest.  Together with the
    disk result cache the journal is what makes a killed server or
    worker resumable: completed work is *recovered* through the cache,
    while the journal records — auditable after the fact — which chunks
    completed when, so tests and operators can verify a resume really
    did re-run only the incomplete remainder.

    Entries are flushed and fsynced per append (events are chunk-, not
    task-grained, so durability costs little) and a torn final line
    from a crash mid-write is skipped on read.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._seq = len(self.entries()) if self.path.exists() else 0

    def append(self, entry: dict) -> dict:
        """Durably append one event; returns the record as written."""
        with self._lock:
            record = {
                "seq": self._seq,
                # repro-lint: disable=DET001 -- journal timestamps are
                # provenance metadata (when did this chunk land), never
                # simulation input
                "unix": time.time(),
                **entry,
            }
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            self._seq += 1
        return record

    def entries(self) -> list[dict]:
        """Every intact record, in append order."""
        try:
            text = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return []
        out: list[dict] = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                out.append(json.loads(line))
            except ValueError:
                # Torn tail from a crash mid-append: ignore it; the
                # cache, not the journal, is the source of truth.
                continue
        return out


def describe_config(config: ExperimentConfig, index: int = 0) -> dict:
    """The manifest entry for one config: identity plus content address."""
    return {
        "index": index,
        "scheme": config.scheme,
        "algorithm": config.algorithm,
        "seed": config.seed,
        "describe": config.describe(),
        "fingerprint": config_fingerprint(config),
    }


def build_manifest(
    configs: Sequence[ExperimentConfig],
    n_replications: int,
    first_replication: int = 0,
    n_workers: int = 1,
    wall_time_s: float = 0.0,
    grid_stats: Optional[dict] = None,
    command: Optional[list[str]] = None,
    extra: Optional[dict] = None,
) -> RunManifest:
    """Assemble a manifest for a sweep over ``configs``."""
    from .. import __version__

    # repro-lint: disable=DET001 -- the manifest's entire job is to
    # record when/where a run happened; host timestamps are provenance
    # metadata, never simulation input
    now = time.time()
    return RunManifest(
        schema=MANIFEST_SCHEMA_VERSION,
        created_unix=now,
        # repro-lint: disable=DET001 -- provenance timestamp, see above
        created_iso=time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime(now)),
        repro_version=__version__,
        python=sys.version.split()[0],
        platform=_platform.platform(),
        cpu_count=os.cpu_count(),
        cache_schema_version=CACHE_SCHEMA_VERSION,
        online_schema_version=ONLINE_SCHEMA_VERSION,
        rng_derivation=RNG_DERIVATION,
        configs=[describe_config(cfg, i) for i, cfg in enumerate(configs)],
        n_replications=n_replications,
        first_replication=first_replication,
        n_workers=n_workers,
        wall_time_s=wall_time_s,
        grid_stats=dict(grid_stats) if grid_stats is not None else {},
        command=command,
        extra=dict(extra) if extra is not None else {},
        numpy=np.__version__,
    )


# -- JSONL recordings -----------------------------------------------------


@declared_pure
def _dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def write_jsonl(
    path: Union[str, Path],
    kind: str,
    schema: int,
    header: dict,
    records: Iterable[dict],
) -> int:
    """Write a schema-versioned JSONL artifact; returns the record count.

    Line 1 is the header (always carrying ``kind``/``schema``); every
    further line is one record.  Output is canonical (sorted keys,
    compact separators) so identical records produce identical bytes.
    """
    header = {"kind": kind, "schema": schema, **header}
    count = 0
    with open(Path(path), "w", encoding="utf-8") as fh:
        fh.write(_dumps(header) + "\n")
        for record in records:
            fh.write(_dumps(record) + "\n")
            count += 1
    return count


def read_jsonl(
    path: Union[str, Path], kind: str, schema: int, noun: str
) -> tuple[dict, list[dict]]:
    """Load a JSONL artifact written by :func:`write_jsonl`.

    Returns ``(header, records)``.  Raises ``ValueError`` (naming the
    artifact by ``noun``) on an empty file, a missing/foreign header or
    an unsupported schema version — interchange artifacts fail loudly
    rather than be misinterpreted.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first.strip():
            raise ValueError(f"{path}: empty {noun} file")
        header = json.loads(first)
        if not isinstance(header, dict) or header.get("kind") != kind:
            raise ValueError(f"{path}: not a repro {noun} (bad header)")
        if header.get("schema") != schema:
            raise ValueError(
                f"{path}: unsupported {noun} schema {header.get('schema')!r} "
                f"(this build reads {schema})"
            )
        records = [json.loads(line) for line in fh if line.strip()]
    return header, records


#: turns one task's runner output into JSONL records:
#: ``rows(run, config_index, replication, scheme)``
RowsFn = Callable[[Any, int, int, str], Iterable[dict]]


def record_jsonl_sweep(
    configs: Sequence[ExperimentConfig],
    n_replications: int,
    out_dir: Union[str, Path],
    *,
    runner: Callable[[ExperimentConfig, int], Any],
    rows: RowsFn,
    kind: str,
    schema: int,
    filename: str,
    count_key: str,
    file_key: str,
    header: Optional[dict] = None,
    extra: Optional[dict] = None,
    n_workers: int = 1,
    first_replication: int = 0,
    chunksize: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    stats: Optional[GridStats] = None,
    command: Optional[Sequence[str]] = None,
) -> tuple[list[list[ExperimentResult]], RunManifest]:
    """Run a recorded sweep; write ``filename`` + ``manifest.json``.

    The grid runs through :func:`~repro.core.orchestrator.run_grid`
    (chunking, retry, crash recovery all apply) with ``runner``
    substituted and caching off: a cached result has no recording to
    contribute.  ``runner`` returns a payload with the run's
    ``.result``; ``rows`` turns it into records, which are written in
    ``(config, replication)`` order regardless of worker scheduling, so
    the file is byte-identical for any ``n_workers``.  Duplicate configs
    are recorded once, under their first index.

    The JSONL header and the manifest's ``extra`` carry ``header`` and
    ``extra`` respectively, plus the record count under ``count_key``
    and the file name under ``file_key``.  Returns the unwrapped results
    (parallel to ``configs``) and the manifest.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    unique = list(dict.fromkeys(configs))
    stats = stats if stats is not None else GridStats()
    t0 = time.perf_counter()
    runs = run_grid(
        unique,
        n_replications,
        n_workers=n_workers,
        first_replication=first_replication,
        cache=None,
        chunksize=chunksize,
        progress=progress,
        runner=runner,
        stats=stats,
    )
    wall = time.perf_counter() - t0
    reps = range(first_replication, first_replication + n_replications)

    def iter_records() -> Iterator[dict]:
        for ui, cfg in enumerate(unique):
            for run, rep in zip(runs[ui], reps):
                yield from rows(run, ui, rep, cfg.scheme)

    n_records = write_jsonl(
        out_dir / filename,
        kind,
        schema,
        {
            **(header or {}),
            "configs": [
                {
                    "index": ui,
                    "scheme": cfg.scheme,
                    "describe": cfg.describe(),
                    "fingerprint": config_fingerprint(cfg),
                }
                for ui, cfg in enumerate(unique)
            ],
            "n_replications": n_replications,
            "first_replication": first_replication,
        },
        iter_records(),
    )
    manifest = build_manifest(
        unique,
        n_replications=n_replications,
        first_replication=first_replication,
        n_workers=n_workers,
        wall_time_s=wall,
        grid_stats=stats.as_dict(),
        command=list(command) if command is not None else None,
        extra={count_key: n_records, file_key: filename, **(extra or {})},
    )
    manifest.write(out_dir / MANIFEST_FILENAME)

    slot = {cfg: ui for ui, cfg in enumerate(unique)}
    return [[run.result for run in runs[slot[cfg]]] for cfg in configs], manifest

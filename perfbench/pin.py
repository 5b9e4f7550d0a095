"""Recompute ``pinned.json``: the unit digests of the default seed.

Run from the repository root after a change that is *meant* to alter
simulation results::

    python3 perfbench/pin.py

Every unit must pass its invariant checks, and pool_sweep's units must
reproduce paper_sweep's (the same grids, serial or pooled), before the
file is written.
"""

from __future__ import annotations

import json
import sys

import run
import workloads as wl

#: units pinned per workload: more than a default-length run performs
PIN_UNITS = {"paper_sweep": 14, "cbf_backlog": 14, "pool_sweep": 3,
             "served_sweep": 140}


def main() -> int:
    run.import_program()
    pinned = {}
    for workload, units in PIN_UNITS.items():
        ctx = wl.Context(seed=wl.DEFAULT_SEED, seconds=0.0,
                         tmp=run.tmp_dir("pin"), units=units)
        handle = run.start(workload, ctx.tmp)
        try:
            m = run.run_workload(workload, ctx, handle)
        finally:
            run.stop(handle, ctx.tmp)
        if m.failed:
            print(f"{workload}: {m.failed} failed: {m.errors}",
                  file=sys.stderr)
            return 1
        pinned[workload] = m.digests
        print(f"{workload}: {units} unit(s) pinned", flush=True)
    if pinned["pool_sweep"] != pinned["paper_sweep"][:PIN_UNITS["pool_sweep"]]:
        print("pool_sweep digests differ from paper_sweep's", file=sys.stderr)
        return 1
    pinned["pool_sweep"] = pinned["paper_sweep"]
    (run.HERE / "pinned.json").write_text(
        json.dumps(pinned, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

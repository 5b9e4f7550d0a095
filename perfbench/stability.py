"""Repeat runs, summarise their spread, and compare two sets of runs.

From the repository root::

    python3 perfbench/stability.py measure --runs 10 --out set.json [--trace]
    python3 perfbench/stability.py compare old.json new.json

``measure`` runs every workload ``--runs`` times, seed after seed, and
records for each end-to-end metric its median, quartiles and spread
(interquartile distance over the median).  ``--trace`` adds one traced
run per workload at the default seed: the per-layer table.

``compare`` checks a new set against an old one, metric by metric, by
the bounds in ``layers.json``.  Sets taken on different hosts (see
``host.COMPARABLE_KEYS``) are reported as not comparable, never as a
regression.  Exit status: 0 when comparable sets show no regression
(or the sets are not comparable), 1 on a regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import host
import layers
import run
import workloads as wl


def invoke(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True,
        timeout=run.CHILD_TIMEOUT_S + 60, check=True)
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(next(line for line in lines
                             if line.startswith("detail "))[7:])
    return detail, json.loads(lines[-1])


def summarise(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def measure(args: argparse.Namespace) -> int:
    bounds = {e["name"]: e["bound"] for e in layers.load_map()["end_to_end"]}
    seconds = args.seconds or run.benchmark_spec()["run_seconds"]
    out: dict = {"seconds": seconds, "runs": args.runs, "end_to_end": {}}
    hosts = []
    for workload in args.workloads:
        per_metric: dict = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            detail, result = invoke(workload, seed, seconds, 0)
            hosts.append(detail["host"])
            if not result["correct"]:
                print(f"{workload} seed {seed}: failed checks "
                      f"{detail['errors']}", flush=True)
                return 1
            for name, entry in detail["metrics"].items():
                per_metric.setdefault(name, []).append(entry["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in detail["metrics"].items()),
                flush=True)
        table = {}
        for name, values in per_metric.items():
            table[name] = summarise(values)
            table[name]["bound"] = bounds[name]
            print(f"  {workload:<13} {name:<26} median "
                  f"{table[name]['median']:.4g} spread "
                  f"{table[name]['spread']:.3f} (bound {bounds[name]})",
                  flush=True)
        out["end_to_end"][workload] = table
    out["host"] = hosts[0]
    if any(not host.comparable(h, hosts[0]) for h in hosts):
        print("host fingerprint changed during the runs", flush=True)
        return 1
    if args.trace:
        out["per_layer"] = {}
        for workload in args.workloads:
            detail, result = invoke(workload, wl.DEFAULT_SEED, seconds, 1)
            if not result["correct"]:
                print(f"{workload} traced: failed {detail['errors']}")
                return 1
            out["per_layer"][workload] = {
                k: v["value"] for k, v in result["metrics"].items()}
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n",
                              encoding="utf-8")
    return 0


def compare(args: argparse.Namespace) -> int:
    old = json.loads(Path(args.old).read_text(encoding="utf-8"))
    new = json.loads(Path(args.new).read_text(encoding="utf-8"))
    if not host.comparable(old["host"], new["host"]):
        diff = [k for k in host.COMPARABLE_KEYS
                if old["host"].get(k) != new["host"].get(k)]
        print(f"not comparable: the hosts differ in {', '.join(diff)}")
        return 0
    better = {e["name"]: e["better"]
              for e in layers.load_map()["end_to_end"]}
    regressions = 0
    for workload, table in new["end_to_end"].items():
        for name, stats in table.items():
            base = old["end_to_end"].get(workload, {}).get(name)
            if base is None or not base["median"]:
                continue
            change = stats["median"] / base["median"] - 1.0
            worse = change if better[name] == "lower" else -change
            verdict = "ok"
            if worse > stats["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            print(f"{workload:<13} {name:<26} {base['median']:.4g} -> "
                  f"{stats['median']:.4g} ({change:+.1%}) {verdict}")
    return 1 if regressions else 0


def main(argv: list) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    m = sub.add_parser("measure")
    m.add_argument("--runs", type=int, default=10)
    m.add_argument("--first-seed", type=int, default=1)
    m.add_argument("--seconds", type=float, default=None)
    m.add_argument("--workloads", nargs="+", default=list(wl.WORKLOADS),
                   choices=wl.WORKLOADS)
    m.add_argument("--trace", action="store_true")
    m.add_argument("--out", required=True)
    c = sub.add_parser("compare")
    c.add_argument("old")
    c.add_argument("new")
    args = p.parse_args(argv)
    return measure(args) if args.cmd == "measure" else compare(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

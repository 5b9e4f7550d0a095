"""Self-tests of the benchmark itself (not of the program).

Run from the repository root::

    python3 perfbench/selftest.py

* layer map: ``BENCHMARK.json`` agrees with ``layers.json``; every
  mapped name matches ``[A-Za-z0-9_.-]+`` and every per-layer name
  appears in a traced run of every workload;
* tracing hygiene: no span wrapper exists before the traced block,
  every wrapped attribute is the original again after it, the traced
  run's digests equal the untraced run's, and ``trace.overhead_ratio``
  is reported for every workload;
* seeds: a reduced run of each workload on two seeds gives two
  different digests, both passing their output checks.

Exits 0 when every check passes.  Takes about two minutes.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import layers
import run
import tracing
import workloads as wl

NAME = re.compile(r"[A-Za-z0-9_.-]+")
#: --seconds of the reduced traced runs (one grid unit, five served jobs)
TRACE_SECONDS = 5
OTHER_SEED = wl.DEFAULT_SEED + 1


def check(ok: bool, what: str, failures: list) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def last_json(cmd: list) -> tuple[dict, dict]:
    """(detail, result) of one run.py invocation."""
    proc = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=run.CHILD_TIMEOUT_S, check=True)
    lines = proc.stdout.strip().splitlines()
    detail = next((json.loads(line[len("detail "):]) for line in lines
                   if line.startswith("detail ")), {})
    return detail, json.loads(lines[-1])


def layer_map(failures: list) -> list:
    spec = run.benchmark_spec()
    lmap = layers.load_map()
    names = [e["name"] for e in lmap["end_to_end"] + lmap["per_layer"]]
    names += [w["name"] for w in lmap["workloads"]]
    check(all(NAME.fullmatch(n) for n in names),
          "every mapped name matches [A-Za-z0-9_.-]+", failures)
    check(len(set(names)) == len(names), "mapped names are unique",
          failures)
    keys = ("name", "unit", "better")
    check([{k: e[k] for k in keys} for e in lmap["per_layer"]]
          == spec["per_layer"],
          "BENCHMARK.json per_layer == layers.json per_layer", failures)
    check([{k: e[k] for k in keys + ("bound",)} for e in lmap["end_to_end"]
           if e["gated"]] == spec["end_to_end"],
          "BENCHMARK.json end_to_end == the gated layers.json metrics",
          failures)
    check([{k: w[k] for k in ("name", "why")} for w in lmap["workloads"]]
          == spec["workloads"] and
          [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS),
          "BENCHMARK.json workloads == layers.json workloads", failures)
    metric_names = {e["name"] for e in lmap["end_to_end"]}
    refs = [ref for e in lmap["per_layer"] for ref in e["moves"] + e["holds"]]
    check(all(r.split("@")[0] in metric_names and r.split("@")[1]
              in wl.WORKLOADS for r in refs),
          "every moves/holds entry names a metric@workload", failures)
    return [e["name"] for e in lmap["per_layer"]]


def wrappers_restored(failures: list) -> None:
    run.import_program()
    check(tracing.originals_restored([]),
          "no span wrapper exists before tracing", failures)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        check(not tracing.originals_restored(tracer.installed),
              "wrappers are in place inside the traced block", failures)
    check(len(tracer.installed) >= len(tracing.LAYER_SPANS)
          and tracing.originals_restored(tracer.installed),
          f"all {len(tracer.installed)} wrapped attributes restored",
          failures)


def traced_runs(per_layer: list, failures: list) -> None:
    for workload in wl.WORKLOADS:
        detail, result = last_json(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(wl.DEFAULT_SEED), "--seconds",
             str(TRACE_SECONDS), "--trace", "1"])
        metrics = result["metrics"]
        check(result["correct"] and result["failed"] == 0,
              f"{workload}: traced run passes its checks, digests equal "
              "the untraced run's", failures)
        check(detail.get("restored") is True,
              f"{workload}: wrapped attributes restored after the run",
              failures)
        check(set(metrics) == set(per_layer),
              f"{workload}: every per-layer name reported", failures)
        check(metrics.get("trace.overhead_ratio", {}).get("value", 0) > 0,
              f"{workload}: trace.overhead_ratio present", failures)


def seeds(failures: list) -> None:
    for workload in wl.WORKLOADS:
        out = {}
        for seed in (wl.DEFAULT_SEED, OTHER_SEED):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--role", "measure",
                 "--workload", workload, "--seed", str(seed),
                 "--units", "1"],
                cwd=run.ROOT, stdout=subprocess.PIPE, text=True,
                timeout=run.CHILD_TIMEOUT_S, check=True)
            out[seed] = json.loads(proc.stdout.strip().splitlines()[-1])
        a, b = out[wl.DEFAULT_SEED], out[OTHER_SEED]
        check(a["failed"] == 0 and b["failed"] == 0,
              f"{workload}: both seeds pass their output checks", failures)
        check(a["digests"] != b["digests"],
              f"{workload}: the two seeds give different digests", failures)


def main() -> int:
    failures: list = []
    per_layer = layer_map(failures)
    wrappers_restored(failures)
    seeds(failures)
    traced_runs(per_layer, failures)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

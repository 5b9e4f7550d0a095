"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_sweep --seed 1 --trace 0

``--trace 0`` measures the end-to-end metrics of one workload with no
tracing: set-up time (the median of several fresh interpreters that
import the program and bring the workload up), simulations per second,
peak memory, and the workload's own figures (warm rerun time, job
latency percentiles with their sample counts, jobs per second).  Times
and rates are in reference-host seconds (``hostspeed.py``): wall time
divided by how slow the host ran a fixed reference loop during the run.
The wall-clock values and that slowness are in the ``detail`` line.

``--trace 1`` gives the per-layer metrics instead.  It runs the same
fixed amount of work twice, each in a fresh interpreter: once with the
layer entry points wrapped in spans (``tracing.py``) and once without.
The two runs' digests must match; their time ratio (each in reference
seconds) is ``trace.overhead_ratio``.  Span times are wall seconds.
The spans are written to
``.perfbench_out/spans-<workload>.npz``.

Every run checks its outputs (``checks.py``) and records the host
fingerprint.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are for people, plus one ``detail`` JSON line with every figure.
The program is imported from ``src/`` beside this directory; without
it the run exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import host  # noqa: E402
import hostspeed  # noqa: E402
import workloads as wl  # noqa: E402
from checks import combine  # noqa: E402

#: fresh interpreters timed for ``setup_s``
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170.0
OUT_DIR = ROOT / ".perfbench_out"
TMP_ROOT = ROOT / ".perfbench_tmp"


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def import_program() -> None:
    """Import every program module a workload drives (before tracing)."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro.core.cache  # noqa: F401
    import repro.core.executors.pool  # noqa: F401
    import repro.core.runner  # noqa: F401
    import repro.service  # noqa: F401


def start(workload: str, tmp: Path) -> object:
    """Bring the workload up: temp dirs, plus service and worker."""
    tmp.mkdir(parents=True, exist_ok=True)
    if workload == "served_sweep":
        return wl.ServedStack(tmp / "service")
    return None


def stop(handle: object, tmp: Path) -> None:
    if isinstance(handle, wl.ServedStack):
        handle.close()
    shutil.rmtree(tmp, ignore_errors=True)


def run_workload(workload: str, ctx: wl.Context,
                 handle: object) -> wl.Measurement:
    if workload == "served_sweep":
        return wl.served_sweep(ctx, handle)
    return getattr(wl, workload)(ctx)


def load_pinned() -> dict:
    return json.loads((HERE / "pinned.json").read_text(encoding="utf-8"))


def tmp_dir(tag: str) -> Path:
    return TMP_ROOT / f"{tag}-{os.getpid()}"


# -- roles run in child interpreters ------------------------------------

def probe_role(workload: str) -> int:
    """Set up, say ``ready``, tear down: one ``setup_s`` sample."""
    import_program()
    tmp = tmp_dir("probe")
    handle = start(workload, tmp)
    print("ready", flush=True)
    stop(handle, tmp)
    return 0


def measure_role(args: argparse.Namespace) -> int:
    """A fixed-work run, traced or not; prints one JSON line."""
    import_program()
    import layers
    import tracing

    tracer = counters = None
    if args.traced:
        counters = layers.Counters()
        tracer = tracing.Tracer()
        tracer.observers.update(counters.observers())
    ctx = wl.Context(seed=args.seed, seconds=args.seconds,
                     tmp=tmp_dir("measure"), units=args.units,
                     pinned=load_pinned(), speed=hostspeed.HostSpeed(),
                     observe=counters.add if counters else None)
    try:
        with tracing.traced(tracer):
            handle = start(args.workload, ctx.tmp)
            try:
                m = run_workload(args.workload, ctx, handle)
            finally:
                stop(handle, ctx.tmp)
    finally:
        ctx.speed.close()
    out = {"measured_s": m.measured_s, "digests": m.digests,
           "slowness": hostspeed.slowness(ctx.speed_samples),
           "attempted": m.attempted, "failed": m.failed,
           "errors": m.errors}
    if tracer is not None:
        restored = tracing.originals_restored(tracer.installed)
        if not restored or len(tracer.installed) < len(tracing.LAYER_SPANS):
            m.fail(m.attempted, "span wrappers were not all installed "
                                "and removed")
        out["layers"] = layers.per_layer(tracer.summary(), counters,
                                         m.extras)
        out["restored"] = restored
        out["failed"] = m.failed
        out["errors"] = m.errors
        tracer.write(OUT_DIR / f"spans-{args.workload}.npz")
    elif args.workload == "pool_sweep":
        wl.pool_reference(ctx, m)
        out.update(failed=m.failed, errors=m.errors)
    print(json.dumps(out), flush=True)
    return 0


# -- the parent run -------------------------------------------------------

def child_cmd(args: argparse.Namespace, role: str, *extra: str) -> list:
    return [sys.executable, str(Path(__file__).resolve()), "--role", role,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), *extra]


def setup_sample(args: argparse.Namespace) -> float:
    """Seconds from spawning a fresh interpreter to the workload ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(child_cmd(args, "probe"), cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed


def run_child(args: argparse.Namespace, *extra: str) -> dict:
    proc = subprocess.run(child_cmd(args, "measure", *extra), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"measure run failed (exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(lines: list, detail: dict, result: dict) -> None:
    for line in lines:
        print(line)
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result), flush=True)


def to_reference(metrics: dict, slowness: float) -> dict:
    """Rescale time-based metrics to reference-host seconds in place;
    returns their wall-clock values."""
    wall = {}
    for name, entry in metrics.items():
        if entry["unit"] == "s":
            factor = 1.0 / slowness
        elif entry["unit"].endswith("/s"):
            factor = slowness
        else:
            continue
        wall[name] = entry["value"]
        entry["value"] *= factor
    return wall


def end_to_end(args: argparse.Namespace) -> int:
    spec = benchmark_spec()
    speed = hostspeed.HostSpeed()
    try:
        probes = []
        for _ in range(SETUP_PROBES):
            slow = speed.sample() / hostspeed.NOMINAL_S
            probes.append((setup_sample(args), slow))
        ctx = wl.Context(seed=args.seed, seconds=args.seconds,
                         tmp=tmp_dir("run"), pinned=load_pinned(),
                         speed=speed)
        handle = start(args.workload, ctx.tmp)
        try:
            m = run_workload(args.workload, ctx, handle)
            if args.workload == "pool_sweep":
                wl.pool_reference(ctx, m)
        finally:
            stop(handle, ctx.tmp)
    finally:
        speed.close()
    slowness = hostspeed.slowness(ctx.speed_samples)
    wall = to_reference(m.metrics, slowness)
    wall["setup_s"] = statistics.median(t for t, _ in probes)
    m.metric("setup_s", statistics.median(t / s for t, s in probes), "s",
             n=len(probes))
    m.metric("peak_rss_mb",
             resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    m.metric("error_rate", m.failed / m.attempted, "fraction",
             n=m.attempted)
    lines = [f"perfbench {args.workload} seed={args.seed} "
             f"units={m.units} measured={m.measured_s:.2f}s "
             f"host slowness={slowness:.3f} (times in reference seconds)"]
    for name, entry in m.metrics.items():
        n = f" (n={entry['n']})" if "n" in entry else ""
        lines.append(f"  {name:<26} {entry['value']:.6g} {entry['unit']}{n}")
    lines += [f"  check failed: {e}" for e in m.errors]
    detail = {"workload": args.workload, "seed": args.seed,
              "host": host.fingerprint(ROOT),
              "digest": combine(m.digests),
              "parameters": dict(wl.PARAMETERS, setup_probes=SETUP_PROBES),
              "units": m.units, "metrics": m.metrics, "wall": wall,
              "slowness": slowness, "errors": m.errors}
    gated = {e["name"]: {"value": m.metrics[e["name"]]["value"],
                         "unit": e["unit"]}
             for e in spec["end_to_end"]}
    report(lines, detail, {"correct": m.failed == 0, "attempted": m.attempted,
                           "failed": m.failed, "metrics": gated})
    return 0


def traced_run(args: argparse.Namespace) -> int:
    spec = benchmark_spec()
    units = max(1, round(args.seconds * wl.TRACE_UNITS_PER_S[args.workload]))
    plain = run_child(args, "--units", str(units))
    traced = run_child(args, "--units", str(units), "--traced")
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    errors = plain["errors"] + traced["errors"]
    if traced["digests"] != plain["digests"]:
        failed += traced["attempted"]
        errors.append("traced digests differ from the untraced run's")
    values = dict(traced["layers"])
    values["trace.overhead_ratio"] = (
        (traced["measured_s"] / traced["slowness"])
        / (plain["measured_s"] / plain["slowness"]))
    metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]}
               for e in spec["per_layer"]}
    lines = [f"perfbench {args.workload} seed={args.seed} traced "
             f"units={units}"]
    lines += [f"  {k:<40} {v['value']:.6g} {v['unit']}"
              for k, v in metrics.items()]
    lines += [f"  check failed: {e}" for e in errors]
    detail = {"workload": args.workload, "seed": args.seed, "units": units,
              "host": host.fingerprint(ROOT),
              "digest": combine(traced["digests"]),
              "restored": traced["restored"], "errors": errors,
              "layers": values}
    report(lines, detail, {"correct": failed == 0, "attempted": attempted,
                           "failed": failed, "metrics": metrics})
    return 0


def parse_args(argv: list) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    p.add_argument("--seconds", type=float,
                   default=benchmark_spec()["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("main", "probe", "measure"),
                   default="main", help=argparse.SUPPRESS)
    p.add_argument("--units", type=int, default=None, help=argparse.SUPPRESS)
    p.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv: list) -> int:
    args = parse_args(argv)
    if args.role == "probe":
        return probe_role(args.workload)
    if args.role == "measure":
        return measure_role(args)
    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program from src/: {exc}",
              file=sys.stderr)
        return 2
    if args.trace:
        return traced_run(args)
    return end_to_end(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

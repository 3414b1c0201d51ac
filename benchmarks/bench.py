#!/usr/bin/env python3
"""Desk benchmark for nimbus: one workload per run, on the package in ./src.

    python3 benchmarks/bench.py --workload train-desk --seed 1 --seconds 20 --trace 0

Run it from the repository root.  The workload sets itself up three
times (synth, build, checkpoint, and prediction files where needed) and
reports the median as setup_s, then repeats its timed operation until
--seconds have been measured and at least its minimum operation count has
run.  Every operation's output is checked; a failure counts in
`failed` and makes the exit code 1.

With --trace 0 the result holds the end-to-end metrics.  With --trace 1
the run measures half its time untraced and half traced, and the result
holds the per-layer metrics from the traced half plus trace.overhead_frac.
The full report, with the environment and sample counts, is printed first
and written to .bench_out/; the last stdout line is the compact result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3
BLAS_THREADS = 1


def _nproc():
    return len(os.sched_getaffinity(0))


def _pin_blas_threads():
    """Run BLAS on one thread; must happen before NumPy loads.  OpenBLAS
    worker threads spin while they wait, so with two threads on two CPUs
    any other busy process slowed a batch-1 forward from 0.03 s to 0.22 s."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _import_nimbus():
    """Import nimbus from this checkout's src/, never from site-packages."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import nimbus
    if not Path(nimbus.__file__).resolve().is_relative_to(src):
        raise ImportError(f"nimbus resolved to {nimbus.__file__}, not under {src}")
    return nimbus


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]), "nproc": _nproc(),
            "machine": platform.machine(), "system": platform.system()}


def measure(wl, seconds, min_ops, tracer=None):
    """Run operations until `seconds` of them are measured and at least
    `min_ops` have run.  Returns (operations, samples, seconds measured)."""
    ops_before = len(wl.durations)
    samples = wall = 0.0
    while wall < seconds or len(wl.durations) - ops_before < min_ops:
        try:
            n, dt = wl.step(tracer)
        except Exception:  # noqa: BLE001 - a crashed operation is a counted failure
            wl.attempted += 1
            wl.fail(1, traceback.format_exc(limit=-3))
            break
        samples += n
        wall += dt
    return len(wl.durations) - ops_before, samples, wall


def run(workload, seed, seconds, trace, workdir):
    from desk import WORKLOADS
    from tracing import Tracer, layer_metrics

    wl = WORKLOADS[workload](seed)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    try:
        setup_times = []
        for i in range(SETUPS):
            target = workdir / f"setup{i}"
            start = time.perf_counter()
            if tracer is None:
                wl.setup(str(target))
            else:
                with tracer.recording("setup"):
                    wl.setup(str(target))
            setup_times.append(time.perf_counter() - start)
            if i < SETUPS - 1:
                shutil.rmtree(target)
        wl.prepare()
        metrics = {}
        if not trace:
            ops, samples, wall = measure(wl, seconds, wl.min_ops)
            d = wl.durations
            metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s",
                                  "n": len(setup_times)}
            metrics["samples_per_s"] = {"value": samples / wall, "unit": "1/s", "n": ops}
            metrics["op_s_p50"] = {"value": statistics.median(d), "unit": "s", "n": len(d)}
            if len(d) >= 100:
                p90 = statistics.quantiles(d, n=10, method="inclusive")[-1]
                metrics["op_s_p90"] = {"value": p90, "unit": "s", "n": len(d)}
        else:
            base_ops, _, base_wall = measure(wl, seconds / 2, wl.trace_min_ops)
            ops, _, wall = measure(wl, seconds / 2, wl.trace_min_ops, tracer)
            per_layer = layer_metrics(tracer.totals("op"), tracer.totals("setup"),
                                      max(ops, 1), SETUPS)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
            overhead = (wall / max(ops, 1)) / (base_wall / max(base_ops, 1)) - 1
            metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    finally:
        if tracer is not None:
            tracer.uninstall()
    if not trace:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["peak_rss_mb"] = {"value": peak, "unit": "MB", "n": 1}
        metrics["error_rate"] = {"value": wl.failed / max(wl.attempted, 1), "unit": "ratio",
                                 "n": wl.attempted}
        metrics.update(wl.extras())
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": environment(), "geometry": wl.geometry(), "params": wl.params,
              "attempted": wl.attempted, "failed": wl.failed, "problems": wl.problems,
              "metrics": metrics}
    return report, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-desk", "forecast-desk", "verify-desk"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _pin_blas_threads()
    try:
        _import_nimbus()
    except ImportError as exc:
        print(f"bench: cannot import nimbus from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    out_dir = ROOT / ".bench_out"
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir.mkdir(exist_ok=True)
    workdir.mkdir(parents=True)
    try:
        report, tracer = run(args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if tracer is not None:
        tracer.write(out_dir / f"{stem}.spans.jsonl")

    print(json.dumps(report, indent=1))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = [n for n in names if n not in report["metrics"]]
    if missing:
        print(f"bench: run did not produce {missing}", file=sys.stderr)
        return 3
    ok = report["failed"] == 0 and report["attempted"] > 0
    print(json.dumps({"correct": ok, "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": {n: {"value": report["metrics"][n]["value"],
                                      "unit": report["metrics"][n]["unit"]} for n in names}}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Gather benchmark run reports into one result file, and compare two.

    python3 benchmarks/results.py collect OUT.json .bench_out/*-trace0.json ...
    python3 benchmarks/results.py compare BASE.json NEW.json
    python3 benchmarks/results.py steps .bench_out/train-desk-seed1-trace1.spans.jsonl

A result file holds one environment and every run made in it.  Both
commands refuse to mix environments (Python, NumPy, BLAS and its thread
count, CPU count, machine): numbers from different environments are not
comparable.  compare prints, per workload and metric, the median of each
side, the relative change, and the bound BENCHMARK.json sets for it.
steps splits the training steps of a traced train-desk run into forward,
backward and optimizer time, leaving out the validation passes.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def collect(out, paths):
    reports = [json.loads(Path(p).read_text()) for p in paths]
    envs = {json.dumps(r.pop("environment"), sort_keys=True) for r in reports}
    if len(envs) != 1:
        sys.exit(f"results: reports come from {len(envs)} different environments")
    doc = {"environment": json.loads(envs.pop()), "runs": reports}
    Path(out).write_text(json.dumps(doc, indent=1) + "\n")


def _medians(doc):
    values = defaultdict(list)
    for run in doc["runs"]:
        for name, metric in run["metrics"].items():
            values[(run["workload"], name)].append(metric["value"])
    return {key: statistics.median(v) for key, v in values.items()}


def compare(base_path, new_path):
    base, new = (json.loads(Path(p).read_text()) for p in (base_path, new_path))
    if base["environment"] != new["environment"]:
        sys.exit(f"results: environments differ, not comparing:\n"
                 f"  {base['environment']}\n  {new['environment']}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    a, b = _medians(base), _medians(new)
    print(f"{'workload':14} {'metric':48} {'base':>12} {'new':>12} {'change':>8} bound")
    for key in sorted(a.keys() & b.keys()):
        change = (b[key] - a[key]) / a[key] if a[key] else 0.0
        bound = bounds.get(key[1])
        print(f"{key[0]:14} {key[1]:48} {a[key]:12.6g} {b[key]:12.6g} {change:+8.1%} "
              f"{'' if bound is None else bound}")


def steps(spans_path):
    """Median per-step seconds of the parts of a training step."""
    spans = [json.loads(line) for line in Path(spans_path).read_text().splitlines()]
    root = []
    for span in spans:
        parent = span["parent"]
        root.append(span["name"] if parent is None else root[parent])
    parts = {
        "forward": lambda n: n == "model.SmaAtUNet.forward",
        "backward": lambda n: n == "model.SmaAtUNet.backward",
        "optimizer": lambda n: n == "optim.AdamW.step",
        "depthwise": lambda n: n.startswith("tensor.conv2d") and n.endswith(".depthwise"),
        "pointwise": lambda n: n.startswith("tensor.conv2d") and n.endswith(".pointwise"),
        "dense": lambda n: n.startswith("tensor.conv2d") and n.endswith(".dense"),
        "enc1+dec4": lambda n: n.startswith(("model.enc1.", "model.dec4.")),
    }
    per_op = defaultdict(lambda: defaultdict(float))
    for span, top in zip(spans, root):
        if span["phase"] != "op" or top in ("optim.eval_loss", "data.batch_iter"):
            continue
        took = span["end"] - span["start"]
        for part, match in parts.items():
            if match(span["name"]):
                per_op[span["op"]][part] += took
        if span["parent"] is None:
            per_op[span["op"]]["step"] += took
    step = statistics.median(op["step"] for op in per_op.values())
    print(f"{'step':10} {step:8.3f} s  (median of {len(per_op)} steps)")
    for part in parts:
        value = statistics.median(op[part] for op in per_op.values())
        print(f"{part:10} {value:8.3f} s  {value / step:6.1%} of a step")


def main(argv):
    if len(argv) >= 3 and argv[0] == "collect":
        collect(argv[1], argv[2:])
    elif len(argv) == 3 and argv[0] == "compare":
        compare(argv[1], argv[2])
    elif len(argv) == 2 and argv[0] == "steps":
        steps(argv[1])
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])

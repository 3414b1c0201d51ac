"""Checks of the benchmark itself, at a toy geometry so they run in seconds.

    python3 -m pytest benchmarks/test_bench.py

A traced run must compute exactly what an untraced run computes: the same
training history, the same confusion counts and the same prediction bytes.
The tracer must also leave nimbus as it found it.
"""

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

from desk import Desk, ForecastDesk, TrainDesk, VerifyDesk  # noqa: E402
from nimbus import data as D  # noqa: E402
from nimbus import layers as L  # noqa: E402
from nimbus import metrics as E  # noqa: E402
from nimbus import model as M  # noqa: E402
from nimbus import optim as O  # noqa: E402
from nimbus import tensor as T  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

TOY = Desk(grid=16, batch_size=2, n_train=4, n_val=2, n_forecast=2, n_verify=3, n_calibrate=2,
           model=M.ModelConfig(in_channels=36, out_channels=16, stage_widths=(4, 8, 16, 32, 64),
                               depth_multiplier=1, cbam_reduction=4))


def _run(cls, workdir, n_steps, traced):
    wl = cls(seed=5, desk=TOY)
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    try:
        wl.setup(str(workdir))
        wl.prepare()
        for _ in range(n_steps):
            wl.step(tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    assert wl.failed == 0, wl.problems
    return wl, (tracer.totals("op") if traced else None)


def test_traced_training_matches_untraced(tmp_path):
    plain, _ = _run(TrainDesk, tmp_path / "plain", 2, traced=False)
    traced, totals = _run(TrainDesk, tmp_path / "traced", 2, traced=True)
    assert traced.history == plain.history
    assert traced.extras() == plain.extras()
    assert totals["optim.AdamW.step"]["calls"] == len(traced.durations) == 8
    assert totals["tensor.conv2d_backward.depthwise"]["calls"] > 0
    assert "metrics.count_events" not in totals


def test_traced_forecasts_write_the_same_bytes(tmp_path):
    plain, _ = _run(ForecastDesk, tmp_path / "plain", 2, traced=False)
    traced, totals = _run(ForecastDesk, tmp_path / "traced", 2, traced=True)
    names = sorted(os.listdir(plain.out_dir))
    assert names == sorted(os.listdir(traced.out_dir)) and len(names) == 2
    for name in names:
        assert (Path(plain.out_dir, name).read_bytes()
                == Path(traced.out_dir, name).read_bytes())
    assert totals["data.write_tensor_file"]["calls"] == 2
    assert "tensor.conv2d_backward.depthwise" not in totals


def test_traced_verification_counts_match_untraced(tmp_path):
    plain, _ = _run(VerifyDesk, tmp_path / "plain", 2, traced=False)
    traced, totals = _run(VerifyDesk, tmp_path / "traced", 2, traced=True)
    assert traced.report.to_json_dict() == plain.report.to_json_dict()
    assert traced.report.pooled.total == 3 * 16 * 32 * 32
    # per pass: model, all-zeros, all-ones and persistence, each per (sample, lead)
    assert totals["metrics.count_events"]["calls"] == 2 * 4 * 3 * 16
    assert not any(name.startswith("tensor.conv2d") for name in totals)


def test_uninstall_restores_every_original():
    owners = (T, D, L.DepthwiseSeparableConv, L.BatchNorm, L.ChannelAttention,
              L.SpatialAttention, L.DoubleConvDS, M, M.SmaAtUNet, O, O.AdamW, E)
    before = [dict(vars(o)) for o in owners]
    model = M.build_model(TOY.model, 0)
    tracer = Tracer()
    tracer.install()
    tracer.watch_model(model)
    assert T.conv2d is not before[0]["conv2d"]
    tracer.uninstall()
    assert [dict(vars(o)) for o in owners] == before
    assert not any("forward" in vars(child) for child in model._children.values())


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    assert names == list(layer_metrics({}, {}, 1, 1)) + ["trace.overhead_frac"]

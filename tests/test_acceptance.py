"""Release gate: one test per acceptance criterion, in order.

Each test prints exactly one `criterion NN PASS/FAIL` line (visible with
-s, or in captured output on failure), and the test names themselves give
the same one-line-per-criterion record under pytest -v.  Criteria with
stated time budgets measure and assert their own wall time.  The
end-to-end run (criteria 6 and 7) trains a real model twice, so this file
takes a few minutes; everything else is seconds.
"""

import contextlib
import json
import os
import time

import numpy as np
import pytest

from _oracles import conv2d_ref, fd_gradient, rel_err, richardson_fd
from nimbus import data as D
from nimbus import layers as L
from nimbus import metrics as M
from nimbus import optim as O
from nimbus import tensor as T
from nimbus.errors import FormatError
from nimbus.model import (Conv1x1, ModelConfig, baseline_reference_param_count,
                          build_model, load_checkpoint, save_checkpoint)

TOY_GRAD_MODEL = ModelConfig(in_channels=4, out_channels=2,
                             stage_widths=(8, 16, 32, 64, 128),
                             depth_multiplier=1, cbam_reduction=4)
DESK_MODEL = ModelConfig(in_channels=36, out_channels=16,
                         stage_widths=(16, 32, 64, 128, 256),
                         depth_multiplier=2, cbam_reduction=8)
DESK_SEED = 11
DESK_TRAIN = O.TrainConfig(batch_size=32, max_epochs=10, patience=3,
                           seed=DESK_SEED)


@contextlib.contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} FAIL  {title}")
        raise
    print(f"criterion {num:02d} PASS  {title}")


class ScalarBlock(L.Block):
    def __init__(self, values):
        super().__init__()
        self.p["w"] = np.array(values, dtype=np.float64)


def test_criterion_01_parameter_budget():
    """Default ~4M params, standard-conv reference ~22M, ratio <= 0.25."""
    with criterion(1, "parameter budget and reduction ratio"):
        t0 = time.monotonic()
        total = build_model(ModelConfig(), seed=0).count_params()
        baseline = baseline_reference_param_count(ModelConfig())
        assert 3.5e6 <= total <= 4.7e6
        assert 19e6 <= baseline <= 25e6
        assert total / baseline <= 0.25
        assert time.monotonic() - t0 < 1.0


def test_criterion_02_conv_oracle_equivalence():
    """conv2d agrees with the brute-force scalar reference to 1e-6 on at
    least 100 random shapes bounded by (2, 8, 16, 16), within 30 s."""
    with criterion(2, "conv2d vs brute-force oracle on 100+ random shapes"):
        t0 = time.monotonic()
        rng = np.random.default_rng(202)
        done = 0
        while done < 100:
            n = int(rng.integers(1, 3))
            c_in = int(rng.integers(1, 9))
            h = int(rng.integers(2, 17))
            w = int(rng.integers(2, 17))
            k = int(rng.choice([1, 3]))
            stride = int(rng.integers(1, 3))
            padding = int(rng.integers(0, 2))
            groups = int(rng.choice([g for g in (1, 2, c_in) if c_in % g == 0]))
            c_out = groups * int(rng.integers(1, max(2, 8 // groups + 1)))
            if (h + 2 * padding - k) < 0 or (w + 2 * padding - k) < 0:
                continue
            if stride != 1:   # drawn to keep the rng sequence; no conv is strided
                continue
            x = rng.normal(size=(n, c_in, h, w))
            wt = rng.normal(size=(c_out, c_in // groups, k, k))
            b = rng.normal(size=c_out)
            got = T.conv2d(x, wt, b, padding=padding, groups=groups)
            want = conv2d_ref(x, wt, b, 1, padding, groups)
            assert np.max(np.abs(got - want)) <= 1e-6
            done += 1
        assert done >= 100
        assert time.monotonic() - t0 < 30.0


def _check_block_gradients(block, x, tol):
    """Finite-difference both the input gradient and every parameter
    gradient of one block against a fixed scalar projection."""
    rng = np.random.default_rng(77)
    out = block.forward(x, train=True)
    w = rng.normal(size=out.shape)
    # Only the batch norm keeps what its backward reads; every other block
    # takes its input from its caller, and the double conv its output too.
    if isinstance(block, L.BatchNorm):
        got_x = block.backward(w)
    elif isinstance(block, L.DoubleConvDS):
        got_x = block.backward(w, x, block.output())
    else:
        got_x = block.backward(w, x)
    got_p = dict(block.named_grads())

    def project(z):
        return float(np.sum(block.forward(z, train=True) * w))

    assert rel_err(got_x, fd_gradient(project, x)) <= tol
    for name, param in list(block.named_params()):
        orig = param.copy()

        def at_param(q, _param=param):
            _param[...] = q
            return float(np.sum(block.forward(x, train=True) * w))

        want = fd_gradient(at_param, orig)
        param[...] = orig
        assert rel_err(got_p[name], want) <= tol, name


def test_criterion_03_gradient_suite():
    """Every layer passes 64-bit finite-difference checks at 1e-4, and the
    whole toy model at 1e-3 over 200+ sampled parameters, within 2 min."""
    with criterion(3, "finite-difference gradients: layers and whole model"):
        t0 = time.monotonic()
        rng = np.random.default_rng(33)
        f64 = np.float64
        blocks = [
            L.DepthwiseSeparableConv(8, 6, 2, np.random.default_rng(0)),
            L.BatchNorm(8),
            L.ChannelAttention(8, 4, np.random.default_rng(1)),
            L.SpatialAttention(np.random.default_rng(2)),
            L.CBAM(8, 4, np.random.default_rng(3)),
            L.DoubleConvDS(8, 6, 6, 1, np.random.default_rng(4)),
            Conv1x1(8, 5, np.random.default_rng(5)),
        ]
        blocks = [block.to_dtype(f64) for block in blocks]
        for block in blocks:
            _check_block_gradients(block, rng.normal(size=(2, 8, 6, 6)), 1e-4)

        model = build_model(TOY_GRAD_MODEL, seed=9).to_dtype(f64)
        x = rng.normal(size=(2, 4, 16, 16))
        w = rng.normal(size=(2, 2, 16, 16))

        def loss():
            return float(np.sum(model.forward(x, train=True) * w))

        base = loss()
        grads = model.backward(w)
        checked = 0
        for name, p in model.named_params():
            flat = p.reshape(-1)
            for j in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                fd = richardson_fd(loss, flat, j)
                got = grads[name].reshape(-1)[j]
                if max(abs(fd), abs(got)) > 1e-6:
                    assert abs(fd - got) / max(abs(fd), abs(got)) <= 1e-3, name
                checked += 1
        assert checked >= 200
        assert base == loss()
        assert time.monotonic() - t0 < 120.0


def _blocky_manifest(root, coarse_masks_by_sample, crop):
    """Manifest whose fine targets are 2x2-block expansions of coarse masks,
    so a perfect crop-resolution prediction exists."""
    os.makedirs(os.path.join(root, "samples"), exist_ok=True)
    records = []
    for i, masks in enumerate(coarse_masks_by_sample):
        names = {k: os.path.join("samples", f"a{i:03d}.{k}.w4cl")
                 for k in ("input", "target")}
        D.write_tensor_file(os.path.join(root, names["input"]),
                            np.zeros((1, 1, 2 * crop, 2 * crop), np.float32))
        fine = np.stack([np.kron(np.asarray(m, np.float32),
                                 np.ones((2, 2), np.float32))
                         for m in masks])[None]
        D.write_tensor_file(os.path.join(root, names["target"]), fine)
        records.append(D.SampleRecord(input=names["input"], target=names["target"],
                                      region="r", year=2019, split="test"))
    geometry = D.Geometry(t_in=1, t_out=len(coarse_masks_by_sample[0]), h_raw=2 * crop,
                          crop=crop)
    return D.Manifest(version=D.MANIFEST_VERSION, band_names=("IR016",), geometry=geometry,
                      stats={"IR016": {"mean": 0.0, "std": 1.0}}, samples=records, root=root)


def test_criterion_04_geometry_and_perfect_csi(tmp_path):
    """(2,36,126,126) -> (2,16,126,126); evaluation upsamples 126 -> 252 and
    a perfect prediction scores exactly CSI 1.0."""
    with criterion(4, "126/252 geometry and perfect-prediction CSI"):
        model = build_model(ModelConfig(), seed=0)
        x = np.random.default_rng(1).normal(0.0, 1.0, (2, 36, 126, 126)).astype(np.float32)
        out = model.forward(x, train=False)
        assert out.shape == (2, 16, 126, 126)

        rng = np.random.default_rng(4)
        masks = [(rng.uniform(size=(126, 126)) < 0.3).astype(np.float32)
                 for _ in range(2)]
        manifest = _blocky_manifest(str(tmp_path), [masks], crop=126)
        pred_dir = str(tmp_path / "preds")
        os.makedirs(pred_dir)
        D.write_tensor_file(M.prediction_path(pred_dir, manifest.samples[0]),
                            np.stack(masks)[None])
        report = M.evaluate(pred_dir, manifest, "test")
        assert report.pooled.total == 2 * 252 * 252
        assert report.pooled_csi == 1.0


def test_criterion_05_adamw_closed_forms():
    """Zero-gradient fixed point, exact pure-decay multiply, and the
    bias-corrected first step, all to 1e-12 in 64-bit mode."""
    with criterion(5, "AdamW closed-form cases at 1e-12"):
        block = ScalarBlock([0.25, -3.5])
        opt = O.AdamW(block, O.TrainConfig(weight_decay=0.0))
        opt.step(block, {"w": np.zeros(2)})
        assert np.max(np.abs(block.p["w"] - [0.25, -3.5])) <= 1e-12
        assert opt.step_count == 1

        values = np.array([0.25, -3.5, 1e6])
        block = ScalarBlock(values)
        O.AdamW(block, O.TrainConfig(lr=1e-3, weight_decay=1e-2)).step(
            block, {"w": np.zeros(3)})
        np.testing.assert_allclose(block.p["w"], values * (1 - 1e-3 * 1e-2),
                                   rtol=1e-12, atol=0)

        g = np.array([0.5, -0.25, 2.0])
        block = ScalarBlock([1.0, 1.0, 1.0])
        cfg = O.TrainConfig(weight_decay=0.0)
        O.AdamW(block, cfg).step(block, {"w": g.copy()})
        want = 1.0 - cfg.lr * g / (np.abs(g) + cfg.eps)
        assert np.max(np.abs(block.p["w"] - want)) <= 1e-12
        assert abs(abs(block.p["w"][0] - 1.0) - cfg.lr) < 1e-9


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    """The pinned desk-scale pipeline: synthesize 256/64/64 samples on a
    64x64 grid, train up to 10 epochs at batch 32, evaluate with baselines."""
    root = tmp_path_factory.mktemp("desk")
    times = {}
    t0 = time.monotonic()
    manifest_path = D.synth_generate(D.SynthConfig(seed=DESK_SEED),
                                     str(root / "data"))
    manifest = D.load_manifest(manifest_path)
    times["synth"] = time.monotonic() - t0

    t0 = time.monotonic()
    ckpt = O.train_single(manifest, DESK_MODEL, DESK_TRAIN, str(root / "run"))
    times["train"] = time.monotonic() - t0

    t0 = time.monotonic()
    model = load_checkpoint(ckpt)
    report = M.evaluate(model, manifest, "test")
    baselines = M.trivial_baselines(manifest, "test")
    times["evaluate"] = time.monotonic() - t0

    with open(ckpt.replace(".smck", ".history.jsonl"), encoding="utf-8") as fh:
        history = [json.loads(line) for line in fh]
    return {"root": root, "manifest": manifest, "checkpoint": ckpt,
            "report": report, "baselines": baselines, "history": history,
            "times": times}


@pytest.mark.slow
def test_criterion_06_end_to_end_desk_run(desk_run):
    """Synthesize, train, evaluate: val loss drops to <= 0.8x epoch 1, the
    model beats the all-zeros and all-ones baselines, all inside 15 min."""
    with criterion(6, "end-to-end desk-scale run"):
        manifest = desk_run["manifest"]
        counts = {s: len(manifest.split_samples(s))
                  for s in ("train", "val", "test")}
        assert counts["train"] >= 256 and counts["val"] >= 64 and counts["test"] >= 64

        history = desk_run["history"]
        assert len(history) <= 10
        best = min(h["val_loss"] for h in history)
        assert best <= 0.8 * history[0]["val_loss"]

        got = desk_run["report"].pooled_csi
        zeros = desk_run["baselines"]["all_zeros"]
        ones = desk_run["baselines"]["all_ones"]
        assert got > zeros and got > ones

        total = sum(desk_run["times"].values())
        assert total <= 900.0
        print(f"    [anchors] csi {got:.4f} zeros {zeros:.4f} ones {ones:.4f} "
              f"val_ratio {best / history[0]['val_loss']:.3f} "
              f"pipeline {total:.0f}s")


@pytest.mark.slow
def test_criterion_07_rerun_determinism(desk_run):
    """Repeating the training with the same seed reproduces the checkpoint
    bytes and every evaluation count."""
    with criterion(7, "bitwise determinism of the desk-scale rerun"):
        manifest = desk_run["manifest"]
        ckpt2 = O.train_single(manifest, DESK_MODEL, DESK_TRAIN,
                               str(desk_run["root"] / "rerun"))
        with open(desk_run["checkpoint"], "rb") as fa, open(ckpt2, "rb") as fb:
            assert fa.read() == fb.read()
        report2 = M.evaluate(load_checkpoint(ckpt2), manifest, "test")
        first = desk_run["report"]
        assert report2.pooled.to_dict() == first.pooled.to_dict()
        assert {j: c.to_dict() for j, c in report2.counts_by_job.items()} \
            == {j: c.to_dict() for j, c in first.counts_by_job.items()}
        assert [c.to_dict() for c in report2.counts_by_lead] \
            == [c.to_dict() for c in first.counts_by_lead]


def test_criterion_08_ensemble_identity(tmp_path):
    """k copies of one model ensemble to the model itself within 1e-6, and
    ensemble files score identically to externally averaged files."""
    with criterion(8, "ensemble identity and offline-averaging equivalence"):
        cfg = D.SynthConfig(n_train=2, n_val=1, n_test=4, grid=16,
                            bands=("VIS006", "IR016"), seed=8)
        manifest = D.load_manifest(D.synth_generate(cfg, str(tmp_path / "d")))
        toy = ModelConfig(in_channels=8, out_channels=16,
                          stage_widths=(4, 8, 16, 32, 64),
                          depth_multiplier=1, cbam_reduction=4)
        model = build_model(toy, seed=1)
        x, _, _ = next(iter(D.batch_iter(manifest, "test", 4, 0, False)))
        single = M.model_probabilities(model, x)
        avg = M.ensemble_predict([model, model, model], x)
        assert np.max(np.abs(avg.astype(np.float64) - single)) <= 1e-6

        members = [build_model(toy, seed=s) for s in (1, 2)]
        ens_dir = str(tmp_path / "ens")
        M.ensemble_to_files(members, manifest, "test", ens_dir)
        avg_dir = str(tmp_path / "avg")
        os.makedirs(avg_dir)
        solo_dirs = []
        for i, member in enumerate(members):
            d = str(tmp_path / f"solo{i}")
            M.predict_to_files(member, manifest, "test", d)
            solo_dirs.append(d)
        for record in manifest.split_samples("test"):
            stack = np.stack([
                D.read_tensor_file(M.prediction_path(d, record)).astype(np.float64)
                for d in solo_dirs])
            D.write_tensor_file(M.prediction_path(avg_dir, record),
                                np.mean(stack, axis=0).astype(np.float32))
        a = M.evaluate(ens_dir, manifest, "test")
        b = M.evaluate(avg_dir, manifest, "test")
        assert a.pooled.to_dict() == b.pooled.to_dict()


def test_criterion_09_pipeline_conformance(tmp_path):
    """Rain filter matches a per-sample-sum oracle; the 252 -> 126 center
    crop keeps rows 63..188; dropping the water-vapor bands leaves 36
    channels."""
    with criterion(9, "filtering, cropping, and band-removal conformance"):
        root = str(tmp_path)
        os.makedirs(os.path.join(root, "s"))
        rng = np.random.default_rng(9)
        records = []
        volumes = []
        for i in range(10):
            # Integer rain volumes (7*i unit cells) sum exactly in both
            # 32- and 64-bit arithmetic, so threshold ties are unambiguous.
            y = np.zeros(128, np.float32)
            y[rng.choice(128, size=7 * i, replace=False)] = 1.0
            ip = os.path.join("s", f"x{i}.input.w4cl")
            tp = os.path.join("s", f"x{i}.target.w4cl")
            D.write_tensor_file(os.path.join(root, ip),
                                np.zeros((1, 1, 8, 8), np.float32))
            D.write_tensor_file(os.path.join(root, tp), y.reshape(1, 2, 8, 8))
            volumes.append(7.0 * i)
            records.append(D.SampleRecord(input=ip, target=tp, region="r", year=2019,
                                          split="train"))
        manifest = D.Manifest(version=D.MANIFEST_VERSION, band_names=("IR016",),
                              geometry=D.Geometry(t_in=1, t_out=2, h_raw=8, crop=4),
                              stats={"IR016": {"mean": 0.0, "std": 1.0}}, samples=records,
                              root=root)
        for threshold in (0.0, 10.5, 35.0, 64.0):
            kept = D.filter_non_rainy(manifest, records, threshold)
            assert kept == [r for r, v in zip(records, volumes) if v >= threshold]

        marked = np.zeros((1, 1, 252, 252), np.float32)
        marked[0, 0, 63, 63] = 1.0
        marked[0, 0, 188, 188] = 2.0
        marked[0, 0, 62, 62] = -5.0
        marked[0, 0, 189, 189] = -7.0
        cropped = D.center_crop(marked, 126)
        assert cropped.shape == (1, 1, 126, 126)
        assert cropped[0, 0, 0, 0] == 1.0 and cropped[0, 0, 125, 125] == 2.0
        assert float(cropped.min()) >= 0.0

        full_bands = ("VIS006", "VIS008", "IR016", "IR039", "WV_062", "WV_073",
                      "IR087", "IR097", "IR108", "IR120", "IR134")
        wv = ("WV_062", "WV_073")
        x = np.arange(4 * 11 * 4, dtype=np.float32).reshape(1, 44, 2, 2)
        assert len(D.kept_bands(full_bands, wv)) == 9
        out = D.select_bands(x, full_bands, D.kept_bands(full_bands, wv), t_in=4)
        assert out.shape == (1, 36, 2, 2)
        kept_idx = [t * 11 + b for t in range(4) for b in range(11)
                    if full_bands[b] not in wv]
        np.testing.assert_array_equal(out, x[:, kept_idx])


def test_criterion_10_format_roundtrips(tmp_path):
    """Tensor files and checkpoints round-trip bitwise; corrupted headers
    raise format errors instead of crashes."""
    with criterion(10, "format round-trips and corruption handling"):
        path = str(tmp_path / "t.w4cl")
        x = np.random.default_rng(10).normal(size=(2, 3, 5, 7)).astype(np.float32)
        D.write_tensor_file(path, x)
        np.testing.assert_array_equal(D.read_tensor_file(path), x)

        with open(path, "rb") as fh:
            raw = fh.read()
        for mutant in (b"XXXX" + raw[4:], raw[:1], raw[:-3],
                       raw[:5] + b"\x09" + raw[6:]):
            bad = str(tmp_path / "bad.w4cl")
            with open(bad, "wb") as fh:
                fh.write(mutant)
            with pytest.raises(FormatError):
                D.read_tensor_file(bad)

        model = build_model(TOY_GRAD_MODEL, seed=2)
        ckpt = str(tmp_path / "m.smck")
        save_checkpoint(model, ckpt)
        clone = load_checkpoint(ckpt)
        for (name, p), (_, q) in zip(model.named_params(), clone.named_params()):
            np.testing.assert_array_equal(p, q, err_msg=name)
        with open(ckpt, "rb") as fh:
            raw = fh.read()
        for mutant in (b"ZMCK" + raw[4:], raw[:4] + b"\xff\xff" + raw[6:],
                       raw[:30], raw[:12] + b"~" + raw[13:]):
            bad = str(tmp_path / "bad.smck")
            with open(bad, "wb") as fh:
                fh.write(mutant)
            with pytest.raises(FormatError):
                load_checkpoint(bad)

"""Optimizer, early stopping, and training-loop tests.

The AdamW update is checked against an independent scalar Adam implementation
and against closed forms (zero-gradient fixed point, pure decay, first-step
update) in 64-bit mode.  Loop tests run a genuinely small model end to end
and rely on bitwise determinism rather than loose statistical bounds.
"""

import dataclasses
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from nimbus import data as D
from nimbus import layers as L
from nimbus import optim as O
from nimbus.errors import ConfigError, PoisonedGradientError, ShapeError, StateError
from nimbus.model import ModelConfig, build_model

from _corrupt import poison_epoch
from _oracles import batch_loss_ref


def adam_scalar_ref(p, grads, lr, beta1, beta2, eps):
    """Plain Adam on one scalar, no weight decay; returns value after each step."""
    m = 0.0
    v = 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        p = p - lr * mhat / (math.sqrt(vhat) + eps)
        out.append(p)
    return out


class ScalarBlock(L.Block):
    """One-parameter container so the optimizer can be driven by hand."""

    def __init__(self, values, dtype=np.float64):
        super().__init__()
        self.p["w"] = np.array(values, dtype=dtype)


TOY_MODEL = ModelConfig(in_channels=8, out_channels=16,
                        stage_widths=(4, 8, 16, 32, 64),
                        depth_multiplier=1, cbam_reduction=4)


def _blocks(block):
    yield block
    for child in block._children.values():
        yield from _blocks(child)


def toy_batch(seed, n=4, h=16):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 8, h, h)).astype(np.float32)
    y = np.clip(rng.normal(0.6, 1.0, size=(n, 16, 2 * h, 2 * h)), 0, None)
    return x, y.astype(np.float32)


class TestTrainConfig:
    def test_defaults(self):
        """The stock recipe: batches of 32, ten epochs, patience three."""
        c = O.TrainConfig()
        assert (c.batch_size, c.max_epochs, c.patience) == (32, 10, 3)
        assert c.min_delta == 0 and c.shuffle and c.loss == "bce_logits"
        assert (c.lr, c.weight_decay) == (1e-3, 1e-2)
        assert (c.beta1, c.beta2, c.eps) == (0.9, 0.999, 1e-8)

    @pytest.mark.parametrize("bad", [
        {"max_epochs": 0}, {"batch_size": 0}, {"patience": 0},
        {"min_delta": -0.1}, {"lr": -1e-3}, {"loss": "hinge"}, {"beta1": 1.0}, {"beta1": -0.1},
        {"beta2": 1.0}, {"eps": 0.0}, {"eps": -1e-8}, {"weight_decay": -1e-2},
        {"threshold": -0.2},
    ])
    def test_invalid_values_rejected(self, bad):
        """Every numeric floor and the loss-kind whitelist are enforced, and
        the error names the field.  A beta of 1 or an eps of 0 would make
        the first AdamW step NaN."""
        with pytest.raises(ConfigError, match=next(iter(bad))):
            O.TrainConfig(**bad)

    def test_from_dict_rejects_unknown_keys(self):
        """Misspelled keys fail loudly instead of silently using defaults."""
        with pytest.raises(ConfigError):
            O.TrainConfig.from_dict({"learning_rate": 1e-3})


class TestAdamW:
    def test_wd_zero_matches_scalar_adam_reference(self):
        """Ten steps with decay off track the independent scalar Adam to 1e-12."""
        cfg = O.TrainConfig(weight_decay=0.0)
        block = ScalarBlock([0.7])
        opt = O.AdamW(block, cfg)
        rng = np.random.default_rng(3)
        grads = rng.normal(size=10)
        want = adam_scalar_ref(0.7, grads, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
        for g, w in zip(grads, want):
            opt.step(block, {"w": np.array([g])})
            assert abs(block.p["w"][0] - w) <= 1e-12

    def test_first_step_matches_closed_form(self):
        """Bias correction makes step one exactly -lr*g/(|g|+eps) per element."""
        cfg = O.TrainConfig(weight_decay=0.0)
        values = np.array([0.7, -1.2, 3.0])
        g = np.array([0.5, -0.25, 1e-4])
        block = ScalarBlock(values)
        O.AdamW(block, cfg).step(block, {"w": g.copy()})
        want = values - cfg.lr * g / (np.abs(g) + cfg.eps)
        np.testing.assert_allclose(block.p["w"], want, rtol=0, atol=1e-12)
        assert abs(abs(block.p["w"][0] - values[0]) - cfg.lr) < 1e-9

    def test_zero_grad_without_decay_is_fixed_point(self):
        """Zero gradients and zero decay leave parameters bitwise untouched."""
        block = ScalarBlock([0.25, -3.5, 0.0])
        opt = O.AdamW(block, O.TrainConfig(weight_decay=0.0))
        before = block.p["w"].copy()
        opt.step(block, {"w": np.zeros(3)})
        np.testing.assert_array_equal(block.p["w"], before)
        assert opt.step_count == 1

    def test_zero_grad_pure_decay_is_exact(self):
        """With decay on, a zero-gradient step multiplies by (1 - lr*wd) exactly."""
        cfg = O.TrainConfig(lr=1e-3, weight_decay=1e-2)
        values = np.array([0.25, -3.5, 1e6])
        block = ScalarBlock(values)
        O.AdamW(block, cfg).step(block, {"w": np.zeros(3)})
        np.testing.assert_array_equal(block.p["w"], values * (1.0 - 1e-3 * 1e-2))
        np.testing.assert_allclose(block.p["w"], values * (1 - 1e-5), rtol=1e-12)

    def test_decay_decoupled_from_moment_history(self):
        """A zero-gradient step decays identically whatever v and step_count hold."""
        outcomes = []
        for v_fill, count in [(0.0, 0), (1.0, 5), (731.0, 99)]:
            block = ScalarBlock([2.0, -0.5])
            opt = O.AdamW(block, O.TrainConfig())
            opt.v["w"].fill(v_fill)
            opt.step_count = count
            opt.step(block, {"w": np.zeros(2)})
            outcomes.append(block.p["w"].copy())
        np.testing.assert_array_equal(outcomes[0], outcomes[1])
        np.testing.assert_array_equal(outcomes[0], outcomes[2])
        np.testing.assert_array_equal(outcomes[0], np.array([2.0, -0.5]) * (1.0 - 1e-3 * 1e-2))

    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_refuses_whole_step(self, poison):
        """One bad element anywhere aborts the step before any state mutates."""
        model = build_model(TOY_MODEL, seed=0)
        opt = O.AdamW(model, O.TrainConfig())
        grads = {name: np.zeros_like(p) for name, p in model.named_params()}
        grads["enc3.dsc1.depthwise.weight"][0, 0, 1, 1] = poison
        before = {name: p.copy() for name, p in model.named_params()}
        with pytest.raises(PoisonedGradientError):
            opt.step(model, grads)
        assert opt.step_count == 0
        for name, p in model.named_params():
            np.testing.assert_array_equal(p, before[name])
            assert not opt.m[name].any() and not opt.v[name].any()

    def test_misaligned_gradients_rejected(self):
        """Wrong names or wrong shapes are a state error, not a silent skip."""
        block = ScalarBlock([1.0, 2.0])
        opt = O.AdamW(block, O.TrainConfig())
        with pytest.raises(StateError):
            opt.step(block, {"weight": np.zeros(2)})
        with pytest.raises(StateError):
            opt.step(block, {"w": np.zeros(3)})

    def test_lr_zero_changes_nothing(self):
        """lr=0 freezes parameters even with nonzero gradients and decay."""
        block = ScalarBlock([1.5, -2.5])
        opt = O.AdamW(block, O.TrainConfig(lr=0.0))
        before = block.p["w"].copy()
        opt.step(block, {"w": np.array([0.3, -40.0])})
        np.testing.assert_array_equal(block.p["w"], before)

    def test_second_moment_stays_nonnegative(self):
        """v accumulates squares, so it can never dip below zero."""
        block = ScalarBlock([0.0])
        opt = O.AdamW(block, O.TrainConfig())
        for g in [3.0, -2.0, 0.0, 1e-9, -40.0]:
            opt.step(block, {"w": np.array([g])})
            assert opt.v["w"][0] >= 0


class TestEarlyStopper:
    def test_rising_val_stops_after_patience(self):
        """patience=1 with worsening loss stops at epoch 2, best stays epoch 1."""
        s = O.EarlyStopper(patience=1)
        assert not s.update(1, 1.0)
        assert s.update(2, 1.1)
        assert s.best_epoch == 1

    def test_decreasing_val_never_stops(self):
        """Continual improvement keeps training alive through every epoch."""
        s = O.EarlyStopper(patience=1)
        for epoch, val in enumerate([3.0, 2.5, 2.0, 1.5], start=1):
            assert not s.update(epoch, val)
        assert s.best_epoch == 4

    def test_plateau_with_min_delta_counts_as_stale(self):
        """Improvements below min_delta do not reset the patience counter."""
        s = O.EarlyStopper(patience=2, min_delta=0.1)
        assert not s.update(1, 1.0)
        assert not s.update(2, 0.95)
        assert s.update(3, 0.91)
        assert s.best_epoch == 1 and s.best == 1.0

    def test_tie_is_not_improvement(self):
        """Equal loss with min_delta=0 is stale: improvement must be strict."""
        s = O.EarlyStopper(patience=2)
        assert not s.update(1, 2.0)
        assert not s.update(2, 2.0)
        assert s.update(3, 2.0)


class TestTrainEpoch:
    def test_lr_zero_leaves_model_unchanged_but_reports_loss(self):
        """A zero learning rate still reports the loss it observed."""
        cfg = O.TrainConfig(lr=0.0, batch_size=4)
        model = build_model(TOY_MODEL, seed=1)
        before = {name: p.copy() for name, p in model.named_params()}
        loss = O.train_epoch(model, [toy_batch(0)], cfg, O.AdamW(model, cfg))
        assert np.isfinite(loss) and loss > 0
        for name, p in model.named_params():
            np.testing.assert_array_equal(p, before[name])

    def test_same_seed_same_batches_is_bitwise_deterministic(self):
        """Two runs from identical initial state agree to the last bit."""
        losses = []
        finals = []
        for _ in range(2):
            cfg = O.TrainConfig(batch_size=4)
            model = build_model(TOY_MODEL, seed=5)
            opt = O.AdamW(model, cfg)
            losses.append(O.train_epoch(model, [toy_batch(1), toy_batch(2)], cfg, opt))
            finals.append({name: p.copy() for name, p in model.named_params()})
        assert losses[0] == losses[1]
        for name in finals[0]:
            np.testing.assert_array_equal(finals[0][name], finals[1][name])

    def test_loss_decreases_over_three_epochs(self):
        """Repeated passes over a small fixed set actually reduce the loss."""
        cfg = O.TrainConfig(batch_size=4)
        model = build_model(TOY_MODEL, seed=2)
        opt = O.AdamW(model, cfg)
        batches = [toy_batch(i) for i in range(5)]
        losses = [O.train_epoch(model, batches, cfg, opt) for _ in range(3)]
        assert losses[2] < losses[0]

    def test_eval_loss_scalar_equals_train_loss_scalar(self):
        """On logits that do not depend on the mode, the eval loss, computed
        without a gradient, is the train loss bit for bit."""
        x, y = toy_batch(4)
        logits = np.random.default_rng(5).normal(0, 3, (4, 16, 16, 16)).astype(np.float32)
        model = FixedLogits(logits)
        for loss in ("bce_logits", "mse"):
            cfg = O.TrainConfig(batch_size=4, loss=loss)
            train_value, g_logits = O.batch_loss(model, x, y, cfg, train=True)
            eval_value, none = O.batch_loss(model, x, y, cfg, train=False)
            assert g_logits is not None and none is None
            assert np.float64(eval_value).tobytes() == np.float64(train_value).tobytes(), loss

    def test_momentum_one_eval_loss_matches_train_loss(self):
        """With batch-norm momentum 1 a train-mode forward leaves the running
        statistics equal to the batch ones, so the eval-mode forward, with
        each batch norm folded into its pointwise conv, repeats it up to
        rounding: the two losses agree within 1e-5 relative.  A float32
        fold rounds a few eps per batch norm: 3.3e-7 measured for one
        double conv and 3.5e-6 over the desk model's eighteen batch norms,
        which 1e-5 bounds with margin."""
        cfg = O.TrainConfig(batch_size=4)
        model = build_model(TOY_MODEL, seed=3)
        bns = [b for b in _blocks(model) if isinstance(b, L.BatchNorm)]
        assert bns
        for bn in bns:
            bn.momentum = 1.0
        x, y = toy_batch(4)
        train_value, _ = O.batch_loss(model, x, y, cfg, train=True)
        eval_value, _ = O.batch_loss(model, x, y, cfg, train=False)
        assert abs(eval_value - train_value) <= 1e-5 * abs(train_value)

    def test_empty_split_rejected(self):
        """An empty batch iterable cannot silently report a zero loss."""
        cfg = O.TrainConfig()
        model = build_model(TOY_MODEL, seed=0)
        with pytest.raises(ConfigError):
            O.train_epoch(model, [], cfg, O.AdamW(model, cfg))


class FixedLogits:
    """A stand-in model whose forward returns the same logits every time."""

    def __init__(self, logits):
        self.logits = logits

    def forward(self, x, train=False):
        return self.logits


class TestBatchLoss:
    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("loss", ["bce_logits", "mse"])
    def test_gradient_bytes_equal_to_the_whole_batch_path(self, loss, n):
        """Scoring one sample at a time, each as its share of the batch
        mean, gives the logit gradient of the whole-batch path byte for
        byte, also at a batch of 3, where dividing each sample's gradient
        by its own size and rescaling would round differently.  Only the
        loss value, now summed per sample, may move in its last bits."""
        rng = np.random.default_rng(n)
        logits = (4 * rng.standard_normal((n, 16, 16, 16))).astype(np.float32)
        logits.flat[:3] = [0.0, 60.0, -60.0]
        y = np.clip(rng.normal(0.6, 1.0, size=(n, 16, 32, 32)), 0, None).astype(np.float32)
        cfg = O.TrainConfig(loss=loss)
        model = FixedLogits(logits)
        value, g = O.batch_loss(model, None, y, cfg, train=True)
        want_value, want_g = batch_loss_ref(model, None, y, cfg, train=True)
        assert g.dtype == want_g.dtype and g.shape == want_g.shape
        assert g.tobytes() == want_g.tobytes()
        assert abs(value - want_value) <= 1e-6 * abs(want_value)
        eval_value, none = O.batch_loss(model, None, y, cfg, train=False)
        assert none is None
        assert np.float64(eval_value).tobytes() == np.float64(value).tobytes()

    def test_targets_of_another_batch_are_rejected(self):
        logits = np.zeros((2, 16, 16, 16), np.float32)
        y = np.zeros((3, 16, 32, 32), np.float32)
        with pytest.raises(ShapeError):
            O.batch_loss(FixedLogits(logits), None, y, O.TrainConfig(), train=True)

    def test_loss_scratch_does_not_grow_with_the_batch(self):
        """Past the forward, batch_loss holds one sample's target-grid
        scratch at a time.  The traced peak above the memory live after the
        forward, less the logit gradient it returns, is the same at batch 8
        as at batch 2; scoring the whole batch at once grew it by several
        target-grid arrays per sample."""
        cfg = O.TrainConfig()
        extra = {}
        for n in (2, 8):
            model = build_model(TOY_MODEL, seed=0)
            x, y = toy_batch(6, n=n)
            forward = model.forward
            live = []

            def traced_forward(x, train=False):
                out = forward(x, train)
                live.append(tracemalloc.get_traced_memory()[0])
                tracemalloc.reset_peak()
                return out
            model.forward = traced_forward
            tracemalloc.start()
            try:
                _, g = O.batch_loss(model, x, y, cfg, train=True)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra[n] = peak - live[0] - g.nbytes
        assert extra[8] <= extra[2] + 16 * 1024, extra


def const_loaders(train_pairs, val_pairs):
    """Batch factories over fixed in-memory (x, y) lists."""
    return (lambda epoch_seed: list(train_pairs)), (lambda: list(val_pairs))


class TestFit:
    def test_rising_val_stops_at_two_and_returns_epoch_one_model(self):
        """Training on all-rain targets while validating on all-dry ones makes
        validation worsen every epoch; patience=1 must stop after epoch 2 and
        hand back the epoch-1 parameters (checked against a one-epoch rerun).
        The learning rate is large so the divergence outweighs the drift of
        batch-norm running statistics."""
        x, _ = toy_batch(7)
        y_rain = np.full((4, 16, 32, 32), 2.0, dtype=np.float32)
        y_dry = np.zeros((4, 16, 32, 32), dtype=np.float32)
        tb, vb = const_loaders([(x, y_rain)], [(x, y_dry)])
        cfg = O.TrainConfig(batch_size=4, max_epochs=6, patience=1, seed=11, lr=0.3)
        model, history = O.fit(build_model(TOY_MODEL, seed=11), tb, vb, cfg)
        assert len(history) == 2
        assert history[1]["val_loss"] > history[0]["val_loss"]
        ref, _ = O.fit(build_model(TOY_MODEL, seed=11), tb, vb,
                       dataclasses.replace(cfg, max_epochs=1))
        for (name, p), (_, q) in zip(model.named_params(), ref.named_params()):
            np.testing.assert_array_equal(p, q)

    def test_early_stop_restores_every_tensor_of_the_best_epoch(self):
        """With the best epoch (1) before the last (3), fit hands back the
        epoch-1 parameters and batch-norm statistics byte for byte.  The
        validation factory runs right after each epoch's training, so it
        sees each epoch's tensors."""
        x, _ = toy_batch(7)
        y_rain = np.full((4, 16, 32, 32), 2.0, dtype=np.float32)
        y_dry = np.zeros((4, 16, 32, 32), dtype=np.float32)
        model = build_model(TOY_MODEL, seed=11)
        seen = []

        def val_batches():
            seen.append({name: arr.copy() for name, arr in
                         list(model.named_params()) + list(model.named_states())})
            return [(x, y_dry)]

        cfg = O.TrainConfig(batch_size=4, max_epochs=6, patience=2, seed=11, lr=0.3)
        model, history = O.fit(model, lambda epoch_seed: [(x, y_rain)], val_batches, cfg)
        assert len(history) == len(seen) == 3
        assert min(range(3), key=lambda i: history[i]["val_loss"]) == 0
        got = dict(list(model.named_params()) + list(model.named_states()))
        assert list(got) == list(seen[0])
        for name, arr in got.items():
            assert arr.tobytes() == seen[0][name].tobytes(), name
        assert any(arr.tobytes() != seen[-1][name].tobytes() for name, arr in got.items()
                   if name.endswith("running_mean"))
        assert any(arr.tobytes() != seen[-1][name].tobytes() for name, arr in got.items()
                   if name.endswith("weight"))

    def test_improving_val_runs_all_epochs(self):
        """When validation keeps dropping, fit uses its whole epoch budget."""
        x, y = toy_batch(9)
        tb, vb = const_loaders([(x, y)], [(x, y)])
        cfg = O.TrainConfig(batch_size=4, max_epochs=3, patience=3, seed=1)
        _, history = O.fit(build_model(TOY_MODEL, seed=1), tb, vb, cfg)
        assert len(history) == 3
        vals = [h["val_loss"] for h in history]
        assert vals[2] < vals[1] < vals[0]

    def test_history_schema_and_jsonl_file(self, tmp_path):
        """Each epoch logs epoch, losses, wall seconds, and lr, also to disk."""
        x, y = toy_batch(4)
        tb, vb = const_loaders([(x, y)], [(x, y)])
        cfg = O.TrainConfig(batch_size=4, max_epochs=2, patience=3)
        path = str(tmp_path / "history.jsonl")
        _, history = O.fit(build_model(TOY_MODEL, seed=3), tb, vb, cfg,
                           history_path=path)
        assert [h["epoch"] for h in history] == [1, 2]
        for h in history:
            assert set(h) == {"epoch", "train_loss", "val_loss", "seconds", "lr"}
        with open(path, encoding="utf-8") as fh:
            on_disk = [json.loads(line) for line in fh]
        assert on_disk == history

    def test_poisoned_gradient_writes_completed_epochs_then_raises(self, tmp_path,
                                                                   monkeypatch):
        x, y = toy_batch(4)
        tb, vb = const_loaders([(x, y)], [(x, y)])
        cfg = O.TrainConfig(batch_size=4, max_epochs=3, patience=3)
        path = str(tmp_path / "history.jsonl")
        _, clean = O.fit(build_model(TOY_MODEL, seed=3), tb, vb, cfg)
        poison_epoch(monkeypatch, 2)
        with pytest.raises(PoisonedGradientError):
            O.fit(build_model(TOY_MODEL, seed=3), tb, vb, cfg, history_path=path)
        with open(path, encoding="utf-8") as fh:
            on_disk = [json.loads(line) for line in fh]
        assert [rec["epoch"] for rec in on_disk] == [1]
        assert on_disk[0]["val_loss"] == clean[0]["val_loss"]


@pytest.fixture(scope="module")
def two_region_set(tmp_path_factory):
    """A dataset with two regions sharing one year, small enough to train."""
    out = str(tmp_path_factory.mktemp("regional"))
    cfg = D.SynthConfig(n_train=12, n_val=4, n_test=4, grid=16,
                        bands=("VIS006", "IR016"), regions=("north", "south"),
                        years=(2019,), seed=21)
    manifest = D.load_manifest(D.synth_generate(cfg, out))
    return manifest


REGIONAL_CFG = O.TrainConfig(batch_size=4, max_epochs=1, patience=1, seed=13)


class TestRegionalLoaders:
    def test_unshuffled_train_batches_follow_the_manifest_for_any_epoch_seed(self,
                                                                            two_region_set):
        """train.shuffle false gives the manifest order whatever the epoch
        seed; shuffled, the same samples come in another order."""
        manifest = dataclasses.replace(two_region_set, filter_threshold=0.0,
                                       root=two_region_set.root)
        train = [s for s in manifest.samples if s.split == "train"]

        def order(shuffle, seed):
            batches, _ = O._regional_loaders(
                manifest, manifest.samples, O.TrainConfig(batch_size=5, shuffle=shuffle), None)
            return [r for _, _, chunk in batches(seed) for r in chunk]

        for seed in (0, 1, 12345):
            assert order(False, seed) == train
        shuffled = [order(True, seed) for seed in (0, 1)]
        assert all(sorted(o, key=str) == sorted(train, key=str) for o in shuffled)
        assert any(o != train for o in shuffled)


class TestTrainRegional:
    def test_two_regions_yield_two_checkpoints_and_histories(self, two_region_set, tmp_path):
        """Each (region, year) job trains independently and leaves artifacts."""
        jobs = two_region_set.region_years()
        assert jobs == [("north", 2019), ("south", 2019)]
        results, failures = O.train_regional(two_region_set, jobs, TOY_MODEL,
                                             REGIONAL_CFG, str(tmp_path))
        assert failures == {} and sorted(results) == jobs
        for job, path in results.items():
            assert os.path.exists(path)
            assert os.path.exists(path.replace(".smck", ".history.jsonl"))

    def test_missing_region_is_reported_not_fatal(self, two_region_set, tmp_path):
        """A job with no samples fails alone; the valid job still finishes."""
        jobs = [("north", 2019), ("atlantis", 2019)]
        results, failures = O.train_regional(two_region_set, jobs, TOY_MODEL,
                                             REGIONAL_CFG, str(tmp_path))
        assert list(results) == [("north", 2019)]
        assert list(failures) == [("atlantis", 2019)]
        assert "atlantis" in failures[("atlantis", 2019)]

    def test_rerun_checkpoints_bitwise_identical(self, two_region_set, tmp_path):
        """Same seed, data, and config reproduce the checkpoint byte for byte."""
        paths = []
        for sub in ("a", "b"):
            results, failures = O.train_regional(
                two_region_set, [("south", 2019)], TOY_MODEL, REGIONAL_CFG,
                str(tmp_path / sub))
            assert failures == {}
            paths.append(results[("south", 2019)])
        with open(paths[0], "rb") as fa, open(paths[1], "rb") as fb:
            assert fa.read() == fb.read()

    def test_jobs_use_distinct_derived_seeds(self):
        """Region jobs must not share an init; the derived seeds differ."""
        s = REGIONAL_CFG.seed
        assert D.derive_seed(s, "north", 2019) != D.derive_seed(s, "south", 2019)
        assert D.derive_seed(s, "north", 2019) != s

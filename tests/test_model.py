"""Whole-network tests: configuration, parameter budget, geometry,
full-graph gradients, and checkpoint serialization."""

import numpy as np
import pytest

from nimbus import tensor as T
from nimbus.errors import ConfigError, FormatError, ShapeError, StateError
from nimbus.model import (ModelConfig, baseline_reference_param_count, build_model,
                          load_checkpoint, save_checkpoint)

from _corrupt import rewrite_checkpoint_header
from _oracles import fd_gradient, rel_err

TOY = dict(in_channels=4, out_channels=2, stage_widths=(8, 16, 32, 64, 128),
           depth_multiplier=1, cbam_reduction=4)


def toy_param_count_by_formula(cfg):
    """Independent closed-form walk over the architecture, kept deliberately
    separate from the package's counting code."""
    k = cfg.depth_multiplier
    r = cfg.cbam_reduction

    def dsc(ci, co):
        return 9 * k * ci + k * ci * co + co

    def dc(ci, co, mid):
        return dsc(ci, mid) + 2 * mid + dsc(mid, co) + 2 * co

    w = cfg.stage_widths
    enc_in = (cfg.in_channels, w[0], w[1], w[2], w[3])
    enc_out = (w[0], w[1], w[2], w[3], w[4] // 2)
    total = sum(dc(ci, co, co) for ci, co in zip(enc_in, enc_out))
    total += sum(2 * c * (c // r) + (2 * 49 + 1) for c in enc_out)
    carry = w[4] // 2
    for i, out in enumerate((w[3] // 2, w[2] // 2, w[1] // 2, w[0])):
        cc = enc_out[3 - i] + carry
        total += dc(cc, out, cc // 2)
        carry = out
    return total + carry * cfg.out_channels + cfg.out_channels


@pytest.fixture
def toy_model():
    return build_model(ModelConfig(**TOY), seed=11)


class TestModelConfig:
    def test_defaults(self):
        cfg = ModelConfig()
        assert cfg.in_channels == 36
        assert cfg.out_channels == 16
        assert cfg.stage_widths == (64, 128, 256, 512, 1024)

    def test_single_frame_preset_forces_channels(self):
        cfg = ModelConfig(preset="single-frame")
        assert cfg.in_channels == 11
        assert cfg.out_channels == 1

    @pytest.mark.parametrize("widths", [(64, 128, 256, 512), (64, 64, 128, 256, 512),
                                        (128, 64, 256, 512, 1024), (63, 128, 256, 512, 1024)])
    def test_bad_widths_rejected(self, widths):
        with pytest.raises(ConfigError):
            ModelConfig(stage_widths=widths)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig.from_dict({"in_channels": 4, "dropout": 0.5})

    def test_dict_roundtrip(self):
        cfg = ModelConfig(**TOY)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("widths", ["abc", 5])
    def test_non_list_stage_widths_is_config_error(self, widths):
        with pytest.raises(ConfigError, match="stage_widths"):
            ModelConfig.from_dict({"stage_widths": widths})


class TestParameterBudget:
    def test_default_in_window(self):
        model = build_model(ModelConfig(), seed=0)
        assert 3_500_000 <= model.count_params() <= 4_700_000

    def test_baseline_reference_in_window(self):
        assert 19_000_000 <= baseline_reference_param_count(ModelConfig()) <= 25_000_000

    def test_ratio_at_most_quarter(self):
        cfg = ModelConfig()
        model = build_model(cfg, seed=0)
        assert model.count_params() / baseline_reference_param_count(cfg) <= 0.25

    def test_toy_count_matches_independent_formula(self, toy_model):
        assert toy_model.count_params() == toy_param_count_by_formula(toy_model.config)

    def test_count_equals_sum_of_array_sizes(self, toy_model):
        assert toy_model.count_params() == sum(v.size for _, v in toy_model.named_params())


class TestForwardGeometry:
    def test_odd_input_padded_and_cropped(self, toy_model):
        x = np.random.default_rng(0).standard_normal((1, 4, 126, 126)).astype(np.float32)
        assert toy_model.forward(x).shape == (1, 2, 126, 126)

    def test_multiple_of_16_no_padding_path(self, toy_model):
        x = np.random.default_rng(0).standard_normal((1, 4, 64, 64)).astype(np.float32)
        assert toy_model.forward(x).shape == (1, 2, 64, 64)

    def test_rejects_wrong_channels(self, toy_model):
        with pytest.raises(ShapeError):
            toy_model.forward(np.zeros((1, 3, 32, 32), dtype=np.float32))

    def test_rejects_tiny_input(self, toy_model):
        with pytest.raises(ShapeError):
            toy_model.forward(np.zeros((1, 4, 8, 8), dtype=np.float32))

    def test_eval_forward_is_pure(self, toy_model):
        x = np.random.default_rng(3).standard_normal((2, 4, 32, 32)).astype(np.float32)
        y1 = toy_model.forward(x)
        y2 = toy_model.forward(x)
        assert np.array_equal(y1, y2)
        states1 = {k: v.copy() for k, v in toy_model.named_states()}
        toy_model.forward(x)
        for k, v in toy_model.named_states():
            assert np.array_equal(states1[k], v)

    def test_attention_scales_inside_unit_interval(self, toy_model):
        """Gates stay strictly inside (0,1).  Probed in train mode and in
        float64: there batch norm keeps pre-gate logits small enough that the
        open interval is representable at all (a saturated float rounds the
        mathematically-interior value to exactly 0 or 1)."""
        model = toy_model.to_dtype(np.float64)
        for att in model.att:
            att.channel.record_scales = True
        x = np.random.default_rng(4).standard_normal((2, 4, 32, 32))
        model.forward(x, train=True)
        for att in model.att:
            s = att.channel.last_scale
            assert s is not None
            assert np.all((s > 0) & (s < 1))


class TestBackward:
    def test_zero_grad_gives_zero_param_grads(self, toy_model):
        model = toy_model.to_dtype(np.float64)
        x = np.random.default_rng(5).standard_normal((2, 4, 16, 16))
        y = model.forward(x, train=True)
        grads = model.backward(np.zeros_like(y))
        assert set(grads) == {n for n, _ in model.named_params()}
        for name, g in grads.items():
            assert np.all(g == 0), name

    def test_backward_without_forward_is_state_error(self, toy_model):
        with pytest.raises(StateError):
            toy_model.backward(np.zeros((1, 2, 16, 16), dtype=np.float32))

    def test_whole_model_gradient_sample_matches_fd(self, toy_model):
        model = toy_model.to_dtype(np.float64)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 4, 16, 16))
        probe = rng.standard_normal((2, 2, 16, 16))

        def run():
            return float((model.forward(x, train=True) * probe).sum())

        run()
        grads = model.backward(probe)
        params = dict(model.named_params())
        checked = 0
        for name in sorted(params):
            arr = params[name]
            for flat in rng.choice(arr.size, size=min(2, arr.size), replace=False):
                idx = np.unravel_index(flat, arr.shape)
                orig = arr[idx]
                eps = 1e-6
                arr[idx] = orig + eps
                plus = run()
                arr[idx] = orig - eps
                minus = run()
                arr[idx] = orig
                fd = (plus - minus) / (2 * eps)
                got = grads[name][idx]
                # a per-channel shift feeding batch norm has true gradient 0;
                # below the finite-difference noise floor both readings agree
                if max(abs(fd), abs(got)) > 1e-6:
                    assert abs(got - fd) / max(abs(fd), abs(got)) < 1e-3, (name, idx, got, fd)
                checked += 1
        assert checked >= 100

    def test_duplicated_batch_leaves_grads_unchanged(self, toy_model):
        model = toy_model.to_dtype(np.float64)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 4, 16, 16))
        probe = rng.standard_normal((2, 2, 16, 16))
        model.forward(x, train=True)
        g1 = model.backward(probe / probe.size)
        model.forward(np.concatenate([x, x]), train=True)
        g2 = model.backward(np.concatenate([probe, probe]) / (2 * probe.size))
        for name in g1:
            assert rel_err(g2[name], g1[name]) < 1e-9, name


class TestCheckpoint:
    def test_roundtrip_bitwise(self, toy_model, tmp_path):
        x = np.random.default_rng(8).standard_normal((1, 4, 32, 32)).astype(np.float32)
        y1 = toy_model.forward(x)
        path = tmp_path / "model.smck"
        save_checkpoint(toy_model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == toy_model.config
        for (n1, a), (n2, b) in zip(toy_model.named_params(), loaded.named_params()):
            assert n1 == n2
            assert np.array_equal(a, b), n1
        for (n1, a), (n2, b) in zip(toy_model.named_states(), loaded.named_states()):
            assert n1 == n2
            assert np.array_equal(a, b), n1
        assert np.array_equal(loaded.forward(x), y1)

    def test_single_frame_checkpoint_reports_channels(self, tmp_path):
        cfg = ModelConfig(preset="single-frame", stage_widths=(8, 16, 32, 64, 128),
                          depth_multiplier=1, cbam_reduction=4)
        model = build_model(cfg, seed=1)
        path = tmp_path / "sf.smck"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config.in_channels == 11
        assert loaded.config.out_channels == 1

    def test_bad_magic_is_format_error(self, toy_model, tmp_path):
        path = tmp_path / "model.smck"
        save_checkpoint(toy_model, path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="byte 0"):
            load_checkpoint(path)

    def test_bad_version_is_format_error(self, toy_model, tmp_path):
        path = tmp_path / "model.smck"
        save_checkpoint(toy_model, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            load_checkpoint(path)

    def test_corrupt_header_json_is_format_error(self, toy_model, tmp_path):
        path = tmp_path / "model.smck"
        save_checkpoint(toy_model, path)
        raw = bytearray(path.read_bytes())
        raw[12] = 0xFE  # inside the JSON header
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncated_data_is_format_error(self, toy_model, tmp_path):
        path = tmp_path / "model.smck"
        save_checkpoint(toy_model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)

    def test_non_object_entry_is_format_error(self, toy_model, tmp_path):
        path = tmp_path / "model.smck"
        save_checkpoint(toy_model, path)
        rewrite_checkpoint_header(path, lambda h: h["entries"].insert(1, 7))
        with pytest.raises(FormatError, match=r"entries\[1\]"):
            load_checkpoint(path)

    def test_overlong_header_is_format_error(self, toy_model, tmp_path):
        path = tmp_path / "model.smck"
        save_checkpoint(toy_model, path)
        raw = bytearray(path.read_bytes())
        raw[6:10] = (2 ** 31).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="header length"):
            load_checkpoint(path)

"""Whole-network tests: configuration, parameter budget, geometry,
full-graph gradients, and checkpoint serialization."""

import json
import re
import struct
import tracemalloc

import numpy as np
import pytest

from nimbus.config import RunConfig
from nimbus.errors import ConfigError, FormatError, ShapeError, StateError
from nimbus.model import (CHECKPOINT_VERSION, ModelConfig, architecture_size,
                          baseline_reference_param_count, build_model, load_checkpoint,
                          save_checkpoint)

from _corrupt import (BAD_BLOB_TABLES, BAD_READS, OVERSIZED_CONFIGS, POISONED_VALUES,
                      UNDECODABLE_JSON, oversize, rewrite_checkpoint, rewrite_checkpoint_header)
from _oracles import (baseline_reference_param_count_ref, named_arrays_ref, rel_err,
                      richardson_fd)

TOY = dict(in_channels=4, out_channels=2, stage_widths=(8, 16, 32, 64, 128),
           depth_multiplier=1, cbam_reduction=4)
DESK = dict(in_channels=36, out_channels=16, stage_widths=(16, 32, 64, 128, 256),
            depth_multiplier=2, cbam_reduction=8)


def toy_param_count_by_formula(cfg):
    """Independent closed-form walk over the architecture, kept deliberately
    separate from the package's counting code."""
    k = cfg.depth_multiplier
    r = cfg.cbam_reduction

    def dsc(ci, co):
        return 9 * k * ci + k * ci * co

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

    @pytest.mark.parametrize("widths", [(64, 128, 256, 512), (64, 64, 128, 256, 512),
                                        (128, 64, 256, 512, 1024), (63, 128, 256, 512, 1024)])
    def test_bad_widths_rejected(self, widths):
        with pytest.raises(ConfigError):
            ModelConfig(stage_widths=widths)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig.from_dict({"in_channels": 4, "dropout": 0.5})

    def test_refuses_a_reduction_the_widths_do_not_take(self):
        """The config checks the rule once, when it is made: the reduction
        divides every width a CBAM attends, the bottleneck's half width too."""
        want = r"^cbam_reduction 16 must divide every attended width \[8, 16, 32, 64, 64\]$"
        with pytest.raises(ConfigError, match=want):
            ModelConfig(stage_widths=(8, 16, 32, 64, 128))
        with pytest.raises(ConfigError, match=want):
            RunConfig.from_dict({"model": {"stage_widths": [8, 16, 32, 64, 128]}})
        with pytest.raises(ConfigError, match=r"^cbam_reduction 8 .* \[8, 16, 32, 64, 36\]$"):
            ModelConfig(stage_widths=(8, 16, 32, 64, 72), cbam_reduction=8)

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

    @pytest.mark.parametrize("cfg", [
        ModelConfig(), ModelConfig(in_channels=11, out_channels=1), ModelConfig(**TOY),
        ModelConfig(in_channels=3, out_channels=5, stage_widths=(6, 12, 18, 24, 36),
                    depth_multiplier=3, cbam_reduction=3),
    ], ids=["default", "single-frame", "toy", "odd-widths"])
    def test_architecture_size_equals_the_built_model(self, cfg):
        model = build_model(cfg, seed=0)
        states = sum(v.size for _, v in model.named_states())
        assert architecture_size(cfg) == (model.count_params(), states)


def random_valid_configs(n, seed):
    """n valid model configs drawn from a fixed seed: widths are distinct
    even multiples of the reduction, so every attended width divides."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        r = int(rng.integers(1, 17))
        base = np.sort(rng.choice(np.arange(1, 65), size=5, replace=False))
        yield ModelConfig(in_channels=int(rng.integers(1, 100)),
                          out_channels=int(rng.integers(1, 40)),
                          stage_widths=tuple(int(2 * r * b) for b in base),
                          depth_multiplier=int(rng.integers(1, 5)), cbam_reduction=r)


class TestChannelPlan:
    """architecture_size and the reference count both read the one channel
    plan; they give what the walks they replaced gave."""

    def test_reference_count_equals_the_earlier_walk_over_300_configs(self):
        for cfg in random_valid_configs(300, seed=0):
            assert baseline_reference_param_count(cfg) == \
                baseline_reference_param_count_ref(cfg), cfg

    def test_architecture_size_equals_the_built_model_for_small_random_configs(self):
        small = [cfg for cfg in random_valid_configs(300, seed=0)
                 if architecture_size(cfg)[0] < 300_000][:6]
        assert len(small) == 6
        for cfg in small:
            model = build_model(cfg, seed=0)
            states = sum(v.size for _, v in model.named_states())
            assert architecture_size(cfg) == (model.count_params(), states), cfg


@pytest.mark.parametrize("cfg", [TOY, DESK], ids=["toy", "desk"])
def test_named_arrays_follow_the_recursive_walk(cfg):
    """named_params and named_states give the names, order and very arrays
    of the per-method recursions they replaced, so checkpoints keep their
    entry order."""
    model = build_model(ModelConfig(**cfg), seed=5)
    for got, attr in ((model.named_params(), "p"), (model.named_states(), "s")):
        got, want = list(got), list(named_arrays_ref(model, attr))
        assert [name for name, _ in got] == [name for name, _ in want]
        assert all(a is b for (_, a), (_, b) in zip(got, want))


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
        x = np.random.default_rng(4).standard_normal((2, 4, 32, 32))
        model.forward(x, train=True)
        for att in model.att:
            s = att.channel.gate()
            assert s.shape == (2, att.channel.channels)
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

    def test_backward_frees_every_cache(self, toy_model):
        """After one backward no block holds its train-mode activations, and
        the model refuses a second backward, as does its head, whose input
        the last decoder stage can no longer rebuild."""
        x = np.random.default_rng(5).standard_normal((2, 4, 16, 16)).astype(np.float32)
        y = toy_model.forward(x, train=True)
        toy_model.backward(np.ones_like(y))
        blocks = [toy_model]
        while blocks:
            block = blocks.pop()
            assert block._cache is None, type(block).__name__
            blocks.extend(block._children.values())
        with pytest.raises(StateError):
            toy_model.backward(np.ones_like(y))
        with pytest.raises(StateError):
            toy_model.head.backward(np.ones_like(y), toy_model.dec[-1].output())

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
                fd = richardson_fd(run, arr, idx)
                got = grads[name][idx]
                # below the finite-difference noise floor both readings agree
                if max(abs(fd), abs(got)) > 1e-6:
                    assert abs(got - fd) / max(abs(fd), abs(got)) < 1e-3, (name, idx, got, fd)
                checked += 1
        assert checked >= 100

    def test_whole_model_gradient_at_32x32_matches_central_difference(self, toy_model):
        """At 32x32 `enc5` runs at 2x2, so each of its batch norms sees eight
        values per channel and is out of saturation, and a plain central
        difference reads every block's gradient above its noise.  ReLU and
        max-pool kinks lie so densely here that a step of 1e-6 crosses some
        (0.7 relative error seen on an `enc1` weight with other data); at a
        step of 1e-8 they are rare.  A loss near 100 carries about 1e-13 of
        rounding, which puts about 1e-5 of noise on the difference quotient,
        so coordinates whose gradient is under 1e-2, where that noise nears
        the 1e-3 tolerance, are skipped."""
        model = toy_model.to_dtype(np.float64)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 4, 32, 32))
        probe = rng.standard_normal((2, 2, 32, 32))
        step = 1e-8

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
                arr[idx] = orig + step
                plus = run()
                arr[idx] = orig - step
                minus = run()
                arr[idx] = orig
                fd = (plus - minus) / (2.0 * step)
                got = grads[name][idx]
                if max(abs(fd), abs(got)) > 1e-2:
                    assert abs(got - fd) / max(abs(fd), abs(got)) < 1e-3, (name, idx, got, fd)
                    checked += 1
        assert checked >= 150

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

    def test_save_rewrites_a_loaded_checkpoint_byte_for_byte(self, toy_model, tmp_path):
        save_checkpoint(toy_model, tmp_path / "a.smck")
        save_checkpoint(load_checkpoint(tmp_path / "a.smck"), tmp_path / "b.smck")
        assert (tmp_path / "b.smck").read_bytes() == (tmp_path / "a.smck").read_bytes()

    def test_single_frame_checkpoint_reports_channels(self, tmp_path):
        cfg = ModelConfig(in_channels=11, out_channels=1, stage_widths=(8, 16, 32, 64, 128),
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

    @pytest.mark.parametrize("version", [1, 2, 3, 5, 99])
    def test_bad_version_is_format_error(self, toy_model, tmp_path, version):
        """Only version 4 loads; the retired versions 1, 2 and 3 are
        refused like any other."""
        path = tmp_path / "model.smck"
        save_checkpoint(toy_model, path)
        raw = bytearray(path.read_bytes())
        raw[4:6] = struct.pack("<H", version)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=f"unsupported version {version} at byte 4$"):
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

    @pytest.mark.parametrize("edit,text", [case[1:] for case in BAD_BLOB_TABLES],
                             ids=[case[0] for case in BAD_BLOB_TABLES])
    def test_entries_must_tile_the_data_section(self, toy_model, tmp_path, edit, text):
        """Only the blob table save_checkpoint writes loads."""
        path = tmp_path / "model.smck"
        save_checkpoint(toy_model, path)
        rewrite_checkpoint(path, edit)
        with pytest.raises(FormatError, match=re.escape(text)):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit,text", [case[1:] for case in POISONED_VALUES],
                             ids=[case[0] for case in POISONED_VALUES])
    def test_poisoned_value_is_format_error_naming_its_byte(self, toy_model, tmp_path,
                                                             edit, text):
        """NaN, Inf or a negative running variance is refused, and the
        error's byte offset points at that very value in the file."""
        path = tmp_path / "model.smck"
        save_checkpoint(toy_model, path)
        rewrite_checkpoint(path, edit)
        with pytest.raises(FormatError, match=re.escape(text) + r" (\d+)$") as err:
            load_checkpoint(path)
        byte = int(re.search(r"at byte (\d+)$", str(err.value)).group(1))
        (value,) = struct.unpack_from("<f", path.read_bytes(), byte)
        assert not np.isfinite(value) or value < 0

    @pytest.mark.parametrize("field,value", [case[1:] for case in OVERSIZED_CONFIGS],
                             ids=[case[0] for case in OVERSIZED_CONFIGS])
    def test_oversized_config_is_rejected_before_allocating(self, toy_model, tmp_path,
                                                            field, value):
        """A header config that needs more parameter and state bytes than
        the data section holds is a FormatError naming the field, raised
        before anything the size of the config is allocated."""
        path = tmp_path / "model.smck"
        save_checkpoint(toy_model, path)
        rewrite_checkpoint_header(path, oversize(field, value))
        size = path.stat().st_size
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=f"config field '{field}'"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * size + (1 << 20)

    def test_unbuildable_config_is_format_error(self, toy_model, tmp_path):
        path = tmp_path / "model.smck"
        save_checkpoint(toy_model, path)
        rewrite_checkpoint_header(path, oversize("cbam_reduction", 3))
        with pytest.raises(FormatError, match="cbam_reduction"):
            load_checkpoint(path)

    @pytest.mark.parametrize("header", [case[1] for case in UNDECODABLE_JSON],
                             ids=[case[0] for case in UNDECODABLE_JSON])
    def test_undecodable_header_is_format_error(self, tmp_path, header):
        path = tmp_path / "model.smck"
        path.write_bytes(b"SMCK" + struct.pack("<HI", CHECKPOINT_VERSION, len(header)) + header)
        with pytest.raises(FormatError, match="byte 10"):
            load_checkpoint(path)

    def test_overlong_header_is_format_error(self, toy_model, tmp_path):
        path = tmp_path / "model.smck"
        save_checkpoint(toy_model, path)
        raw = bytearray(path.read_bytes())
        raw[6:10] = (2 ** 31).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="header length"):
            load_checkpoint(path)


class TestCheckpointBandsAndLoss:
    """The version 4 header holds the model config, the input bands a model
    reads and the loss it was trained with."""

    def test_fresh_model_records_nothing_and_a_trained_one_round_trips(self, toy_model,
                                                                       tmp_path):
        assert toy_model.bands is None and toy_model.loss is None
        save_checkpoint(toy_model, tmp_path / "fresh.smck")
        fresh = load_checkpoint(tmp_path / "fresh.smck")
        assert fresh.bands is None and fresh.loss is None
        toy_model.bands, toy_model.loss = ("IR108", "VIS006"), "mse"
        save_checkpoint(toy_model, tmp_path / "trained.smck")
        trained = load_checkpoint(tmp_path / "trained.smck")
        assert trained.bands == ("IR108", "VIS006") and trained.loss == "mse"
        raw = (tmp_path / "trained.smck").read_bytes()
        assert struct.unpack_from("<H", raw, 4) == (4,)
        (header_len,) = struct.unpack_from("<I", raw, 6)
        header = json.loads(raw[10:10 + header_len])
        assert list(header["config"]) == ["in_channels", "out_channels", "stage_widths",
                                          "depth_multiplier", "cbam_reduction"]

    @pytest.mark.parametrize("edit,text", [case[1:] for case in BAD_READS],
                             ids=[case[0] for case in BAD_READS])
    def test_malformed_bands_or_loss_is_format_error(self, toy_model, tmp_path, edit, text):
        toy_model.bands, toy_model.loss = ("VIS006", "IR016"), "bce_logits"
        path = tmp_path / "bad.smck"
        save_checkpoint(toy_model, path)
        rewrite_checkpoint(path, edit)
        with pytest.raises(FormatError, match=re.escape(text)):
            load_checkpoint(path)

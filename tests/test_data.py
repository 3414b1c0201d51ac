"""Pipeline tests: tensor file format, manifest handling, the three
preprocessing steps, batching, and the synthetic generator."""

import json
import os
import re
import threading
import types

import numpy as np
import pytest

from _corrupt import (BAD_MANIFESTS, BAD_TENSOR_FILES, NON_FINITE_FILES, UNDECODABLE_JSON,
                      poison_file_of, poison_tensor, rewrite_manifest)
from _oracles import block_mean2_ref, synth_sample_ref
from nimbus import data as D
from nimbus import metrics as M
from nimbus.errors import ConfigError, DataError, FormatError, ShapeError

SMALL = dict(n_train=6, n_val=2, n_test=2, grid=16, noise_sigma=0.02, seed=5)


@pytest.fixture(scope="module")
def small_set(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthset")
    path = D.synth_generate(D.SynthConfig(**SMALL), str(out))
    return D.load_manifest(path)


class TestTensorFile:
    def test_roundtrip_bitwise(self, tmp_path):
        x = np.random.default_rng(0).standard_normal((2, 36, 126, 126)).astype(np.float32)
        p = tmp_path / "t.w4cl"
        D.write_tensor_file(p, x)
        back = D.read_tensor_file(p)
        assert back.shape == (2, 36, 126, 126)
        assert np.array_equal(back, x)

    def test_bad_magic_offset_zero(self, tmp_path):
        p = tmp_path / "t.w4cl"
        D.write_tensor_file(p, np.zeros((2, 2), dtype=np.float32))
        raw = bytearray(p.read_bytes())
        raw[1] ^= 0x40
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="byte 0"):
            D.read_tensor_file(p)

    def test_truncated_payload_detected(self, tmp_path):
        p = tmp_path / "t.w4cl"
        D.write_tensor_file(p, np.arange(10, dtype=np.float32))
        p.write_bytes(p.read_bytes()[:-4])  # drop one of 10 declared elements
        with pytest.raises(FormatError, match="does not match dims"):
            D.read_tensor_file(p)

    def test_unsupported_dtype_code(self, tmp_path):
        p = tmp_path / "t.w4cl"
        D.write_tensor_file(p, np.zeros(3, dtype=np.float32))
        raw = bytearray(p.read_bytes())
        raw[5] = 7
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="byte 5"):
            D.read_tensor_file(p)

    def test_read_array_is_writable_and_private(self, tmp_path):
        """Each read owns fresh memory: writing to one read array changes
        neither the file nor a second read of it."""
        x = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        p = tmp_path / "t.w4cl"
        D.write_tensor_file(p, x)
        first = D.read_tensor_file(p)
        assert first.flags.writeable and first.dtype == np.dtype("<f4")
        first += 100.0
        second = D.read_tensor_file(p)
        assert second.tobytes() == x.tobytes()
        assert not np.shares_memory(first, second)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_reads_a_pipe_whole(self, tmp_path):
        """A pipe reports size 0 to fstat; every byte is still read."""
        x = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        src = tmp_path / "t.w4cl"
        D.write_tensor_file(src, x)
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        writer = threading.Thread(target=lambda: fifo.write_bytes(src.read_bytes()))
        writer.start()
        try:
            back = D.read_tensor_file(fifo)
        finally:
            writer.join()
        assert back.tobytes() == x.tobytes() and back.shape == x.shape

    def test_reads_bytes_past_the_fstat_size(self, tmp_path, monkeypatch):
        """A file that grows after fstat is read to its end: the extra bytes
        are counted, here as a payload longer than the dims allow."""
        x = np.arange(6, dtype=np.float32)
        p = tmp_path / "t.w4cl"
        D.write_tensor_file(p, x)
        real = os.fstat
        monkeypatch.setattr(D.os, "fstat",
                            lambda fd: types.SimpleNamespace(st_size=real(fd).st_size - 10))
        assert D.read_tensor_file(p).tobytes() == x.tobytes()
        with open(p, "ab") as fh:
            fh.write(b"\0" * 4)
        with pytest.raises(FormatError, match="payload of 28 bytes at byte 12"):
            D.read_tensor_file(p)

    @pytest.mark.parametrize("raw,text", [case[1:] for case in BAD_TENSOR_FILES],
                             ids=[case[0] for case in BAD_TENSOR_FILES])
    def test_dims_too_large_for_64_bits_name_the_exact_payload(self, tmp_path, raw, text):
        p = tmp_path / "t.w4cl"
        p.write_bytes(raw)
        with pytest.raises(FormatError) as err:
            D.read_tensor_file(p)
        assert str(err.value) == f"{p}: {text}"

    def test_zero_size_tensor_roundtrips(self, tmp_path):
        p = tmp_path / "t.w4cl"
        D.write_tensor_file(p, np.zeros((2, 0, 3), dtype=np.float32))
        assert D.read_tensor_file(p).shape == (2, 0, 3)

    def test_version_check(self, tmp_path):
        p = tmp_path / "t.w4cl"
        D.write_tensor_file(p, np.zeros(3, dtype=np.float32))
        raw = bytearray(p.read_bytes())
        raw[4] = 2
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            D.read_tensor_file(p)


class TestNonFiniteValues:
    """read_tensor_file refuses NaN and Inf anywhere in a file, so the
    reader of every file kind refuses them, naming the file and the byte."""

    @pytest.fixture
    def fresh_set(self, tmp_path):
        return D.load_manifest(D.synth_generate(D.SynthConfig(**SMALL), str(tmp_path)))

    @staticmethod
    def message(path, value, offset):
        return f"{path}: value {value:g} at byte {offset} is not finite"

    @pytest.mark.parametrize("kind,value", [case[1:] for case in NON_FINITE_FILES],
                             ids=[case[0] for case in NON_FINITE_FILES])
    def test_reader_of_each_kind_names_file_and_byte(self, fresh_set, tmp_path, kind, value):
        record = fresh_set.split_samples("test")[0]
        path, offset = poison_file_of(fresh_set, record, kind, value, str(tmp_path))
        read = {"input": D.load_sample_input, "target": D.load_sample_target,
                "latent": D.load_sample_latent,
                "prediction": lambda manifest, r: M.evaluate(str(tmp_path), manifest, [r])}[kind]
        with pytest.raises(FormatError) as err:
            read(fresh_set, record)
        assert str(err.value) == self.message(path, value, offset)

    def test_nan_outside_the_input_crop_window_is_refused(self, fresh_set):
        """The crop never reads the corner, but band statistics read the
        whole grid: the whole file is checked."""
        record = fresh_set.split_samples("test")[0]
        path = fresh_set.resolve(record.input_path)
        offset = poison_tensor(path, (0, 0, 0, 0), float("nan"))
        assert offset == 8 + 4 * 4
        with pytest.raises(FormatError) as err:
            D.load_sample_input(fresh_set, record)
        assert str(err.value) == self.message(path, float("nan"), offset)

    def test_nan_train_target_is_refused_not_filtered_out(self, fresh_set):
        """A NaN target once summed to NaN, compared False with the
        threshold and silently left training."""
        train = fresh_set.split_samples("train")
        path = fresh_set.resolve(train[2].target_path)
        offset = poison_tensor(path, (0, 3, 5, 7), float("nan"))
        with pytest.raises(FormatError) as err:
            D.filter_non_rainy(fresh_set, train, fresh_set.filter_threshold)
        assert str(err.value) == self.message(path, float("nan"), offset)

    def test_first_non_finite_value_is_named(self, tmp_path):
        x = np.zeros(10, np.float32)
        x[[3, 7]] = [-np.inf, np.nan]
        path = tmp_path / "t.w4cl"
        D.write_tensor_file(path, x)
        with pytest.raises(FormatError, match=r": value -inf at byte 24 is not finite$"):
            D.read_tensor_file(path)

    def test_extreme_finite_values_read(self, tmp_path):
        f32 = np.finfo(np.float32)
        x = np.array([f32.max, -f32.max, f32.smallest_subnormal, -0.0], np.float32)
        path = tmp_path / "t.w4cl"
        D.write_tensor_file(path, x)
        assert D.read_tensor_file(path).tobytes() == x.tobytes()


class TestCenterCrop:
    def test_keeps_center_window_of_252(self):
        x = np.zeros((1, 1, 252, 252), dtype=np.float32)
        x[0, 0, 63, 63] = 1.0
        x[0, 0, 188, 188] = 2.0
        y = D.center_crop(x, 126)
        assert y.shape[-2:] == (126, 126)
        assert y[0, 0, 0, 0] == 1.0
        assert y[0, 0, 125, 125] == 2.0
        assert y.sum() == 3.0  # 62 and 189 fall outside

    def test_full_size_crop_is_identity(self):
        x = np.random.default_rng(1).standard_normal((2, 3, 8, 8)).astype(np.float32)
        assert np.array_equal(D.center_crop(x, 8), x)

    def test_crop_then_zero_pad_restores_center(self):
        x = np.random.default_rng(2).standard_normal((1, 2, 32, 32)).astype(np.float32)
        c = D.center_crop(x, 16)
        padded = np.zeros_like(x)
        padded[:, :, 8:24, 8:24] = c
        assert np.array_equal(padded[:, :, 8:24, 8:24], x[:, :, 8:24, 8:24])

    def test_returns_a_view(self):
        x = np.zeros((1, 2, 8, 8), dtype=np.float32)
        assert np.shares_memory(D.center_crop(x, 4), x)

    def test_oversized_crop_rejected(self):
        with pytest.raises(ShapeError):
            D.center_crop(np.zeros((1, 1, 8, 8), dtype=np.float32), 9)


class TestSelectBands:
    BANDS = ("VIS006", "WV062", "IR108", "WV073")

    def test_drops_across_all_frames(self):
        t_in = 3
        x = np.arange(t_in * 4, dtype=np.float32).reshape(1, -1, 1, 1)
        y = D.select_bands(x, self.BANDS, D.kept_bands(self.BANDS, {"WV062", "WV073"}), t_in)
        assert y.shape[1] == t_in * 2
        assert list(y.reshape(-1)) == [0, 2, 4, 6, 8, 10]

    def test_gathers_in_the_order_asked(self):
        t_in = 2
        x = np.arange(t_in * 4, dtype=np.float32).reshape(1, -1, 1, 1)
        y = D.select_bands(x, self.BANDS, ("WV073", "VIS006"), t_in)
        assert list(y.reshape(-1)) == [3, 0, 7, 4]

    def test_eleven_band_wv_removal_yields_36(self):
        bands = tuple(f"B{i:02d}" for i in range(9)) + ("WV062", "WV073")
        x = np.zeros((1, 44, 2, 2), dtype=np.float32)
        y = D.select_bands(x, bands, D.kept_bands(bands, {"WV062", "WV073"}), 4)
        assert y.shape[1] == 36

    def test_empty_drop_is_identity(self):
        x = np.random.default_rng(0).standard_normal((1, 8, 2, 2)).astype(np.float32)
        assert np.array_equal(D.select_bands(x, self.BANDS, D.kept_bands(self.BANDS, ()), 2), x)

    def test_unknown_band_rejected(self):
        with pytest.raises(ConfigError, match="IR999"):
            D.select_bands(np.zeros((1, 4, 1, 1), dtype=np.float32),
                           self.BANDS, ("VIS006", "IR999"), 1)
        with pytest.raises(ConfigError, match="IR999"):
            D.kept_bands(self.BANDS, {"IR999"})


class TestNormalize:
    STATS = {"a": D.BandStats(mean=2.0, std=4.0), "b": D.BandStats(mean=-1.0, std=0.5)}

    def test_constant_band_at_mean_is_zeroed(self):
        x = np.full((1, 4, 3, 3), 2.0, dtype=np.float32)
        x[:, 1] = -1.0
        x[:, 3] = -1.0
        y = D.normalize(x, ("a", "b"), self.STATS, 2)
        assert np.allclose(y, 0.0)

    def test_nonpositive_std_rejected(self):
        bad = {"a": D.BandStats(mean=0.0, std=0.0)}
        with pytest.raises(DataError):
            D.normalize(np.zeros((1, 1, 2, 2), dtype=np.float32), ("a",), bad, 1)


class TestLoadSampleInput:
    @pytest.mark.parametrize("pick", ["all", "drop", "reorder"])
    def test_bytes_equal_to_the_three_steps(self, small_set, pick):
        """load_sample_input gives the bytes of read -> select_bands ->
        center_crop -> normalize, for every band in manifest order (None),
        with a band dropped, or in another order."""
        m = small_set
        bands = {"all": None, "drop": D.kept_bands(m.band_names, ("IR016",)),
                 "reorder": m.band_names[::-1]}[pick]
        kept = m.band_names if bands is None else bands
        for s in m.samples[:3]:
            x = D.read_tensor_file(m.resolve(s.input_path))
            x = D.center_crop(D.select_bands(x, m.band_names, kept, m.t_in), m.crop)
            want = D.normalize(x, kept, m.stats, m.t_in)
            got = D.load_sample_input(m, s, bands)
            assert got.shape == (1, m.t_in * len(kept), m.crop, m.crop)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous


class TestFilterNonRainy:
    def test_matches_per_sample_sum_oracle(self, small_set):
        samples = small_set.samples
        sums = [D.read_tensor_file(small_set.resolve(s.target_path)).sum() for s in samples]
        threshold = float(np.median(sums))
        retained = D.filter_non_rainy(small_set, samples, threshold)
        want = [s for s, v in zip(samples, sums) if v >= threshold]
        assert [s.input_path for s in retained] == [s.input_path for s in want]

    def test_zero_threshold_keeps_everything(self, small_set):
        retained = D.filter_non_rainy(small_set, small_set.samples, 0.0)
        assert len(retained) == len(small_set.samples)

    def test_negative_threshold_rejected(self, small_set):
        with pytest.raises(ConfigError):
            D.filter_non_rainy(small_set, small_set.samples, -1.0)


class TestSynthConfig:
    @pytest.mark.parametrize("kwargs,field", [
        ({"bands": ()}, "synth.bands"),
        ({"bands": tuple(f"B{i}" for i in range(10))}, "synth.bands"),
        ({"bands": ("VIS006", "IR016", "VIS006")}, "synth.bands"),
        ({"t_in": 0}, "synth.t_in"),
        ({"t_out": 0}, "synth.t_out"),
        ({"n_val": 0}, "synth.n_val"),
        ({"grid": 24}, "synth.grid"),
        ({"blob_count": (4, 2)}, "synth.blob_count"),
        ({"blob_count": (-1, 2)}, "synth.blob_count"),
        ({"blob_scale": (5.0,)}, "synth.blob_scale"),
        ({"blob_scale": (0.0, 1.0)}, "synth.blob_scale"),
        ({"blob_amp": (3.0, 1.0, 4.0)}, "synth.blob_amp"),
        ({"velocity": (1.0,)}, "synth.velocity"),
        ({"v_max": -0.1}, "synth.v_max"),
        ({"regions": ()}, "synth.regions"),
        ({"blob_count": (0, 0), "noise_sigma": 0.0}, "synth.noise_sigma"),
        ({"blob_amp": (0.0, 0.0), "noise_sigma": 0.0}, "synth.noise_sigma"),
    ])
    def test_unrenderable_config_is_config_error_naming_field(self, kwargs, field):
        with pytest.raises(ConfigError, match=field):
            D.SynthConfig(**kwargs)

    def test_smallest_renderable_config_generates(self, tmp_path):
        """One band, one frame each way and equal range ends all render."""
        cfg = D.SynthConfig(n_train=1, n_val=1, n_test=1, grid=16, bands=("IR016",),
                            t_in=1, t_out=1, blob_count=(0, 1), blob_scale=(2.0, 2.0),
                            blob_amp=(1.0, 1.0), velocity=(0.0, 0.5), seed=4)
        m = D.load_manifest(D.synth_generate(cfg, str(tmp_path / "min")))
        x = D.read_tensor_file(m.resolve(m.samples[0].input_path))
        y = D.read_tensor_file(m.resolve(m.samples[0].target_path))
        assert x.shape == (1, 1, 32, 32) and y.shape == (1, 1, 32, 32)


class TestSynthGenerate:
    # Configs whose samples must be the bytes of the full-grid reference:
    # a negative fixed velocity makes the t = 0 shift -0.0, and the
    # noise-free and blob-free ones leave one term of each input pixel out.
    REFERENCE_CONFIGS = {
        "grid-16": {"grid": 16},
        "grid-32": {"grid": 32},
        "three-bands": {"grid": 16, "bands": ("IR108", "VIS006", "IR039")},
        "negative-velocity": {"grid": 16, "velocity": (-0.75, -1.25)},
        "no-blobs": {"grid": 16, "blob_count": (0, 0)},
        "one-frame-each-way": {"grid": 16, "t_in": 1, "t_out": 1},
        "no-noise": {"grid": 16, "noise_sigma": 0.0},
    }

    @pytest.mark.parametrize("side", [32, 64, 256])
    def test_block_mean_bytes_equal_to_reshape_mean(self, side):
        """Values over sixteen decades, signed and not, where the order of
        a block's three adds decides the rounding."""
        rng = np.random.default_rng(side)
        field = rng.standard_normal((side, side)) * 10.0 ** rng.integers(-8, 8, (side, side))
        for f in (field, np.abs(field)):
            assert D._block_mean2(f).tobytes() == block_mean2_ref(f).tobytes()

    @pytest.mark.parametrize("name", REFERENCE_CONFIGS)
    def test_sample_bytes_equal_to_full_grid_reference(self, name):
        """Targets and the latent rendered on their window alone, and
        noise drawn into the frame buffer, give the earlier generator's
        bytes, so datasets stay the same for the same seed."""
        cfg = D.SynthConfig(seed=5, **self.REFERENCE_CONFIGS[name])
        for index in range(3):
            got = D._synth_sample(cfg, index)
            want = synth_sample_ref(cfg, index)
            for kind, a, b in zip(("inputs", "targets", "latent"), got, want):
                assert a.dtype == b.dtype and a.shape == b.shape, (kind, index)
                assert a.tobytes() == b.tobytes(), (kind, index)

    def test_manifest_geometry_and_counts(self, small_set):
        assert small_set.h_raw == 32
        assert small_set.crop == 16
        assert small_set.t_in == 4 and small_set.t_out == 16
        assert len(small_set.split_samples("train")) == 6
        assert len(small_set.split_samples("val")) == 2
        assert len(small_set.split_samples("test")) == 2

    def test_sample_dims_and_nonnegative_targets(self, small_set):
        s = small_set.samples[0]
        x = D.read_tensor_file(small_set.resolve(s.input_path))
        y = D.read_tensor_file(small_set.resolve(s.target_path))
        assert x.shape == (1, 4 * 9, 32, 32)
        assert y.shape == (1, 16, 32, 32)
        assert np.all(y >= 0)

    def test_deterministic_bytes_across_runs(self, tmp_path):
        cfg = D.SynthConfig(n_train=3, n_val=1, n_test=1, grid=16, seed=9)
        p1 = D.synth_generate(cfg, str(tmp_path / "a"))
        p2 = D.synth_generate(cfg, str(tmp_path / "b"))
        m1, m2 = D.load_manifest(p1), D.load_manifest(p2)
        assert m1.stats == m2.stats
        for s1, s2 in zip(m1.samples, m2.samples):
            b1 = open(m1.resolve(s1.input_path), "rb").read()
            b2 = open(m2.resolve(s2.input_path), "rb").read()
            assert b1 == b2
            assert open(m1.resolve(s1.target_path), "rb").read() == \
                open(m2.resolve(s2.target_path), "rb").read()

    def test_static_field_has_identical_frames(self, tmp_path):
        cfg = D.SynthConfig(n_train=2, n_val=1, n_test=1, grid=16,
                            velocity=(0.0, 0.0), noise_sigma=0.0, seed=3)
        m = D.load_manifest(D.synth_generate(cfg, str(tmp_path / "static")))
        s = m.samples[0]
        y = D.read_tensor_file(m.resolve(s.target_path))
        latent = D.read_tensor_file(m.resolve(s.latent_path))
        for t in range(16):
            assert np.array_equal(y[0, t], y[0, 0])
        assert np.array_equal(latent[0, 0], y[0, 0])

    def test_advection_moves_centroid_by_16v(self, tmp_path):
        """Centroid of thresholded rain mass in the last frame sits 16*v from
        its start, for a sample whose blob stays inside the target window."""
        vel = (0.45, -0.3)
        cfg = D.SynthConfig(n_train=40, n_val=1, n_test=1, grid=32,
                            velocity=vel, blob_count=(1, 1), blob_scale=(3.0, 4.0),
                            noise_sigma=0.0, seed=12)
        m = D.load_manifest(D.synth_generate(cfg, str(tmp_path / "adv")))

        def centroid(field, thr):
            mass = np.where(field >= thr, field, 0.0)
            total = mass.sum()
            ys, xs = np.indices(field.shape)
            return np.array([(ys * mass).sum() / total, (xs * mass).sum() / total])

        checked = 0
        for s in m.split_samples("train"):
            latent = D.read_tensor_file(m.resolve(s.latent_path))[0, 0]
            last = D.read_tensor_file(m.resolve(s.target_path))[0, 15]
            thr = 0.05 * latent.max()
            c0 = centroid(latent, thr)
            # keep only blobs where the 3-sigma disk stays in frame at both ends
            margin = 14 + 16 * max(abs(v) for v in vel)
            if not np.all((c0 > margin) & (c0 < latent.shape[0] - margin)):
                continue
            c16 = centroid(last, thr)
            drift = c16 - c0
            assert np.abs(drift - 16 * np.asarray(vel)).max() < 0.5
            checked += 1
        assert checked >= 3

    def test_declared_stats_generalize_to_held_out_samples(self, tmp_path):
        cfg = D.SynthConfig(n_train=48, n_val=8, n_test=8, grid=16, seed=21)
        m = D.load_manifest(D.synth_generate(cfg, str(tmp_path / "stats")))
        held_out = m.split_samples("val") + m.split_samples("test")
        fresh = D.compute_band_stats(m, held_out)
        for band in m.band_names:
            declared = m.stats[band].std
            assert abs(fresh[band].std - declared) / declared < 0.2

    def test_stats_match_independent_two_pass_script(self, small_set):
        """Straight-line two-pass mean/std, no shared code with the package."""
        n_bands = len(small_set.band_names)
        per_band = [[] for _ in range(n_bands)]
        for s in small_set.split_samples("train"):
            x = D.read_tensor_file(small_set.resolve(s.input_path)).astype(np.float64)
            for t in range(small_set.t_in):
                for b in range(n_bands):
                    per_band[b].append(x[0, t * n_bands + b].reshape(-1))
        for b, name in enumerate(small_set.band_names):
            vals = np.concatenate(per_band[b])
            assert abs(vals.mean() - small_set.stats[name].mean) < 1e-9
            assert abs(vals.std() - small_set.stats[name].std) < 1e-9


class TestManifest:
    @pytest.mark.parametrize("raw", [case[1] for case in UNDECODABLE_JSON],
                             ids=[case[0] for case in UNDECODABLE_JSON])
    def test_undecodable_manifest_is_data_error(self, tmp_path, raw):
        path = tmp_path / "manifest.json"
        path.write_bytes(raw)
        with pytest.raises(DataError, match="not valid JSON"):
            D.load_manifest(str(path))

    def test_missing_file_rejected(self, tmp_path):
        cfg = D.SynthConfig(n_train=2, n_val=1, n_test=1, grid=16, seed=2)
        path = D.synth_generate(cfg, str(tmp_path / "ds"))
        m = D.load_manifest(path)
        os.unlink(m.resolve(m.samples[0].target_path))
        with pytest.raises(DataError, match="missing file"):
            D.load_manifest(path)

    def test_nonpositive_std_rejected(self, tmp_path):
        cfg = D.SynthConfig(n_train=2, n_val=1, n_test=1, grid=16, seed=2)
        path = D.synth_generate(cfg, str(tmp_path / "ds2"))
        doc = json.loads(open(path).read())
        band = doc["band_names"][0]
        doc["stats"][band]["std"] = 0.0
        open(path, "w").write(json.dumps(doc))
        with pytest.raises(DataError, match="std"):
            D.load_manifest(path)

    def test_version_gate(self, tmp_path):
        cfg = D.SynthConfig(n_train=2, n_val=1, n_test=1, grid=16, seed=2)
        path = D.synth_generate(cfg, str(tmp_path / "ds3"))
        doc = json.loads(open(path).read())
        doc["version"] = 99
        open(path, "w").write(json.dumps(doc))
        with pytest.raises(DataError, match="version"):
            D.load_manifest(path)


    @pytest.mark.parametrize("field", ["t_in", "t_out", "h_raw", "crop"])
    def test_missing_geometry_field_is_data_error(self, tmp_path, field):
        cfg = D.SynthConfig(n_train=2, n_val=1, n_test=1, grid=16, seed=2)
        path = D.synth_generate(cfg, str(tmp_path / "ds4"))
        rewrite_manifest(path, lambda doc: doc["geometry"].pop(field))
        with pytest.raises(DataError, match=field):
            D.load_manifest(path)

    @pytest.mark.parametrize("edit,field", [case[1:] for case in BAD_MANIFESTS],
                             ids=[case[0] for case in BAD_MANIFESTS])
    def test_malformed_section_is_data_error_naming_field(self, tmp_path, edit, field):
        cfg = D.SynthConfig(n_train=2, n_val=1, n_test=1, grid=16, seed=2)
        path = D.synth_generate(cfg, str(tmp_path / "ds5"))
        rewrite_manifest(path, edit)
        with pytest.raises(DataError, match=re.escape(field)):
            D.load_manifest(path)

    def test_save_rewrites_a_synthesized_manifest_byte_for_byte(self, tmp_path):
        cfg = D.SynthConfig(n_train=2, n_val=1, n_test=1, grid=16, seed=2)
        path = D.synth_generate(cfg, str(tmp_path / "ds7"))
        copy = str(tmp_path / "ds7" / "copy.json")
        D.save_manifest(D.load_manifest(path), copy)
        assert open(copy, "rb").read() == open(path, "rb").read()

    def test_integral_floats_load_as_integers(self, tmp_path):
        cfg = D.SynthConfig(n_train=2, n_val=1, n_test=1, grid=16, seed=2)
        path = D.synth_generate(cfg, str(tmp_path / "ds6"))
        want = D.load_manifest(path)

        def as_floats(doc):
            doc["geometry"]["t_in"] = float(doc["geometry"]["t_in"])
            doc["samples"][0]["year"] = float(doc["samples"][0]["year"])

        rewrite_manifest(path, as_floats)
        got = D.load_manifest(path)
        assert type(got.t_in) is int and got.t_in == want.t_in
        assert type(got.samples[0].year) is int and got.samples[0].year == want.samples[0].year


class TestBatchIter:
    def test_partition_sizes(self, small_set):
        batches = list(D.batch_iter(small_set, "train", 4, seed=0, shuffle=False))
        assert [b[0].shape[0] for b in batches] == [4, 2]
        x, y, recs = batches[0]
        assert x.shape == (4, 36, 16, 16)
        assert y.shape == (4, 16, 32, 32)
        assert len(recs) == 4

    def test_unshuffled_follows_manifest_order(self, small_set):
        batches = list(D.batch_iter(small_set, "train", 3, seed=0, shuffle=False))
        got = [r.input_path for _, _, recs in batches for r in recs]
        assert got == [s.input_path for s in small_set.split_samples("train")]

    def test_same_seed_same_composition(self, small_set):
        a = [r.input_path for _, _, recs in
             D.batch_iter(small_set, "train", 2, seed=4, shuffle=True) for r in recs]
        b = [r.input_path for _, _, recs in
             D.batch_iter(small_set, "train", 2, seed=4, shuffle=True) for r in recs]
        assert a == b
        c = [r.input_path for _, _, recs in
             D.batch_iter(small_set, "train", 2, seed=5, shuffle=True) for r in recs]
        assert a != c

    def test_band_drop_changes_width(self, small_set):
        x, _, _ = next(D.batch_iter(small_set, "train", 2, seed=0, shuffle=False,
                                    bands=D.kept_bands(small_set.band_names, {"IR016"})))
        assert x.shape[1] == 4 * 8

    def test_dim_mismatch_names_sample(self, tmp_path):
        cfg = D.SynthConfig(n_train=2, n_val=1, n_test=1, grid=16, seed=8)
        m = D.load_manifest(D.synth_generate(cfg, str(tmp_path / "ds")))
        bad = m.samples[0]
        D.write_tensor_file(m.resolve(bad.target_path), np.zeros((1, 2, 3, 3), np.float32))
        with pytest.raises(DataError, match=bad.target_path):
            list(D.batch_iter(m, "train", 4, seed=0, shuffle=False))


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        a = D.derive_seed(7, "regionA", 2019)
        assert a == D.derive_seed(7, "regionA", 2019)
        assert a != D.derive_seed(7, "regionB", 2019)
        assert a != D.derive_seed(7, "regionA", 2020)
        assert a >= 0

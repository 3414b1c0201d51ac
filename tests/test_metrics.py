"""Verification-metric tests: binarization, CSI, evaluation, baselines,
and ensembling.

Counting is checked against hand-tallied confusion tables on a constructed
micro-dataset whose targets are 2x2-blocky, because a 2x bilinear upsample
of a {0,1} probability field binarized at 0.5 reproduces exactly the
nearest-cell replication of the coarse mask.
"""

import collections
import dataclasses
import json
import os
import re
import tracemalloc

import numpy as np
import pytest

from _corrupt import BAD_LATENT_DIMS, reorder_bands, rewrite_tensor
from _oracles import csi_ref, evaluate_ref, trivial_baselines_ref
from nimbus import data as D
from nimbus import metrics as M
from nimbus import optim as O
from nimbus import tensor as T
from nimbus.errors import ConfigError, DataError, FormatError, ShapeError
from nimbus.model import ModelConfig, build_model, load_checkpoint

TOY_MODEL = ModelConfig(in_channels=8, out_channels=16,
                        stage_widths=(4, 8, 16, 32, 64),
                        depth_multiplier=1, cbam_reduction=4)


def trained_as(model, kind):
    """model as if trained for forecasts of kind: mse for rates."""
    model.loss = "mse" if kind == "rate" else "bce_logits"
    return model


def blocky(coarse):
    """Expand a coarse mask to the fine grid by 2x2 replication."""
    return np.kron(np.asarray(coarse, dtype=np.float32), np.ones((2, 2), np.float32))


def micro_manifest(tmp_path, target_masks, regions, latent=False):
    """A hand-built dataset: 1 band, 1 input frame, crop 2, fine targets 4x4.

    target_masks[i] is a list of coarse 2x2 {0,1} masks, one per lead; the
    stored target rates are 1.0 on rain pixels after 2x2 replication.
    """
    root = str(tmp_path)
    os.makedirs(os.path.join(root, "samples"), exist_ok=True)
    t_out = len(target_masks[0])
    records = []
    for i, (masks, region) in enumerate(zip(target_masks, regions)):
        names = {kind: os.path.join("samples", f"m{i:03d}.{kind}.w4cl")
                 for kind in ("input", "target", "latent")}
        D.write_tensor_file(os.path.join(root, names["input"]),
                            np.zeros((1, 1, 4, 4), np.float32))
        target = np.stack([blocky(m) for m in masks])[None]
        D.write_tensor_file(os.path.join(root, names["target"]), target)
        if latent:
            D.write_tensor_file(os.path.join(root, names["latent"]),
                                target[:, :1].copy())
        records.append(D.SampleRecord(
            input=names["input"], target=names["target"],
            latent=names["latent"] if latent else None, region=region, year=2019, split="test"))
    return D.Manifest(version=D.MANIFEST_VERSION, band_names=("IR016",),
                      geometry=D.Geometry(t_in=1, t_out=t_out, h_raw=4, crop=2),
                      stats={"IR016": {"mean": 0.0, "std": 1.0}}, samples=records, root=root)


MICRO_TARGETS = [
    [[[1, 0], [0, 0]], [[1, 1], [0, 0]]],
    [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
    [[[1, 1], [1, 1]], [[1, 1], [1, 1]]],
]
MICRO_REGIONS = ["r1", "r2", "r1"]
MICRO_PREDS = [
    [[[1, 0], [0, 0]], [[0, 1], [0, 0]]],
    [[[1, 1], [1, 1]], [[0, 0], [0, 0]]],
    [[[1, 1], [1, 1]], [[1, 0], [0, 1]]],
]


def write_micro_predictions(manifest, pred_masks, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    for record, masks in zip(manifest.samples, pred_masks):
        probs = np.stack([np.asarray(m, dtype=np.float32) for m in masks])[None]
        D.write_tensor_file(M.prediction_path(out_dir, record), probs)


class ConstantModel:
    """Stub emitting one fixed logit everywhere, for ensemble arithmetic."""

    def __init__(self, prob, shape):
        self.logit = float(np.log(prob / (1 - prob)))
        self.shape = shape

    def forward(self, x, train=False):
        return np.full((x.shape[0],) + self.shape, self.logit, dtype=np.float32)


class TestBinarize:
    def test_all_below_threshold(self):
        """Quiet fields produce no events."""
        assert not M.binarize(np.zeros((3, 3)), 0.2).any()

    def test_boundary_value_is_an_event(self):
        """A rate exactly at the threshold counts as rain (>= convention)."""
        out = M.binarize(np.array([0.19999, 0.2, 0.20001]), 0.2)
        assert out.tolist() == [False, True, True]

    def test_random_field_matches_elementwise_oracle(self):
        """Every element agrees with a scalar comparison loop."""
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=(5, 7))
        out = M.binarize(x, 0.4)
        for i in range(5):
            for j in range(7):
                assert out[i, j] == (x[i, j] >= 0.4)

    def test_negative_threshold_rejected(self):
        """Negative rain rates cannot define an event class."""
        with pytest.raises(ConfigError):
            M.binarize(np.zeros(2), -0.1)


class TestCsi:
    def test_perfect_forecast(self):
        """All hits and no misses or false alarms score 1.0."""
        assert M.csi(M.ConfusionCounts(tp=5)) == 1.0

    def test_no_hits(self):
        """False alarms and misses alone score 0.0."""
        assert M.csi(M.ConfusionCounts(fp=3, fn=2)) == 0.0

    def test_direct_formula(self):
        """tp=3, fp=1, fn=2 gives 3/6."""
        assert M.csi(M.ConfusionCounts(tp=3, fp=1, fn=2)) == 0.5

    def test_empty_denominator_scores_zero(self):
        """Nothing predicted and nothing observed is 0, not a crash."""
        assert M.csi(M.ConfusionCounts(tn=100)) == 0.0

    def test_fn_to_tp_conversion_never_decreases(self):
        """Turning one miss into a hit keeps the same denominator and can
        only grow the numerator."""
        rng = np.random.default_rng(1)
        for _ in range(50):
            tp, fp, fn = (int(v) for v in rng.integers(0, 20, size=3))
            if fn == 0:
                fn = 1
            before = M.csi(M.ConfusionCounts(tp=tp, fp=fp, fn=fn))
            after = M.csi(M.ConfusionCounts(tp=tp + 1, fp=fp, fn=fn - 1))
            assert after >= before

    def test_true_negatives_are_ignored(self):
        """CSI depends only on (tp, fp, fn)."""
        a = M.csi(M.ConfusionCounts(tp=3, fp=1, fn=2, tn=0))
        b = M.csi(M.ConfusionCounts(tp=3, fp=1, fn=2, tn=10**9))
        assert a == b

    def test_range_and_oracle_on_random_masks(self):
        """count_events plus csi agrees with the explicit counting oracle."""
        rng = np.random.default_rng(2)
        for _ in range(20):
            pred = rng.uniform(size=(6, 6)) < 0.5
            true = rng.uniform(size=(6, 6)) < 0.5
            got = M.csi(M.count_events(pred, true))
            assert got == csi_ref(pred, true)
            assert 0.0 <= got <= 1.0


class TestCountEvents:
    def test_hand_counted_pair(self):
        """A four-pixel example with one of each outcome."""
        pred = np.array([[True, True], [False, False]])
        true = np.array([[True, False], [True, False]])
        c = M.count_events(pred, true)
        assert (c.tp, c.fp, c.fn, c.tn) == (1, 1, 1, 1)

    def test_total_equals_pixel_count(self):
        """The four outcome classes partition every compared pixel."""
        rng = np.random.default_rng(3)
        pred = rng.uniform(size=(9, 5)) < 0.3
        true = rng.uniform(size=(9, 5)) < 0.7
        assert M.count_events(pred, true).total == 45

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            M.count_events(np.zeros((2, 2), bool), np.zeros((2, 3), bool))


class TestEvalConfig:
    @pytest.mark.parametrize("bad", [
        {"threshold": -1.0}, {"prob_threshold": 0.0}, {"prob_threshold": 1.0},
        {"batch_size": 0},
    ])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ConfigError):
            M.EvalConfig(**bad)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            M.EvalConfig.from_dict({"thresh": 0.3})


class TestEvaluateFromFiles:
    @pytest.fixture()
    def micro(self, tmp_path):
        manifest = micro_manifest(tmp_path, MICRO_TARGETS, MICRO_REGIONS)
        pred_dir = str(tmp_path / "preds")
        write_micro_predictions(manifest, MICRO_PREDS, pred_dir)
        return manifest, pred_dir

    def test_counts_match_hand_tally(self, micro):
        """Pooled, per-job, and per-lead counts equal the table worked out
        by hand from the six prediction/target mask pairs."""
        manifest, pred_dir = micro
        report = M.evaluate(pred_dir, manifest, "test")
        assert (report.pooled.tp, report.pooled.fp,
                report.pooled.fn, report.pooled.tn) == (32, 16, 16, 32)
        r1 = report.counts_by_job[("r1", 2019)]
        r2 = report.counts_by_job[("r2", 2019)]
        assert (r1.tp, r1.fp, r1.fn, r1.tn) == (32, 0, 12, 20)
        assert (r2.tp, r2.fp, r2.fn, r2.tn) == (0, 16, 4, 12)
        lead0, lead1 = report.counts_by_lead
        assert (lead0.tp, lead0.fp, lead0.fn, lead0.tn) == (20, 16, 0, 12)
        assert (lead1.tp, lead1.fp, lead1.fn, lead1.tn) == (12, 0, 16, 20)

    def test_pooled_csi_is_ratio_of_pooled_counts(self, micro):
        """The pooled score is sum(tp)/sum(tp+fp+fn), not a mean of CSIs."""
        manifest, pred_dir = micro
        report = M.evaluate(pred_dir, manifest, "test")
        assert report.pooled_csi == 32 / 64
        per_job = list(report.csi_by_job().values())
        assert report.pooled_csi != np.mean(per_job)

    def test_perfect_predictions_score_one_everywhere(self, micro):
        """Predicting the exact coarse truth gives CSI 1.0 pooled, per job,
        and per lead once any event exists in the group."""
        manifest, _ = micro
        perfect_dir = os.path.join(manifest.root, "perfect")
        write_micro_predictions(manifest, MICRO_TARGETS, perfect_dir)
        report = M.evaluate(perfect_dir, manifest, "test")
        assert report.pooled_csi == 1.0
        assert all(v == 1.0 for v in report.csi_by_job().values())
        assert all(v == 1.0 for v in report.csi_by_lead())

    def test_all_zero_predictions_on_rainy_set_score_zero(self, micro):
        manifest, _ = micro
        zero_dir = os.path.join(manifest.root, "zero")
        zeros = [[np.zeros((2, 2)) for _ in masks] for masks in MICRO_TARGETS]
        write_micro_predictions(manifest, zeros, zero_dir)
        assert M.evaluate(zero_dir, manifest, "test").pooled_csi == 0.0

    def test_missing_prediction_file_is_data_error(self, micro):
        manifest, pred_dir = micro
        os.remove(M.prediction_path(pred_dir, manifest.samples[1]))
        with pytest.raises(DataError):
            M.evaluate(pred_dir, manifest, "test")

    def test_wrong_prediction_dims_is_data_error(self, micro):
        manifest, pred_dir = micro
        path = M.prediction_path(pred_dir, manifest.samples[0])
        D.write_tensor_file(path, np.zeros((1, 2, 3, 3), np.float32))
        with pytest.raises(DataError):
            M.evaluate(pred_dir, manifest, "test")

    @pytest.mark.parametrize("kind,value", [
        ("probability", np.nan), ("probability", 7.0), ("probability", -3.0),
        ("probability", np.inf), ("rate", np.nan), ("rate", np.inf), ("rate", -np.inf)])
    def test_bad_prediction_value_is_refused_naming_its_byte(self, micro, kind, value):
        """Scoring refuses a value that is not finite (read_tensor_file's
        FormatError) or, for probabilities, outside [0, 1] (DataError); the
        message names the byte of the first such value."""
        manifest, pred_dir = micro
        path = M.prediction_path(pred_dir, manifest.samples[1])
        p = D.read_tensor_file(path)
        p.flat[5:7] = value
        D.write_tensor_file(path, p)
        error = DataError if np.isfinite(value) else FormatError
        with pytest.raises(error, match=r"at byte (\d+) ") as err:
            M.evaluate(pred_dir, manifest, "test", kind=kind)
        assert str(err.value).startswith(path)
        offset = int(re.search(r"at byte (\d+) ", str(err.value)).group(1))
        with open(path, "rb") as fh:
            raw = fh.read()
        assert offset == 8 + 4 * p.ndim + 4 * 5
        assert np.frombuffer(raw[offset:offset + 4], "<f4").tobytes() == p.flat[5:6].tobytes()

    def test_rates_outside_the_unit_interval_are_scored(self, micro):
        manifest, pred_dir = micro
        path = M.prediction_path(pred_dir, manifest.samples[1])
        p = D.read_tensor_file(path)
        p.flat[0], p.flat[1] = -3.0, 7.0
        D.write_tensor_file(path, p)
        report = M.evaluate(pred_dir, manifest, "test", kind="rate")
        assert report.n_samples == 3
        with pytest.raises(DataError, match="not a probability"):
            M.evaluate(pred_dir, manifest, "test")

    def test_unknown_kind_is_config_error(self, micro):
        manifest, pred_dir = micro
        with pytest.raises(ConfigError, match="'logit'"):
            M.evaluate(pred_dir, manifest, "test", kind="logit")

    def test_report_serializes_to_json_and_tsv(self, micro):
        """The JSON dict survives a dumps/loads cycle; the TSV has one line
        per (region, year) plus a pooled line."""
        manifest, pred_dir = micro
        report = M.evaluate(pred_dir, manifest, "test")
        round_trip = json.loads(json.dumps(report.to_json_dict()))
        assert round_trip["pooled_csi"] == report.pooled_csi
        assert round_trip["csi_by_job"] == {"r1:2019": 32 / 44, "r2:2019": 0.0}
        assert len(round_trip["csi_by_lead"]) == manifest.t_out
        lines = report.to_tsv().strip().split("\n")
        assert len(lines) == 3 and lines[-1].startswith("pooled\t")


@pytest.fixture(scope="module")
def tiny_set(tmp_path_factory):
    """A small synthetic dataset matching the toy model geometry."""
    out = str(tmp_path_factory.mktemp("mdata"))
    cfg = D.SynthConfig(n_train=6, n_val=2, n_test=4, grid=16,
                        bands=("VIS006", "IR016"), seed=5)
    return D.load_manifest(D.synth_generate(cfg, out))


class TestEvaluateModel:
    def test_file_and_memory_paths_agree_exactly(self, tiny_set, tmp_path):
        """evaluate(model) and evaluate(predictions written to disk) count
        identically because probabilities round-trip bitwise through files."""
        model = build_model(TOY_MODEL, seed=4)
        direct = M.evaluate(model, tiny_set, "test")
        pred_dir = str(tmp_path / "preds")
        paths = M.predict_to_files(model, tiny_set, "test", pred_dir)
        assert len(paths) == 4
        from_files = M.evaluate(pred_dir, tiny_set, "test")
        assert from_files.pooled.to_dict() == direct.pooled.to_dict()
        assert {j: c.to_dict() for j, c in from_files.counts_by_job.items()} \
            == {j: c.to_dict() for j, c in direct.counts_by_job.items()}
        assert [c.to_dict() for c in from_files.counts_by_lead] \
            == [c.to_dict() for c in direct.counts_by_lead]

    def test_count_partition_covers_every_pixel(self, tiny_set):
        """Summed outcome classes equal samples x leads x fine pixels."""
        report = M.evaluate(build_model(TOY_MODEL, seed=4), tiny_set, "test")
        assert report.pooled.total == 4 * 16 * 32 * 32
        assert report.n_samples == 4

    def test_empty_split_is_data_error(self, tiny_set):
        with pytest.raises(DataError):
            M.evaluate(build_model(TOY_MODEL, seed=4), tiny_set, [])


class TestTrivialBaselines:
    def test_all_ones_on_all_rainy_set(self, tmp_path):
        """When every pixel rains, predicting rain everywhere is perfect and
        predicting none is worthless."""
        rain = [[[[1, 1], [1, 1]], [[1, 1], [1, 1]]]] * 2
        manifest = micro_manifest(tmp_path, rain, ["r1", "r1"])
        out = M.trivial_baselines(manifest, "test")
        assert out["all_ones"] == 1.0
        assert out["all_zeros"] == 0.0

    def test_all_zeros_scores_zero_whenever_any_event_exists(self, tmp_path):
        masks = [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]]
        manifest = micro_manifest(tmp_path, masks, ["r1"])
        assert M.trivial_baselines(manifest, "test")["all_zeros"] == 0.0

    def test_persistence_perfect_on_static_set(self, tmp_path):
        """With zero velocity and zero noise every target frame equals the
        persisted field, so persistence scores exactly 1.0."""
        cfg = D.SynthConfig(n_train=2, n_val=1, n_test=3, grid=16,
                            bands=("IR016",), velocity=(0.0, 0.0),
                            noise_sigma=0.0, seed=9)
        manifest = D.load_manifest(D.synth_generate(cfg, str(tmp_path)))
        out = M.trivial_baselines(manifest, "test")
        assert out["persistence"] == 1.0

    def test_persistence_absent_without_latent_fields(self, tmp_path):
        """No persisted-field files means the entry is None, not an error."""
        masks = [[[[1, 0], [0, 0]], [[0, 1], [0, 0]]]]
        manifest = micro_manifest(tmp_path, masks, ["r1"], latent=False)
        assert M.trivial_baselines(manifest, "test")["persistence"] is None

    def test_persistence_absent_when_one_sample_lacks_its_latent(self, tmp_path):
        masks = [[[[1, 0], [0, 0]], [[0, 1], [0, 0]]]] * 2
        manifest = micro_manifest(tmp_path, masks, ["r1", "r2"], latent=True)
        first, second = manifest.samples
        manifest = dataclasses.replace(
            manifest, samples=(first, dataclasses.replace(second, latent=None)),
            root=manifest.root)
        assert M.trivial_baselines(manifest, "test")["persistence"] is None

    @pytest.mark.parametrize("dims", [case[1] for case in BAD_LATENT_DIMS],
                             ids=[case[0] for case in BAD_LATENT_DIMS])
    def test_malformed_latent_is_data_error_naming_the_file(self, tmp_path, dims):
        masks = [[[[1, 0], [0, 0]], [[1, 1], [0, 0]]]]
        manifest = micro_manifest(tmp_path, masks, ["r1"], latent=True)
        record = manifest.samples[0]
        rewrite_tensor(manifest.resolve(record.latent_path), dims(manifest.crop))
        with pytest.raises(DataError, match=re.escape(record.latent_path)):
            D.load_sample_latent(manifest, record)
        with pytest.raises(DataError, match=re.escape(record.latent_path)):
            M.trivial_baselines(manifest, "test")

    def test_persistence_counts_latent_against_each_lead(self, tmp_path):
        """With latent frames present the persistence CSI is the latent mask
        scored against every lead, here hand-checkable."""
        masks = [[[[1, 0], [0, 0]], [[1, 1], [0, 0]]]]
        manifest = micro_manifest(tmp_path, masks, ["r1"], latent=True)
        out = M.trivial_baselines(manifest, "test")
        assert out["persistence"] == pytest.approx(8 / 12)


@pytest.fixture(scope="module")
def jobs_set(tmp_path_factory):
    """Two regions by two years; seven test scenes, so batches of three end
    with a short one."""
    out = str(tmp_path_factory.mktemp("jobs"))
    cfg = D.SynthConfig(n_train=2, n_val=1, n_test=7, grid=16, bands=("VIS006", "IR016"),
                        regions=("r1", "r2"), years=(2019, 2020), seed=13)
    return D.load_manifest(D.synth_generate(cfg, out))


def all_counts(report):
    return ({job: c.to_dict() for job, c in report.counts_by_job.items()},
            [c.to_dict() for c in report.counts_by_lead], report.pooled.to_dict(),
            report.n_samples)


class TestOneVerificationPath:
    """The per-scene accumulator against the earlier per-(sample, lead)
    loops, kept verbatim in _oracles."""

    @pytest.mark.parametrize("kind", ["probability", "rate"])
    def test_evaluate_counts_equal_the_per_lead_loop(self, jobs_set, tmp_path, kind):
        config = M.EvalConfig(batch_size=3)
        model = trained_as(build_model(TOY_MODEL, seed=4), kind)
        pred_dir = str(tmp_path / "preds")
        M.predict_to_files(model, jobs_set, "test", pred_dir, config)
        for source in (model, pred_dir):
            got = M.evaluate(source, jobs_set, "test", config, kind)
            want = evaluate_ref(source, jobs_set, "test", config, kind)
            assert all_counts(got) == all_counts(want)
            assert len(got.counts_by_job) == 4 and got.n_samples == 7
            assert min(got.pooled.to_dict().values()) > 0
            assert got.to_json_dict() == want.to_json_dict() and got.to_tsv() == want.to_tsv()

    @pytest.mark.parametrize("threshold", [0.2, 1.5])
    def test_baselines_equal_the_per_lead_loops(self, jobs_set, threshold):
        config = M.EvalConfig(batch_size=3, threshold=threshold)
        got = M.trivial_baselines(jobs_set, "test", config)
        assert got == trivial_baselines_ref(jobs_set, "test", config)
        assert 0 < got["all_ones"] < 1 and 0 < got["persistence"] < 1

    def test_scoring_files_and_baselines_read_no_input(self, jobs_set, tmp_path, monkeypatch):
        pred_dir = str(tmp_path / "preds")
        M.predict_to_files(build_model(TOY_MODEL, seed=4), jobs_set, "test", pred_dir)
        read = []
        original = D.read_tensor_file

        def recording_read(path):
            read.append(os.path.basename(path))
            return original(path)

        def refuse(*args, **kwargs):
            raise AssertionError("an input file was loaded")

        monkeypatch.setattr(D, "load_sample_input", refuse)
        monkeypatch.setattr(D, "read_tensor_file", recording_read)
        M.evaluate(pred_dir, jobs_set, "test", M.EvalConfig(batch_size=3))
        M.trivial_baselines(jobs_set, "test", M.EvalConfig(batch_size=3))
        assert len(read) == 4 * 7
        assert not [name for name in read if name.endswith(".input.w4cl")]

    @pytest.mark.parametrize("batch_size", [1, 3, 8])
    def test_scoring_a_model_reads_each_input_and_target_once(self, jobs_set, monkeypatch,
                                                               batch_size):
        """The forecast stream reads inputs and the target walk reads
        targets, each file once, at every batch size; no prediction file."""
        read = collections.Counter()
        original = D.read_tensor_file

        def counted_read(path):
            read[path] += 1
            return original(path)

        monkeypatch.setattr(D, "read_tensor_file", counted_read)
        M.evaluate(build_model(TOY_MODEL, seed=4), jobs_set, "test",
                   M.EvalConfig(batch_size=batch_size))
        records = jobs_set.split_samples("test")
        assert dict(read) == {jobs_set.resolve(path): 1 for r in records
                              for path in (r.input_path, r.target_path)}
        assert not [path for path in read if path.endswith(M.PREDICTION_SUFFIX)]


    @pytest.mark.parametrize("kind", ["probability", "rate"])
    def test_files_and_reports_do_not_depend_on_batch_size(self, jobs_set, tmp_path, kind):
        """A scene's forecast bytes do not depend on the batch it runs in, so
        prediction files and model reports are byte-identical at batch sizes
        1, 3 (batches of 3, 3 and 1) and 8 (one batch of all 7 scenes)."""
        model = trained_as(build_model(TOY_MODEL, seed=4), kind)
        files, reports = [], []
        for batch_size in (1, 3, 8):
            config = M.EvalConfig(batch_size=batch_size)
            pred_dir = tmp_path / f"batch{batch_size}"
            M.predict_to_files(model, jobs_set, "test", str(pred_dir), config)
            files.append({p.name: p.read_bytes() for p in pred_dir.iterdir()})
            report = M.evaluate(model, jobs_set, "test", config)
            reports.append((report.to_json_dict(), report.to_tsv()))
        assert len(files[0]) == 7
        assert files[1] == files[0] and files[2] == files[0]
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_file_scores_and_baselines_do_not_depend_on_batch_size(self, jobs_set, tmp_path):
        """Prediction files and baselines are scored one scene at a time, so
        eval.batch_size changes none of their bytes."""
        pred_dir = str(tmp_path / "preds")
        M.predict_to_files(build_model(TOY_MODEL, seed=4), jobs_set, "test", pred_dir)
        outputs = []
        for batch_size in (1, 3, 8):
            config = M.EvalConfig(batch_size=batch_size)
            report = M.evaluate(pred_dir, jobs_set, "test", config)
            outputs.append((report.to_tsv(), report.to_json_dict(),
                            all_counts(report), M.trivial_baselines(jobs_set, "test", config)))
        assert outputs[0][3]["persistence"] is not None
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_scoring_files_holds_one_scene_not_a_batch(self, jobs_set, tmp_path):
        """At batch size 8 every one of the 7 scenes would fit one batch; the
        peak stays under 3 scenes' target and prediction bytes."""
        pred_dir = str(tmp_path / "preds")
        M.predict_to_files(build_model(TOY_MODEL, seed=4), jobs_set, "test", pred_dir)
        config = M.EvalConfig(batch_size=8)
        want = M.evaluate(pred_dir, jobs_set, "test", config)   # fills the resize cache
        record = jobs_set.split_samples("test")[0]
        scene = (D.load_sample_target(jobs_set, record).nbytes
                 + D.read_tensor_file(M.prediction_path(pred_dir, record)).nbytes)
        tracemalloc.start()
        try:
            got = M.evaluate(pred_dir, jobs_set, "test", config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.to_json_dict() == want.to_json_dict()
        assert peak < 3 * scene, (peak, scene)

    def test_every_count_is_a_python_int(self, jobs_set):
        report = M.evaluate(build_model(TOY_MODEL, seed=4), jobs_set, "test",
                            M.EvalConfig(batch_size=3))
        groups = [report.pooled, *report.counts_by_lead, *report.counts_by_job.values()]
        assert all(type(v) is int for c in groups for v in c.to_dict().values())
        assert type(report.n_samples) is int
        json.dumps(report.to_json_dict())


class TestPredictToFiles:
    @pytest.mark.parametrize("batch_size", [1, 3])
    @pytest.mark.parametrize("kind", ["probability", "rate"])
    def test_files_hold_forward_bytes_and_only_inputs_are_read(self, tiny_set, tmp_path,
                                                               monkeypatch, kind, batch_size):
        """Each file holds its scene's eval-forward bytes, through the
        sigmoid for probabilities, as a one-member ensemble; forecasting
        reads each input file once and never a target."""
        model = trained_as(build_model(TOY_MODEL, seed=4), kind)
        out_dir = str(tmp_path)
        want = {}
        for x, _, records in D.batch_iter(tiny_set, "test", 8, 0, False):
            out = model.forward(x, train=False)
            out = T.sigmoid(out) if kind == "probability" else out
            for i, record in enumerate(records):
                want[M.prediction_path(out_dir, record)] = out[i:i + 1]
        read = D.read_tensor_file
        reads = []

        def counted_read(path):
            reads.append(path)
            return read(path)

        def no_target(*args):
            raise AssertionError("a forecast read a target file")
        monkeypatch.setattr(D, "read_tensor_file", counted_read)
        monkeypatch.setattr(D, "load_sample_target", no_target)
        paths = M.predict_to_files(model, tiny_set, "test", out_dir,
                                   M.EvalConfig(batch_size=batch_size))
        assert sorted(paths) == sorted(want)
        assert sorted(reads) == sorted(tiny_set.resolve(r.input_path)
                                       for r in tiny_set.split_samples("test"))
        for path in paths:
            assert read(path).tobytes() == want[path].tobytes()


class TestEnsemble:
    def test_identical_members_equal_single_model(self, tiny_set):
        """Averaging k copies of one model reproduces it within 1e-6."""
        model = build_model(TOY_MODEL, seed=6)
        x, _, _ = next(iter(D.batch_iter(tiny_set, "test", 2, 0, False)))
        single = M.model_probabilities(model, x)
        triple = M.ensemble_predict([model, model, model], x)
        assert np.max(np.abs(triple.astype(np.float64) - single)) <= 1e-6

    def test_constant_members_average_arithmetically(self):
        """Members emitting constant 0.2 and 0.6 average to 0.4."""
        shape = (16, 8, 8)
        pair = [ConstantModel(0.2, shape), ConstantModel(0.6, shape)]
        out = M.ensemble_predict(pair, np.zeros((2, 8, 8, 8), np.float32))
        np.testing.assert_allclose(out, 0.4, atol=1e-6)

    def test_heterogeneous_output_dims_rejected(self):
        pair = [ConstantModel(0.5, (16, 8, 8)), ConstantModel(0.5, (16, 4, 4))]
        with pytest.raises(ShapeError):
            M.ensemble_predict(pair, np.zeros((1, 8, 8, 8), np.float32))

    def test_unknown_mode_and_empty_list_rejected(self):
        with pytest.raises(ConfigError):
            M.ensemble_predict([], np.zeros((1, 1, 2, 2)))

    def test_ensemble_files_equal_externally_averaged_files(self, tiny_set, tmp_path):
        """Counting from ensemble prediction files equals counting from
        files averaged offline out of per-model predictions."""
        models = [build_model(TOY_MODEL, seed=s) for s in (1, 2)]
        ens_dir = str(tmp_path / "ens")
        M.ensemble_to_files(models, tiny_set, "test", ens_dir)
        solo_dirs = []
        for i, model in enumerate(models):
            d = str(tmp_path / f"solo{i}")
            M.predict_to_files(model, tiny_set, "test", d)
            solo_dirs.append(d)
        avg_dir = str(tmp_path / "avg")
        os.makedirs(avg_dir)
        for record in tiny_set.split_samples("test"):
            stack = np.stack([
                D.read_tensor_file(M.prediction_path(d, record)).astype(np.float64)
                for d in solo_dirs])
            D.write_tensor_file(M.prediction_path(avg_dir, record),
                                np.mean(stack, axis=0).astype(np.float32))
        a = M.evaluate(ens_dir, tiny_set, "test")
        b = M.evaluate(avg_dir, tiny_set, "test")
        assert a.pooled.to_dict() == b.pooled.to_dict()
        assert [c.to_dict() for c in a.counts_by_lead] \
            == [c.to_dict() for c in b.counts_by_lead]


def train_on(manifest, out_dir, loss="bce_logits", drop=()):
    """A one-epoch toy model trained on manifest, back from its checkpoint."""
    model_config = dataclasses.replace(
        TOY_MODEL, in_channels=manifest.t_in * (len(manifest.band_names) - len(drop)))
    config = O.TrainConfig(batch_size=4, max_epochs=1, patience=1, loss=loss)
    return load_checkpoint(O.train_single(manifest, model_config, config, out_dir, drop=drop))


class TestRecordedBandsAndLoss:
    """A trained model records the bands it reads and the loss it was
    trained with, and scoring takes both from the model alone."""

    def test_an_mse_model_is_scored_as_rates(self, tiny_set, tmp_path):
        model = train_on(tiny_set, str(tmp_path), loss="mse")
        assert model.loss == "mse" and model.bands == tiny_set.band_names
        got = M.evaluate(model, tiny_set, "test")
        assert all_counts(got) == all_counts(evaluate_ref(model, tiny_set, "test", kind="rate"))
        as_probabilities = evaluate_ref(model, tiny_set, "test", kind="probability")
        assert all_counts(got) != all_counts(as_probabilities)

    def test_a_model_reads_the_bands_it_was_trained_on(self, tiny_set, tmp_path):
        model = train_on(tiny_set, str(tmp_path), drop=("VIS006",))
        assert model.bands == ("IR016",) and model.loss == "bce_logits"
        got = M.evaluate(model, tiny_set, "test")
        want = evaluate_ref(model, tiny_set, "test", bands=("IR016",))
        assert all_counts(got) == all_counts(want)
        assert all_counts(got) != all_counts(
            evaluate_ref(model, tiny_set, "test", bands=("VIS006",)))

    def test_a_manifest_listing_the_bands_in_another_order_scores_the_same(self, tiny_set,
                                                                           tmp_path):
        model = train_on(tiny_set, str(tmp_path / "run"))
        flipped = reorder_bands(tiny_set, str(tmp_path / "flipped"))
        assert flipped.band_names == ("IR016", "VIS006")
        for record in tiny_set.split_samples("test"):
            assert D.load_sample_input(flipped, record, model.bands).tobytes() == \
                D.load_sample_input(tiny_set, record).tobytes()
        got, want = (M.evaluate(model, m, "test") for m in (flipped, tiny_set))
        assert got.to_json_dict() == want.to_json_dict() and got.to_tsv() == want.to_tsv()

    def test_a_band_the_manifest_lacks_is_config_error_naming_it(self, tiny_set, tmp_path):
        model = build_model(TOY_MODEL, seed=4)
        model.bands = ("VIS006", "WV062")
        with pytest.raises(ConfigError, match="WV062"):
            M.evaluate(model, tiny_set, "test")
        with pytest.raises(ConfigError, match="WV062"):
            M.predict_to_files(model, tiny_set, "test", str(tmp_path))

    @pytest.mark.parametrize("fact,values", [("loss", ("bce_logits", "mse")),
                                             ("bands", (("VIS006", "IR016"),
                                                        ("IR016", "VIS006"))),
                                             ("config", (TOY_MODEL, dataclasses.replace(
                                                 TOY_MODEL, depth_multiplier=2)))])
    def test_ensemble_members_that_disagree_are_refused(self, tiny_set, tmp_path, fact,
                                                        values):
        models = [build_model(TOY_MODEL, seed=s) for s in (1, 2)]
        for model, value in zip(models, values):
            setattr(model, fact, value)
        with pytest.raises(ConfigError, match="agree on") as err:
            M.ensemble_to_files(models, tiny_set, "test", str(tmp_path))
        assert all(repr(v) in str(err.value) for v in values)
        assert not list(tmp_path.glob("*" + M.PREDICTION_SUFFIX))

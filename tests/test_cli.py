"""Command-line interface tests: exit codes, artifacts, and determinism.

Runs invoke nimbus.cli.main in process with argument lists; training cases
use a deliberately tiny model and dataset so the whole file stays fast.
"""

import json
import os
import shutil

import numpy as np
import pytest

from _corrupt import rewrite_checkpoint_header, rewrite_manifest
from nimbus import data as D
from nimbus.cli import main

SMALL_MODEL = {"in_channels": 8, "out_channels": 16,
               "stage_widths": [4, 8, 16, 32, 64],
               "depth_multiplier": 1, "cbam_reduction": 4}


def read_pgm(path):
    """Parse a binary P5 graymap into (height, width, body bytes)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    magic, dims, maxval, body = raw.split(b"\n", 3)
    assert magic == b"P5" and maxval == b"255"
    w, h = (int(v) for v in dims.split())
    assert len(body) == w * h
    return h, w, body


def tree_bytes(root):
    """Map of relative path -> file bytes for a whole directory tree."""
    out = {}
    for base, _, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def only_error_line(capsys):
    """The one stderr line the CLI printed besides log records."""
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines()
             if not line.startswith(("INFO ", "DEBUG "))]
    assert len(lines) == 1, err
    assert lines[0].startswith("nimbus: error: ")
    return lines[0]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synthetic dataset plus a small-model config, shared read-only."""
    root = tmp_path_factory.mktemp("cliws")
    data_dir = str(root / "data")
    rc = main(["synth", "--out", data_dir, "--n", "8", "--n-val", "4",
               "--n-test", "4", "--grid", "16", "--bands", "VIS006,IR016",
               "--regions", "north,south", "--seed", "3"])
    assert rc == 0
    config = {"model": SMALL_MODEL,
              "train": {"batch_size": 4, "max_epochs": 1, "patience": 1}}
    config_path = str(root / "small.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    return {"root": root, "manifest": os.path.join(data_dir, "manifest.json"),
            "config": config_path}


@pytest.fixture(scope="module")
def trained(workspace):
    """A single pooled-model training run, reused by later commands."""
    out = str(workspace["root"] / "run")
    rc = main(["train", "--config", workspace["config"],
               "--manifest", workspace["manifest"], "--out", out])
    assert rc == 0
    return os.path.join(out, "model.smck")


class TestUsageAndExitCodes:
    def test_unknown_subcommand_exits_one(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["params", "--bogus-flag"])
        assert err.value.code == 1
        assert "usage" in capsys.readouterr().err

    def test_no_subcommand_exits_one(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["synth", "train", "predict", "evaluate",
                                     "ensemble", "params", "dump-image"])
    def test_help_exits_zero_and_documents_defaults(self, cmd, capsys):
        """--help succeeds everywhere and spells out the defaults."""
        with pytest.raises(SystemExit) as err:
            main([cmd, "--help"])
        assert err.value.code == 0
        assert "default" in capsys.readouterr().out

    def test_invalid_log_level_exits_one(self, monkeypatch, capsys):
        monkeypatch.setenv("NIMBUS_LOG", "verbose")
        assert main(["params", "--preset", "default"]) == 1
        assert "NIMBUS_LOG" in capsys.readouterr().err

    def test_missing_manifest_flag_is_validation_error(self, workspace):
        assert main(["predict", "--checkpoint", "x.smck", "--out",
                     str(workspace["root"] / "nowhere")]) == 1

    def test_nonexistent_manifest_file_is_runtime_error(self, workspace, tmp_path):
        assert main(["evaluate", "--predictions", str(tmp_path),
                     "--manifest", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "rep")]) == 2

    def test_evaluate_requires_exactly_one_source(self, workspace, trained, tmp_path):
        args = ["evaluate", "--manifest", workspace["manifest"],
                "--out", str(tmp_path / "rep")]
        assert main(args) == 1
        assert main(args + ["--checkpoint", trained,
                            "--predictions", str(tmp_path)]) == 1


class TestParams:
    def test_default_preset_prints_budget_and_ratio(self, capsys):
        assert main(["params", "--preset", "default"]) == 0
        out = dict(line.split() for line in capsys.readouterr().out.splitlines())
        assert int(out["total_params"]) == 4025799
        assert int(out["baseline_reference"]) == 24035216
        assert float(out["ratio"]) <= 0.25

    def test_single_frame_preset_stays_in_budget(self, capsys):
        assert main(["params", "--preset", "single-frame"]) == 0
        out = dict(line.split() for line in capsys.readouterr().out.splitlines())
        assert 3.5e6 <= int(out["total_params"]) <= 4.7e6

    def test_config_file_model_section_is_used(self, workspace, capsys):
        assert main(["params", "--config", workspace["config"]]) == 0
        out = dict(line.split() for line in capsys.readouterr().out.splitlines())
        assert int(out["total_params"]) < 1e5


class TestSynth:
    def test_same_seed_writes_byte_identical_directories(self, tmp_path):
        """Generation is a pure function of the flags."""
        dirs = [str(tmp_path / name) for name in ("a", "b")]
        for d in dirs:
            rc = main(["synth", "--out", d, "--n", "6", "--n-val", "2",
                       "--n-test", "2", "--grid", "16",
                       "--bands", "IR016", "--seed", "7"])
            assert rc == 0
        assert tree_bytes(dirs[0]) == tree_bytes(dirs[1])

    def test_val_and_test_default_to_quarter_of_train(self, tmp_path):
        """--n 64 leaves 16 val and 16 test samples unless overridden."""
        out = str(tmp_path / "d")
        assert main(["synth", "--out", out, "--n", "64", "--grid", "16",
                     "--bands", "IR016", "--seed", "1"]) == 0
        manifest = D.load_manifest(os.path.join(out, "manifest.json"))
        counts = {s: len(manifest.split_samples(s)) for s in ("train", "val", "test")}
        assert counts == {"train": 64, "val": 16, "test": 16}

    def test_config_echo_written(self, tmp_path):
        out = str(tmp_path / "d")
        assert main(["synth", "--out", out, "--n", "4", "--n-val", "2",
                     "--n-test", "2", "--grid", "16", "--bands", "IR016",
                     "--seed", "2"]) == 0
        with open(os.path.join(out, "synth-config.json"), encoding="utf-8") as fh:
            echo = json.load(fh)
        assert echo["seed"] == 2 and echo["grid"] == 16


class TestTrain:
    def test_single_run_writes_checkpoint_history_and_echo(self, workspace, trained):
        out_dir = os.path.dirname(trained)
        assert os.path.exists(trained)
        assert os.path.exists(os.path.join(out_dir, "model.history.jsonl"))
        with open(os.path.join(out_dir, "run-config.json"), encoding="utf-8") as fh:
            echo = json.load(fh)
        assert echo["model"]["stage_widths"] == SMALL_MODEL["stage_widths"]

    def test_regional_run_trains_one_model_per_job(self, workspace, tmp_path):
        out = str(tmp_path / "regional")
        rc = main(["train", "--config", workspace["config"],
                   "--manifest", workspace["manifest"], "--out", out,
                   "--regions", "north,south"])
        assert rc == 0
        with open(os.path.join(out, "train-report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        jobs = {(j["region"], j["year"]): j for j in report["jobs"]}
        assert set(jobs) == {("north", 2019), ("south", 2019)}
        for j in jobs.values():
            assert j["error"] is None and os.path.exists(j["checkpoint"])

    def test_unknown_region_gives_partial_failure_exit(self, workspace, tmp_path):
        out = str(tmp_path / "partial")
        rc = main(["train", "--config", workspace["config"],
                   "--manifest", workspace["manifest"], "--out", out,
                   "--regions", "north,atlantis"])
        assert rc == 3
        with open(os.path.join(out, "train-report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        by_region = {j["region"]: j for j in report["jobs"]}
        assert by_region["north"]["error"] is None
        assert by_region["atlantis"]["error"] is not None

    def test_all_jobs_failing_is_runtime_exit(self, workspace, tmp_path):
        rc = main(["train", "--config", workspace["config"],
                   "--manifest", workspace["manifest"],
                   "--out", str(tmp_path / "none"), "--regions", "atlantis"])
        assert rc == 2


class TestPredictEvaluate:
    def test_predict_writes_one_file_per_test_sample(self, workspace, trained, tmp_path):
        out = str(tmp_path / "preds")
        rc = main(["predict", "--checkpoint", trained, "--config",
                   workspace["config"], "--manifest", workspace["manifest"],
                   "--out", out])
        assert rc == 0
        files = [n for n in os.listdir(out) if n.endswith(".pred.w4cl")]
        assert len(files) == 4
        assert os.path.exists(os.path.join(out, "predictions-config.json"))

    def test_evaluate_predictions_writes_reports_idempotently(self, workspace,
                                                              trained, tmp_path):
        """Scoring twice produces byte-identical artifacts: nothing in the
        report depends on wall time."""
        preds = str(tmp_path / "preds")
        assert main(["predict", "--checkpoint", trained, "--config",
                     workspace["config"], "--manifest", workspace["manifest"],
                     "--out", preds]) == 0
        reports = []
        for name in ("r1", "r2"):
            out = str(tmp_path / name)
            rc = main(["evaluate", "--predictions", preds, "--config",
                       workspace["config"], "--manifest", workspace["manifest"],
                       "--out", out])
            assert rc == 0
            reports.append(tree_bytes(out))
        assert reports[0] == reports[1]
        payload = json.loads(reports[0]["report.json"])
        assert 0.0 <= payload["pooled_csi"] <= 1.0
        assert set(payload["baselines"]) == {"all_zeros", "all_ones", "persistence"}
        assert "report.tsv" in reports[0]

    def test_no_baselines_flag_omits_them(self, workspace, trained, tmp_path):
        out = str(tmp_path / "rep")
        rc = main(["evaluate", "--checkpoint", trained, "--config",
                   workspace["config"], "--manifest", workspace["manifest"],
                   "--out", out, "--no-baselines"])
        assert rc == 0
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            assert "baselines" not in json.load(fh)

    def test_threshold_override_is_echoed(self, workspace, trained, tmp_path):
        out = str(tmp_path / "rep")
        rc = main(["evaluate", "--checkpoint", trained, "--config",
                   workspace["config"], "--manifest", workspace["manifest"],
                   "--out", out, "--threshold", "0.5", "--no-baselines"])
        assert rc == 0
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            assert json.load(fh)["config"]["threshold"] == 0.5


class TestEnsemble:
    def test_averaged_predictions_score_like_member_on_single_model(
            self, workspace, trained, tmp_path):
        """A one-member ensemble writes files scoring identically to the
        member's own predictions."""
        solo = str(tmp_path / "solo")
        ens = str(tmp_path / "ens")
        assert main(["predict", "--checkpoint", trained, "--config",
                     workspace["config"], "--manifest", workspace["manifest"],
                     "--out", solo]) == 0
        assert main(["ensemble", "--checkpoints", trained, "--config",
                     workspace["config"], "--manifest", workspace["manifest"],
                     "--out", ens]) == 0
        for name in os.listdir(solo):
            if name.endswith(".pred.w4cl"):
                a = D.read_tensor_file(os.path.join(solo, name))
                b = D.read_tensor_file(os.path.join(ens, name))
                assert np.max(np.abs(a - b)) <= 1e-6


class TestMalformedInputs:
    """Each malformed file gives one error line naming the field, never a
    traceback: exit 1 for a configuration file, 2 for corrupt data."""

    def test_non_list_stage_widths_in_config_exits_one(self, tmp_path, capsys):
        path = str(tmp_path / "bad.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"model": {"stage_widths": "abc"}}, fh)
        assert main(["params", "--config", path]) == 1
        assert "stage_widths" in only_error_line(capsys)

    def _evaluate_checkpoint(self, workspace, trained, tmp_path, edit):
        path = str(tmp_path / "bad.smck")
        shutil.copyfile(trained, path)
        rewrite_checkpoint_header(path, edit)
        return main(["evaluate", "--checkpoint", path, "--config", workspace["config"],
                     "--manifest", workspace["manifest"], "--out", str(tmp_path / "rep")])

    def test_non_list_stage_widths_in_checkpoint_exits_two(self, workspace, trained,
                                                            tmp_path, capsys):
        def edit(header):
            header["config"]["stage_widths"] = 5
        assert self._evaluate_checkpoint(workspace, trained, tmp_path, edit) == 2
        assert "stage_widths" in only_error_line(capsys)

    def test_non_object_checkpoint_entry_exits_two(self, workspace, trained,
                                                   tmp_path, capsys):
        def edit(header):
            header["entries"][0] = "enc1"
        assert self._evaluate_checkpoint(workspace, trained, tmp_path, edit) == 2
        assert "entries[0]" in only_error_line(capsys)

    def test_manifest_without_t_out_exits_two(self, tmp_path, capsys):
        data_dir = str(tmp_path / "data")
        assert main(["synth", "--out", data_dir, "--n", "2", "--n-val", "1",
                     "--n-test", "1", "--grid", "16", "--seed", "4"]) == 0
        manifest = os.path.join(data_dir, "manifest.json")
        rewrite_manifest(manifest, lambda doc: doc["geometry"].pop("t_out"))
        capsys.readouterr()
        assert main(["evaluate", "--predictions", str(tmp_path), "--manifest", manifest,
                     "--out", str(tmp_path / "rep")]) == 2
        assert "t_out" in only_error_line(capsys)


class TestDumpImage:
    def test_constant_slice_maps_to_mid_gray(self, tmp_path):
        path = str(tmp_path / "t.w4cl")
        D.write_tensor_file(path, np.full((1, 1, 4, 4), 3.25, np.float32))
        out = str(tmp_path / "t.pgm")
        assert main(["dump-image", "--input", path, "--out", out]) == 0
        h, w, body = read_pgm(out)
        assert (h, w) == (4, 4) and set(body) == {128}

    def test_min_max_scaling_of_known_values(self, tmp_path):
        path = str(tmp_path / "t.w4cl")
        D.write_tensor_file(path, np.array([[[[0, 1], [2, 3]]]], np.float32))
        out = str(tmp_path / "t.pgm")
        assert main(["dump-image", "--input", path, "--out", out]) == 0
        assert list(read_pgm(out)[2]) == [0, 85, 170, 255]

    def test_rain_mask_layout_survives_rendering(self, tmp_path):
        """A blocky rain field renders as the same blocks of 255 on 0."""
        mask = np.kron(np.array([[1, 0], [0, 1]], np.float32), np.ones((2, 2)))
        path = str(tmp_path / "t.w4cl")
        D.write_tensor_file(path, mask[None, None].astype(np.float32))
        out = str(tmp_path / "t.pgm")
        assert main(["dump-image", "--input", path, "--out", out]) == 0
        got = np.frombuffer(read_pgm(out)[2], np.uint8).reshape(4, 4)
        np.testing.assert_array_equal(got, (mask * 255).astype(np.uint8))

    def test_out_of_range_indices_exit_one(self, tmp_path):
        path = str(tmp_path / "t.w4cl")
        D.write_tensor_file(path, np.zeros((1, 2, 4, 4), np.float32))
        out = str(tmp_path / "t.pgm")
        assert main(["dump-image", "--input", path, "--channel", "5",
                     "--out", out]) == 1
        assert main(["dump-image", "--input", path, "--frame", "9",
                     "--out", out]) == 1

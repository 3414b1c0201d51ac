"""Command-line interface tests: exit codes, artifacts, and determinism.

Runs invoke nimbus.cli.main in process with argument lists; training cases
use a deliberately tiny model and dataset so the whole file stays fast.
"""

import json
import logging
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from _corrupt import (BAD_BLOB_TABLES, BAD_CHECKPOINTS, BAD_CONFIGS, BAD_LATENT_DIMS,
                      BAD_MANIFESTS, BAD_TENSOR_FILES, NON_FINITE_FILES, OVERSIZED_CONFIGS,
                      oversize, poison_epoch, poison_file_of, poison_tensor, reorder_bands,
                      rewrite_checkpoint, rewrite_checkpoint_header, rewrite_manifest,
                      rewrite_tensor)
from _oracles import evaluate_ref
from nimbus import data as D
from nimbus import metrics as M
from nimbus import optim as O
from nimbus.cli import _manifest_from, main
from nimbus.config import RunConfig
from nimbus.model import load_checkpoint, save_checkpoint

ROOT = Path(__file__).resolve().parent.parent

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


def run_config_dict(path):
    """The resolved run config of a config file, as its JSON echo reads back."""
    return json.loads(json.dumps(RunConfig.from_file(path).to_dict()))


def read_echo(pred_dir):
    with open(os.path.join(pred_dir, "predictions-config.json"), encoding="utf-8") as fh:
        return json.load(fh)


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


def edited_config(workspace, name, **sections):
    """A copy of the workspace config with the given sections merged in."""
    with open(workspace["config"], encoding="utf-8") as fh:
        doc = json.load(fh)
    for section, values in sections.items():
        doc[section] = {**doc.get(section, {}), **values}
    path = str(workspace["root"] / f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


@pytest.fixture(scope="module")
def gapped_manifest(workspace):
    """The workspace manifest with every south sample moved to 2020: both
    regions and both years are held, but (north, 2020) and (south, 2019)
    have no samples."""
    with open(workspace["manifest"], encoding="utf-8") as fh:
        doc = json.load(fh)
    for sample in doc["samples"]:
        if sample["region"] == "south":
            sample["year"] = 2020
            sample["timestamp"] = sample["timestamp"].replace("2019", "2020", 1)
    path = os.path.join(os.path.dirname(workspace["manifest"]), "gapped-manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


@pytest.fixture(scope="module")
def mse_config(workspace):
    """The workspace config, training with the mse loss."""
    return edited_config(workspace, "mse", train={"loss": "mse"})


@pytest.fixture(scope="module")
def mse_trained(workspace, mse_config):
    """A pooled model trained with the mse loss, so it forecasts rates."""
    out = str(workspace["root"] / "mse-run")
    assert main(["train", "--config", mse_config, "--manifest", workspace["manifest"],
                 "--out", out]) == 0
    return os.path.join(out, "model.smck")


def report_of(out):
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        return json.load(fh)


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

    def test_module_entry_point_runs_the_cli(self):
        """`python3 -m nimbus` is the same command line as `nimbus`."""
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        done = subprocess.run([sys.executable, "-m", "nimbus", "--help"], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: nimbus") and "evaluate" in done.stdout

    def test_invalid_log_level_exits_one(self, monkeypatch, capsys):
        monkeypatch.setenv("NIMBUS_LOG", "verbose")
        assert main(["params"]) == 1
        assert "NIMBUS_LOG" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", [["params"], ["train", "--out", "unused"]],
                             ids=["params", "train"])
    def test_preset_is_an_unrecognized_argument(self, capsys, cmd):
        """The model is set by its config fields alone; --preset is gone."""
        with pytest.raises(SystemExit) as err:
            main([*cmd, "--preset", "default"])
        assert err.value.code == 1
        assert "unrecognized arguments: --preset default" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["train", "predict", "ensemble", "evaluate"])
    def test_an_out_that_is_a_file_exits_two_before_reading_a_sample(
            self, workspace, trained, tmp_path, capsys, monkeypatch, command):
        """A regular file as --out once failed only when the directory was
        made, after every epoch, the whole split or a forecast batch; it is
        refused before the first sample is read, and left as it was."""
        out = tmp_path / "out"
        out.write_bytes(b"not a directory")
        reads = []
        read = D.read_tensor_file

        def counted_read(*args, **kwargs):
            reads.append(args)
            return read(*args, **kwargs)

        monkeypatch.setattr(D, "read_tensor_file", counted_read)
        source = {"train": [], "ensemble": ["--checkpoints", trained]}.get(
            command, ["--checkpoint", trained])
        capsys.readouterr()
        assert main([command, *source, "--config", workspace["config"],
                     "--manifest", workspace["manifest"], "--out", str(out)]) == 2
        assert only_error_line(capsys) == f"nimbus: error: [Errno 20] Not a directory: '{out}'"
        assert reads == []
        assert out.read_bytes() == b"not a directory"


class TestParams:
    def test_default_model_prints_budget_and_ratio(self, capsys):
        assert main(["params"]) == 0
        out = dict(line.split() for line in capsys.readouterr().out.splitlines())
        assert int(out["total_params"]) == 4021383
        assert int(out["baseline_reference"]) == 24035216
        assert float(out["ratio"]) <= 0.25

    def test_single_frame_model_stays_in_budget(self, tmp_path, capsys):
        """One 11-band frame in and one lead time out, by the model's fields."""
        config = tmp_path / "single-frame.json"
        config.write_text(json.dumps({"model": {"in_channels": 11, "out_channels": 1}}))
        assert main(["params", "--config", str(config)]) == 0
        out = dict(line.split() for line in capsys.readouterr().out.splitlines())
        assert int(out["total_params"]) == 4016758

    def test_config_file_model_section_is_used(self, workspace, capsys):
        assert main(["params", "--config", workspace["config"]]) == 0
        out = dict(line.split() for line in capsys.readouterr().out.splitlines())
        assert int(out["total_params"]) < 1e5

    def test_counts_a_huge_config_without_building_it(self, tmp_path, capsys):
        path = str(tmp_path / "huge.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"model": {**SMALL_MODEL, "in_channels": 2 ** 40}}, fh)
        assert main(["params", "--config", path]) == 0
        out = dict(line.split() for line in capsys.readouterr().out.splitlines())
        assert int(out["total_params"]) > 2 ** 40


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

    def test_logs_count_seconds_and_seconds_per_sample(self, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="nimbus")
        out = str(tmp_path / "d")
        assert main(["synth", "--out", out, "--n", "4", "--n-val", "2",
                     "--n-test", "2", "--grid", "16", "--bands", "IR016"]) == 0
        [line] = [r.getMessage() for r in caplog.records if "samples under" in r.getMessage()]
        m = re.fullmatch(r"wrote 8 samples under (\S+) in (\d+\.\d\d) s "
                         r"\((\d+\.\d{4}) s per sample; manifest (\S+)\)", line)
        assert m, line
        assert m[1] == out and m[4] == os.path.join(out, "manifest.json")
        assert abs(float(m[3]) - float(m[2]) / 8) <= 1e-3  # both rounded

    def test_config_echo_written(self, tmp_path):
        out = str(tmp_path / "d")
        assert main(["synth", "--out", out, "--n", "4", "--n-val", "2",
                     "--n-test", "2", "--grid", "16", "--bands", "IR016",
                     "--seed", "2"]) == 0
        with open(os.path.join(out, "synth-config.json"), encoding="utf-8") as fh:
            echo = json.load(fh)
        assert echo["seed"] == 2 and echo["grid"] == 16

    @pytest.mark.parametrize("argv,field", [
        (["--bands", ""], "synth.bands"),
        (["--bands", "A,B,C,D,E,F,G,H,I,J"], "synth.bands"),
        (["--bands", "A,A,B"], "synth.bands"),
        (["--n", "0"], "synth.n_train"),
        (["--grid", "24"], "synth.grid"),
    ])
    def test_unrenderable_config_exits_one_and_writes_nothing(self, tmp_path, capsys,
                                                              argv, field):
        out = tmp_path / "d"
        assert main(["synth", "--out", str(out), "--n", "2", "--grid", "16"] + argv) == 1
        assert field in only_error_line(capsys)
        assert not out.exists()


class TestTrain:
    def test_single_run_writes_checkpoint_history_and_echo(self, workspace, trained):
        out_dir = os.path.dirname(trained)
        assert os.path.exists(trained)
        assert os.path.exists(os.path.join(out_dir, "model.history.jsonl"))
        with open(os.path.join(out_dir, "run-config.json"), encoding="utf-8") as fh:
            echo = json.load(fh)
        assert echo["model"]["stage_widths"] == SMALL_MODEL["stage_widths"]

    def test_filter_threshold_overrides_the_manifest_and_zero_keeps_every_sample(self,
                                                                                 workspace):
        """data.filter_threshold replaces the manifest's value in what train
        reads; 0 keeps every train sample, where the manifest's own
        threshold drops some."""
        listed = D.load_manifest(workspace["manifest"])
        train = [s for s in listed.samples if s.split == "train"]
        kept = {}
        for threshold in (None, 0.0):
            config = RunConfig.from_dict({"data": {"filter_threshold": threshold}})
            manifest = _manifest_from(SimpleNamespace(manifest=workspace["manifest"]), config)
            assert manifest.filter_threshold == (listed.filter_threshold if threshold is None
                                                 else threshold)
            batches, _ = O._regional_loaders(manifest, manifest.samples,
                                             O.TrainConfig(shuffle=False), None)
            kept[threshold] = [r for _, _, chunk in batches(0) for r in chunk]
        assert kept[0.0] == train
        assert listed.filter_threshold > 0 and len(kept[None]) < len(train)

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

    def test_a_known_pair_without_samples_gives_partial_failure_exit(
            self, workspace, gapped_manifest, tmp_path):
        out = str(tmp_path / "partial")
        rc = main(["train", "--config", workspace["config"],
                   "--manifest", gapped_manifest, "--out", out,
                   "--regions", "north,south", "--years", "2019"])
        assert rc == 3
        with open(os.path.join(out, "train-report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        by_region = {j["region"]: j for j in report["jobs"]}
        assert by_region["north"]["error"] is None
        assert by_region["south"]["error"] == ("ConfigError: manifest has no samples for "
                                               "region 'south' year 2019")

    @pytest.mark.parametrize("flags, line", [
        (["--regions", "north,atlantis,zzz"],
         "--regions names 'atlantis', 'zzz', which no sample holds; "
         "the manifest's regions are 'north', 'south'"),
        (["--regions", "south", "--years", "2019,2031"],
         "--years names 2031, which no sample holds; the manifest's years are 2019, 2020"),
    ], ids=["region", "year"])
    def test_a_name_no_sample_holds_exits_one_leaving_no_out(
            self, workspace, gapped_manifest, tmp_path, capsys, flags, line):
        """A --regions or --years value that no manifest sample holds is a
        configuration error, raised before --out is made."""
        out = tmp_path / "regional"
        capsys.readouterr()
        assert main(["train", "--config", workspace["config"], "--manifest", gapped_manifest,
                     "--out", str(out), *flags]) == 1
        assert only_error_line(capsys) == f"nimbus: error: {line}"
        assert not out.exists()

    def test_poisoned_gradient_mid_run_keeps_history_and_exits_two(self, workspace, tmp_path,
                                                                    capsys, monkeypatch):
        config = str(tmp_path / "three-epochs.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"model": SMALL_MODEL,
                       "train": {"batch_size": 4, "max_epochs": 3, "patience": 3}}, fh)
        poison_epoch(monkeypatch, 2)
        out = str(tmp_path / "poisoned")
        capsys.readouterr()
        assert main(["train", "--config", config, "--manifest", workspace["manifest"],
                     "--out", out]) == 2
        assert "non-finite gradient" in only_error_line(capsys)
        with open(os.path.join(out, "model.history.jsonl"), encoding="utf-8") as fh:
            assert [json.loads(line)["epoch"] for line in fh] == [1]
        assert not os.path.exists(os.path.join(out, "model.smck"))
        assert sorted(os.listdir(out)) == ["model.history.jsonl", "run-config.json"]

    def test_all_jobs_failing_is_runtime_exit(self, workspace, gapped_manifest, tmp_path):
        rc = main(["train", "--config", workspace["config"],
                   "--manifest", gapped_manifest,
                   "--out", str(tmp_path / "none"), "--regions", "south", "--years", "2019"])
        assert rc == 2

    def test_regional_run_with_unparsable_years_exits_one_leaving_no_out(
            self, workspace, tmp_path, capsys):
        """--regions and --years are parsed before --out and its echo are made."""
        out = tmp_path / "regional"
        capsys.readouterr()
        assert main(["train", "--config", workspace["config"], "--manifest",
                     workspace["manifest"], "--out", str(out), "--regions", "north",
                     "--years", "abc"]) == 1
        assert "'abc'" in only_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("regional", [False, True], ids=["single", "regional"])
    @pytest.mark.parametrize("case", ["three-bands", "drop-vis", "eight-leads"])
    def test_a_model_whose_ends_the_data_cannot_feed_exits_one_naming_the_field(
            self, workspace, tmp_path, capsys, monkeypatch, case, regional):
        """The model's channels are checked against the data before any
        sample is read or --out is made; the error names the config field
        and the value the data implies."""
        manifest = workspace["manifest"]
        if case == "three-bands":
            config = str(tmp_path / "default.json")
            Path(config).write_text("{}")
            data_dir = str(tmp_path / "data")
            assert main(["synth", "--out", data_dir, "--n", "2", "--n-val", "1",
                         "--n-test", "1", "--grid", "16", "--bands", "IR016,IR039,IR108",
                         "--seed", "3"]) == 0
            manifest = os.path.join(data_dir, "manifest.json")
            line = "model.in_channels is 36, but the data gives 12 (4 frames x 3 bands)"
        elif case == "drop-vis":
            config = edited_config(workspace, "ends-drop", data={"drop_bands": ["VIS006"]})
            line = "model.in_channels is 8, but the data gives 4 (4 frames x 1 bands)"
        else:
            config = edited_config(workspace, "ends-out", model={"out_channels": 8})
            line = "model.out_channels is 8, but the data gives 16 (lead times)"
        reads = []
        read = D.read_tensor_file

        def counted_read(*args, **kwargs):
            reads.append(args)
            return read(*args, **kwargs)

        monkeypatch.setattr(D, "read_tensor_file", counted_read)
        out = tmp_path / "run"
        capsys.readouterr()
        assert main(["train", "--config", config, "--manifest", manifest, "--out", str(out),
                     *(["--regions", "north"] if regional else [])]) == 1
        assert only_error_line(capsys) == f"nimbus: error: {line}"
        assert reads == []
        assert not out.exists()


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

    def test_predict_echo_holds_exactly_its_keys(self, workspace, trained, tmp_path):
        out = str(tmp_path / "preds")
        assert main(["predict", "--checkpoint", trained, "--config", workspace["config"],
                     "--manifest", workspace["manifest"], "--split", "val", "--out", out]) == 0
        assert read_echo(out) == {"checkpoint": trained, "split": "val",
                                  "config": run_config_dict(workspace["config"])}

    def test_checkpoint_and_prediction_files_write_the_same_report(self, workspace, trained,
                                                                   tmp_path):
        """evaluate --checkpoint and predict then evaluate --predictions
        write byte-identical report.json (baselines and run_config
        included) and report.tsv under one config."""
        common = ["--config", workspace["config"], "--manifest", workspace["manifest"]]
        preds = str(tmp_path / "preds")
        assert main(["predict", "--checkpoint", trained, "--out", preds, *common]) == 0
        reports = []
        for source in (["--checkpoint", trained], ["--predictions", preds]):
            out = tmp_path / f"rep{len(reports)}"
            assert main(["evaluate", *source, "--out", str(out), *common]) == 0
            reports.append(tree_bytes(out))
        assert sorted(reports[0]) == ["report.json", "report.tsv"]
        assert reports[1] == reports[0]
        payload = json.loads(reports[0]["report.json"])
        assert payload["baselines"]["persistence"] is not None
        assert payload["run_config"] == run_config_dict(workspace["config"])

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

    @pytest.mark.parametrize("argv", [
        ["predict", "--split", "tset"],
        ["ensemble", "--split", "Test"],
        ["evaluate", "--split", "tset"],
    ], ids=["predict", "ensemble", "evaluate"])
    def test_a_split_with_no_samples_exits_two_and_writes_nothing(self, workspace, trained,
                                                                  tmp_path, capsys, argv):
        out = tmp_path / "out"
        flag = "--checkpoints" if argv[0] == "ensemble" else "--checkpoint"
        capsys.readouterr()
        assert main(argv + [flag, trained, "--config", workspace["config"],
                            "--manifest", workspace["manifest"], "--out", str(out)]) == 2
        assert f"split {argv[2]!r} has no samples" in only_error_line(capsys)
        assert not out.exists()

    def test_echoes_name_the_model_of_the_checkpoint(self, workspace, trained, tmp_path):
        """Scored without --config, whose model section is the default, the
        echoes hold the model the checkpoint records."""
        want = load_checkpoint(trained).config.to_dict()
        assert want["stage_widths"] == SMALL_MODEL["stage_widths"]
        common = ["--manifest", workspace["manifest"]]
        preds = str(tmp_path / "preds")
        assert main(["predict", "--checkpoint", trained, "--out", preds, *common]) == 0
        assert read_echo(preds)["config"]["model"] == want
        for name, flag, source in (("ck", "--checkpoint", trained),
                                   ("pred", "--predictions", preds)):
            assert main(["evaluate", flag, source, "--out", str(tmp_path / name), *common]) == 0
            assert report_of(tmp_path / name)["run_config"]["model"] == want
        assert tree_bytes(tmp_path / "pred") == tree_bytes(tmp_path / "ck")


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

    def test_ensemble_echo_holds_exactly_its_keys(self, workspace, trained, tmp_path):
        out = str(tmp_path / "ens")
        assert main(["ensemble", "--checkpoints", f"{trained},{trained}", "--config",
                     workspace["config"], "--manifest", workspace["manifest"],
                     "--out", out]) == 0
        assert read_echo(out) == {"checkpoints": [trained, trained], "mode": "average",
                                  "split": "test",
                                  "config": run_config_dict(workspace["config"])}


class TestRecordedBandsAndLoss:
    """A checkpoint records the bands its model reads and the loss it was
    trained with; predict, ensemble and evaluate take both from it, and
    the configs they echo record what ran."""

    def _evaluate(self, checkpoint, config, manifest, out):
        return main(["evaluate", "--checkpoint", checkpoint, "--config", config,
                     "--manifest", manifest, "--out", str(out)])

    def test_an_mse_model_is_scored_as_rates(self, workspace, mse_trained, mse_config,
                                             tmp_path):
        for name, config in (("own", mse_config), ("default", workspace["config"])):
            assert self._evaluate(mse_trained, config, workspace["manifest"], tmp_path / name) == 0
        assert tree_bytes(tmp_path / "own") == tree_bytes(tmp_path / "default")
        report = report_of(tmp_path / "own")
        assert report["run_config"] == run_config_dict(mse_config)
        model, manifest = load_checkpoint(mse_trained), D.load_manifest(workspace["manifest"])
        as_rates = evaluate_ref(model, manifest, "test", kind="rate")
        assert report["pooled_counts"] == as_rates.pooled.to_dict()
        assert report["pooled_csi"] == as_rates.pooled_csi
        assert report["pooled_csi"] != evaluate_ref(model, manifest, "test").pooled_csi

    def test_another_drop_list_scores_the_bands_the_model_learnt(self, workspace, tmp_path):
        trained_cfg = edited_config(workspace, "drop-vis", model={"in_channels": 4},
                                    data={"drop_bands": ["VIS006"]})
        other_cfg = edited_config(workspace, "drop-ir", model={"in_channels": 4},
                                  data={"drop_bands": ["IR016"]})
        run = str(tmp_path / "run")
        assert main(["train", "--config", trained_cfg, "--manifest", workspace["manifest"],
                     "--out", run]) == 0
        checkpoint = os.path.join(run, "model.smck")
        assert load_checkpoint(checkpoint).bands == ("IR016",)
        for name, config in (("own", trained_cfg), ("other", other_cfg)):
            assert self._evaluate(checkpoint, config, workspace["manifest"], tmp_path / name) == 0
        assert tree_bytes(tmp_path / "other") == tree_bytes(tmp_path / "own")
        assert report_of(tmp_path / "own")["run_config"]["data"]["drop_bands"] == ["VIS006"]

    def test_a_manifest_listing_the_bands_in_another_order_scores_the_same(
            self, workspace, trained, tmp_path):
        flipped = reorder_bands(D.load_manifest(workspace["manifest"]), str(tmp_path / "data"))
        assert flipped.band_names == ("IR016", "VIS006")
        for name, manifest in (("flipped", str(tmp_path / "data" / "manifest.json")),
                               ("listed", workspace["manifest"])):
            assert self._evaluate(trained, workspace["config"], manifest, tmp_path / name) == 0
        assert tree_bytes(tmp_path / "flipped") == tree_bytes(tmp_path / "listed")

    def test_ensemble_of_an_mse_and_a_bce_member_exits_one(self, workspace, trained,
                                                           mse_trained, tmp_path, capsys):
        capsys.readouterr()
        assert main(["ensemble", "--checkpoints", f"{trained},{mse_trained}", "--config",
                     workspace["config"], "--manifest", workspace["manifest"],
                     "--out", str(tmp_path / "ens")]) == 1
        line = only_error_line(capsys)
        assert "'mse'" in line and "'bce_logits'" in line
        assert not (tmp_path / "ens").exists()

    def test_a_manifest_without_a_recorded_band_exits_one_naming_it(self, workspace, trained,
                                                                   tmp_path, capsys):
        data_dir = str(tmp_path / "data")
        assert main(["synth", "--out", data_dir, "--n", "2", "--n-val", "1", "--n-test", "1",
                     "--grid", "16", "--bands", "IR016,IR108", "--seed", "3"]) == 0
        capsys.readouterr()
        assert main(["predict", "--checkpoint", trained, "--config", workspace["config"],
                     "--manifest", os.path.join(data_dir, "manifest.json"),
                     "--out", str(tmp_path / "preds")]) == 1
        assert "'VIS006'" in only_error_line(capsys)
        assert not (tmp_path / "preds").exists()

    def test_a_checkpoint_without_bands_or_loss_takes_both_from_the_config(
            self, workspace, mse_trained, mse_config, tmp_path):
        """A model saved before training records neither; the config stands in."""
        bare = str(tmp_path / "bare.smck")
        model = load_checkpoint(mse_trained)
        model.bands = model.loss = None
        save_checkpoint(model, bare)
        assert load_checkpoint(bare).loss is None
        for name, config in (("bare", mse_config), ("bce", workspace["config"])):
            assert self._evaluate(bare, config, workspace["manifest"], tmp_path / name) == 0
        assert self._evaluate(mse_trained, workspace["config"], workspace["manifest"],
                              tmp_path / "recorded") == 0
        assert tree_bytes(tmp_path / "bare") == tree_bytes(tmp_path / "recorded")
        bce = report_of(tmp_path / "bce")
        assert bce["run_config"]["train"]["loss"] == "bce_logits"
        assert bce["pooled_counts"] != report_of(tmp_path / "recorded")["pooled_counts"]
        preds = str(tmp_path / "preds")
        assert main(["predict", "--checkpoint", bare, "--config", mse_config,
                     "--manifest", workspace["manifest"], "--out", preds]) == 0
        assert read_echo(preds)["config"] == run_config_dict(mse_config)


class TestPredictionEcho:
    """evaluate --predictions scores files as the kind their
    predictions-config.json echo records: its train.loss decides, whatever
    the evaluate-time config says, and without an echo the config does."""

    def _predict(self, workspace, trained, tmp_path, config):
        out = str(tmp_path / "preds")
        assert main(["predict", "--checkpoint", trained, "--config", config,
                     "--manifest", workspace["manifest"], "--out", out]) == 0
        return out

    def _evaluate(self, workspace, preds, config, tmp_path, name="rep"):
        return main(["evaluate", "--predictions", preds, "--config", config,
                     "--manifest", workspace["manifest"], "--out", str(tmp_path / name)])

    @pytest.mark.parametrize("model", ["bce", "mse"])
    def test_the_echo_decides_under_either_config(self, workspace, trained, mse_trained,
                                                  mse_config, tmp_path, model):
        """Files of either model score the same under the default and the
        mse config, and as their model does from its checkpoint."""
        checkpoint = mse_trained if model == "mse" else trained
        preds = self._predict(workspace, checkpoint, tmp_path, workspace["config"])
        assert read_echo(preds)["config"]["train"]["loss"] == load_checkpoint(checkpoint).loss
        for name, config in (("default", workspace["config"]), ("mse", mse_config)):
            assert self._evaluate(workspace, preds, config, tmp_path, name) == 0
        assert main(["evaluate", "--checkpoint", checkpoint, "--config", workspace["config"],
                     "--manifest", workspace["manifest"], "--out", str(tmp_path / "ck")]) == 0
        reports = [tree_bytes(tmp_path / name) for name in ("default", "mse", "ck")]
        assert reports[1] == reports[0] and reports[2] == reports[0]

    @pytest.mark.parametrize("scored_as", ["default", "mse"])
    def test_without_an_echo_the_config_decides(self, workspace, trained, mse_config,
                                                tmp_path, scored_as):
        preds = self._predict(workspace, trained, tmp_path, workspace["config"])
        os.remove(os.path.join(preds, "predictions-config.json"))
        config = mse_config if scored_as == "mse" else workspace["config"]
        assert self._evaluate(workspace, preds, config, tmp_path) == 0
        kind = "rate" if scored_as == "mse" else "probability"
        manifest = D.load_manifest(workspace["manifest"])
        want = M.evaluate(preds, manifest, "test", kind=kind).to_json_dict()
        got = report_of(tmp_path / "rep")
        assert got["pooled_counts"] == want["pooled_counts"]
        assert got["run_config"] == run_config_dict(config)

    def test_an_echo_holding_a_preset_exits_two_naming_it(self, workspace, trained, tmp_path,
                                                          capsys):
        """An echo written before the preset was deleted no longer reads."""
        preds = self._predict(workspace, trained, tmp_path, workspace["config"])
        echo = os.path.join(preds, "predictions-config.json")
        doc = read_echo(preds)
        doc["config"]["model"]["preset"] = "default"
        Path(echo).write_text(json.dumps(doc))
        capsys.readouterr()
        assert self._evaluate(workspace, preds, workspace["config"], tmp_path) == 2
        line = only_error_line(capsys)
        assert echo in line and "'preset'" in line
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("text", [
        "{not json", "[]", '{"config": 5}',
        '{"config": {"eval": {"threshold": "abc"}, "modle": 1}}',
        '{"config": {"eval": {"prediction_kind": "odds"}}}',
        '{"config": {"eval": {"prediction_kind": ["rate"]}}}', "\xff"],
        ids=["syntax", "list", "non-object-config", "mistyped-and-unknown", "unknown-kind",
             "list-kind", "bad-utf8"])
    def test_malformed_echo_exits_two_naming_it(self, workspace, trained, tmp_path, capsys,
                                                text):
        preds = self._predict(workspace, trained, tmp_path, workspace["config"])
        echo = os.path.join(preds, "predictions-config.json")
        with open(echo, "wb") as fh:
            fh.write(text.encode("latin-1"))
        capsys.readouterr()
        assert self._evaluate(workspace, preds, workspace["config"], tmp_path) == 2
        assert echo in only_error_line(capsys)


class TestMalformedInputs:
    """Each malformed file gives one error line naming the field, never a
    traceback: exit 1 for a configuration file, 2 for corrupt data."""

    @pytest.mark.parametrize("cmd", ["params", "train"])
    def test_a_run_config_holding_model_preset_exits_one_naming_it(self, workspace, tmp_path,
                                                                   capsys, cmd):
        config = edited_config(workspace, "preset", model={"preset": "default"})
        out = tmp_path / "run"
        capsys.readouterr()
        argv = ["--manifest", workspace["manifest"], "--out", str(out)] if cmd == "train" else []
        assert main([cmd, "--config", config, *argv]) == 1
        assert only_error_line(capsys) == "nimbus: error: unknown model config keys: ['preset']"
        assert not out.exists()

    def test_non_list_stage_widths_in_config_exits_one(self, tmp_path, capsys):
        path = str(tmp_path / "bad.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"model": {"stage_widths": "abc"}}, fh)
        assert main(["params", "--config", path]) == 1
        assert "stage_widths" in only_error_line(capsys)

    REDUCTION_ERROR = ("nimbus: error: cbam_reduction 16 must divide every attended width "
                       "[8, 16, 32, 64, 64]")

    def _indivisible_reduction(self, workspace, name):
        return edited_config(workspace, name, model={**SMALL_MODEL, "cbam_reduction": 16,
                                                     "stage_widths": [8, 16, 32, 64, 128]})

    def test_indivisible_cbam_reduction_exits_one_from_params(self, workspace, capsys):
        path = self._indivisible_reduction(workspace, "reduction-params")
        assert main(["params", "--config", path]) == 1
        assert only_error_line(capsys) == self.REDUCTION_ERROR

    def test_indivisible_cbam_reduction_exits_one_before_train_writes(self, workspace, tmp_path,
                                                                        capsys):
        path = self._indivisible_reduction(workspace, "reduction-train")
        out = tmp_path / "run"
        assert main(["train", "--config", path, "--manifest", workspace["manifest"],
                     "--out", str(out)]) == 1
        assert only_error_line(capsys) == self.REDUCTION_ERROR
        assert not out.exists()

    @pytest.mark.parametrize("doc,field", [case[1:] for case in BAD_CONFIGS],
                             ids=[case[0] for case in BAD_CONFIGS])
    def test_mistyped_config_field_exits_one(self, tmp_path, capsys, doc, field):
        path = str(tmp_path / "bad.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        assert main(["params", "--config", path]) == 1
        assert field in only_error_line(capsys)

    @pytest.mark.parametrize("field,value", [("beta1", 1.0), ("beta2", 1.0), ("eps", -1e-8),
                                             ("weight_decay", -0.01), ("threshold", -0.2)])
    def test_out_of_range_train_field_exits_one(self, tmp_path, capsys, field, value):
        path = str(tmp_path / "bad.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"train": {field: value}}, fh)
        assert main(["params", "--config", path]) == 1
        assert f"train.{field}" in only_error_line(capsys)

    @pytest.mark.parametrize("key,value", [("drop_bands", ["IR134"]), ("prediction_kind", "rate")])
    def test_eval_keys_that_checkpoints_record_exit_one(self, tmp_path, capsys, key, value):
        path = str(tmp_path / "bad.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"data": {"drop_bands": ["VIS006"]}, "eval": {key: value}}, fh)
        assert main(["evaluate", "--config", path, "--predictions", str(tmp_path),
                     "--manifest", str(tmp_path / "manifest.json"),
                     "--out", str(tmp_path / "rep")]) == 1
        assert f"unknown eval config keys: ['{key}']" in only_error_line(capsys)

    def _evaluate_checkpoint(self, workspace, trained, tmp_path, edit,
                             rewrite=rewrite_checkpoint_header):
        path = str(tmp_path / "bad.smck")
        shutil.copyfile(trained, path)
        rewrite(path, edit)
        return main(["evaluate", "--checkpoint", path, "--config", workspace["config"],
                     "--manifest", workspace["manifest"], "--out", str(tmp_path / "rep")])

    def test_non_list_stage_widths_in_checkpoint_exits_two(self, workspace, trained,
                                                            tmp_path, capsys):
        def edit(header):
            header["config"]["stage_widths"] = 5
        assert self._evaluate_checkpoint(workspace, trained, tmp_path, edit) == 2
        assert "stage_widths" in only_error_line(capsys)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_retired_checkpoint_version_exits_two_and_writes_nothing(
            self, workspace, trained, tmp_path, capsys, version):
        path = tmp_path / "old.smck"
        raw = bytearray(Path(trained).read_bytes())
        raw[4:6] = struct.pack("<H", version)
        path.write_bytes(bytes(raw))
        out = tmp_path / "rep"
        assert main(["evaluate", "--checkpoint", str(path), "--config", workspace["config"],
                     "--manifest", workspace["manifest"], "--out", str(out)]) == 2
        assert only_error_line(capsys).endswith(f"unsupported version {version} at byte 4")
        assert not out.exists()

    @pytest.mark.parametrize("field,value", [case[1:] for case in OVERSIZED_CONFIGS],
                             ids=[case[0] for case in OVERSIZED_CONFIGS])
    def test_oversized_checkpoint_config_exits_two(self, workspace, trained, tmp_path, capsys,
                                                   field, value):
        path = str(tmp_path / "bad.smck")
        shutil.copyfile(trained, path)
        rewrite_checkpoint_header(path, oversize(field, value))
        assert main(["predict", "--checkpoint", path, "--manifest", workspace["manifest"],
                     "--out", str(tmp_path / "pred")]) == 2
        assert f"config field '{field}'" in only_error_line(capsys)

    @pytest.mark.parametrize("edit,text", [case[1:] for case in BAD_BLOB_TABLES],
                             ids=[case[0] for case in BAD_BLOB_TABLES])
    def test_malformed_blob_table_exits_two(self, workspace, trained, tmp_path, capsys,
                                            edit, text):
        assert self._evaluate_checkpoint(workspace, trained, tmp_path, edit,
                                         rewrite_checkpoint) == 2
        assert text in only_error_line(capsys)

    @pytest.mark.parametrize("edit,text", [case[1:] for case in BAD_CHECKPOINTS],
                             ids=[case[0] for case in BAD_CHECKPOINTS])
    def test_malformed_checkpoint_predict_exits_two_and_writes_nothing(
            self, workspace, trained, tmp_path, capsys, edit, text):
        path = str(tmp_path / "bad.smck")
        shutil.copyfile(trained, path)
        rewrite_checkpoint(path, edit)
        out = tmp_path / "pred"
        assert main(["predict", "--checkpoint", path, "--manifest", workspace["manifest"],
                     "--out", str(out)]) == 2
        assert text in only_error_line(capsys)
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("dims", [case[1] for case in BAD_LATENT_DIMS],
                             ids=[case[0] for case in BAD_LATENT_DIMS])
    def test_malformed_latent_exits_two(self, tmp_path, capsys, dims):
        data_dir = str(tmp_path / "data")
        assert main(["synth", "--out", data_dir, "--n", "2", "--n-val", "1",
                     "--n-test", "1", "--grid", "16", "--seed", "4"]) == 0
        manifest = D.load_manifest(os.path.join(data_dir, "manifest.json"))
        record = manifest.split_samples("test")[0]
        pred_dir = str(tmp_path / "preds")
        os.makedirs(pred_dir)
        D.write_tensor_file(M.prediction_path(pred_dir, record),
                            np.zeros((1, manifest.t_out, manifest.crop, manifest.crop),
                                     np.float32))
        rewrite_tensor(manifest.resolve(record.latent_path), dims(manifest.crop))
        capsys.readouterr()
        assert main(["evaluate", "--predictions", pred_dir,
                     "--manifest", os.path.join(data_dir, "manifest.json"),
                     "--out", str(tmp_path / "rep")]) == 2
        assert record.latent_path in only_error_line(capsys)

    @pytest.mark.parametrize("value", [np.nan, 7.0, -3.0])
    def test_prediction_value_outside_the_rule_exits_two(self, tmp_path, capsys, value):
        data_dir = str(tmp_path / "data")
        assert main(["synth", "--out", data_dir, "--n", "2", "--n-val", "1",
                     "--n-test", "1", "--grid", "16", "--seed", "4"]) == 0
        manifest = D.load_manifest(os.path.join(data_dir, "manifest.json"))
        record = manifest.split_samples("test")[0]
        pred_dir = str(tmp_path / "preds")
        os.makedirs(pred_dir)
        probs = np.full((1, manifest.t_out, manifest.crop, manifest.crop), 0.5, np.float32)
        probs[0, 1, 2, 3] = value
        D.write_tensor_file(M.prediction_path(pred_dir, record), probs)
        capsys.readouterr()
        assert main(["evaluate", "--predictions", pred_dir,
                     "--manifest", os.path.join(data_dir, "manifest.json"),
                     "--out", str(tmp_path / "rep")]) == 2
        line = only_error_line(capsys)
        index = np.ravel_multi_index((0, 1, 2, 3), probs.shape)
        assert M.prediction_path(pred_dir, record) in line
        assert f"at byte {8 + 4 * 4 + 4 * index} " in line
        assert not os.path.exists(str(tmp_path / "rep"))

    @staticmethod
    def _data_copy(workspace, tmp_path):
        """A private copy of the workspace dataset and its manifest path."""
        shutil.copytree(os.path.dirname(workspace["manifest"]), tmp_path / "data")
        path = str(tmp_path / "data" / "manifest.json")
        return D.load_manifest(path), path

    @staticmethod
    def _not_finite_line(path, value, offset):
        return f"nimbus: error: {path}: value {value:g} at byte {offset} is not finite"

    @pytest.mark.parametrize("kind,value", [case[1:] for case in NON_FINITE_FILES],
                             ids=[case[0] for case in NON_FINITE_FILES])
    def test_non_finite_value_exits_two_naming_file_and_byte(self, workspace, trained, tmp_path,
                                                            capsys, kind, value):
        """predict reads inputs, evaluate --checkpoint targets and then
        latents for the baselines, and evaluate --predictions its files."""
        manifest, manifest_path = self._data_copy(workspace, tmp_path)
        pred_dir = tmp_path / "preds"
        pred_dir.mkdir()
        path, offset = poison_file_of(manifest, manifest.split_samples("test")[0], kind, value,
                                      str(pred_dir))
        command = {"input": ["predict", "--checkpoint", trained],
                   "target": ["evaluate", "--checkpoint", trained],
                   "latent": ["evaluate", "--checkpoint", trained],
                   "prediction": ["evaluate", "--predictions", str(pred_dir)]}[kind]
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(command + ["--config", workspace["config"], "--manifest", manifest_path,
                               "--out", str(out)]) == 2
        assert only_error_line(capsys) == self._not_finite_line(path, value, offset)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_nan_input_outside_the_crop_window_exits_two(self, workspace, trained, tmp_path,
                                                         capsys, command):
        manifest, manifest_path = self._data_copy(workspace, tmp_path)
        path = manifest.resolve(manifest.split_samples("test")[1].input_path)
        offset = poison_tensor(path, (0, 0, 0, 0), float("nan"))
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([command, "--checkpoint", trained, "--config", workspace["config"],
                     "--manifest", manifest_path, "--out", str(out)]) == 2
        assert only_error_line(capsys) == self._not_finite_line(path, float("nan"), offset)
        assert not out.exists()

    @pytest.mark.parametrize("threshold", [None, 0.0], ids=["filter-on", "filter-off"])
    @pytest.mark.parametrize("bad", ["nan-target", "wrong-dims-target", "nan-input",
                                     "nan-val-target"])
    def test_bad_train_file_exits_two_leaving_no_out(self, workspace, tmp_path, capsys, bad,
                                                     threshold):
        """A NaN sample once left training without a word: the rain filter
        compared its NaN sum False with the threshold.  With the filter on
        (the manifest's threshold) it refuses a bad train target; with it
        off (threshold 0), and for inputs and val files either way, the
        first epoch does.  Training writes nothing before its history, so
        --out, which once held the run-config.json echo alone, is not made."""
        manifest, manifest_path = self._data_copy(workspace, tmp_path)
        record = manifest.split_samples("val" if bad == "nan-val-target" else "train")[-1]
        rel = record.input_path if bad == "nan-input" else record.target_path
        path = manifest.resolve(rel)
        if bad == "wrong-dims-target":
            want = D.read_tensor_file(path).shape
            rewrite_tensor(path, (1, 1, 4, 4))
            line = f"nimbus: error: sample {rel}: dims (1, 1, 4, 4) != manifest {want}"
        else:
            line = self._not_finite_line(path, float("nan"),
                                         poison_tensor(path, (0, 1, 3, 4), float("nan")))
        config = (workspace["config"] if threshold is None else
                  edited_config(workspace, "filter-off", data={"filter_threshold": threshold}))
        out = tmp_path / "run"
        capsys.readouterr()
        assert main(["train", "--config", config, "--manifest", manifest_path,
                     "--out", str(out)]) == 2
        assert only_error_line(capsys) == line
        assert not out.exists()

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

    @pytest.mark.parametrize("edit,field", [case[1:] for case in BAD_MANIFESTS],
                             ids=[case[0] for case in BAD_MANIFESTS])
    def test_malformed_manifest_exits_two(self, tmp_path, capsys, edit, field):
        data_dir = str(tmp_path / "data")
        assert main(["synth", "--out", data_dir, "--n", "2", "--n-val", "1",
                     "--n-test", "1", "--grid", "16", "--seed", "4"]) == 0
        manifest = os.path.join(data_dir, "manifest.json")
        rewrite_manifest(manifest, edit)
        capsys.readouterr()
        assert main(["evaluate", "--predictions", str(tmp_path), "--manifest", manifest,
                     "--out", str(tmp_path / "rep")]) == 2
        assert field in only_error_line(capsys)


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

    @pytest.mark.parametrize("dims,text", [
        ((2, 0), "(the whole tensor) of dims (2, 0) is empty"),
        ((3, 0, 4), "(channel 0) of dims (3, 0, 4) is empty"),
    ], ids=["empty-2d", "empty-3d"])
    def test_unscalable_slice_exits_one(self, tmp_path, capsys, dims, text):
        """An empty slice once escaped as a ValueError traceback."""
        path = str(tmp_path / "t.w4cl")
        D.write_tensor_file(path, np.zeros(dims, np.float32))
        out = str(tmp_path / "t.pgm")
        assert main(["dump-image", "--input", path, "--out", out]) == 1
        assert text in only_error_line(capsys)
        assert not os.path.exists(out)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "minus-inf", "nan"])
    def test_non_finite_value_exits_two_naming_its_byte(self, tmp_path, capsys, value):
        """A slice with Inf was once written as garbage and one with NaN as
        all 128; now the file does not read, in any slice."""
        x = np.zeros((2, 1, 4, 4), np.float32)
        x[1, 0, 1, 2] = value
        path = str(tmp_path / "t.w4cl")
        D.write_tensor_file(path, x)
        out = str(tmp_path / "t.pgm")
        assert main(["dump-image", "--input", path, "--frame", "0", "--out", out]) == 2
        offset = 8 + 4 * 4 + 4 * int(np.ravel_multi_index((1, 0, 1, 2), x.shape))
        assert only_error_line(capsys) == (f"nimbus: error: {path}: value {value:g} at byte "
                                           f"{offset} is not finite")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("raw,text", [case[1:] for case in BAD_TENSOR_FILES],
                             ids=[case[0] for case in BAD_TENSOR_FILES])
    def test_dims_too_large_for_64_bits_exit_two(self, tmp_path, capsys, raw, text):
        """The wrapped product once let such a file through to a ValueError
        traceback (exit 1)."""
        path = tmp_path / "t.w4cl"
        path.write_bytes(raw)
        out = str(tmp_path / "t.pgm")
        assert main(["dump-image", "--input", str(path), "--out", out]) == 2
        assert only_error_line(capsys) == f"nimbus: error: {path}: {text}"
        assert not os.path.exists(out)

    def test_out_of_range_indices_exit_one(self, tmp_path):
        path = str(tmp_path / "t.w4cl")
        D.write_tensor_file(path, np.zeros((1, 2, 4, 4), np.float32))
        out = str(tmp_path / "t.pgm")
        assert main(["dump-image", "--input", path, "--channel", "5",
                     "--out", out]) == 1
        assert main(["dump-image", "--input", path, "--frame", "9",
                     "--out", out]) == 1

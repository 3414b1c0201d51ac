"""Run configuration: one typed schema for the four sections, the run
config that nests them, and the synthetic-data config."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from _corrupt import BAD_CONFIGS, UNDECODABLE_JSON
from nimbus.config import DataConfig, RunConfig
from nimbus.data import Geometry, SynthConfig
from nimbus.errors import ConfigError, DataError, FormatError
from nimbus.metrics import EvalConfig
from nimbus.model import CheckpointHeader, ModelConfig
from nimbus.optim import TrainConfig


@pytest.mark.parametrize("doc,field", [case[1:] for case in BAD_CONFIGS],
                         ids=[case[0] for case in BAD_CONFIGS])
def test_mistyped_field_is_config_error_naming_it(doc, field):
    with pytest.raises(ConfigError, match=field):
        RunConfig.from_dict(doc)


@pytest.mark.parametrize("section,cls", [("model", ModelConfig), ("train", TrainConfig),
                                         ("eval", EvalConfig), ("data", DataConfig)])
def test_every_section_rejects_unknown_keys_and_non_objects(section, cls):
    with pytest.raises(ConfigError, match=f"unknown {section} config keys"):
        cls.from_dict({"no_such_key": 1})
    with pytest.raises(ConfigError, match=f"{section} config must be an object"):
        RunConfig.from_dict({section: [1]})


def test_well_typed_document_roundtrips():
    doc = {"model": {"stage_widths": [4, 8, 16, 32, 64], "cbam_reduction": 4},
           "train": {"lr": 1, "shuffle": False, "loss": "mse"},
           "eval": {"threshold": 0.5},
           "data": {"manifest": None, "filter_threshold": 0.1, "drop_bands": ["VIS006"]}}
    config = RunConfig.from_dict(doc)
    assert config.model.stage_widths == (4, 8, 16, 32, 64)
    assert config.data.drop_bands == ("VIS006",)
    assert config.train.lr == 1 and config.train.shuffle is False
    assert RunConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config


def test_direct_construction_is_checked_too():
    with pytest.raises(ConfigError, match="train.lr"):
        TrainConfig(lr="abc")
    with pytest.raises(ConfigError, match="model.in_channels"):
        ModelConfig(in_channels=3.0)
    assert DataConfig(drop_bands=["VIS006"]).drop_bands == ("VIS006",)
    assert type(ModelConfig(stage_widths=[np.int64(w) for w in (4, 8, 16, 32, 64)],
                            cbam_reduction=4).stage_widths[0]) is int


@pytest.mark.parametrize("doc,field", [
    ({"train": {"shuffle": 1}}, "train.shuffle"),
    ({"train": {"lr": float("nan")}}, "train.lr"),
    ({"data": {"drop_bands": ["VIS006", 3]}}, "data.drop_bands[1]"),
    ({"data": {"manifest": 7}}, "data.manifest"),
    ({"model": {"stage_widths": [4, 8, 16, 32.5, 64]}}, "model.stage_widths[3]"),
])
def test_other_mistyped_fields(doc, field):
    with pytest.raises(ConfigError, match=field.replace("[", r"\[").replace("]", r"\]")):
        RunConfig.from_dict(doc)


@pytest.mark.parametrize("root", [None, 5, "abc", [], [{"model": {}}]])
def test_non_object_root_is_config_error(root):
    with pytest.raises(ConfigError, match="config root"):
        RunConfig.from_dict(root)


@pytest.mark.parametrize("raw", [case[1] for case in UNDECODABLE_JSON],
                         ids=[case[0] for case in UNDECODABLE_JSON])
def test_undecodable_file_is_config_error(tmp_path, raw):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    with pytest.raises(ConfigError, match="invalid JSON"):
        RunConfig.from_file(str(path))


@pytest.mark.parametrize("key,value", [("drop_bands", ["IR134"]), ("prediction_kind", "rate")])
def test_eval_keys_that_checkpoints_record_are_unknown(key, value):
    """A checkpoint records the bands its model reads and the loss it was
    trained with, so the eval section has no copy of either."""
    assert set(EvalConfig().to_dict()) == {"threshold", "prob_threshold", "batch_size"}
    with pytest.raises(ConfigError, match=rf"unknown eval config keys: \['{key}'\]"):
        RunConfig.from_dict({"data": {"drop_bands": ["VIS006"]}, "eval": {key: value}})


def test_nested_section_is_taken_as_an_instance_or_an_object():
    model = ModelConfig(cbam_reduction=4)
    assert RunConfig(model=model).model is model
    assert RunConfig(model={"cbam_reduction": 4}) == RunConfig(model=model)
    with pytest.raises(ConfigError, match="model.cbam_reduction"):
        RunConfig(model={"cbam_reduction": "4"})
    with pytest.raises(ConfigError, match="unknown model config keys"):
        RunConfig(train=TrainConfig(), model={"no_such_key": 1})
    with pytest.raises(ConfigError, match="unknown config sections"):
        RunConfig.from_dict({"synth": {}})


def test_missing_required_key_raises_the_sections_error_naming_it():
    with pytest.raises(DataError, match=r"missing geometry keys: \['crop'\]"):
        Geometry.from_dict({"t_in": 4, "t_out": 16, "h_raw": 32})


def _entries(n):
    return [{"name": f"e{i}", "dims": [1], "offset": 4 * i, "length": 4} for i in range(n)]


def test_error_inside_a_tuple_of_sections_names_the_index():
    entries = _entries(8)
    entries[7]["offset"] = "28"
    with pytest.raises(FormatError, match=r"^entries\[7\]\.offset must be an integer"):
        CheckpointHeader.from_dict({"config": {}, "entries": entries})


def test_integral_floats_pass_as_integers_only_where_the_section_allows():
    geometry = Geometry.from_dict({"t_in": 4.0, "t_out": 16, "h_raw": 32, "crop": 16})
    assert type(geometry.t_in) is int and geometry.t_in == 4
    with pytest.raises(ConfigError, match="model.in_channels"):
        ModelConfig.from_dict({"in_channels": 36.0})
    entries = _entries(1)
    entries[0]["length"] = 4.0
    with pytest.raises(FormatError, match=r"entries\[0\]\.length"):
        CheckpointHeader.from_dict({"config": {}, "entries": entries})


SECTIONS = [
    ModelConfig(in_channels=11, out_channels=1, stage_widths=(4, 8, 16, 32, 64), cbam_reduction=2),
    TrainConfig(lr=0.5, shuffle=False, loss="mse", seed=3),
    EvalConfig(threshold=0.5, prob_threshold=0.25, batch_size=2),
    DataConfig(manifest="data/manifest.json", filter_threshold=0.1, drop_bands=("IR134",)),
    RunConfig(model=ModelConfig(cbam_reduction=4), data=DataConfig(drop_bands=("IR134",))),
    SynthConfig(bands=("IR016", "VIS006"), velocity=(0.5, -1.0), blob_count=(0, 3),
                years=(2019, 2020), regions=("north", "south")),
]


@pytest.mark.parametrize("section", SECTIONS, ids=lambda s: type(s).__name__)
def test_every_section_roundtrips_through_its_json_echo(section):
    echo = json.loads(json.dumps(section.to_dict()))
    assert type(section).from_dict(echo) == section
    assert list(echo) == [f.name for f in dataclasses.fields(section)]


@pytest.mark.parametrize("kwargs,field", [
    ({"grid": "64"}, "synth.grid"),
    ({"n_train": 2.5}, "synth.n_train"),
    ({"bands": "VIS006"}, "synth.bands"),
    ({"bands": ["VIS006", 3]}, r"synth\.bands\[1\]"),
    ({"velocity": "east"}, "synth.velocity"),
    ({"blob_count": [1.5, 2]}, r"synth\.blob_count\[0\]"),
    ({"noise_sigma": float("inf")}, "synth.noise_sigma"),
    ({"v_max": None}, "synth.v_max"),
    ({"seed": True}, "synth.seed"),
    ({"years": ["2019"]}, r"synth\.years\[0\]"),
])
def test_mistyped_synth_field_is_config_error_naming_it(kwargs, field):
    with pytest.raises(ConfigError, match=field):
        SynthConfig(**kwargs)
    with pytest.raises(ConfigError, match=field):
        SynthConfig.from_dict(kwargs)


def test_synth_config_rejects_unknown_keys_and_non_objects():
    with pytest.raises(ConfigError, match="unknown synth config keys"):
        SynthConfig.from_dict({"no_such_key": 1})
    with pytest.raises(ConfigError, match="synth config must be an object"):
        SynthConfig.from_dict([1])


def test_readme_default_config_block_matches_the_defaults():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("The full default configuration is:\n\n```json\n", 1)[1]
    block = block.split("```", 1)[0]
    assert json.dumps(json.loads(block)) == json.dumps(RunConfig().to_dict())

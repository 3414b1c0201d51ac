"""Run configuration: one typed schema for the four sections."""

import json

import numpy as np
import pytest

from _corrupt import BAD_CONFIGS, UNDECODABLE_JSON
from nimbus.config import DataConfig, RunConfig
from nimbus.errors import ConfigError
from nimbus.metrics import EvalConfig
from nimbus.model import ModelConfig
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
           "eval": {"drop_bands": ["VIS006"], "threshold": 0.5},
           "data": {"manifest": None, "filter_threshold": 0.1, "drop_bands": []}}
    config = RunConfig.from_dict(doc)
    assert config.model.stage_widths == (4, 8, 16, 32, 64)
    assert config.eval.drop_bands == ("VIS006",)
    assert config.train.lr == 1 and config.train.shuffle is False
    assert RunConfig.from_dict(json.loads(config.to_json())) == config


def test_direct_construction_is_checked_too():
    with pytest.raises(ConfigError, match="train.lr"):
        TrainConfig(lr="abc")
    with pytest.raises(ConfigError, match="model.in_channels"):
        ModelConfig(in_channels=3.0)
    assert EvalConfig(drop_bands=["VIS006"]).drop_bands == ("VIS006",)
    assert type(ModelConfig(stage_widths=[np.int64(w) for w in (4, 8, 16, 32, 64)])
                .stage_widths[0]) is int


@pytest.mark.parametrize("doc,field", [
    ({"train": {"shuffle": 1}}, "train.shuffle"),
    ({"train": {"lr": float("nan")}}, "train.lr"),
    ({"eval": {"drop_bands": ["VIS006", 3]}}, "eval.drop_bands[1]"),
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


def test_differing_drop_lists_are_refused():
    """Checkpoints do not record their bands, so an eval drop list other
    than the training one would feed the model the wrong bands."""
    with pytest.raises(ConfigError, match=r"eval\.drop_bands .* data\.drop_bands"):
        RunConfig.from_dict({"data": {"drop_bands": ["VIS006"]},
                             "eval": {"drop_bands": ["IR134"]}})
    for data, scored in ((["VIS006", "IR134"], ["IR134", "VIS006"]), (["VIS006"], []),
                         ([], ["IR134"])):
        config = RunConfig.from_dict({"data": {"drop_bands": data},
                                      "eval": {"drop_bands": scored}})
        assert config.eval.drop_bands == tuple(scored)

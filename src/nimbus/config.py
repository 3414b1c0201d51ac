"""Run-level configuration: one JSON document with model, train, data,
and eval sections.

Every field is optional and falls back to the package defaults; unknown
keys at any level are rejected so typos fail loudly.  The resolved
document is echoed into the artifacts a run writes, making results
self-describing.
"""

from __future__ import annotations

import dataclasses
import json

from .errors import ConfigError
from .metrics import EvalConfig
from .model import ModelConfig
from .optim import TrainConfig
from .schema import Section


@dataclasses.dataclass(frozen=True)
class DataConfig(Section):
    manifest: str | None = None
    filter_threshold: float | None = None   # None: use the manifest's value
    drop_bands: tuple[str, ...] = ()

    section = "data"

    def __post_init__(self):
        super().__post_init__()
        if self.filter_threshold is not None and self.filter_threshold < 0:
            raise ConfigError("filter_threshold must be >= 0")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    model: ModelConfig = ModelConfig()
    train: TrainConfig = TrainConfig()
    eval: EvalConfig = EvalConfig()
    data: DataConfig = DataConfig()

    def __post_init__(self):
        # Checkpoints do not record bands: score a model on the bands it learnt from.
        train, scored = set(self.data.drop_bands), set(self.eval.drop_bands)
        if train and scored and train != scored:
            raise ConfigError(f"eval.drop_bands {sorted(scored)} differs from "
                              f"data.drop_bands {sorted(train)}")

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ConfigError(f"config root must be a JSON object, got {type(d).__name__}")
        sections = {"model": ModelConfig, "train": TrainConfig,
                    "eval": EvalConfig, "data": DataConfig}
        unknown = set(d) - set(sections)
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        kwargs = {}
        for name, section_cls in sections.items():
            if name in d:
                kwargs[name] = section_cls.from_dict(d[name])
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path):
        with open(path, encoding="utf-8") as fh:
            try:
                d = json.load(fh)
            except (ValueError, RecursionError) as exc:   # bad UTF-8, syntax, huge ints, deep nesting
                raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        return cls.from_dict(d)

    def to_json_dict(self):
        return {
            "model": self.model.to_dict(),
            "train": dataclasses.asdict(self.train),
            "eval": {**dataclasses.asdict(self.eval),
                     "drop_bands": list(self.eval.drop_bands)},
            "data": {**dataclasses.asdict(self.data),
                     "drop_bands": list(self.data.drop_bands)},
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

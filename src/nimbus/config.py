"""Run-level configuration: one JSON document with model, train, data,
and eval sections.

The run config is itself a schema.Section whose fields are the four
sections, so one `from_dict` checks the whole document: every field is
optional and falls back to the package defaults, and a non-object or an
unknown key at any level is rejected so typos fail loudly.  `to_dict`
gives the resolved document, which is echoed into the artifacts a run
writes, making results self-describing.
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
class RunConfig(Section):
    model: ModelConfig = ModelConfig()
    train: TrainConfig = TrainConfig()
    eval: EvalConfig = EvalConfig()
    data: DataConfig = DataConfig()

    section = "config"
    what, keys = "config root", "config sections"

    @classmethod
    def from_file(cls, path):
        with open(path, encoding="utf-8") as fh:
            try:
                d = json.load(fh)
            except (ValueError, RecursionError) as exc:   # bad UTF-8, syntax, huge ints, deep nesting
                raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        return cls.from_dict(d)

"""Typed config sections, built directly or from JSON objects.

Each config section is a frozen dataclass whose field annotations declare
the values it accepts: an integer (never a bool), a finite number, a bool,
a string, a list or tuple of one of these (kept as a tuple), another
section, or `X | None`.  Sections nest: a field annotated with a section
keeps an instance of it and builds one from a JSON object with that
section's `from_dict`, so the run config is the section that holds the
other four.  Building a section checks every field against its annotation
and raises a ConfigError naming the section and the field; `from_dict`
also rejects non-objects and unknown keys.  Range checks stay in each
section's __post_init__, after the call to Section.__post_init__.
`to_dict` gives the JSON form every config echo writes: the fields in
declaration order, tuples as lists and nested sections as dicts.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import types
import typing

from .errors import ConfigError


def is_int(value):
    """True for an integer that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value):
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


_KINDS = {
    int: ("an integer", is_int),
    float: ("a finite number", _is_number),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
}


def _typed(name, kind, value):
    """Return value if it has the annotated kind, else raise ConfigError."""
    if typing.get_origin(kind) in (typing.Union, types.UnionType):
        if value is None:
            return None
        (kind,) = [k for k in typing.get_args(kind) if k is not type(None)]
    if isinstance(kind, type) and issubclass(kind, Section):
        return value if isinstance(value, kind) else kind.from_dict(value)
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        item = typing.get_args(kind)[0]
        return tuple(_typed(f"{name}[{i}]", item, v) for i, v in enumerate(value))
    what, ok = _KINDS[kind]
    if not ok(value):
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    return int(value) if kind is int else value


def _plain(value):
    if isinstance(value, Section):
        return value.to_dict()
    return list(value) if isinstance(value, tuple) else value


class Section:
    """Base of the config sections; subclasses are frozen dataclasses that
    set `section` to the name their errors give them, for a section of the
    run config its key there."""

    section: typing.ClassVar[str]
    # How errors name a document of this kind and its keys, if not as
    # "<section> config" and "<section> config keys".
    what: typing.ClassVar[str | None] = None
    keys: typing.ClassVar[str | None] = None

    def __post_init__(self):
        kinds = typing.get_type_hints(type(self))
        for field in dataclasses.fields(self):
            value = _typed(f"{self.section}.{field.name}", kinds[field.name],
                           getattr(self, field.name))
            object.__setattr__(self, field.name, value)

    @classmethod
    def from_dict(cls, d):
        what = cls.what or f"{cls.section} config"
        if not isinstance(d, dict):
            raise ConfigError(f"{what} must be an object, got {type(d).__name__}")
        unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown {cls.keys or what + ' keys'}: {sorted(unknown)}")
        return cls(**d)

    def to_dict(self):
        return {f.name: _plain(getattr(self, f.name)) for f in dataclasses.fields(self)}

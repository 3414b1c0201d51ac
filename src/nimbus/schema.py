"""Typed sections of the JSON documents nimbus reads: configs, manifests
and checkpoint headers, built directly or from JSON objects.

Each section is a frozen dataclass whose field annotations declare the
values it accepts: an integer (never a bool), a finite number, a bool, a
string, a list or tuple of one of these (kept as a tuple), an object
mapping names to one of these, another section, or `X | None`.  A field
without a default is required.  Building a section checks every field
and raises the section's `error` class naming the field by its path, as
in `train.lr`, `geometry.t_out` or `samples[3].year`; `from_dict` also
rejects non-objects, unknown keys and missing required keys.  Range
checks stay in each section's __post_init__, after the call to
Section.__post_init__.  `to_dict` gives the JSON form every config echo
and document writer uses: the fields in declaration order, tuples as
lists and nested sections as objects.
"""

from __future__ import annotations

import dataclasses
import functools
import numbers
import sys
import types
import typing

from .errors import ConfigError


_KINDS = {
    int: ("an integer", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)),
    # abs(v) <= max is False for NaN, infinities and integers past the float range.
    float: ("a finite number", lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
}


def _typed(owner, name, kind, value, item=False):
    """value if it has the annotated kind, else raise owner.error naming it.
    A section that is an item of a list or object is named by its path."""
    if type(value) is kind and kind is not float:   # already typed; a float may be NaN
        return value
    if typing.get_origin(kind) in (typing.Union, types.UnionType):
        if value is None:
            return None
        (kind,) = [k for k in typing.get_args(kind) if k is not type(None)]
    if isinstance(kind, type) and issubclass(kind, Section):
        return value if isinstance(value, kind) else kind.from_dict(value, name if item else None)
    origin = typing.get_origin(kind)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise owner.error(f"{name} must be a list, got {value!r}")
        kind = typing.get_args(kind)[0]
        return tuple(_typed(owner, f"{name}[{i}]", kind, v, True) for i, v in enumerate(value))
    if origin is dict:
        if not isinstance(value, dict):
            raise owner.error(f"{name} must be an object, got {value!r}")
        kind = typing.get_args(kind)[1]
        return {k: _typed(owner, f"{name}.{k}", kind, v, True) for k, v in value.items()}
    what, ok = _KINDS[kind]
    if ok(value) or (kind is int and owner.integral_floats
                     and isinstance(value, float) and value.is_integer()):
        return int(value) if kind is int else value
    raise owner.error(f"{name} must be {what}, got {value!r}")


@functools.cache
def _fields(cls):
    """(annotation by field name, required field names) of a section class.
    Resolving the annotations costs most of a section's build, so it runs
    once per class."""
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    return ({f.name: hints[f.name] for f in fields},
            tuple(f.name for f in fields
                  if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING))


def _plain(value):
    if isinstance(value, Section):
        return value.to_dict()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


class Section:
    """Base of the document sections; subclasses are frozen dataclasses
    that set `section` to the prefix their field errors carry, for a
    section of the run config its key there, and "" at a document's root."""

    section: typing.ClassVar[str]
    # How errors name a document of this kind and its keys, if not as
    # "<section> config" and "<section> config keys".
    what: typing.ClassVar[str | None] = None
    keys: typing.ClassVar[str | None] = None
    # The NimbusError subclass every error of this section is raised as.
    error: typing.ClassVar[type] = ConfigError
    # Whether an integral float such as 4.0 passes as the integer 4.
    integral_floats: typing.ClassVar[bool] = False

    def __post_init__(self):
        for name, kind in _fields(type(self))[0].items():
            path = f"{self.section}.{name}" if self.section else name
            object.__setattr__(self, name, _typed(self, path, kind, getattr(self, name)))

    @classmethod
    def from_dict(cls, d, path=None, **init):
        """Build the section from a JSON object.  path names the object in
        errors when it is an item of a list or object field, e.g. samples[3];
        init passes init-only arguments, which are not part of the document."""
        what = path or cls.what or f"{cls.section} config"
        if not isinstance(d, dict):
            raise cls.error(f"{what} must be an object, got {type(d).__name__}")
        kinds, required = _fields(cls)
        keys = cls.keys or f"{what} keys"
        unknown = d.keys() - kinds.keys()
        if unknown:
            raise cls.error(f"unknown {keys}: {sorted(unknown)}")
        missing = [k for k in required if k not in d]
        if missing:
            raise cls.error(f"missing {keys}: {missing}")
        try:
            return cls(**d, **init)
        except cls.error:
            if path is not None:   # name a mistyped field by its place in the document
                for k, v in d.items():
                    _typed(cls, f"{path}.{k}", kinds[k], v)
            raise

    def to_dict(self):
        return {name: _plain(getattr(self, name)) for name in _fields(type(self))[0]}

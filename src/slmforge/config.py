"""The one typed reader of flat records from JSON (``--config`` files, the
model configs in checkpoints, and manifest and SFT rows) and the one hash of
a resolved configuration that artifacts embed."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import typing

from .errors import ConfigError

# JSON name and exact JSON value types that fit a field of each annotated type
_JSON_TYPES = {
    int: ("integer", (int,)),
    float: ("number", (int, float)),
    str: ("string", (str,)),
    tuple: ("array", (list,)),
    type(None): ("null", (type(None),)),
}

# evaluated once per class: the JSONL readers check every row
_type_hints = functools.cache(typing.get_type_hints)


def config_fields(cls, obj, keys: dict | None = None) -> dict:
    """{field: value} of dataclass ``cls`` from the JSON object ``obj``, whose
    keys ``keys`` maps to fields (default: the field names). Types are exact:
    an int field takes an int but not a bool, a float field an int or a
    finite float (``json.loads`` takes NaN and Infinity), a tuple field a
    list, and null only a field whose annotation allows None; values are
    stored as given. A non-object, an unknown key or a misfit is a
    ConfigError naming the key and the field."""
    if keys is None:
        keys = {f.name: f.name for f in dataclasses.fields(cls)}
    if not isinstance(obj, dict):
        raise ConfigError(f"{cls.__name__} must be a JSON object, got {json.dumps(obj)}")
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ConfigError(f"unknown key(s) {', '.join(map(repr, unknown))} "
                          f"for {cls.__name__}")
    hints = _type_hints(cls)
    out = {}
    for key, value in obj.items():
        name = keys[key]
        hint = hints[name]
        kinds = [_JSON_TYPES[t] for t in typing.get_args(hint) or (hint,)]
        if not any(type(value) in types for _, types in kinds):
            expected = " or ".join(json_name for json_name, _ in kinds)
            raise ConfigError(f"{key!r} must be {expected}, got {json.dumps(value)} "
                              f"({cls.__name__}.{name})")
        if type(value) is float and not math.isfinite(value):
            raise ConfigError(f"{key!r} must be a finite number, got {json.dumps(value)} "
                              f"({cls.__name__}.{name})")
        out[name] = value
    return out


def read_config(cls, obj):
    """``cls`` from the JSON object ``obj``; an absent field takes its default."""
    given = config_fields(cls, obj)
    missing = [f.name for f in dataclasses.fields(cls) if f.name not in given
               and f.default is f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"missing field(s) {', '.join(missing)}")
    return cls(**given)


def require_at_least(cfg, **lows) -> None:
    """A ConfigError naming the first field of ``cfg`` that is below its
    bound in ``lows``; a None field has no bound."""
    for name, low in lows.items():
        value = getattr(cfg, name)
        if value is not None and value < low:
            raise ConfigError(f"{name} must be >= {low}, got {value}")


def config_hash(cfg: dict) -> str:
    """First 16 hex digits of the sha256 of ``cfg`` as sorted-key JSON."""
    blob = json.dumps(cfg, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]

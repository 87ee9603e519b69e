"""Typed dataclass configs from flat `key = value` text.

One reader (`parse_config_text`) and one schema serve both the run
configuration and the WCNN1 checkpoint config block.  A config dataclass is
its own schema: each field's key derives from its name, and each value is
parsed by the type of the field's default (bool, tuple of ints, int, float,
str).  An absent or empty value keeps the default, so every default is written
once, in the dataclass.  A value that does not parse, or a float that is NaN
or infinite, raises `ConfigError`.
"""

from __future__ import annotations

import math
from dataclasses import fields

_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}
_EXPECTED = {bool: "a boolean", tuple: "comma-separated integers", int: "an integer",
             float: "a finite number"}


class ConfigError(ValueError):
    pass


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """`key = value` lines to a dict; '#' starts a comment, blank lines are skipped."""
    cfg: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in cfg:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        cfg[key] = value
    return cfg


def get_value(items: dict[str, str], key: str, default):
    """The value of `key` parsed like `default`; absent or empty gives `default`."""
    raw = items.get(key, "")
    if not raw:
        return default
    try:
        if isinstance(default, bool):
            return _BOOLS[raw.lower()]
        if isinstance(default, tuple):
            return tuple(int(v) for v in raw.split(",") if v.strip())
        value = type(default)(raw)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(raw)
        return value
    except (KeyError, ValueError):
        raise ConfigError(f"{key}: expected {_EXPECTED[type(default)]}, got {raw!r}") from None


def field_keys(cls, prefix: str, **renames: str | None) -> dict[str, str]:
    """Field name -> key: `prefix + name`, unless renamed; a field renamed to None has no key."""
    keys = {f.name: prefix + f.name for f in fields(cls)}
    keys.update(renames)
    return {name: key for name, key in keys.items() if key is not None}


def from_items(cls, items: dict[str, str], keys: dict[str, str]):
    """An instance of dataclass `cls` with each keyed field read from `items`."""
    defaults = {f.name: f.default for f in fields(cls)}
    return cls(**{name: get_value(items, key, defaults[name]) for name, key in keys.items()})


def to_items(config) -> list[tuple[str, str]]:
    """Sorted (field name, text) pairs of a dataclass instance; `from_items` reads them back."""
    items = []
    for f in fields(config):
        v = getattr(config, f.name)
        items.append((f.name, ",".join(map(str, v)) if isinstance(v, tuple) else str(v)))
    return sorted(items)

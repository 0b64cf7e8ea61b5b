"""Key-value config files and construction of typed configs from them.

Config files are plain text: one ``key = value`` per line, ``#`` comments,
dotted keys for sections (``classifier.epochs = 15``). Comma-separated
values parse to tuples. A section key sets the field of the same name in
that section's settings class, converted by the type of the field's
default, and a top-level key sets one ``PipelineConfig`` field; there is no
other mapping. Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, fields
from pathlib import Path

from .errors import ConfigError
from .pipeline import PipelineConfig


def _parse_scalar(raw: str):
    text = raw.strip()
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    if low in ("none", "null", ""):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_kv_text(text: str) -> dict:
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {lineno} is not 'key = value': {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"config line {lineno} has an empty key")
        if key in values:
            raise ConfigError(f"duplicate config key {key!r}")
        raw = raw.strip()
        if "," in raw:
            values[key] = tuple(_parse_scalar(p) for p in raw.split(","))
        else:
            values[key] = _parse_scalar(raw)
    return values


def parse_kv_file(path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_kv_text(path.read_text())


def _as_float(value, key: str) -> float:
    # NaN passes every range check (each comparison with it is False)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"config key {key!r} must be a finite number, got {value!r}")
    return float(value)


def _as_int(value, key: str) -> int:
    """An integer value; an integral float such as 3.0 counts, 2.5 does not."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
    return value


def _as_path(value, key: str) -> Path:
    if isinstance(value, tuple):
        raise ConfigError(f"config key {key!r} must be one path, got {value!r}")
    return Path(str(value))


def _as_int_tuple(value, key: str) -> tuple[int, ...]:
    return tuple(_as_int(v, key) for v in (value if isinstance(value, tuple) else (value,)))


# conversion of a section key's value, by the type of its field's default
_CONVERTERS = {int: _as_int, float: _as_float}


def _fields(cls, section: str, mapping: dict) -> dict:
    """Keyword arguments of ``cls`` from the mapping's keys of one section:
    the key ``section.name`` sets the field ``name``. An empty or ``none``
    value keeps the field's default, as it does for a top-level key."""
    defaults = {f.name: f.default for f in fields(cls)}
    kwargs = {}
    for key, value in mapping.items():
        head, _, name = key.partition(".")
        if head == section:
            convert = _CONVERTERS.get(type(defaults.get(name)))
            if convert is None:
                raise ConfigError(f"unknown config key {key!r}")
            if value is not None:
                kwargs[name] = convert(value, key)
    return kwargs


# top-level key -> (PipelineConfig field, conversion); an absent or empty
# value keeps the field's default
_TOP_LEVEL_KEYS = {
    "seed": ("seed", _as_int),
    "rounds": ("rounds", _as_int),
    "corpus": ("corpus_path", _as_path),
    "k_grid": ("k_grid", _as_int_tuple),
    "fixed_k": ("fixed_k", _as_int),
}
# section -> its settings class: the PipelineConfig fields built by a
# default factory, in field order
_SECTIONS = {f.name: f.default_factory for f in fields(PipelineConfig)
             if f.default_factory is not MISSING}


def build_pipeline_config(
    mapping: dict,
    output_dir,
    seed_override: int | None = None,
) -> PipelineConfig:
    """A PipelineConfig whose defaults are overridden by the mapping's keys.

    Every default lives in the config dataclasses; this function only
    converts and places the keys that the mapping sets.
    """
    for key in mapping:
        if key not in _TOP_LEVEL_KEYS and key.split(".", 1)[0] not in _SECTIONS:
            raise ConfigError(f"unknown config key {key!r}")

    kwargs = {
        name: convert(mapping[key], key)
        for key, (name, convert) in _TOP_LEVEL_KEYS.items()
        if mapping.get(key) is not None
    }
    if seed_override is not None:
        kwargs["seed"] = int(seed_override)
    for name, cls in _SECTIONS.items():
        kwargs[name] = cls(**_fields(cls, name, mapping))
    return PipelineConfig(output_dir=Path(output_dir), **kwargs)

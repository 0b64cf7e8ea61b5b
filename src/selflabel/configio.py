"""Key-value config files and construction of typed configs from them.

Config files are plain text: one ``key = value`` per line, ``#`` comments,
dotted keys for sections (``classifier.epochs = 40``). Comma-separated
values parse to tuples. Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from .errors import ConfigError
from .pipeline import PipelineConfig
from .synthdata import SynthConfig


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


def _section(mapping: dict, prefix: str) -> dict:
    out = {}
    for key, value in mapping.items():
        if key.startswith(prefix + "."):
            out[key[len(prefix) + 1 :]] = value
    return out


def _override(base, kwargs: dict, what: str):
    """``base`` with the given fields replaced; defaults stay with the dataclass."""
    try:
        return replace(base, **kwargs)
    except TypeError as exc:
        raise ConfigError(f"invalid {what} settings: {exc}") from exc


def _as_float(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {key!r} must be a number, got {value!r}")
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


def _noise_range(kwargs: dict, low_key: str, high_key: str, what: str):
    """Pop a (low, high) pair of keys; None when neither is set."""
    low = kwargs.pop(low_key, None)
    high = kwargs.pop(high_key, None)
    if (low is None) != (high is None):
        raise ConfigError(f"set both {what}.{low_key} and {what}.{high_key}")
    if low is None:
        return None
    return _as_float(low, f"{what}.{low_key}"), _as_float(high, f"{what}.{high_key}")


def build_synth_config(mapping: dict, seed_override: int | None = None) -> SynthConfig:
    kwargs = _section(mapping, "synth")
    noise = _noise_range(kwargs, "augmentation_noise_low", "augmentation_noise_high", "synth")
    if noise is not None:
        kwargs["augmentation_noise_range"] = noise
    if seed_override is not None:
        kwargs["seed"] = seed_override
    return _override(SynthConfig(), kwargs, "synth")


# top-level key -> (PipelineConfig field, conversion); an absent or empty
# value keeps the field's default
_TOP_LEVEL_KEYS = {
    "seed": ("seed", _as_int),
    "rounds": ("rounds", _as_int),
    "corpus": ("corpus_path", _as_path),
    "k_grid": ("k_grid", _as_int_tuple),
    "fixed_k": ("fixed_k", _as_int),
}
_SECTIONS = ("synth", "contrastive", "classifier", "cluster", "eval", "dcf")
# TrainConfig fields that only the other training loop reads
_UNREAD_KEYS = ("contrastive.epsilon_smooth", "classifier.temperature", "classifier.denominator")


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
        head = key.split(".", 1)[0]
        if key not in _TOP_LEVEL_KEYS and head not in _SECTIONS:
            raise ConfigError(f"unknown config key {key!r}")
        if key in _UNREAD_KEYS:
            raise ConfigError(f"config key {key!r} is not read by any training loop")

    base = PipelineConfig(output_dir=Path(output_dir))
    kwargs = {
        name: convert(mapping[key], key)
        for key, (name, convert) in _TOP_LEVEL_KEYS.items()
        if mapping.get(key) is not None
    }
    if seed_override is not None:
        kwargs["seed"] = int(seed_override)
    classifier = _section(mapping, "classifier")
    aug_range = _noise_range(classifier, "aug_low", "aug_high", "classifier")
    if aug_range is not None:
        kwargs["classifier_augmentation"] = aug_range
    aug_prob = classifier.pop("aug_prob", None)
    if aug_prob is not None:
        kwargs["classifier_augmentation_prob"] = _as_float(aug_prob, "classifier.aug_prob")
    kwargs["synth"] = build_synth_config(mapping)
    kwargs["classifier"] = _override(base.classifier, classifier, "classifier")
    for name in ("contrastive", "cluster", "eval", "dcf"):
        kwargs[name] = _override(getattr(base, name), _section(mapping, name), name)
    return _override(base, kwargs, "pipeline")

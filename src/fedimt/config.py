"""Strict flat key=value experiment configuration.

One `key = value` pair per line, `#` comments. Unknown keys, duplicate keys,
and type errors are rejected with the offending line. Each key's type and
default are declared once, as a field of FlConfig or ExperimentConfig, as a
parameter of make_synthetic_spec (the generator keys) or in _DATA_SOURCE_KEYS,
and SCHEMA is derived from them.
Exactly one data source (synthetic generator or IDX files) must be
configured, and referenced files must exist at parse time.
"""

from __future__ import annotations

import inspect
import math
import os
from dataclasses import MISSING, asdict, dataclass, fields
from typing import get_args, get_origin, get_type_hints

from .data import PRESETS, make_synthetic_spec
from .federation import FlConfig


class ConfigError(ValueError):
    pass


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


_PARSERS = {int: int, float: _parse_float, str: str}


def _parser_for(hint):
    """int, float and str parse as themselves, X | None as X, and list[int]
    or tuple[int, ...] as a comma list."""
    if type(None) in get_args(hint):
        (hint,) = (arg for arg in get_args(hint) if arg is not type(None))
    kind = get_origin(hint)
    if kind in (list, tuple):
        return lambda text: kind(int(part.strip()) for part in text.split(",") if part.strip())
    return _PARSERS[hint]


# The default of a key that every config must set.
_REQUIRED = object()
# The data-source keys are not dataclass fields: `data` picks the source, and
# `preset` fills in generator keys that the config leaves out.
_DATA_SOURCE_KEYS: dict[str, tuple] = {
    "data": (str, _REQUIRED),  # synthetic | idx
    "preset": (str, None),  # tenclass | ford | har
}
# The generator keys are make_synthetic_spec's parameters but seed; together
# they become ExperimentConfig.synthetic. A synthetic config, or its preset,
# must set each parameter that has no default.
_GENERATOR = dict(inspect.signature(make_synthetic_spec, eval_str=True).parameters)
del _GENERATOR["seed"]
_GENERATOR_KEYS = {
    key: (p.annotation, None if p.default is p.empty else p.default) for key, p in _GENERATOR.items()
}
_IDX_KEYS = ("idx_images", "idx_labels", "idx_test_images", "idx_test_labels")
# ExperimentConfig fields that no config key fills by name.
_NOT_KEYS = ("fl", "data_source", "synthetic", "skip_eval")


@dataclass
class ExperimentConfig:
    fl: FlConfig
    data_source: str  # the `data` key
    synthetic: dict | None = None  # the generator keys when data = synthetic
    idx_images: str | None = None
    idx_labels: str | None = None
    idx_test_images: str | None = None
    idx_test_labels: str | None = None
    aux_idx_images: str | None = None  # external probe data instead of resampling
    aux_idx_labels: str | None = None
    seed: int = 0
    seeds: list[int] | None = None
    csv_path: str | None = None
    json_path: str | None = None
    shards_per_client: int = 3
    aux_per_class: int | None = None  # None: 4 * fl.batch_size
    test_fraction: float = 0.2
    hidden_sizes: tuple[int, ...] = (32,)
    skip_eval: bool = False  # set by `fedimt estimate-only`, not by a config key

    def __post_init__(self) -> None:
        if self.aux_per_class is None:
            self.aux_per_class = 4 * self.fl.batch_size

    def validate(self) -> None:  # the generator keys' rules are SyntheticSpec.validate's
        self.fl.validate()
        if self.data_source not in ("synthetic", "idx"):
            raise ConfigError(f"data must be 'synthetic' or 'idx', got {self.data_source!r}")
        if self.data_source == "synthetic" and self.synthetic is None:
            raise ConfigError("synthetic data source needs classes/feature_dim/class_counts")
        if not 0.0 < self.test_fraction <= 1.0:
            raise ConfigError("test_fraction must be in (0, 1]")
        if self.shards_per_client < 1:
            raise ConfigError("shards_per_client must be >= 1")
        if self.aux_per_class < 1:
            raise ConfigError("aux_per_class must be >= 1")
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ConfigError("hidden_sizes must be positive")
        if (self.aux_idx_images is None) != (self.aux_idx_labels is None):
            raise ConfigError("aux_idx_images and aux_idx_labels must be set together")

    def to_dict(self) -> dict:
        """The report's flat config echo: every parsed key but `preset`, the
        synthetic or the idx keys as the data source has them, and skip_eval."""
        out = asdict(self)
        out.update(out.pop("fl"))
        out["data"] = out.pop("data_source")
        out["hidden_sizes"] = list(self.hidden_sizes)
        synthetic = out.pop("synthetic")
        if self.data_source == "synthetic":
            out.update(synthetic)
            for key in _IDX_KEYS:
                del out[key]
        return out


def _declared_keys(cls) -> dict[str, tuple]:
    hints = get_type_hints(cls)
    return {
        f.name: (hints[f.name], _REQUIRED if f.default is MISSING else f.default)
        for f in fields(cls)
        if f.name not in _NOT_KEYS
    }


# Each config dataclass's keys: name -> (type hint, default).
_DECLARED = {cls: _declared_keys(cls) for cls in (FlConfig, ExperimentConfig)}
# key -> (parser, default), in the order parse_config reports errors.
SCHEMA: dict[str, tuple] = {
    key: (_parser_for(hint), default)
    for declared in (_DATA_SOURCE_KEYS, _GENERATOR_KEYS, *_DECLARED.values())
    for key, (hint, default) in declared.items()
}


def _read_pairs(path: str) -> dict[str, tuple[str, int]]:
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    pairs: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        pairs[key] = (value, lineno)
    return pairs


def parse_config(path: str) -> ExperimentConfig:
    pairs = _read_pairs(path)
    values: dict = {}
    for key, (parser, default) in SCHEMA.items():
        if key not in pairs:
            if default is _REQUIRED:
                raise ConfigError(f"{path}: missing required key {key!r}")
            values[key] = default
            continue
        text, lineno = pairs[key]
        try:
            values[key] = parser(text)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc

    synthetic = None
    if values["data"] == "synthetic":
        if values["preset"] is not None:
            if values["preset"] not in PRESETS:
                lineno = pairs["preset"][1]
                raise ConfigError(
                    f"{path}:{lineno}: unknown preset {values['preset']!r} "
                    f"(choose from {sorted(PRESETS)})"
                )
            for key, preset_value in PRESETS[values["preset"]].items():
                if key not in pairs:
                    values[key] = preset_value
        missing = [k for k, p in _GENERATOR.items() if p.default is p.empty and values[k] is None]
        if missing:
            raise ConfigError(f"{path}: synthetic data source needs keys {missing}")
        synthetic = {k: values[k] for k in _GENERATOR}
        set_idx = [k for k in _IDX_KEYS if values[k] is not None]
        if set_idx:
            raise ConfigError(f"{path}: synthetic data source conflicts with keys {set_idx}")
    elif values["data"] == "idx":
        missing = [k for k in _IDX_KEYS if values[k] is None]
        if missing:
            raise ConfigError(f"{path}: idx data source needs keys {missing}")

    for key in (*_IDX_KEYS, "aux_idx_images", "aux_idx_labels"):
        if values[key] is not None and not os.path.exists(values[key]):
            lineno = pairs[key][1]
            raise ConfigError(f"{path}:{lineno}: file not found: {values[key]}")

    def build(cls, **rest):
        return cls(**{key: values[key] for key in _DECLARED[cls]}, **rest)

    config = build(
        ExperimentConfig,
        fl=build(FlConfig),
        data_source=values["data"],
        synthetic=synthetic,
    )
    try:
        config.validate()
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if synthetic is not None:
        try:  # the generator's own checks, so each rule keeps one home
            make_synthetic_spec(**synthetic).validate()
        except ValueError as exc:
            # Each message starts with the key it concerns; name that key's line.
            lineno = pairs.get(str(exc).partition(" ")[0], (None, None))[1]
            raise ConfigError(f"{path}:{lineno}: {exc}" if lineno else f"{path}: {exc}") from exc
    return config

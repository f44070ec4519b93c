"""Strict flat key=value experiment configuration.

One `key = value` pair per line, `#` comments. Unknown keys, duplicate keys,
and type errors are rejected with the offending line. Each key's type and
default are declared once, as a field of FlConfig, ExperimentConfig or
SyntheticSpec (the generator keys) or in _DATA_SOURCE_KEYS, and SCHEMA is
derived from them.
Exactly one data source (synthetic generator or IDX files) must be
configured, and referenced files must exist at parse time. Every other rule
is ExperimentConfig.validate's, which draws no data, and parse_config names
the rejected key's line.
"""

from __future__ import annotations

import math
import os
from dataclasses import MISSING, asdict, dataclass, fields
from typing import get_args, get_origin, get_type_hints

from .data import PRESETS, SyntheticSpec
from .federation import FlConfig, derive_seed


class ConfigError(ValueError):
    pass


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def int_list(text: str) -> list[int]:
    """'0,1,2' -> [0, 1, 2]; every comma-separated part must be an integer."""
    return [int(part) for part in text.split(",")]


_PARSERS = {int: int, float: _parse_float, str: str}


def _parser_for(hint):
    """int, float and str parse as themselves, X | None as X, and list[int]
    or tuple[int, ...] as a comma list."""
    if type(None) in get_args(hint):
        (hint,) = (arg for arg in get_args(hint) if arg is not type(None))
    kind = get_origin(hint)
    if kind in (list, tuple):
        return lambda text: kind(int_list(text))
    return _PARSERS[hint]


# The default of a key that every config must set.
_REQUIRED = object()
# The data-source keys are not dataclass fields: `data` picks the source, and
# `preset` fills in generator keys that the config leaves out.
_DATA_SOURCE_KEYS: dict[str, tuple] = {
    "data": (str, _REQUIRED),  # synthetic | idx
    "preset": (str, None),  # tenclass | ford | har
}
_IDX_KEYS = ("idx_images", "idx_labels", "idx_test_images", "idx_test_labels")
# ExperimentConfig fields that no config key fills by name.
_NOT_KEYS = ("fl", "data_source", "synthetic", "skip_eval")


@dataclass
class ExperimentConfig:
    fl: FlConfig
    data_source: str  # the `data` key
    synthetic: SyntheticSpec | None = None  # the generator keys when data = synthetic
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

    def validate(self) -> None:
        """Every rule a config must meet, parsed or built in code. Each
        message starts with the key it concerns."""
        self.fl.validate()
        for key, seeds in (("seed", [self.seed]), ("seeds", self.seeds or [])):
            for seed in seeds:
                derive_seed(seed, key=key)
        if self.data_source not in _SOURCE_KEYS:
            raise ConfigError(f"data must be 'synthetic' or 'idx', got {self.data_source!r}")
        if self.data_source == "synthetic":
            missing = [k for k in _GENERATOR_REQUIRED if getattr(self.synthetic, k, None) is None]
        else:
            missing = [k for k in _IDX_KEYS if getattr(self, k) is None]
        if missing:
            raise ConfigError(f"data = {self.data_source} needs keys {missing}")
        if not 0.0 < self.test_fraction <= 1.0:
            raise ConfigError("test_fraction must be in (0, 1]")
        if self.shards_per_client < 1:
            raise ConfigError("shards_per_client must be >= 1")
        if self.aux_per_class < 1:
            raise ConfigError("aux_per_class must be >= 1")
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ConfigError("hidden_sizes must be positive")
        if (self.aux_idx_images is None) != (self.aux_idx_labels is None):
            given = "aux_idx_labels" if self.aux_idx_images is None else "aux_idx_images"
            raise ConfigError(f"{given} is set alone: aux_idx_images and aux_idx_labels must be set together")
        if self.data_source == "synthetic":
            self.synthetic.validate()
            counts = list(self.synthetic.class_counts)
            # The training split holds class_counts' samples, and
            # shard_partition needs one for every shard.
            n, n_shards = sum(counts), self.fl.num_clients * self.shards_per_client
            if n < n_shards:
                raise ConfigError(
                    f"class_counts hold {n} samples, too few for num_clients x "
                    f"shards_per_client = {n_shards} shards"
                )
            # fedimt draws its auxiliary set from the training split, per class.
            if self.fl.algorithm == "fedimt" and self.aux_idx_images is None and 0 in counts:
                raise ConfigError(
                    f"class_counts give class {counts.index(0)} no samples to draw fedimt's auxiliary set from"
                )

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
_DECLARED = {cls: _declared_keys(cls) for cls in (SyntheticSpec, FlConfig, ExperimentConfig)}
_GENERATOR = _DECLARED[SyntheticSpec]
# A synthetic config, or its preset, must set each generator key without a default.
_GENERATOR_REQUIRED = [key for key, (_, default) in _GENERATOR.items() if default is _REQUIRED]
# The keys that only one data source reads (_build_datasets ignores
# test_fraction for IDX files); a config may not set the other source's.
_SOURCE_KEYS = {"synthetic": ("preset", *_GENERATOR, "test_fraction"), "idx": _IDX_KEYS}
# key -> (parser, default), in the order parse_config reports errors. A
# generator key that the config leaves out is None until its preset fills it.
SCHEMA: dict[str, tuple] = {
    key: (_parser_for(hint), None if default is _REQUIRED and declared is _GENERATOR else default)
    for declared in (_DATA_SOURCE_KEYS, *_DECLARED.values())
    for key, (hint, default) in declared.items()
}


def _read_pairs(path: str) -> dict[str, tuple[str, int]]:
    try:  # an undecodable byte reads as a lone surrogate, which UTF-8 cannot encode
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
            lines = f.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    pairs: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(lines, start=1):
        try:
            raw.encode("utf-8")
        except UnicodeEncodeError:
            raise ConfigError(f"{path}:{lineno}: not UTF-8 text") from None
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


def parse_config(path: str, **overrides) -> ExperimentConfig:
    """The config at path, with overrides (typed values by key) replacing
    the file's values before the gate, so a rule they break is reported
    like one the file breaks."""
    unknown = sorted(set(overrides) - set(SCHEMA))
    if unknown:
        raise TypeError(f"parse_config got unknown keys {unknown}")
    pairs = _read_pairs(path)

    def where(key: str) -> str:
        return f"{path}:{pairs[key][1]}" if key in pairs else path

    values: dict = {}
    for key, (parser, default) in SCHEMA.items():
        if key not in pairs:
            if default is _REQUIRED:
                raise ConfigError(f"{path}: missing required key {key!r}")
            values[key] = default
            continue
        try:
            values[key] = parser(pairs[key][0])
        except ValueError as exc:
            raise ConfigError(f"{where(key)}: bad value for {key!r}: {exc}") from exc

    other = {"synthetic": "idx", "idx": "synthetic"}.get(values["data"])
    stray = [key for key in pairs if key in _SOURCE_KEYS.get(other, ())]
    if stray:
        raise ConfigError(f"{where(stray[0])}: {stray[0]} needs data = {other}")
    preset = values["preset"]
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"{where('preset')}: unknown preset {preset!r} (choose from {sorted(PRESETS)})")
        values.update((key, value) for key, value in PRESETS[preset].items() if key not in pairs)
    values.update(overrides)
    for key in (*_IDX_KEYS, "aux_idx_images", "aux_idx_labels"):
        if values[key] is not None and not os.path.exists(values[key]):
            raise ConfigError(f"{where(key)}: file not found: {values[key]}")

    def build(cls, **rest):
        return cls(**{key: values[key] for key in _DECLARED[cls]}, **rest)

    config = build(
        ExperimentConfig,
        fl=build(FlConfig),
        data_source=values["data"],
        synthetic=build(SyntheticSpec) if values["data"] == "synthetic" else None,
    )
    try:
        config.validate()
    except ValueError as exc:  # each message starts with its key; name that key's line
        raise ConfigError(f"{where(str(exc).partition(' ')[0])}: {exc}") from exc
    return config

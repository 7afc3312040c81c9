"""Experiment configuration: nested JSON schema mirroring the pipeline stages.

Desk-scale defaults keep a full privacy-game run in the minutes range on one
core; ``paper_scale()`` restores the 500-challenge / 64-target protocol sizes
(at a matching cost in compute).
"""

from __future__ import annotations

import json
import math
import sys
import typing
from dataclasses import asdict, dataclass, fields, is_dataclass, replace

from .. import datagen
from ..attack import CHAMELEON, GAP
from ..nncore import TrainConfig
from ..poisoner import PoisonConfig


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 1)."""


def _is_int(value) -> bool:
    """An int and not a bool: JSON's 2.0 or true would pass a range check
    and fail mid-game, where a count becomes a slice bound or a range."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class DatasetConfig:
    kind: str = "gaussian"           # gaussian | binary | csv
    num_classes: int = 10
    dim: int = 16
    n_per_class: int = 40
    class_sep: float = 2.5
    flip_noise: float = 0.025
    csv_path: str | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "binary", "csv"):
            raise ConfigError(f"unknown dataset kind {self.kind!r}")
        if self.kind == "csv" and not self.csv_path:
            raise ConfigError("csv datasets need csv_path")
        if not 2 <= self.num_classes <= 65535:
            raise ConfigError("num_classes must be in [2, 65535], the classes "
                              "uint16 labels hold")
        if self.kind == "gaussian" and self.dim < self.num_classes:
            raise ConfigError("gaussian datasets put one class mean per axis, "
                              "so dim must be >= num_classes")

    @property
    def modality(self) -> str:
        return datagen.BINARY if self.kind == "binary" else datagen.CONTINUOUS


@dataclass(frozen=True)
class NeighborhoodConfig:
    t_nb: float = 0.75
    size: int = 64
    pool_size: int = 256
    noise_scale: float | None = None   # default depends on modality

    def __post_init__(self):
        if not 0 <= self.size <= self.pool_size or self.pool_size < 1:
            raise ConfigError("neighborhood needs size >= 0, pool_size >= 1 "
                              "and size <= pool_size")
        if self.noise_scale is not None and not self.noise_scale > 0:
            raise ConfigError("noise_scale must be > 0")
        if not math.isfinite(self.t_nb):
            raise ConfigError("t_nb must be finite")

    def resolved_noise_scale(self, modality: str) -> float:
        if self.noise_scale is not None:
            return self.noise_scale
        # Binary default follows the source protocol (2.5% flips); the
        # continuous default keeps neighbors close enough that over-poisoning
        # eventually drags them down with the challenge point.
        return 0.025 if modality == datagen.BINARY else 0.15


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig = DatasetConfig()
    hidden_sizes: tuple[int, ...] = (128,)
    train: TrainConfig = TrainConfig(epochs=40, learning_rate=0.1,
                                     weight_decay=1e-4, batch_size=32)
    poison: PoisonConfig = PoisonConfig()
    neighborhood: NeighborhoodConfig = NeighborhoodConfig()
    num_target_models: int = 16
    num_challenge_points: int = 32
    attacks: tuple[str, ...] = (CHAMELEON, GAP)
    master_seed: int = 0
    eval_size: int = 500
    workers: int = 1

    def __post_init__(self):
        if not all(_is_int(width) and width >= 1 for width in self.hidden_sizes):
            raise ConfigError(f"hidden_sizes must be positive ints, got {list(self.hidden_sizes)}")
        if self.num_target_models < 2 or self.num_target_models % 2 != 0:
            raise ConfigError("num_target_models must be even and >= 2")
        for name in ("num_challenge_points", "eval_size", "workers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        unknown = set(self.attacks) - {CHAMELEON, GAP}
        if unknown:
            raise ConfigError(f"unknown attacks: {sorted(unknown)}")
        if not self.attacks or len(set(self.attacks)) != len(self.attacks):
            raise ConfigError("attacks must be non-empty and distinct")
        # The canonical form writes seed 0, so a run's config.json loads back.
        if self.train.seed != 0:
            raise ConfigError("train.seed is not a setting: every model's seed "
                              "derives from master_seed")
        d = self.dataset
        # A CSV pool doubles as the eval set; generated data draws
        # eval_size / num_classes eval points per class.
        if d.kind != "csv" and self.eval_size % d.num_classes:
            raise ConfigError(f"eval_size must be a multiple of num_classes "
                              f"({d.num_classes}), got {self.eval_size}")
        if d.kind != "csv" and self.num_challenge_points > d.num_classes * d.n_per_class:
            raise ConfigError("more challenge points than pool points")
        # A binary candidate flips each bit with this probability; at 1 or
        # more every candidate is the point's complement.
        if (d.modality == datagen.BINARY
                and self.neighborhood.resolved_noise_scale(d.modality) >= 1):
            raise ConfigError("a binary noise_scale is a bit-flip probability, "
                              "so it must be below 1")

    def canonical_dict(self) -> dict:
        """Result-determining fields only (workers excluded)."""
        doc = asdict(self)
        doc.pop("workers")
        doc["hidden_sizes"] = list(self.hidden_sizes)
        doc["attacks"] = list(self.attacks)
        return doc

    def paper_scale(self) -> "ExperimentConfig":
        """The paper's protocol sizes: 500 challenge points and 64 target
        models, drawn from a pool of at least 1000 points."""
        n_per_class = max(self.dataset.n_per_class,
                          math.ceil(1000 / self.dataset.num_classes))
        return replace(self, num_challenge_points=500, num_target_models=64,
                       dataset=replace(self.dataset, n_per_class=n_per_class))


def _is_number(value) -> bool:
    """A finite int or float, not a bool: "2.5", Infinity, NaN or an int too
    large for a float fails mid-game. Comparing an int with a float is
    exact, so an int passes only if it converts to a finite float."""
    if _is_int(value):
        return abs(value) <= sys.float_info.max
    return isinstance(value, float) and math.isfinite(value)


# Scalar field type -> check of a JSON value and what the check asks for.
_VALUE_CHECKS = {int: (_is_int, "an integer"), float: (_is_number, "a finite number"),
                 str: (lambda value: isinstance(value, str), "a string")}


def _build(doc, cls, name: str):
    """``cls`` from its JSON object ``doc``, field by field: a dataclass from
    its own object, a tuple from a list, a scalar checked by its type; null
    only where the type allows ``None``. ``name`` is the section's path."""
    if not isinstance(doc, dict):
        raise ConfigError(f"bad {name} section: expected an object, got {doc!r}")
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    kwargs = dict(doc)
    for key, value in doc.items():
        kind = hints[key]
        if type(None) in typing.get_args(kind):  # X | None
            if value is None:
                continue
            kind = typing.get_args(kind)[0]
        if is_dataclass(kind):
            kwargs[key] = _build(value, kind, key if cls is ExperimentConfig
                                 else f"{name}.{key}")
        elif typing.get_origin(kind) is tuple:
            item = typing.get_args(kind)[0]
            if not (isinstance(value, list) and all(map(_VALUE_CHECKS[item][0], value))):
                raise ConfigError(f"bad {name} section: {key} must be a list of "
                                  f"{item.__name__}, got {value!r}")
            kwargs[key] = tuple(value)
        elif not _VALUE_CHECKS[kind][0](value):
            raise ConfigError(f"bad {name} section: {key} must be "
                              f"{_VALUE_CHECKS[kind][1]}, got {value!r}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {name} section: {exc}") from None


def config_from_dict(doc: dict) -> ExperimentConfig:
    return _build(doc, ExperimentConfig, "config")


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return config_from_dict(doc)

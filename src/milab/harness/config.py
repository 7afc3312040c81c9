"""Experiment configuration: nested JSON schema mirroring the pipeline stages.

Desk-scale defaults keep a full privacy-game run in the minutes range on one
core; ``paper_scale()`` restores the 500-challenge / 64-target protocol sizes
(at a matching cost in compute).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

from .. import datagen
from ..attack import CHAMELEON, GAP
from ..nncore import DpConfig, TrainConfig
from ..poisoner import PoisonConfig


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 1)."""


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
        if self.size < 0 or self.pool_size < 1:
            raise ConfigError("neighborhood sizes must be positive")
        if self.size > self.pool_size:
            raise ConfigError("neighborhood size cannot exceed pool_size")

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
        if self.num_target_models < 2 or self.num_target_models % 2 != 0:
            raise ConfigError("num_target_models must be even and >= 2")
        if self.num_challenge_points < 1:
            raise ConfigError("num_challenge_points must be >= 1")
        unknown = set(self.attacks) - {CHAMELEON, GAP}
        if unknown:
            raise ConfigError(f"unknown attacks: {sorted(unknown)}")
        d = self.dataset
        if d.kind != "csv" and self.num_challenge_points > d.num_classes * d.n_per_class:
            raise ConfigError("more challenge points than pool points")

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


def _build(section: dict, cls, name: str):
    try:
        return cls(**section)
    except TypeError as exc:
        raise ConfigError(f"bad {name} section: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"bad {name} section: {exc}") from None


def config_from_dict(doc: dict) -> ExperimentConfig:
    doc = dict(doc)
    known = {f for f in ExperimentConfig.__dataclass_fields__}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    if "dataset" in doc:
        kwargs["dataset"] = _build(doc.pop("dataset"), DatasetConfig, "dataset")
    if "train" in doc:
        section = dict(doc.pop("train"))
        if section.get("dp"):
            section["dp"] = _build(section["dp"], DpConfig, "train.dp")
        elif "dp" in section:
            section["dp"] = None
        kwargs["train"] = _build(section, TrainConfig, "train")
    if "poison" in doc:
        kwargs["poison"] = _build(doc.pop("poison"), PoisonConfig, "poison")
    if "neighborhood" in doc:
        kwargs["neighborhood"] = _build(doc.pop("neighborhood"),
                                        NeighborhoodConfig, "neighborhood")
    if "hidden_sizes" in doc:
        kwargs["hidden_sizes"] = tuple(doc.pop("hidden_sizes"))
    if "attacks" in doc:
        kwargs["attacks"] = tuple(doc.pop("attacks"))
    kwargs.update(doc)
    return _build(kwargs, ExperimentConfig, "experiment")


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


def dump_config(cfg: ExperimentConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(cfg.canonical_dict(), f, indent=2, sort_keys=True)
        f.write("\n")

"""Experiment orchestration: configuration, caching, the privacy game and
its CLI."""

from .config import (ConfigError, DatasetConfig, ExperimentConfig,
                     NeighborhoodConfig, config_from_dict, load_config)
from .runner import (GameResult, StageError, run_ablation, run_privacy_game,
                     verify_manifest)

__all__ = [
    "ConfigError", "DatasetConfig", "ExperimentConfig", "NeighborhoodConfig",
    "config_from_dict", "load_config", "GameResult", "StageError",
    "run_ablation", "run_privacy_game", "verify_manifest",
]

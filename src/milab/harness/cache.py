"""Content-addressed artifact cache for trained models.

Cache keys are sha256 digests of a canonical-JSON description of everything
the artifact depends on (training-set content hash, training config,
architecture, seed), so ablations re-train only what actually changed and a
re-run with an intact cache reproduces its outputs byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os

import numpy as np

from .. import nncore
from ..datagen import Dataset

logger = logging.getLogger(__name__)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def dataset_digest(ds: Dataset) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(ds.features, dtype="<f4").tobytes())
    h.update(np.ascontiguousarray(ds.labels, dtype="<u2").tobytes())
    h.update(str(ds.num_classes).encode())
    return h.hexdigest()


def train_config_dict(cfg: nncore.TrainConfig) -> dict:
    doc = {
        "epochs": cfg.epochs,
        "learning_rate": cfg.learning_rate,
        "weight_decay": cfg.weight_decay,
        "batch_size": cfg.batch_size,
        "seed": cfg.seed,
    }
    if cfg.dp is not None:
        doc["dp"] = {"clip_norm": cfg.dp.clip_norm,
                     "noise_multiplier": cfg.dp.noise_multiplier}
    return doc


class ModelCache:
    """Stores trained models under their dependency digest.

    ``hits`` / ``misses`` count lookups during this process's lifetime;
    ``corrupt`` counts the misses on entries that existed but failed to load.
    """

    def __init__(self, root: str):
        self.root = root
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        os.makedirs(os.path.join(root, "models"), exist_ok=True)

    def model_key(self, ds: Dataset, cfg: nncore.TrainConfig, hidden) -> str:
        return digest({
            "dataset": dataset_digest(ds),
            "train": train_config_dict(cfg),
            "hidden": list(hidden),
        })

    def _stem(self, key: str) -> str:
        return os.path.join(self.root, "models", key)

    def get(self, key: str) -> nncore.ModelParams | None:
        """The cached model, or None (a miss) when it is absent or damaged.

        Cached parameters equal freshly trained ones bit for bit; an entry
        that no longer loads counts as a miss, so the caller retrains and
        overwrites it."""
        stem = self._stem(key)
        if nncore.model_exists(stem):
            try:
                model = nncore.load_model(stem)[0]
            except ValueError as exc:
                logger.warning("damaged cache entry %s, retraining: %s", stem, exc)
                self.corrupt += 1
            else:
                self.hits += 1
                return model
        self.misses += 1
        return None

    def put(self, key: str, model: nncore.ModelParams, cfg: nncore.TrainConfig) -> None:
        nncore.save_model(model, self._stem(key), seed=cfg.seed,
                          config_hash=digest(train_config_dict(cfg)))

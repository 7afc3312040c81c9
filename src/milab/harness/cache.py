"""Content-addressed artifact cache for trained models, neighbourhood KL fits
and target models' accuracies.

Cache keys are sha256 digests of everything the artifact depends on: for a
model, a canonical-JSON description of the ``dataset_digest`` of its
training set's recipe, its training config, architecture and seed; for a
point's KL fit, the point, its label, the recipe of its candidate pool
(modality, pool size, noise scale and seed) and the parameters of its IN and
OUT shadow models.  So ablations recompute only what actually changed, and
a re-run with an intact cache reproduces its outputs byte for byte.

A KL entry stores the pool it was fitted on, and its key names the pool's
recipe, not the pool's bytes, so a warm game generates no candidates.  The
key therefore cannot see a change to how a recipe becomes a pool or a fit:
any change to ``datagen.gen_neighbors`` or to ``neighborhood.fit_kl`` must
bump ``KL_FORMAT``.

A target's accuracies are keyed by its model key and the evaluation set's
content hash, which fix them only as long as labels are computed the same
way: any change to the label path (``ModelParams.predict_label_batch``) or to
``nncore.accuracy`` must bump ``STATS_FORMAT``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import asdict, dataclass

import numpy as np

from .. import nncore
from ..datagen import Dataset, blob_parts

logger = logging.getLogger(__name__)

# Manifest format of a KL entry, and the version tag of its key.
KL_FORMAT = "milab-kl-v4"
# Manifest format of a target's accuracies entry, and the version tag of its key.
STATS_FORMAT = "milab-stats-v1"


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


def dataset_digest(ds) -> str:
    """sha256 of the blob of ``ds``, then of its class count.

    For a Dataset the blob is ``dataset_blob(ds)``, the bytes
    ``save_dataset`` writes; for a ``poisoner.TrainingSet`` recipe it is
    that of ``ds.build()``, streamed block by block without building it."""
    blocks = [(ds.features, ds.labels)] if isinstance(ds, Dataset) else ds.blocks()
    h = hashlib.sha256()
    for part in blob_parts(blocks, ds.num_classes):
        h.update(part)
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


def params_digest(model: nncore.ModelParams) -> str:
    """sha256 of a model's layer widths and float32 parameters."""
    h = hashlib.sha256(canonical_json(model.dims).encode("utf-8"))
    h.update(model.flat.astype("<f4", copy=False).tobytes())
    return h.hexdigest()


def kl_key(x: np.ndarray, y: int, recipe: dict,
           in_digests: list[str], out_digests: list[str]) -> str:
    """Key of the KL fit of the point (x, y) against the candidate pool that
    ``recipe`` (its modality, pool_size, noise_scale and seed) generates,
    from the ``params_digest`` of its IN models, then of its OUT models, in
    the order the fit sums over them."""
    h = hashlib.sha256(canonical_json({
        "format": KL_FORMAT, "label": int(y), "pool": recipe,
        "in": in_digests, "out": out_digests}).encode("utf-8"))
    h.update(np.ascontiguousarray(x, dtype="<f8").tobytes())
    return h.hexdigest()


def _load_kl(stem: str, pool_size: int, dim: int) -> tuple[np.ndarray, np.ndarray, str]:
    """The fit, its pool and its printed rows. Raises ValueError when the
    manifest names another shape or dim, when the blob's sections do not
    have the byte lengths that the manifest and the shape give them, or when
    the rows are not ``pool_size`` newline-terminated ASCII lines."""
    blob, manifest = nncore.load_entry(stem, KL_FORMAT)
    if manifest.get("shape") != [2, pool_size] or manifest.get("dim") != dim:
        raise ValueError(f"{stem}.json does not name a [2, {pool_size}] fit "
                         f"of a {dim}-feature pool")
    fit_bytes, pool_bytes = 2 * pool_size * 8, pool_size * dim * 4
    text_bytes = manifest.get("text_bytes")
    if not isinstance(text_bytes, int) or len(blob) != fit_bytes + pool_bytes + text_bytes:
        raise ValueError(f"{stem}.bin does not hold sections of {fit_bytes}, "
                         f"{pool_bytes} and {text_bytes} bytes")
    # The fit's slice is a copy and the pool a cast, so neither array keeps
    # the blob alive.
    kl = np.frombuffer(blob[:fit_bytes], dtype="<f8").reshape(2, pool_size)
    pool = np.frombuffer(blob, dtype="<f4", count=pool_size * dim, offset=fit_bytes)
    text = blob[fit_bytes + pool_bytes:].decode("ascii")
    if text.count("\n") != pool_size or not text.endswith("\n"):
        raise ValueError(f"{stem}.bin does not hold {pool_size} printed rows")
    return kl, pool.reshape(pool_size, dim).astype(np.float64), text


def stats_key(model_key: str, eval_digest: str) -> str:
    """Key of the train and eval accuracy of the model under ``model_key``
    on the evaluation set whose ``dataset_digest`` is ``eval_digest``; the
    model key already names the training set."""
    return digest({"format": STATS_FORMAT, "model": model_key, "eval": eval_digest})


def _load_stats(stem: str) -> tuple[float, float]:
    """The (train, eval) accuracy pair. Raises ValueError when the blob is
    not two float64."""
    blob, _ = nncore.load_entry(stem, STATS_FORMAT)
    if len(blob) != 16:
        raise ValueError(f"{stem}.bin does not hold two float64")
    train_acc, eval_acc = np.frombuffer(blob, dtype="<f8").tolist()
    return train_acc, eval_acc


@dataclass
class Tally:
    """Lookups of one kind of entry; ``corrupt`` counts the misses on
    entries that existed but failed to load."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0


# Entry kind (its directory under the cache root) -> the prefix of its
# lookup counters in ``cost.json``.
COUNTER_PREFIXES = {"models": "cache", "neighborhoods": "kl_cache", "stats": "stats_cache"}


class ModelCache:
    """Stores trained models under ``models/``, KL fits under
    ``neighborhoods/`` and target accuracies under ``stats/``, each under its
    dependency digest, and tallies the lookups of each kind during this
    process's lifetime."""

    def __init__(self, root: str):
        self.root = root
        self.tallies = {kind: Tally() for kind in COUNTER_PREFIXES}
        for kind in COUNTER_PREFIXES:
            os.makedirs(os.path.join(root, kind), exist_ok=True)

    def counts(self) -> dict[str, int]:
        """The lookup counters of ``cost.json``: ``<prefix>_hits``,
        ``<prefix>_misses`` and ``<prefix>_corrupt`` per entry kind."""
        return {f"{prefix}_{name}": value
                for kind, prefix in COUNTER_PREFIXES.items()
                for name, value in asdict(self.tallies[kind]).items()}

    def model_key(self, recipe, cfg: nncore.TrainConfig, hidden) -> str:
        """Key of the model trained on the ``poisoner.TrainingSet``
        ``recipe`` with ``cfg`` and hidden widths ``hidden``."""
        return digest({
            "dataset": dataset_digest(recipe),
            "train": train_config_dict(cfg),
            "hidden": list(hidden),
        })

    def _lookup(self, kind: str, key: str, load):
        """``load(stem)`` of the entry, or None (a miss) when it is absent or
        damaged; a damaged entry is logged, so the caller recomputes and
        overwrites it."""
        tally = self.tallies[kind]
        stem = os.path.join(self.root, kind, key)
        if nncore.entry_exists(stem):
            try:
                value = load(stem)
            except ValueError as exc:
                logger.warning("damaged cache entry %s, recomputing: %s", stem, exc)
                tally.corrupt += 1
            else:
                tally.hits += 1
                return value
        tally.misses += 1
        return None

    def get(self, key: str) -> nncore.ModelParams | None:
        """The cached model, or None; cached parameters equal freshly
        trained ones bit for bit."""
        return self._lookup("models", key, lambda stem: nncore.load_model(stem)[0])

    def put(self, key: str, model: nncore.ModelParams, cfg: nncore.TrainConfig) -> None:
        nncore.save_model(model, os.path.join(self.root, "models", key), seed=cfg.seed,
                          config_hash=digest(train_config_dict(cfg)))

    def get_kl(self, key: str, pool_size: int,
               dim: int) -> tuple[np.ndarray, np.ndarray, str] | None:
        """The cached fit, a read-only [2, pool_size] (kl_in, kl_out) array
        equal to a fresh fit bit for bit, the [pool_size, dim] candidate
        pool it was fitted on, and its printed rows, all as ``put_kl`` took
        them; or None."""
        return self._lookup("neighborhoods", key,
                            lambda stem: _load_kl(stem, pool_size, dim))

    def put_kl(self, key: str, kl: np.ndarray, pool: np.ndarray, text: str) -> None:
        """Store a fit as little-endian float64, kl_in row first, then its
        pool as little-endian float32, which holds a pool already rounded to
        float32 exactly, then ``text``, its ASCII printed rows
        (``neighborhood.kl_text``)."""
        rows = text.encode("ascii")
        nncore.save_entry(os.path.join(self.root, "neighborhoods", key),
                          np.ascontiguousarray(kl, dtype="<f8").tobytes()
                          + np.ascontiguousarray(pool, dtype="<f4").tobytes() + rows,
                          {"format": KL_FORMAT, "shape": list(kl.shape),
                           "dim": pool.shape[1], "text_bytes": len(rows),
                           "dtype": "<f8", "pool_dtype": "<f4",
                           "layout": "kl_in row, kl_out row, pool rows, then one "
                                     "ASCII line j,repr(kl_in),repr(kl_out) per "
                                     "pool row j"})

    def get_stats(self, key: str) -> tuple[float, float] | None:
        """The cached (train, eval) accuracy pair, bit for bit as
        ``put_stats`` took it, or None."""
        return self._lookup("stats", key, _load_stats)

    def put_stats(self, key: str, train_acc: float, eval_acc: float) -> None:
        """Store the pair as two little-endian float64."""
        nncore.save_entry(os.path.join(self.root, "stats", key),
                          np.array([train_acc, eval_acc], dtype="<f8").tobytes(),
                          {"format": STATS_FORMAT, "dtype": "<f8",
                           "layout": "train_accuracy, eval_accuracy"})

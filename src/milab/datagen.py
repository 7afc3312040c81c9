"""Dataset generation, train-membership split plans and neighbor candidates.

Two synthetic families cover the continuous and binary modalities: a Gaussian
mixture with one class mean per coordinate axis, and a binary-prototype
dataset where samples are Bernoulli bit-flips of a per-class prototype.
Split plans assign training membership across an even number of models with
exact IN/OUT balance for designated challenge points.  All generators are
pure functions of their seeds.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .nncore import load_entry, save_entry
from .rng import make_rng

CONTINUOUS = "continuous"
BINARY = "binary"


@dataclass
class Dataset:
    """Feature matrix [n x d], integer labels [n] and the class count."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ValueError("features must be a non-empty 2-d matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must align with features")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("non-finite features")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ValueError("labels out of range")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.features[indices], self.labels[indices], self.num_classes)


def gen_gaussian_mixture(num_classes: int, dim: int, n_per_class: int,
                         class_sep: float, seed: int) -> Dataset:
    """Gaussian classes N(mu_c, I) with mu_c = class_sep * e_c.

    Class means sit on scaled coordinate axes (an orthogonal layout with
    equal pairwise distances), so dim must be >= num_classes.
    """
    if min(num_classes, dim, n_per_class) < 1 or not class_sep > 0:
        raise ValueError("counts must be >= 1 and class_sep > 0")
    if dim < num_classes:
        raise ValueError("dim must be >= num_classes for the axis layout")
    gen = make_rng(seed)
    feats = np.empty((num_classes * n_per_class, dim))
    labels = np.repeat(np.arange(num_classes), n_per_class)
    for c in range(num_classes):
        mu = np.zeros(dim)
        mu[c] = class_sep
        block = slice(c * n_per_class, (c + 1) * n_per_class)
        feats[block] = mu + gen.standard_normal((n_per_class, dim))
    return Dataset(feats, labels, num_classes)


def gen_binary_tabular(num_classes: int, dim: int, n_per_class: int,
                       flip_noise: float, seed: int) -> Dataset:
    """Binary features: per-class random prototype with Bernoulli bit flips."""
    if min(num_classes, dim, n_per_class) < 1:
        raise ValueError("counts must be >= 1")
    if not 0 <= flip_noise < 0.5:
        raise ValueError("flip_noise must be in [0, 0.5)")
    gen = make_rng(seed)
    prototypes = gen.integers(0, 2, size=(num_classes, dim)).astype(np.float64)
    feats = np.empty((num_classes * n_per_class, dim))
    labels = np.repeat(np.arange(num_classes), n_per_class)
    for c in range(num_classes):
        flips = gen.random((n_per_class, dim)) < flip_noise
        block = slice(c * n_per_class, (c + 1) * n_per_class)
        feats[block] = np.abs(prototypes[c] - flips.astype(np.float64))
    return Dataset(feats, labels, num_classes)


def make_split_plan(n_points: int, challenge_indices, num_models: int,
                    seed: int) -> np.ndarray:
    """Training-membership bits as a [num_models, n_points] bool matrix:
    model j trains on point i iff ``split[j, i]``.

    Challenge columns carry exactly num_models/2 set bits (balanced IN/OUT);
    every other column is Bernoulli(1/2)."""
    if num_models % 2 != 0:
        raise ValueError("num_models must be even")
    challenge_indices = sorted(int(i) for i in challenge_indices)
    if challenge_indices and not (
            0 <= challenge_indices[0] and challenge_indices[-1] < n_points):
        raise ValueError("challenge index out of range")
    gen = make_rng(seed)
    inclusion = gen.random((num_models, n_points)) < 0.5
    half = num_models // 2
    for i in challenge_indices:
        col = np.zeros(num_models, dtype=bool)
        col[gen.permutation(num_models)[:half]] = True
        inclusion[:, i] = col
    return inclusion


# Rows one candidate pool may draw, per candidate, before ``gen_neighbors``
# gives up on a noise_scale too small to move the point.
NEIGHBOR_DRAWS_PER_ROW = 1000


def gen_neighbors(x: np.ndarray, modality: str, count: int,
                  noise_scale: float, seed: int) -> np.ndarray:
    """Candidate neighbors of x, one per row of a [count, dim] matrix.

    Continuous modality adds isotropic Gaussian jitter with std noise_scale;
    binary flips each bit independently with probability noise_scale.  Each
    candidate is rounded to float32, like a dataset's features, and one
    equal to x after rounding is rejected and resampled; raises
    ValueError when the pool would draw more than
    ``NEIGHBOR_DRAWS_PER_ROW * count`` rows.
    """
    if count < 1 or not noise_scale > 0:
        raise ValueError("count must be >= 1 and noise_scale > 0")
    if modality not in (CONTINUOUS, BINARY):
        raise ValueError(f"unknown modality {modality!r}")
    x = np.asarray(x, dtype=np.float64)
    gen = make_rng(seed)
    kept: list[np.ndarray] = []
    todo, budget = count, NEIGHBOR_DRAWS_PER_ROW * count
    while todo:
        if todo > budget:
            raise ValueError(f"noise_scale {noise_scale!r} is too small to move the "
                             f"point: {count} candidates took over "
                             f"{NEIGHBOR_DRAWS_PER_ROW * count} draws")
        budget -= todo
        if modality == CONTINUOUS:
            cands = x + noise_scale * gen.standard_normal((todo, x.size))
        else:
            flips = gen.random((todo, x.size)) < noise_scale
            cands = np.abs(x - flips.astype(np.float64))
        cands = cands.astype(np.float32).astype(np.float64)
        # At most ``todo`` rows are drawn, so every row unequal to x fits.
        kept.append(cands[~(cands == x).all(axis=1)])
        todo -= len(kept[-1])
    return np.concatenate(kept)


DATASET_FORMAT = "milab-dataset-v1"


def blob_parts(blocks, num_classes: int):
    """The bytes of a dataset whose rows are the (features, labels) pairs of
    ``blocks`` stacked in order, in pieces: each block's little-endian
    float32 features (row-major), then each block's little-endian uint16
    labels. Joined, they are ``dataset_blob`` of the stacked dataset."""
    if num_classes > 65535:
        raise ValueError("uint16 labels cannot hold this many classes")
    for features, _ in blocks:
        yield np.ascontiguousarray(features, dtype="<f4").tobytes()
    for _, labels in blocks:
        yield np.ascontiguousarray(labels, dtype="<u2").tobytes()


def dataset_blob(ds: Dataset) -> bytes:
    """The bytes of ``ds``: little-endian float32 features (row-major)
    followed by little-endian uint16 labels."""
    return b"".join(blob_parts([(ds.features, ds.labels)], ds.num_classes))


def save_dataset(ds: Dataset, stem: str) -> None:
    """Save ``ds`` as a ``nncore.save_entry`` entry under ``stem`` whose
    blob is ``dataset_blob(ds)``."""
    save_entry(stem, dataset_blob(ds),
               {"format": DATASET_FORMAT, "n": len(ds), "dim": ds.dim,
                "num_classes": ds.num_classes, "feature_dtype": "<f4", "label_dtype": "<u2"})


def load_dataset(stem: str) -> Dataset:
    """The dataset saved under ``stem``.

    Raises ValueError when ``nncore.load_entry`` does, or when the blob does
    not hold ``n`` rows of ``dim`` features plus ``n`` labels."""
    blob, manifest = load_entry(stem, DATASET_FORMAT)
    n, dim = manifest["n"], manifest["dim"]
    if len(blob) != n * dim * 4 + n * 2:
        raise ValueError(f"{stem}.bin does not hold {n} rows of {dim} features")
    feats = np.frombuffer(blob, dtype="<f4", count=n * dim).reshape(n, dim)
    labels = np.frombuffer(blob, dtype="<u2", offset=n * dim * 4)
    return Dataset(feats.astype(np.float64), labels.astype(np.int64),
                   manifest["num_classes"])


def load_csv_dataset(path: str) -> Dataset:
    """Import tabular data: header row, last column is the integer label;
    the class count is the largest label plus one.

    Raises ValueError when the file has no data rows, a row's length differs
    from the header's, a cell does not parse, a label is out of range or
    above 65534 (``dataset_blob`` stores labels as uint16), or the labels
    span fewer than 2 classes."""
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise ValueError("empty CSV file")
        rows = [row for row in reader if row]
    if not rows:
        raise ValueError("no data rows")
    for i, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise ValueError(f"data row {i} has {len(row)} fields, the header {len(header)}")
    feats = np.array([[float(v) for v in row[:-1]] for row in rows])
    labels = np.array([int(row[-1]) for row in rows], dtype=np.int64)
    if labels.max() > 65534:
        raise ValueError(f"label {labels.max()} is above 65534: uint16 labels "
                         "hold at most 65535 classes")
    ds = Dataset(feats, labels, int(labels.max()) + 1)
    if ds.num_classes < 2:
        raise ValueError("labels span fewer than 2 classes")
    return ds

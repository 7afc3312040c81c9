"""Minimal feed-forward classifier with deterministic SGD training.

The model is a fully-connected ReLU network with a softmax output, trained by
plain mini-batch SGD with (multiplicative) weight decay.  Training is a pure
function of (dataset, config): parameters are stored as float32, all training
arithmetic runs in float64, and every random draw comes from a seeded Philox
stream, so identical inputs give bit-identical parameters.

An optional differentially-private mode clips per-example gradients to a fixed
l2 norm, sums them, adds isotropic Gaussian noise and divides by the batch
size.  With zero noise and a large clipping norm this path reproduces the
plain SGD step exactly (same contractions, same rounding).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .rng import make_rng

LOGIT_EPS = 1e-7

# Layer parameters as plain arrays: list of (W [out, in], b [out]).
LayerList = list[tuple[np.ndarray, np.ndarray]]


class NonFiniteLossError(RuntimeError):
    """Training produced a non-finite loss; the run is aborted."""


@dataclass(frozen=True)
class DpConfig:
    """Per-example gradient clipping bound and Gaussian noise multiplier."""

    clip_norm: float
    noise_multiplier: float = 0.0

    def __post_init__(self):
        if not self.clip_norm > 0:
            raise ValueError("clip_norm must be > 0")
        if self.noise_multiplier < 0:
            raise ValueError("noise_multiplier must be >= 0")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    learning_rate: float
    weight_decay: float = 0.0
    batch_size: int = 32
    seed: int = 0
    dp: DpConfig | None = None

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be > 0")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class ModelParams:
    """Classifier parameters: ``flat`` is one float32 vector in the
    model-blob layout (see ``_param_views``) and ``dims`` the layer widths,
    input first.  Hidden layers use ReLU, the output layer a softmax.
    """

    flat: np.ndarray
    dims: list[int]

    def __post_init__(self):
        if self.flat.shape != (_num_params(self.dims),):
            raise ValueError(f"{self.flat.size} parameters do not fit dims {self.dims}")
        if not np.isfinite(self.flat).all():
            raise ValueError("non-finite model parameters")

    def as_float64(self) -> LayerList:
        return _param_views(self.flat.astype(np.float64), self.dims)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Softmax confidences of one input ``[d]`` (shape ``[C]`` back) or of
        a stack of inputs ``[n, d]`` (shape ``[n, C]`` back).

        Each row of a stack runs as its own ``[1, d]`` matrix, so it gets the
        bits of a call on that row alone. A forward pass's bits depend on its
        batch's shape: ``predict_proba_batch`` runs the rows as one batch and
        can round them differently."""
        X = np.asarray(x, dtype=np.float64)
        if X.ndim not in (1, 2):
            raise ValueError(f"expected one input [d] or a stack [n, d], got shape {X.shape}")
        probs = forward(self.as_float64(), X.reshape(-1, 1, X.shape[-1]))[:, 0]
        return probs[0] if X.ndim == 1 else probs

    def predict_proba_batch(self, X: np.ndarray) -> np.ndarray:
        return forward(self.as_float64(), np.asarray(X, dtype=np.float64))

    def predict_label_batch(self, X: np.ndarray) -> np.ndarray:
        """Labels of the rows of ``X`` [n, d], run as one batch: the argmax
        of the logits, ties to the lowest class. It skips the softmax, which
        is monotone in each row, so it can differ from the argmax of
        ``predict_proba_batch`` only where the softmax rounds two distinct
        logits to one value."""
        return np.argmax(logits(self.as_float64(), np.asarray(X, dtype=np.float64)), axis=1)


def init_params(input_dim: int, hidden_sizes: tuple[int, ...], num_classes: int,
                seed: int) -> ModelParams:
    """Seeded Glorot-uniform weights, zero biases.

    Weights are drawn uniformly in [-a, a] with a = sqrt(6 / (fan_in + fan_out))
    from the stream ``make_rng(seed, 0)``; biases start at zero.
    """
    gen = make_rng(seed, 0)
    dims = [input_dim, *hidden_sizes, num_classes]
    flat = np.zeros(_num_params(dims), dtype=np.float32)
    for w, _ in _param_views(flat, dims):
        fan_out, fan_in = w.shape
        a = math.sqrt(6.0 / (fan_in + fan_out))
        w[...] = gen.uniform(-a, a, size=w.shape)
    return ModelParams(flat, dims)


def _num_params(dims) -> int:
    return sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))


def _param_views(flat: np.ndarray, dims) -> LayerList:
    """(W, b) views into a flat parameter vector of ``_num_params(dims)``
    entries in the model-blob layout: per layer, the weight matrix
    row-major, then the bias vector."""
    layers, pos = [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = flat[pos:pos + fan_in * fan_out].reshape(fan_out, fan_in)
        pos += fan_in * fan_out
        layers.append((w, flat[pos:pos + fan_out]))
        pos += fan_out
    return layers


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax of each row (last axis) of the logits ``z``, in place;
    returns the row sums it divided by, with the last axis kept as 1.

    A row sum lies in [1, C] when the row is finite. It is NaN exactly when
    the row holds a NaN or +inf, or is all -inf, which is exactly when the
    row's cross-entropy ``-log(max(p_y, 1e-300))`` is non-finite. Calls the
    ufuncs' reductions directly; ``max``/``sum`` wrap the same ones."""
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(z, out=z)
    row_sums = np.add.reduce(z, axis=-1, keepdims=True)
    z /= row_sums
    return row_sums


def _forward_acts(layers: LayerList, X: np.ndarray):
    """Each layer's input and the output layer's logits, each in its own
    buffer (the hidden ones computed in place)."""
    acts = [X]
    h = X
    for w, b in layers[:-1]:
        h = h @ w.T
        h += b
        np.maximum(h, 0.0, out=h)
        acts.append(h)
    w, b = layers[-1]
    z = h @ w.T
    z += b
    return acts, z


def logits(layers: LayerList, X: np.ndarray) -> np.ndarray:
    """Output-layer logits over the last axis of ``X`` (rows ``[n, d]``, or
    stacks of them), in a fresh buffer; dtype follows the inputs."""
    if X.shape[-1] != layers[0][0].shape[1]:
        raise ValueError(
            f"input dim {X.shape[-1]} does not match model dim {layers[0][0].shape[1]}")
    return _forward_acts(layers, X)[1]


def forward(layers: LayerList, X: np.ndarray) -> np.ndarray:
    """Softmax probabilities over the last axis of ``X``: the ``logits``,
    then ``_softmax`` in place. A label needs only the logits' argmax (see
    ``ModelParams.predict_label_batch``)."""
    z = logits(layers, X)
    _softmax(z)
    return z


def _forward_backward(layers: LayerList, X: np.ndarray, Y: np.ndarray):
    """Shared forward/backward pass for training; ``Y`` holds the labels as
    one-hot rows.

    Returns (activations, deltas, row_sums) where ``activations[l]`` is the
    input to layer l, ``deltas[l]`` the per-example error at layer l of the
    *summed* cross-entropy loss (no 1/B factor; callers scale after
    contraction so the plain and DP paths share bitwise-identical GEMMs) and
    ``row_sums`` the softmax's, whose sum is finite exactly when the loss is.
    The output delta is the softmax buffer itself.
    """
    acts, d = _forward_acts(layers, X)
    row_sums = _softmax(d)
    d -= Y  # x - 0.0 == x, so only the label entries change
    deltas = [d]
    for l in range(len(layers) - 1, 0, -1):
        d = d @ layers[l][0]
        # Multiply by the mask: a masked assignment would write +0.0 where
        # the product gives -0.0.
        d *= acts[l] > 0
        deltas.append(d)
    deltas.reverse()
    return acts, deltas, row_sums


def _contract_grads(acts, deltas, grads: LayerList, weights: np.ndarray | None = None) -> None:
    """Summed gradients per layer, written into ``grads``' (W, b) views;
    ``weights`` optionally scales each example's delta, in place."""
    for a, d, (gw, gb) in zip(acts, deltas, grads):
        if weights is not None:
            d *= weights[:, None]
        np.matmul(d.T, a, out=gw)
        np.add.reduce(d, axis=0, out=gb)


def _clip_factors(acts, deltas, clip_norm: float, in_sq: np.ndarray) -> np.ndarray:
    """Per-example factors min(1, clip_norm / ||g_i||) for one DP-SGD step.

    Per-example gradient norms follow from the outer-product structure of
    dense layers: ||dW_i||_F = ||delta_i|| * ||a_i||, so the full-parameter
    norm is sqrt(sum_l ||delta_{l,i}||^2 (1 + ||a_{l-1,i}||^2)) without
    materialising per-example gradients. ``in_sq`` is that last factor for
    the input layer, ``1.0 + (X * X).sum(axis=1)``, which the caller
    computes once for the whole dataset.
    """
    d = deltas[0]
    sq = (d * d).sum(axis=1) * in_sq
    for a, d in zip(acts[1:], deltas[1:]):
        sq += (d * d).sum(axis=1) * (1.0 + (a * a).sum(axis=1))
    norms = np.sqrt(sq)
    factors = np.minimum(1.0, np.divide(
        clip_norm, norms, out=np.ones_like(norms), where=norms > 0))
    assert (norms * factors <= clip_norm * (1 + 1e-9)).all(), \
        "clipped per-example gradient exceeds clip_norm"
    return factors


def _decay_vector(dims, decay_factor: float) -> np.ndarray:
    """``decay_factor`` on every weight and 1.0 on every bias, flat."""
    decay = np.ones(_num_params(dims))
    for w, _ in _param_views(decay, dims):
        w.fill(decay_factor)
    return decay


def _apply_update(params: np.ndarray, grad: np.ndarray, decay: np.ndarray,
                  scale: float, lr: float) -> None:
    """One in-place SGD step on flat buffers: ``scale`` turns the gradient
    sum into a mean; the decay vector shrinks weights, not biases.

    Computes ``p * decay - lr * (g * scale)`` element by element, and
    overwrites ``grad``."""
    grad *= scale
    grad *= lr
    params *= decay
    params -= grad


def train(dataset, config: TrainConfig, hidden_sizes: tuple[int, ...]) -> ModelParams:
    """Train an MLP on the dataset; deterministic in (dataset, config).

    Runs ``config.epochs`` passes of mini-batch SGD (shuffled each epoch from
    the seeded stream) with multiplicative weight decay on the weight
    matrices.  With ``config.dp`` set, each step clips per-example gradients
    to ``clip_norm``, sums them, adds Gaussian noise with std
    ``noise_multiplier * clip_norm`` and divides by the batch size.

    Parameters, gradient, decay factors and the DP noise are each one flat
    float64 buffer in the model-blob layout; the layers' (W, b) are views
    into it, and every step updates it in place.
    """
    if len(dataset.labels) == 0:
        raise ValueError("dataset is empty")
    init = init_params(dataset.features.shape[1], tuple(hidden_sizes),
                       dataset.num_classes, config.seed)
    if config.epochs == 0:
        return init

    dims = init.dims
    params = init.flat.astype(np.float64)
    grad = np.empty_like(params)
    layers, grads = _param_views(params, dims), _param_views(grad, dims)
    lr = config.learning_rate
    decay = _decay_vector(dims, 1.0 - lr * config.weight_decay)
    dp = config.dp
    noise = np.empty_like(params) if dp is not None and dp.noise_multiplier > 0 else None

    X = np.asarray(dataset.features, dtype=np.float64)
    Y = np.eye(dataset.num_classes)[np.asarray(dataset.labels, dtype=np.int64)]
    # A per-row reduction along the contiguous axis: gathering it per epoch
    # gives the bits of computing it per batch.
    in_sq = None if dp is None else 1.0 + (X * X).sum(axis=1)
    n, batch = X.shape[0], config.batch_size
    gen = make_rng(config.seed, 1)
    # Overflow surfaces as a non-finite row sum; keep the check as the
    # single divergence signal instead of numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = gen.permutation(n)
            X_epoch, Y_epoch = X[order], Y[order]
            in_sq_epoch = None if dp is None else in_sq[order]
            for step, start in enumerate(range(0, n, batch)):
                stop = start + batch
                xb = X_epoch[start:stop]
                acts, deltas, row_sums = _forward_backward(layers, xb, Y_epoch[start:stop])
                # Finite exactly when the summed cross-entropy is.
                if not math.isfinite(np.add.reduce(row_sums, axis=None)):
                    raise NonFiniteLossError(f"non-finite loss at epoch {epoch}, step {step}")
                factors = None if dp is None else _clip_factors(
                    acts, deltas, dp.clip_norm, in_sq_epoch[start:stop])
                _contract_grads(acts, deltas, grads, factors)
                if noise is not None:
                    gen.standard_normal(out=noise)
                    noise *= dp.noise_multiplier * dp.clip_norm
                    grad += noise
                _apply_update(params, grad, decay, 1.0 / len(xb), lr)
    return ModelParams(params.astype(np.float32), dims)


def accuracy(model: ModelParams, dataset) -> float:
    """Fraction of the dataset whose label, from one
    ``predict_label_batch`` over its features, is its true label."""
    return float(np.mean(model.predict_label_batch(dataset.features) == dataset.labels))


def logit(p):
    """Scaled confidence ln(p/(1-p)) with p clamped to [LOGIT_EPS, 1-LOGIT_EPS].

    Elementwise on an array (same shape back); a float for a scalar. The log
    is ``math.log`` on each element, because numpy's ``np.log`` can differ
    from it in the last bit.
    """
    q = np.clip(np.asarray(p, dtype=np.float64), LOGIT_EPS, 1.0 - LOGIT_EPS)
    ratio = q / (1.0 - q)
    out = np.fromiter(map(math.log, ratio.ravel().tolist()), dtype=np.float64,
                      count=ratio.size).reshape(ratio.shape)
    return float(out) if out.ndim == 0 else out


MODEL_FORMAT = "milab-model-v1"


def _replace_file(path: str, data: bytes) -> None:
    """Write ``path`` through a temporary file and ``os.replace``, so a reader
    sees the old file or the new one, never a partial write."""
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "wb") as f:
        f.write(data)
    os.replace(tmp, path)


def save_entry(stem: str, blob: bytes, manifest: dict) -> None:
    """Write ``blob`` to ``stem.bin`` and then ``manifest``, plus the blob's
    ``num_bytes`` and ``sha256``, to ``stem.json``; ``load_entry`` reads
    them back."""
    manifest = {**manifest, "num_bytes": len(blob),
                "sha256": hashlib.sha256(blob).hexdigest()}
    # Blob first: a manifest never names a blob that is not in place yet.
    _replace_file(stem + ".bin", blob)
    _replace_file(stem + ".json",
                  json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8"))


def load_entry(stem: str, fmt: str) -> tuple[bytes, dict]:
    """The blob and manifest that ``save_entry`` wrote under ``stem``.

    Raises ValueError when the manifest is not JSON, not a JSON object or
    not of format ``fmt``, or when the blob does not match the manifest's
    sha256 (a manifest without one never matches)."""
    with open(stem + ".json", "r", encoding="utf-8") as f:
        manifest = json.load(f)
    if not isinstance(manifest, dict) or manifest.get("format") != fmt:
        raise ValueError(f"{stem}.json is not a {fmt} manifest")
    with open(stem + ".bin", "rb") as f:
        blob = f.read()
    if hashlib.sha256(blob).hexdigest() != manifest.get("sha256"):
        raise ValueError(f"{stem}.bin does not match the sha256 in its manifest")
    return blob, manifest


def entry_exists(stem: str) -> bool:
    return os.path.exists(stem + ".json") and os.path.exists(stem + ".bin")


def save_model(model: ModelParams, stem: str, *, seed: int | None = None,
               config_hash: str = "") -> None:
    """Write ``stem.bin`` (parameters) and then ``stem.json`` (manifest).

    The binary is ``model.flat`` as little-endian float32: per layer in
    order, the weight matrix (row-major) then the bias vector.  The manifest
    records the binary's sha256, which ``load_model`` checks.  Save/load
    round-trips are bit-exact because memory holds the same float32 vector.
    """
    save_entry(stem, model.flat.astype("<f4", copy=False).tobytes(), {
        "format": MODEL_FORMAT,
        "dims": model.dims,
        "dtype": "<f4",
        "layout": "per-layer weights row-major, then bias",
        "seed": seed,
        "config_hash": config_hash,
    })


def load_model(stem: str) -> tuple[ModelParams, dict]:
    """The model saved under ``stem`` and its manifest.

    Raises ValueError when ``load_entry`` does, or when the manifest has no
    list of int dims or the binary does not fit them."""
    blob, manifest = load_entry(stem, MODEL_FORMAT)
    dims = manifest.get("dims")
    if not isinstance(dims, list) or not all(isinstance(d, int) for d in dims):
        raise ValueError(f"{stem}.json has no list of int dims")
    raw = np.frombuffer(blob, dtype="<f4").copy()  # writable, like trained parameters
    return ModelParams(raw, dims), manifest

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

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .rng import make_rng

DEFAULT_HIDDEN = (128,)
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
    """Trained classifier parameters (float32 storage).

    ``layers[j]`` is the pair (weight matrix [out x in], bias vector [out]);
    consecutive layer shapes chain.  Hidden layers use ReLU, the output layer
    a softmax.
    """

    layers: LayerList = field(default_factory=list)

    def __post_init__(self):
        for j in range(1, len(self.layers)):
            if self.layers[j][0].shape[1] != self.layers[j - 1][0].shape[0]:
                raise ValueError(f"layer {j} input dim does not chain")
        for w, b in self.layers:
            if w.shape[0] != b.shape[0]:
                raise ValueError("weight/bias shape mismatch")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError("non-finite model parameters")

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def num_classes(self) -> int:
        return self.layers[-1][0].shape[0]

    @property
    def dims(self) -> list[int]:
        return [self.input_dim] + [w.shape[0] for w, _ in self.layers]

    def as_float64(self) -> LayerList:
        return [(w.astype(np.float64), b.astype(np.float64)) for w, b in self.layers]

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Softmax confidence vector for a single input."""
        return forward(self.as_float64(), np.atleast_2d(np.asarray(x, dtype=np.float64)))[0]

    def predict_proba_batch(self, X: np.ndarray) -> np.ndarray:
        return forward(self.as_float64(), np.asarray(X, dtype=np.float64))


def init_params(input_dim: int, hidden_sizes: tuple[int, ...], num_classes: int,
                seed: int) -> ModelParams:
    """Seeded Glorot-uniform weights, zero biases.

    Weights are drawn uniformly in [-a, a] with a = sqrt(6 / (fan_in + fan_out))
    from the stream ``make_rng(seed, 0)``; biases start at zero.
    """
    gen = make_rng(seed, 0)
    sizes = [input_dim] + list(hidden_sizes) + [num_classes]
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        a = math.sqrt(6.0 / (fan_in + fan_out))
        w = gen.uniform(-a, a, size=(fan_out, fan_in))
        layers.append((w.astype(np.float32), np.zeros(fan_out, dtype=np.float32)))
    return ModelParams(layers)


def forward(layers: LayerList, X: np.ndarray) -> np.ndarray:
    """Forward pass to softmax probabilities; dtype follows the inputs."""
    if X.shape[1] != layers[0][0].shape[1]:
        raise ValueError(
            f"input dim {X.shape[1]} does not match model dim {layers[0][0].shape[1]}")
    h = X
    for w, b in layers[:-1]:
        h = np.maximum(h @ w.T + b, 0.0)
    w, b = layers[-1]
    z = h @ w.T + b
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _forward_backward(layers: LayerList, X: np.ndarray, y: np.ndarray):
    """Shared forward/backward pass for training.

    Returns (activations, deltas, loss_sum) where ``activations[l]`` is the
    input to layer l and ``deltas[l]`` the per-example error at layer l of the
    *summed* cross-entropy loss (no 1/B factor; callers scale after
    contraction so the plain and DP paths share bitwise-identical GEMMs).
    """
    acts = [X]
    h = X
    for w, b in layers[:-1]:
        h = np.maximum(h @ w.T + b, 0.0)
        acts.append(h)
    w, b = layers[-1]
    z = acts[-1] @ w.T + b
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)

    n = X.shape[0]
    idx = np.arange(n)
    loss_sum = -np.log(np.maximum(probs[idx, y], 1e-300)).sum()

    deltas = [None] * len(layers)
    d = probs.copy()
    d[idx, y] -= 1.0
    deltas[-1] = d
    for l in range(len(layers) - 2, -1, -1):
        d = (d @ layers[l + 1][0]) * (acts[l + 1] > 0)
        deltas[l] = d
    return acts, deltas, loss_sum


def _contract_grads(acts, deltas, weights: np.ndarray | None):
    """Summed gradients per layer, optionally scaling each example's delta."""
    grads = []
    for a, d in zip(acts, deltas):
        dw = d if weights is None else weights[:, None] * d
        grads.append((dw.T @ a, dw.sum(axis=0)))
    return grads


def mean_loss(layers: LayerList, X: np.ndarray, y: np.ndarray) -> float:
    """Mean cross-entropy over a batch (used by finite-difference checks)."""
    _, _, loss_sum = _forward_backward(layers, X, y)
    return loss_sum / X.shape[0]


def mean_grads(layers: LayerList, X: np.ndarray, y: np.ndarray) -> LayerList:
    """Analytic gradient of the mean cross-entropy over a batch."""
    acts, deltas, _ = _forward_backward(layers, X, y)
    n = X.shape[0]
    return [(gw / n, gb / n) for gw, gb in _contract_grads(acts, deltas, None)]


def clip_gradient(g: np.ndarray, clip_norm: float) -> np.ndarray:
    """Scale g to l2 norm at most clip_norm: g * min(1, clip_norm / ||g||)."""
    if not clip_norm > 0:
        raise ValueError("clip_norm must be > 0")
    norm = float(np.linalg.norm(g))
    if norm <= clip_norm:
        return np.array(g, copy=True)
    return g * (clip_norm / norm)


def _dp_step_grads(acts, deltas, dp: DpConfig, gen: np.random.Generator,
                   shapes) -> LayerList:
    """Clipped-and-noised summed gradients for one DP-SGD step.

    Per-example gradient norms follow from the outer-product structure of
    dense layers: ||dW_i||_F = ||delta_i|| * ||a_i||, so the full-parameter
    norm is sqrt(sum_l ||delta_{l,i}||^2 (1 + ||a_{l-1,i}||^2)) without
    materialising per-example gradients.
    """
    sq = None
    for a, d in zip(acts, deltas):
        term = (d * d).sum(axis=1) * (1.0 + (a * a).sum(axis=1))
        sq = term if sq is None else sq + term
    norms = np.sqrt(sq)
    factors = np.minimum(1.0, np.divide(
        dp.clip_norm, norms, out=np.ones_like(norms), where=norms > 0))
    assert np.all(norms * factors <= dp.clip_norm * (1 + 1e-9)), \
        "clipped per-example gradient exceeds clip_norm"
    grads = _contract_grads(acts, deltas, factors)
    if dp.noise_multiplier > 0:
        sigma = dp.noise_multiplier * dp.clip_norm
        grads = [(gw + sigma * gen.standard_normal(sw), gb + sigma * gen.standard_normal(sb))
                 for (gw, gb), (sw, sb) in zip(grads, shapes)]
    return grads


def _apply_update(layers: LayerList, grads: LayerList, scale: float, lr: float,
                  decay_factor: float) -> LayerList:
    """One SGD step from summed gradients: multiplicative decay on weights,
    none on biases; ``scale`` converts the gradient sum to a mean."""
    return [
        (w * decay_factor - lr * (gw * scale), b - lr * (gb * scale))
        for (w, b), (gw, gb) in zip(layers, grads)
    ]


def train(dataset, config: TrainConfig,
          hidden_sizes: tuple[int, ...] = DEFAULT_HIDDEN) -> ModelParams:
    """Train an MLP on the dataset; deterministic in (dataset, config).

    Runs ``config.epochs`` passes of mini-batch SGD (shuffled each epoch from
    the seeded stream) with multiplicative weight decay on the weight
    matrices.  With ``config.dp`` set, each step clips per-example gradients
    to ``clip_norm``, sums them, adds Gaussian noise with std
    ``noise_multiplier * clip_norm`` and divides by the batch size.
    """
    if len(dataset.labels) == 0:
        raise ValueError("dataset is empty")
    init = init_params(dataset.features.shape[1], tuple(hidden_sizes),
                       dataset.num_classes, config.seed)
    layers = init.as_float64()
    if config.epochs == 0:
        return init

    X = np.asarray(dataset.features, dtype=np.float64)
    y = np.asarray(dataset.labels, dtype=np.int64)
    n = X.shape[0]
    gen = make_rng(config.seed, 1)
    shapes = [(w.shape, b.shape) for w, b in layers]
    lr = config.learning_rate
    decay_factor = 1.0 - lr * config.weight_decay

    for epoch in range(config.epochs):
        order = gen.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            xb, yb = X[batch], y[batch]
            # Overflow surfaces as a non-finite loss; keep the check as the
            # single divergence signal instead of numpy warnings.
            with np.errstate(over="ignore", invalid="ignore"):
                acts, deltas, loss_sum = _forward_backward(layers, xb, yb)
            if not np.isfinite(loss_sum):
                raise NonFiniteLossError(
                    f"non-finite loss at epoch {epoch}, step {start // config.batch_size}")
            if config.dp is not None:
                grads = _dp_step_grads(acts, deltas, config.dp, gen, shapes)
            else:
                grads = _contract_grads(acts, deltas, None)
            layers = _apply_update(layers, grads, 1.0 / len(batch), lr, decay_factor)
    return ModelParams([(w.astype(np.float32), b.astype(np.float32)) for w, b in layers])


def predict_labels(model: ModelParams, X: np.ndarray) -> np.ndarray:
    """Argmax labels for a batch (ties resolved to the lowest class index)."""
    return np.argmax(model.predict_proba_batch(X), axis=1)


def accuracy(model: ModelParams, dataset) -> float:
    return float(np.mean(predict_labels(model, dataset.features) == dataset.labels))


def logit(p: float, eps: float = LOGIT_EPS) -> float:
    """Scaled confidence ln(p/(1-p)) with p clamped to [eps, 1-eps]."""
    if not 0 < eps < 0.5:
        raise ValueError("eps must be in (0, 0.5)")
    p = min(max(p, eps), 1.0 - eps)
    return math.log(p / (1.0 - p))


MODEL_FORMAT = "milab-model-v1"


def save_model(model: ModelParams, stem: str, *, seed: int | None = None,
               config_hash: str = "") -> None:
    """Write ``stem.json`` (manifest) and ``stem.bin`` (parameters).

    The binary holds, per layer in order, the weight matrix (row-major) then
    the bias vector, as little-endian float32.  Save/load round-trips are
    bit-exact because parameters are stored as float32 in memory too.
    """
    blob = b"".join(
        np.ascontiguousarray(arr, dtype="<f4").tobytes()
        for w, b in model.layers for arr in (w, b))
    manifest = {
        "format": MODEL_FORMAT,
        "dims": model.dims,
        "dtype": "<f4",
        "layout": "per-layer weights row-major, then bias",
        "seed": seed,
        "config_hash": config_hash,
        "num_bytes": len(blob),
    }
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    with open(stem + ".bin", "wb") as f:
        f.write(blob)


def load_model(stem: str) -> tuple[ModelParams, dict]:
    with open(stem + ".json", "r", encoding="utf-8") as f:
        manifest = json.load(f)
    if manifest.get("format") != MODEL_FORMAT:
        raise ValueError(f"unexpected model format in {stem}.json")
    raw = np.fromfile(stem + ".bin", dtype="<f4")
    dims = manifest["dims"]
    layers, pos = [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = raw[pos:pos + fan_in * fan_out].reshape(fan_out, fan_in)
        pos += fan_in * fan_out
        b = raw[pos:pos + fan_out]
        pos += fan_out
        layers.append((np.ascontiguousarray(w), np.ascontiguousarray(b)))
    if pos != raw.size:
        raise ValueError(f"parameter blob size mismatch in {stem}.bin")
    return ModelParams(layers), manifest


def model_exists(stem: str) -> bool:
    return os.path.exists(stem + ".json") and os.path.exists(stem + ".bin")

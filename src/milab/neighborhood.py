"""Membership neighborhood: Gaussian logit fits over shadow models and
KL-divergence candidate selection.

For a point (x, y), the logit of the model confidence on label y is fitted
with a Gaussian separately over IN shadow models (trained with the point) and
OUT models (trained without it).  A candidate neighbor is admitted when its
IN and OUT fits are both within a KL threshold of the challenge point's fits,
with the candidate distribution as the first KL argument.  The shadow models
used here carry no poison.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .datagen import NeighborCandidate
from .nncore import LOGIT_EPS, logit

VAR_FLOOR = 1e-6


@dataclass(frozen=True)
class LogitStats:
    """Gaussian fits (mean, population variance) of per-model logits."""

    mu_in: float
    var_in: float
    mu_out: float
    var_out: float


@dataclass
class CandidateDiagnostics:
    index: int
    kl_in: float
    kl_out: float
    admitted: bool
    selected: bool


@dataclass
class NeighborhoodSet:
    """Selected neighbors with their KL diagnostics.

    ``members`` holds at most the configured size; ``member_kls`` aligns with
    it as (kl_in, kl_out) pairs.  When fewer candidates pass the threshold
    than requested, the set is topped up with the closest failing candidates
    and flagged ``fallback_filled``.
    """

    members: list[NeighborCandidate]
    threshold_used: float
    member_kls: list[tuple[float, float]]
    fallback_filled: bool
    diagnostics: list[CandidateDiagnostics]

    @property
    def features(self) -> np.ndarray:
        if not self.members:
            return np.empty((0, 0))
        return np.stack([m.x_c for m in self.members])


def _logit_matrix(points: np.ndarray, y: int, models, eps: float) -> np.ndarray:
    """Per-model logit confidences on label y, shape [num_models, num_points]."""
    rows = []
    for m in models:
        probs = np.asarray(m.predict_proba_batch(points))[:, y]
        rows.append([logit(float(p), eps) for p in probs])
    return np.asarray(rows)


def _moments(column: np.ndarray) -> tuple[float, float]:
    return float(column.mean()), max(float(column.var()), VAR_FLOOR)


def fit_logit_stats(x: np.ndarray, y: int, in_models, out_models,
                    eps: float = LOGIT_EPS) -> LogitStats:
    """Mean and floored population variance of logit confidences per side."""
    if len(in_models) < 2 or len(out_models) < 2:
        raise ValueError("need at least 2 models on each side")
    point = np.atleast_2d(np.asarray(x, dtype=np.float64))
    mu_in, var_in = _moments(_logit_matrix(point, y, in_models, eps)[:, 0])
    mu_out, var_out = _moments(_logit_matrix(point, y, out_models, eps)[:, 0])
    return LogitStats(mu_in, var_in, mu_out, var_out)


def kl_gaussian(a: tuple[float, float], b: tuple[float, float]) -> float:
    """KL(N(mu_a, var_a) || N(mu_b, var_b)), closed form."""
    mu_a, var_a = a
    mu_b, var_b = b
    if var_a <= 0 or var_b <= 0:
        raise ValueError("variances must be positive")
    return 0.5 * math.log(var_b / var_a) + (var_a + (mu_a - mu_b) ** 2) / (2.0 * var_b) - 0.5


def select_neighborhood(challenge: tuple[np.ndarray, int],
                        candidates: list[NeighborCandidate],
                        in_models, out_models, t_nb: float, n: int,
                        eps: float = LOGIT_EPS) -> NeighborhoodSet:
    """Admit candidates whose IN and OUT logit fits are both KL-close.

    A candidate passes when KL(candidate_IN || challenge_IN) <= t_nb and
    KL(candidate_OUT || challenge_OUT) <= t_nb.  If more than n pass, the n
    with smallest max(kl_in, kl_out) are kept; if fewer, the closest failing
    candidates fill the remainder and the set is flagged.
    """
    if not candidates:
        raise ValueError("empty candidate pool")
    x, y = challenge
    if any(c.label != y for c in candidates):
        raise ValueError("candidates must share the challenge label")
    if len(in_models) < 2 or len(out_models) < 2:
        raise ValueError("need at least 2 models on each side")

    # One batched pass per model over [challenge, candidates...].
    points = np.vstack([np.asarray(x, dtype=np.float64)[None, :],
                        np.stack([c.x_c for c in candidates])])
    logits_in = _logit_matrix(points, y, in_models, eps)
    logits_out = _logit_matrix(points, y, out_models, eps)
    ref_in = _moments(logits_in[:, 0])
    ref_out = _moments(logits_out[:, 0])

    scored = []
    for idx, cand in enumerate(candidates):
        kl_in = kl_gaussian(_moments(logits_in[:, idx + 1]), ref_in)
        kl_out = kl_gaussian(_moments(logits_out[:, idx + 1]), ref_out)
        passed = kl_in <= t_nb and kl_out <= t_nb
        scored.append((max(kl_in, kl_out), idx, cand, kl_in, kl_out, passed))

    passing = sorted(s for s in scored if s[5])
    failing = sorted(s for s in scored if not s[5])
    if len(passing) >= n:
        chosen = passing[:n]
        fallback = False
    else:
        chosen = passing + failing[:n - len(passing)]
        fallback = len(chosen) > len(passing)

    chosen_ids = {s[1] for s in chosen}
    diagnostics = [
        CandidateDiagnostics(idx, kl_in, kl_out, passed, idx in chosen_ids)
        for _, idx, _, kl_in, kl_out, passed in sorted(scored, key=lambda s: s[1])
    ]
    return NeighborhoodSet(
        members=[s[2] for s in chosen],
        threshold_used=t_nb,
        member_kls=[(s[3], s[4]) for s in chosen],
        fallback_filled=fallback,
        diagnostics=diagnostics,
    )


def _feature_hash(x: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(x, dtype="<f8").tobytes()).hexdigest()[:16]


def export_diagnostics_csv(path: str, per_point: dict[int, NeighborhoodSet],
                           candidate_pools: dict[int, list[NeighborCandidate]]) -> None:
    """Per-candidate selection record for ablation plots."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["challenge_index", "candidate_hash", "kl_in", "kl_out",
                         "admitted", "selected"])
        for point in sorted(per_point):
            pool = candidate_pools[point]
            for diag in per_point[point].diagnostics:
                writer.writerow([
                    point, _feature_hash(pool[diag.index].x_c),
                    repr(diag.kl_in), repr(diag.kl_out),
                    int(diag.admitted), int(diag.selected),
                ])

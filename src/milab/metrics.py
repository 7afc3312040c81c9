"""ROC analysis for membership scores: TPR at fixed FPR, AUC, MI accuracy.

The ROC is the achievable step function: thresholds sweep the unique observed
scores in descending order (plus a sentinel above all scores), predicting
"member" iff score >= threshold.  No interpolation is applied anywhere, so
results are reproducible bit-for-bit across implementations.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

DEFAULT_FPR_TARGETS = (0.001, 0.01, 0.05, 0.10)


@dataclass
class RocCurve:
    """Step-function ROC points sorted by FPR, from (0, .) to (1, 1)."""

    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray


@dataclass
class MetricReport:
    """Metrics of one attack; ``to_dict`` leaves out the ROC curve and the
    TPR at the FPR resolution."""

    tpr_at: dict[float, float]
    auc: float
    mi_accuracy: float
    n_in: int
    n_out: int
    fpr_resolution: float = 0.0
    notes: list[str] = field(default_factory=list)
    tpr_at_resolution: float = 0.0
    curve: RocCurve | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "tpr_at": {repr(k): v for k, v in sorted(self.tpr_at.items())},
            "auc": self.auc,
            "mi_accuracy": self.mi_accuracy,
            "n_in": self.n_in,
            "n_out": self.n_out,
            "fpr_resolution": self.fpr_resolution,
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _as_scores(scores) -> np.ndarray:
    arr = np.asarray(scores, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("empty score list")
    return arr


def _share_at_least(scores: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Per threshold t, the share of ``scores`` that are >= t, from one sort:
    the count over ``scores.size``, as ``np.mean(scores >= t)`` divides it.
    A NaN score is never >= t."""
    ranked = np.sort(scores[~np.isnan(scores)])
    return (ranked.size - np.searchsorted(ranked, thresholds, "left")) / scores.size


def roc_curve(scores_in, scores_out) -> RocCurve:
    """Threshold sweep over unique scores, descending; member iff score >= t."""
    s_in, s_out = _as_scores(scores_in), _as_scores(scores_out)
    thresholds = np.unique(np.concatenate([s_in, s_out]))[::-1]
    thresholds = np.concatenate([[np.inf], thresholds])
    return RocCurve(fpr=_share_at_least(s_out, thresholds),
                    tpr=_share_at_least(s_in, thresholds), thresholds=thresholds)


def tpr_at_fpr(curve: RocCurve, fpr_target: float) -> float:
    """Max TPR over curve points with FPR <= target (step reading)."""
    if not 0 <= fpr_target <= 1:
        raise ValueError("fpr_target must be in [0, 1]")
    ok = curve.fpr <= fpr_target
    return float(curve.tpr[ok].max()) if ok.any() else 0.0


def auc(scores_in, scores_out) -> float:
    """P(random IN score > random OUT score), ties counted 1/2."""
    s_in, s_out = _as_scores(scores_in), _as_scores(scores_out)
    # Midranks over the pooled sample give the Mann-Whitney statistic; the
    # ``count`` scores tied at one value share the mean of the ranks they
    # span, the last of which is the cumulative count.
    _, inverse, counts = np.unique(np.concatenate([s_in, s_out]),
                                   return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]
    r_in = ranks[:s_in.size].sum()
    u = r_in - s_in.size * (s_in.size + 1) / 2.0
    return float(u / (s_in.size * s_out.size))


def compute_report(scores_in, scores_out) -> MetricReport:
    """Full report at ``DEFAULT_FPR_TARGETS``; warns of a target FPR below 1/n_out."""
    s_in, s_out = _as_scores(scores_in), _as_scores(scores_out)
    curve = roc_curve(s_in, s_out)
    resolution = 1.0 / s_out.size
    notes = []
    for t in DEFAULT_FPR_TARGETS:
        if 0 < t < resolution:
            msg = (f"requested FPR {t} is below the resolution {resolution:.6g} "
                   f"achievable with {s_out.size} OUT observations")
            notes.append(msg)
            logger.warning(msg)
    return MetricReport(
        tpr_at={float(t): tpr_at_fpr(curve, t) for t in DEFAULT_FPR_TARGETS},
        auc=auc(s_in, s_out),
        mi_accuracy=float(np.max((curve.tpr + 1.0 - curve.fpr) / 2.0)),
        n_in=s_in.size,
        n_out=s_out.size,
        fpr_resolution=resolution,
        notes=notes,
        tpr_at_resolution=tpr_at_fpr(curve, resolution),
        curve=curve,
    )


def write_roc_csv(path: str, curve: RocCurve) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("fpr,tpr,threshold\n")
        for fp, tp, th in zip(curve.fpr, curve.tpr, curve.thresholds):
            f.write(f"{fp!r},{tp!r},{th!r}\n")

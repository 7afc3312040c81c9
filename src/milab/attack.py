"""Label-only distinguishing tests: the neighborhood misclassification score
and the correct/incorrect baseline.

Both take the points as the rows of one matrix and their labels as one
vector; chameleon takes the neighbors as one [points, size, dim] array.

Target models are reached only through :class:`LabelOnlyModel`, which exposes
predicted labels and a query counter but no confidences, so every attack here
is label-only by construction.
"""

from __future__ import annotations

import csv

import numpy as np

CHAMELEON = "chameleon"
GAP = "gap"


class LabelOnlyModel:
    """Label-only query facade over a trained model; counts every query.

    Wraps anything exposing ``predict_label_batch`` (a ``ModelParams`` takes
    the argmax of its logits, ties to the lowest class) and surfaces only
    those labels, one batch per call.
    """

    def __init__(self, model):
        self._model = model
        self.query_count = 0

    def predict_label_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        self.query_count += X.shape[0]
        return self._model.predict_label_batch(X)


def chameleon_score(target, X: np.ndarray, y: np.ndarray,
                    members: np.ndarray) -> np.ndarray:
    """Per challenge point (row of ``X``, label in ``y``), 1 minus the
    fraction of it and its neighbors (the rows of ``members[p]``) the target
    mislabels, from one label query batch of size + 1 rows per point."""
    points, size, dim = members.shape
    rows = np.concatenate([X[:, None, :], members], axis=1).reshape(-1, dim)
    wrong = target.predict_label_batch(rows).reshape(points, size + 1) != y[:, None]
    # Each point's count is an exact float sum, as np.mean's is.
    return 1.0 - wrong.sum(axis=1, dtype=np.float64) / (size + 1)


def gap_score(target, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Baseline: member iff the target labels the point correctly; one label
    query batch with one row per point."""
    return (target.predict_label_batch(X) == y).astype(np.float64)


def write_scores_csv(path: str, scores: dict[str, np.ndarray], truth: np.ndarray,
                     indices: np.ndarray) -> None:
    """One row per (attack, target, point): ``scores[attack][j, p]`` is the
    score of target j on the point at position p, whose pool index is
    ``indices[p]`` and whose membership bit is ``truth[j, p]``."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["attack", "challenge_index", "model_id", "truth", "score"])
        indices, bits = indices.tolist(), truth.astype(int).tolist()
        for attack, matrix in scores.items():
            for j, (row, member) in enumerate(zip(matrix.tolist(), bits)):
                writer.writerows([attack, idx, j, bit, repr(score)]
                                 for idx, bit, score in zip(indices, member, row))


def read_scores_csv(path: str) -> dict[str, tuple[list[float], list[float]]]:
    """Per attack, its (member, non-member) scores in file order.

    Raises ValueError when the header lacks an ``attack``, ``truth`` or
    ``score`` column, no row follows it, a truth is not 0 or 1, or a score
    is outside [0, 1]."""
    split: dict[str, tuple[list[float], list[float]]] = {}
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.DictReader(f)
        missing = [col for col in ("attack", "truth", "score")
                   if col not in (reader.fieldnames or [])]
        if missing:
            raise ValueError(f"no {', '.join(missing)} column")
        for row in reader:
            score = float(row["score"])
            if not 0 <= score <= 1:
                raise ValueError("score must be in [0, 1]")
            truth = int(row["truth"])
            if truth not in (0, 1):
                raise ValueError("truth must be 0 or 1")
            s_in, s_out = split.setdefault(row["attack"], ([], []))
            (s_in if truth else s_out).append(score)
    if not split:
        raise ValueError("no score rows")
    return split

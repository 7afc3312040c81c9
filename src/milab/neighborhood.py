"""Membership neighborhood: Gaussian logit fits over shadow models and
KL-divergence candidate selection, in two steps.

``fit_kl`` is the costly step.  For a point (x, y), the logit of the model
confidence on label y is fitted with a Gaussian separately over IN shadow
models (trained with the point) and OUT models (trained without it), and each
candidate neighbor's fits are compared with the point's by KL divergence, the
candidate distribution as the first argument.  The result is a pure function
of the point, its candidate pool and the shadow models, which carry no
poison; no threshold or size enters it, so the harness caches it.

``select_neighborhood`` is the cheap step: the neighborhood is the ``n``
candidates of the pool with the smallest max(kl_in, kl_out), ties going to
the lower row, and the KL threshold only flags which candidates are admitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .nncore import logit

VAR_FLOOR = 1e-6


@dataclass
class CandidateDiagnostics:
    kl_in: float
    kl_out: float
    admitted: bool
    selected: bool


@dataclass(eq=False)
class NeighborhoodSet:
    """Selected neighbors with their KL diagnostics, as arrays over the rows
    of the candidate pool.

    ``features`` holds the members' features as one [n, dim] matrix, n the
    configured size. ``kl`` is the pool's ``fit_kl`` array [2, pool_size]
    (kl_in, kl_out); ``admitted[j]`` and ``selected[j]`` flag whether row j
    passed the threshold and whether it is a member. ``fallback_filled``
    flags a set in which fewer than n candidates pass the threshold, so some
    members are closest failing candidates.
    """

    fallback_filled: bool
    kl: np.ndarray
    admitted: np.ndarray
    selected: np.ndarray
    features: np.ndarray = field(repr=False)

    @property
    def diagnostics(self) -> list[CandidateDiagnostics]:
        """One record per pool row, built from the arrays on each access."""
        return [CandidateDiagnostics(*fields)
                for fields in zip(self.kl[0].tolist(), self.kl[1].tolist(),
                                  self.admitted.tolist(), self.selected.tolist())]


def _logit_matrix(points: np.ndarray, y: int, models) -> np.ndarray:
    """Per-model logit confidences on label y, shape [num_points, num_models]."""
    probs = np.stack([np.asarray(m.predict_proba_batch(points))[:, y] for m in models],
                     axis=1)
    return logit(probs)


def _moments(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and floored population variance over the models (last) axis.

    Reducing along the contiguous last axis sums each point's logits in the
    same order as reducing that point's column alone; ``axis=0`` would not.
    """
    return logits.mean(axis=-1), np.maximum(logits.var(axis=-1), VAR_FLOOR)


def kl_gaussian(a, b) -> float | np.ndarray:
    """KL(N(mu_a, var_a) || N(mu_b, var_b)), closed form.

    ``mu_a`` and ``var_a`` may be arrays of one shape, giving one divergence
    per element against the same ``b``; scalars give a float. The log and
    the square run on Python floats (``math.log``, ``** 2``), because numpy's
    ``np.log`` and ``d ** 2`` (which is ``d * d``) can differ from them in the
    last bit.
    """
    mu_a, var_a = (np.asarray(v, dtype=np.float64) for v in a)
    mu_b, var_b = b
    if np.any(var_a <= 0) or var_b <= 0:
        raise ValueError("variances must be positive")
    log_ratio = list(map(math.log, np.ravel(var_b / var_a).tolist()))
    square = [d ** 2 for d in np.ravel(mu_a - mu_b).tolist()]
    kl = (0.5 * np.reshape(log_ratio, var_a.shape)
          + (var_a + np.reshape(square, mu_a.shape)) / (2.0 * var_b) - 0.5)
    return float(kl) if kl.ndim == 0 else kl


def _kl_to_challenge(logits: np.ndarray) -> np.ndarray:
    """KL of each candidate's fit (rows 1..) against the challenge's (row 0)."""
    mu, var = _moments(logits)
    return kl_gaussian((mu[1:], var[1:]), (float(mu[0]), float(var[0])))


def fit_kl(challenge: tuple[np.ndarray, int], candidates: np.ndarray,
           in_models, out_models) -> np.ndarray:
    """The [2, len(candidates)] float64 divergences of the candidates (rows
    of ``candidates``) from the challenge point: row 0 holds each
    KL(candidate_IN || challenge_IN), row 1 each KL(candidate_OUT ||
    challenge_OUT)."""
    if len(candidates) == 0:
        raise ValueError("empty candidate pool")
    if len(in_models) < 2 or len(out_models) < 2:
        raise ValueError("need at least 2 models on each side")
    x, y = challenge
    # One batched pass per model over [challenge, candidates...].
    points = np.vstack([np.asarray(x, dtype=np.float64)[None, :], candidates])
    return np.stack([_kl_to_challenge(_logit_matrix(points, y, in_models)),
                     _kl_to_challenge(_logit_matrix(points, y, out_models))])


def select_neighborhood(kl: np.ndarray, candidates: np.ndarray, t_nb: float,
                        n: int) -> NeighborhoodSet:
    """Keep the n candidates (rows of ``candidates``) whose fits are
    KL-closest to the challenge point's, given their ``fit_kl`` divergences.

    The members are the n smallest max(kl_in, kl_out), ties going to the
    lower row.  A candidate is admitted when KL(candidate_IN || challenge_IN)
    <= t_nb and KL(candidate_OUT || challenge_OUT) <= t_nb, that is when its
    max KL is at most t_nb, so the admitted candidates lead that order and
    t_nb sets only the ``admitted`` and ``fallback_filled`` flags.
    """
    kl_in, kl_out = kl
    passed = (kl_in <= t_nb) & (kl_out <= t_nb)

    # Candidates by (max KL, row), as a stable sort keeps tied rows in row
    # order: the passing ones lead, since a candidate passes exactly when its
    # max KL is at most t_nb.
    order = np.argsort(np.maximum(kl_in, kl_out), kind="stable")
    chosen = order[:n]
    selected = np.zeros(len(candidates), dtype=bool)
    selected[chosen] = True

    # The members are rows of one matrix, so scoring needs no restacking and
    # the set keeps no reference to the rest of the candidate pool.
    return NeighborhoodSet(
        fallback_filled=len(chosen) > int(passed.sum()),
        kl=kl,
        admitted=passed,
        selected=selected,
        features=candidates[chosen],
    )


# The header of ``neighborhood_diagnostics.csv``; ``diagnostics_rows`` writes
# each point's rows under it.
DIAGNOSTICS_HEADER = "challenge_index,candidate,kl_in,kl_out,admitted,selected\r\n"


def kl_text(kl: np.ndarray) -> str:
    """The printed form of a ``fit_kl`` array [2, pool_size]: one line
    "j,repr(kl_in),repr(kl_out)\\n" per pool row j, in row order. The cache
    stores it beside the floats, so a cached fit is printed only once."""
    return "".join([f"{j},{a!r},{b!r}\n" for j, (a, b) in enumerate(zip(*kl.tolist()))])


def diagnostics_rows(index: int, text: str, chosen: NeighborhoodSet) -> str:
    """The rows of ``neighborhood_diagnostics.csv`` for one point's pool.

    ``index`` is the point's pool index, the ``challenge_index`` of its rows
    as in ``scores.csv``; a row's ``candidate`` is its row in the point's
    seeded candidate pool. ``text`` is ``kl_text(chosen.kl)``, fresh or from
    the cache, so no float is printed here.

    The rows are in ``csv.writer``'s default dialect: no field holds a comma,
    quote or line break, so none is quoted, and each row ends in its "\\r\\n"
    terminator. Each printed row is followed by one of four suffixes, picked
    by ``2*admitted + selected``, that ends the row and starts the next."""
    head = f"{index},"
    suffixes = [f",{a},{s}\r\n{head}" for a in (0, 1) for s in (0, 1)]
    rows = text.split("\n")  # the pool's rows, then the empty rest
    parts = [""] * (2 * len(rows) - 1)
    parts[0::2] = rows
    parts[1::2] = [suffixes[code]
                   for code in (2 * chosen.admitted + chosen.selected).tolist()]
    # The last suffix starts a row that does not exist.
    return (head + "".join(parts))[:-len(head)]

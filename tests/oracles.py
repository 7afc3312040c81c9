"""Independent oracles the tests check the package against.

None of these runs in a game: ``prob_correct`` and ``np_oracle`` re-derive
the closed-form optimum of ``milab.theory.optimal_tpr`` through the
two-variable linear program, and ``mean_loss`` and ``mean_grads`` give the
mean cross-entropy of a batch and its analytic gradient for
finite-difference checks of ``milab.nncore``'s backward pass.
"""

import math

import numpy as np

from milab import nncore
from milab.theory import OptimalAttackPoint, TheoryParams


def prob_correct(params: TheoryParams) -> float:
    """Probability the trained model classifies the challenge point correctly.

    Equals 1 / (e^{(k-m1)/tau} + 1 + (C-2) e^{-m1/tau}); evaluated with the
    largest exponent factored out so it never overflows and degrades
    gracefully to 0.0 when the probability underflows float64.
    """
    a1 = (params.k - params.m1) / params.tau
    a3 = -params.m1 / params.tau
    m = max(a1, 0.0)
    denom = (math.exp(a1 - m) + math.exp(-m)
             + (params.num_classes - 2) * math.exp(a3 - m))
    return math.exp(-m) / denom


def np_oracle(params: TheoryParams) -> OptimalAttackPoint:
    """Independent optimum via the two-variable linear program.

    The label-only observation is binary: the model's answer on the challenge
    point is correct or not.  A randomized test says "member" with probability
    p0 on a correct answer and p1 on an incorrect one.  Maximising
    p0*a_in + p1*(1-a_in) subject to p0*a_out + p1*(1-a_out) = x' over the
    unit square is linear along the feasible segment, so the optimum sits at
    one of its endpoints; both are evaluated explicitly.
    """
    x = params.x_prime
    a_out = prob_correct(TheoryParams(params.tau, params.num_classes, params.k, 0))
    a_in = prob_correct(TheoryParams(params.tau, params.num_classes, params.k, 1))

    if a_out == 0.0:
        # Degenerate regime: correct answers never occur under H0, so p0 is
        # unconstrained and the best test sets p0 = 1, p1 = x'.
        return OptimalAttackPoint(k=params.k, tpr=a_in + x * (1.0 - a_in),
                                  p=x, fpr=x)

    # Feasible p1 interval from 0 <= p0 <= 1 intersected with [0, 1].
    p1_lo = max(0.0, (x - a_out) / (1.0 - a_out))
    p1_hi = min(1.0, x / (1.0 - a_out))
    best = None
    for p1 in (p1_lo, p1_hi):
        p0 = (x - p1 * (1.0 - a_out)) / a_out
        p0 = min(1.0, max(0.0, p0))
        tpr = p0 * a_in + p1 * (1.0 - a_in)
        if best is None or tpr > best[0]:
            best = (tpr, p1)
    return OptimalAttackPoint(k=params.k, tpr=best[0], p=best[1], fpr=x)


def mean_loss(layers: nncore.LayerList, X: np.ndarray, y: np.ndarray) -> float:
    """Mean cross-entropy over a batch (used by finite-difference checks)."""
    p_y = nncore.forward(layers, X)[np.arange(X.shape[0]), y]
    return -np.log(np.maximum(p_y, 1e-300)).sum() / X.shape[0]


def mean_grads(layers: nncore.LayerList, X: np.ndarray,
               y: np.ndarray) -> nncore.LayerList:
    """Analytic gradient of the mean cross-entropy over a batch, through the
    training step's own forward/backward pass and contraction."""
    acts, deltas, _ = nncore._forward_backward(
        layers, X, np.eye(layers[-1][0].shape[0])[y])
    grads = [(np.empty_like(w), np.empty_like(b)) for w, b in layers]
    nncore._contract_grads(acts, deltas, grads)
    n = X.shape[0]
    return [(gw / n, gb / n) for gw, gb in grads]

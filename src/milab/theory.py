"""Closed-form analysis of label-only membership inference under poisoning.

The training process is idealised as a temperature posterior: with k poisoned
replicas (same features, wrong label) in the training set, the probability
that a model classifies the challenge point correctly has a closed form in
(tau, C, k, m1), where m1 is the membership bit.  From the two resulting
Bernoulli observation distributions, the best randomized label-only test at a
fixed false positive rate is a two-variable linear program whose optimum has
a closed form; ``np_oracle`` re-derives it by direct boundary analysis of the
LP and serves as an independent check on ``optimal_tpr``.

All evaluations factor exponentials so that only non-positive exponents are
ever taken, and the optimum is computed in a cancellation-free arrangement;
the formulas stay accurate for k/tau far beyond float64's naive exp range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class TheoryParams:
    """Inputs of the closed-form attack model.

    tau: temperature of the idealised training posterior (> 0).
    num_classes: C >= 2.
    k: number of poisoned replicas of the challenge point (>= 0).
    m1: membership bit of the challenge point (0 or 1).
    x_prime: target false positive rate as a fraction (x% FPR -> x/100).
    """

    tau: float
    num_classes: int
    k: int = 0
    m1: int = 0
    x_prime: float = 0.0

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError("tau must be > 0")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.k < 0:
            raise ValueError("k must be >= 0")
        if self.m1 not in (0, 1):
            raise ValueError("m1 must be 0 or 1")
        if not 0 <= self.x_prime <= 1:
            raise ValueError("x_prime must be in [0, 1]")


@dataclass(frozen=True)
class OptimalAttackPoint:
    """Best achievable operating point of the randomized label-only test."""

    k: int
    tpr: float
    p: float
    fpr: float


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


def optimal_tpr(params: TheoryParams) -> OptimalAttackPoint:
    """Maximum TPR of a label-only test at FPR = x_prime with k replicas.

    Closed form: with N1 = (C-1) + e^{k/tau} and
    D = e^{(k-1)/tau} + (C-2) e^{-1/tau} + 1,

        TPR = x' * N1 / D - p * (N1 - D) / D,
        p   = max(0, (x' * N1 - 1) / (N1 - 1)).

    For p > 0 the two terms nearly cancel, so that branch is evaluated in the
    equivalent arrangement TPR = (x'(1 - 1/D) + 1/D - 1/N1) / (1 - 1/N1),
    whose terms are all non-negative.
    """
    x = params.x_prime
    if x >= 1.0:
        return OptimalAttackPoint(k=params.k, tpr=1.0, p=1.0, fpr=x)
    s = params.k / params.tau
    es = math.exp(-s)                      # e^{-k/tau}
    c2 = params.num_classes - 2
    # All quantities scaled by e^{-s}: N1' = N1 e^{-s}, D' = D e^{-s}.
    n1s = (params.num_classes - 1) * es + 1.0
    ds = math.exp(-1.0 / params.tau) + c2 * math.exp(-(params.k + 1) / params.tau) + es

    p = max(0.0, (x * n1s - es) / (n1s - es))
    if p == 0.0:
        tpr = x * n1s / ds
    else:
        inv_d = es / ds
        inv_n1 = es / n1s
        tpr = (x * (1.0 - inv_d) + inv_d - inv_n1) / (1.0 - inv_n1)
    return OptimalAttackPoint(k=params.k, tpr=tpr, p=p, fpr=x)


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


def tpr_vs_k_curve(tau: float, num_classes: int, x_prime: float,
                   k_range) -> list[OptimalAttackPoint]:
    """Optimal operating points across replica counts (for the k-sweep plot)."""
    k_range = list(k_range)
    if not k_range:
        raise ValueError("k_range must be non-empty")
    return [optimal_tpr(TheoryParams(tau, num_classes, k, 0, x_prime))
            for k in k_range]

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milab import theory as th
from oracles import np_oracle, prob_correct


def naive_optimal_tpr(tau, C, k, x):
    """Direct transcription of the closed form, valid while e^{k/tau} fits."""
    ek = math.exp(k / tau)
    ek1 = math.exp((k - 1) / tau)
    em1 = math.exp(-1 / tau)
    D = ek1 + (C - 2) * em1 + 1
    p = max(0.0, (x * (C - 1) + x * ek - 1) / ((C - 2) + ek))
    return (x * ((C - 1) + ek) / D
            - p * (ek - ek1 + (C - 2) * (1 - em1)) / D)


class TestProbCorrect:
    def test_no_poison_nonmember_is_uniform(self):
        for C in (2, 3, 10, 57):
            assert prob_correct(th.TheoryParams(0.8, C, k=0, m1=0)) == 1.0 / C

    def test_frozen_reference_values(self):
        # 1 / (e^{-2} + 1 + 8 e^{-2}) = 0.45085306037928382251...
        got = prob_correct(th.TheoryParams(0.5, 10, k=0, m1=1))
        assert got == pytest.approx(0.4508530603792838, abs=1e-14)
        # 1 / (e^4 + 9) = 0.015723727804642886726...
        got = prob_correct(th.TheoryParams(0.5, 10, k=2, m1=0))
        assert got == pytest.approx(0.015723727804642887, abs=1e-14)

    def test_member_at_least_nonmember(self):
        gen = np.random.default_rng(0)
        for _ in range(1000):
            tau = gen.uniform(0.1, 2.0)
            C = int(gen.integers(2, 101))
            k = int(gen.integers(0, 21))
            p_in = prob_correct(th.TheoryParams(tau, C, k, m1=1))
            p_out = prob_correct(th.TheoryParams(tau, C, k, m1=0))
            assert p_in >= p_out

    def test_strictly_decreasing_in_k(self):
        gen = np.random.default_rng(1)
        for _ in range(200):
            tau = gen.uniform(0.1, 2.0)
            C = int(gen.integers(2, 101))
            m1 = int(gen.integers(0, 2))
            values = [prob_correct(th.TheoryParams(tau, C, k, m1))
                      for k in range(15)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_binary_case_reduces_to_sigmoids(self):
        # With C=2 the closed form is a sigmoid: sigma(-k/tau) for
        # non-members, sigma((1-k)/tau) for members.
        sigma = lambda v: 1.0 / (1.0 + math.exp(-v))
        for tau in (0.3, 0.5, 1.7):
            for k in range(8):
                out = prob_correct(th.TheoryParams(tau, 2, k, m1=0))
                assert out == pytest.approx(sigma(-k / tau), rel=1e-12)
                inn = prob_correct(th.TheoryParams(tau, 2, k, m1=1))
                assert inn == pytest.approx(sigma((1 - k) / tau), rel=1e-12)

    def test_huge_exponent_underflows_gracefully(self):
        assert prob_correct(th.TheoryParams(0.01, 10, k=10_000, m1=0)) == 0.0


class TestOptimalTpr:
    def test_full_fpr_budget_gives_one_exactly(self):
        for tau, C, k in ((0.5, 10, 0), (0.1, 2, 7), (2.0, 33, 20)):
            point = th.optimal_tpr(th.TheoryParams(tau, C, k, 0, x_prime=1.0))
            assert point.tpr == 1.0

    def test_zero_fpr(self):
        point = th.optimal_tpr(th.TheoryParams(0.5, 10, 2, 0, x_prime=0.0))
        assert point.tpr == 0.0
        assert point.p == 0.0

    def test_matches_direct_formula_in_safe_range(self):
        gen = np.random.default_rng(2)
        for _ in range(500):
            tau = gen.uniform(0.3, 2.0)
            C = int(gen.integers(2, 50))
            k = int(gen.integers(0, 10))
            x = float(gen.uniform(0, 1))
            stable = th.optimal_tpr(th.TheoryParams(tau, C, k, 0, x)).tpr
            assert stable == pytest.approx(naive_optimal_tpr(tau, C, k, x), abs=1e-11)

    def test_agrees_with_lp_oracle(self):
        gen = np.random.default_rng(3)
        for _ in range(1500):
            params = th.TheoryParams(gen.uniform(0.1, 2.0), int(gen.integers(2, 101)),
                                     int(gen.integers(0, 21)), 0, float(gen.uniform(0, 1)))
            a = th.optimal_tpr(params)
            b = np_oracle(params)
            assert abs(a.tpr - b.tpr) < 1e-9

    @given(st.floats(0.1, 2.0), st.integers(2, 100), st.integers(0, 20),
           st.floats(0, 1))
    @settings(max_examples=300, deadline=None)
    def test_outputs_are_probabilities(self, tau, C, k, x):
        point = th.optimal_tpr(th.TheoryParams(tau, C, k, 0, x))
        assert 0.0 <= point.tpr <= 1.0
        assert 0.0 <= point.p <= 1.0

    def test_tpr_at_least_fpr(self):
        # Randomizing independently of the observation achieves TPR = FPR, so
        # the optimum can never fall below the diagonal.
        gen = np.random.default_rng(4)
        for _ in range(300):
            params = th.TheoryParams(gen.uniform(0.1, 2.0), int(gen.integers(2, 40)),
                                     int(gen.integers(0, 12)), 0, float(gen.uniform(0, 1)))
            assert th.optimal_tpr(params).tpr >= params.x_prime - 1e-12


class TestNpOracle:
    def test_zero_fpr_boundary(self):
        point = np_oracle(th.TheoryParams(0.5, 10, 2, 0, x_prime=0.0))
        assert point.tpr == 0.0

    def test_accept_all_policy(self):
        point = np_oracle(th.TheoryParams(0.5, 10, 2, 0, x_prime=1.0))
        assert point.tpr == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_out_distribution(self):
        # k/tau so large that a correct answer never happens under H0.
        params = th.TheoryParams(0.01, 10, 10_000, 0, x_prime=0.25)
        point = np_oracle(params)
        assert point.tpr == pytest.approx(0.25, abs=1e-12)


class TestKCurve:
    def test_default_shape_rises_then_falls(self):
        curve = th.tpr_vs_k_curve(0.5, 10, 0.05, range(7))
        tprs = [p.tpr for p in curve]
        peak = int(np.argmax(tprs))
        assert tprs[1] > tprs[0]
        assert 1 <= peak <= 4
        assert tprs[6] < tprs[peak]

    def test_all_points_in_unit_interval(self):
        curve = th.tpr_vs_k_curve(0.5, 10, 0.05, range(11))
        assert all(0 <= p.tpr <= 1 and 0 <= p.p <= 1 for p in curve)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            th.tpr_vs_k_curve(0.5, 10, 0.05, [])


class TestValidation:
    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            th.TheoryParams(0.0, 10)
        with pytest.raises(ValueError):
            th.TheoryParams(0.5, 1)
        with pytest.raises(ValueError):
            th.TheoryParams(0.5, 10, k=-1)
        with pytest.raises(ValueError):
            th.TheoryParams(0.5, 10, m1=2)
        with pytest.raises(ValueError):
            th.TheoryParams(0.5, 10, x_prime=1.5)

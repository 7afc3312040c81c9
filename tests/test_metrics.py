from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milab import metrics as mt


def brute_force_points(scores_in, scores_out):
    """All achievable (fpr, tpr) operating points of the >=-threshold rule."""
    points = set()
    for t in list(scores_in) + list(scores_out) + [np.inf]:
        tpr = np.mean(np.asarray(scores_in) >= t)
        fpr = np.mean(np.asarray(scores_out) >= t)
        points.add((fpr, tpr))
    return points


def loop_roc(s_in, s_out):
    """The per-threshold sweep: one np.mean over all scores per threshold."""
    thresholds = np.concatenate([[np.inf], np.unique(np.concatenate([s_in, s_out]))[::-1]])
    return (np.array([np.mean(s_out >= t) for t in thresholds]),
            np.array([np.mean(s_in >= t) for t in thresholds]), thresholds)


TIED_SCORES = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, np.inf, -np.inf, np.nan]),
              st.floats(allow_nan=True, allow_infinity=True)),
    min_size=1, max_size=40)


class TestRocCurve:
    @given(TIED_SCORES, TIED_SCORES)
    @settings(max_examples=200, deadline=None)
    def test_same_floats_as_the_per_threshold_loop(self, s_in, s_out):
        s_in, s_out = np.array(s_in), np.array(s_out)
        curve = mt.roc_curve(s_in, s_out)
        for got, want in zip((curve.fpr, curve.tpr, curve.thresholds),
                             loop_roc(s_in, s_out)):
            assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_perfect_separation_passes_zero_one(self):
        curve = mt.roc_curve([1, 1], [0, 0])
        assert (0.0, 1.0) in set(zip(curve.fpr, curve.tpr))

    def test_identical_distributions_sit_on_diagonal(self):
        scores = [0.1, 0.4, 0.4, 0.9]
        curve = mt.roc_curve(scores, scores)
        np.testing.assert_array_equal(curve.fpr, curve.tpr)

    def test_starts_at_zero_ends_at_one_one(self):
        gen = np.random.default_rng(0)
        curve = mt.roc_curve(gen.random(9), gen.random(7))
        assert curve.fpr[0] == 0.0
        assert (curve.fpr[-1], curve.tpr[-1]) == (1.0, 1.0)
        assert np.all(np.diff(curve.fpr) >= 0)
        assert np.all(np.diff(curve.tpr) >= 0)

    def test_matches_exhaustive_threshold_enumeration(self):
        gen = np.random.default_rng(1)
        for _ in range(50):
            s_in = gen.integers(0, 5, size=gen.integers(1, 9)) / 4.0
            s_out = gen.integers(0, 5, size=gen.integers(1, 9)) / 4.0
            curve = mt.roc_curve(s_in, s_out)
            assert set(zip(curve.fpr, curve.tpr)) == brute_force_points(s_in, s_out)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mt.roc_curve([], [0.5])


class TestTprAtFpr:
    def test_endpoint_one(self):
        curve = mt.roc_curve([0.9, 0.1], [0.5, 0.6])
        assert mt.tpr_at_fpr(curve, 1.0) == 1.0

    def test_perfect_separation_at_zero(self):
        curve = mt.roc_curve([1, 1], [0, 0])
        assert mt.tpr_at_fpr(curve, 0.0) == 1.0

    def test_step_rule_below_resolution(self):
        # Curve has (0, 0.5): that value holds for any target below the
        # smallest achievable positive fpr.
        curve = mt.roc_curve([1.0, 0.2], [0.2, 0.2])
        assert mt.tpr_at_fpr(curve, 0.25) == 0.5

    def test_monotone_in_target(self):
        gen = np.random.default_rng(2)
        curve = mt.roc_curve(gen.random(20), gen.random(20))
        values = [mt.tpr_at_fpr(curve, t) for t in np.linspace(0, 1, 33)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_bad_target_rejected(self):
        curve = mt.roc_curve([1.0], [0.0])
        with pytest.raises(ValueError):
            mt.tpr_at_fpr(curve, 1.5)


def pairwise_auc(scores_in, scores_out):
    wins = Fraction(0)
    for a in scores_in:
        for b in scores_out:
            if a > b:
                wins += 1
            elif a == b:
                wins += Fraction(1, 2)
    return wins / (len(scores_in) * len(scores_out))


class TestAuc:
    def test_perfect_separation(self):
        assert mt.auc([1, 1, 1], [0, 0]) == 1.0

    def test_all_ties(self):
        assert mt.auc([0.5, 0.5], [0.5, 0.5, 0.5]) == 0.5

    def test_matches_pairwise_brute_force_exactly(self):
        gen = np.random.default_rng(3)
        for _ in range(200):
            s_in = (gen.integers(0, 9, size=gen.integers(1, 17)) / 8.0).tolist()
            s_out = (gen.integers(0, 9, size=gen.integers(1, 17)) / 8.0).tolist()
            expected = pairwise_auc(s_in, s_out)
            got = mt.auc(s_in, s_out)
            assert got == pytest.approx(float(expected), abs=1e-12)

    def test_consistent_with_curve_area(self):
        # Rectangle summation under the step curve, in exact arithmetic on
        # ties-free scores, equals the pairwise probability.
        gen = np.random.default_rng(4)
        for _ in range(30):
            pool = gen.permutation(64)[:gen.integers(4, 17)]
            half = max(1, len(pool) // 2)
            s_in, s_out = pool[:half], pool[half:]
            curve = mt.roc_curve(s_in, s_out)
            n_in, n_out = len(s_in), len(s_out)
            area = Fraction(0)
            prev_fpr = Fraction(0)
            for fp, tp in zip(curve.fpr, curve.tpr):
                f = Fraction(round(fp * n_out), n_out)
                t = Fraction(round(tp * n_in), n_in)
                area += (f - prev_fpr) * t
                prev_fpr = f
            assert mt.auc(s_in, s_out) == pytest.approx(float(area), abs=1e-12)


def exhaustive_mi_accuracy(scores_in, scores_out):
    best = 0.0
    for t in list(scores_in) + list(scores_out) + [np.inf]:
        tpr = np.mean(np.asarray(scores_in) >= t)
        tnr = np.mean(np.asarray(scores_out) < t)
        best = max(best, (tpr + tnr) / 2)
    return best


class TestMiAccuracy:
    def test_perfect_separation(self):
        assert mt.compute_report([1, 1], [0, 0]).mi_accuracy == 1.0

    def test_identical_distributions(self):
        assert mt.compute_report([0.3, 0.7], [0.3, 0.7]).mi_accuracy == 0.5

    def test_matches_exhaustive_threshold_search(self):
        gen = np.random.default_rng(5)
        for _ in range(200):
            s_in = gen.integers(0, 7, size=gen.integers(1, 17)) / 6.0
            s_out = gen.integers(0, 7, size=gen.integers(1, 17)) / 6.0
            assert mt.compute_report(s_in, s_out).mi_accuracy == pytest.approx(
                exhaustive_mi_accuracy(s_in, s_out), abs=1e-12)

    def test_never_below_half(self):
        gen = np.random.default_rng(6)
        for _ in range(50):
            s_in, s_out = gen.random(10), gen.random(10)
            assert mt.compute_report(s_in, s_out).mi_accuracy >= 0.5


class TestReport:
    def test_report_fields(self):
        gen = np.random.default_rng(7)
        report = mt.compute_report(gen.random(40) + 0.3, gen.random(40))
        assert set(report.tpr_at) == {0.001, 0.01, 0.05, 0.10}
        assert 0 <= report.auc <= 1
        assert report.n_in == report.n_out == 40
        assert report.fpr_resolution == pytest.approx(1 / 40)

    def test_warns_below_resolution(self):
        report = mt.compute_report([1.0] * 10, [0.0] * 10)
        # 0.1%, 1% and 5% are all below the 1/10 resolution.
        assert len(report.notes) == 3

    def test_json_round_trip_stable(self):
        report = mt.compute_report([1.0, 0.8], [0.1, 0.0])
        assert report.to_json() == mt.compute_report([1.0, 0.8], [0.1, 0.0]).to_json()

    def test_roc_csv(self, tmp_path):
        curve = mt.roc_curve([1.0, 0.5], [0.5, 0.0])
        path = tmp_path / "roc.csv"
        mt.write_roc_csv(str(path), curve)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "fpr,tpr,threshold"
        assert len(lines) == len(curve.fpr) + 1

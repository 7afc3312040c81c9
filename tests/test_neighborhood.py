import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from milab import neighborhood as nb
from milab.datagen import NeighborCandidate
from milab.nncore import logit
from stubs import FixedProbaModel, proba_key


def sigmoid(v):
    return 1.0 / (1.0 + math.exp(-v))


def lookup_models(confidence_lists, x, y, num_classes=4):
    """One stub model per confidence value, each pinning conf(x)[y]."""
    return [FixedProbaModel({proba_key(x): {y: c}}, num_classes)
            for c in confidence_lists]


class TestFitLogitStats:
    def test_degenerate_spread_hits_floor(self):
        x, y = np.array([1.0, 2.0]), 1
        models = lookup_models([0.7] * 4, x, y)
        stats = nb.fit_logit_stats(x, y, models, models)
        assert stats.var_in == nb.VAR_FLOOR
        assert stats.var_out == nb.VAR_FLOOR
        assert stats.mu_in == pytest.approx(logit(0.7), abs=1e-12)

    def test_two_point_population_moments(self):
        # Confidences chosen so the logits are exactly {0, 2}.
        x, y = np.array([0.5]), 0
        confs = [sigmoid(0.0), sigmoid(2.0)]
        models = lookup_models(confs, x, y)
        stats = nb.fit_logit_stats(x, y, models, models)
        assert stats.mu_in == pytest.approx(1.0, abs=1e-9)
        assert stats.var_in == pytest.approx(1.0, abs=1e-9)

    def test_matches_two_pass_reference(self):
        gen = np.random.default_rng(0)
        x, y = np.array([3.0, -1.0]), 2
        conf_in = gen.uniform(0.05, 0.95, 8)
        conf_out = gen.uniform(0.05, 0.95, 8)
        stats = nb.fit_logit_stats(x, y, lookup_models(conf_in, x, y),
                                   lookup_models(conf_out, x, y))
        for confs, mu, var in ((conf_in, stats.mu_in, stats.var_in),
                               (conf_out, stats.mu_out, stats.var_out)):
            logits = [logit(c) for c in confs]
            ref_mu = sum(logits) / len(logits)
            ref_var = sum((v - ref_mu) ** 2 for v in logits) / len(logits)
            assert mu == pytest.approx(ref_mu, rel=1e-12)
            assert var == pytest.approx(max(ref_var, nb.VAR_FLOOR), rel=1e-12)

    def test_too_few_models_rejected(self):
        x, y = np.array([0.0]), 0
        one = lookup_models([0.5], x, y)
        two = lookup_models([0.5, 0.6], x, y)
        with pytest.raises(ValueError):
            nb.fit_logit_stats(x, y, one, two)


class TestKlGaussian:
    def test_identity_is_zero(self):
        assert nb.kl_gaussian((1.3, 0.7), (1.3, 0.7)) == 0.0

    def test_unit_variance_mean_shift(self):
        # KL(N(0,1) || N(1,1)) = (mu difference)^2 / 2 = 0.5.
        assert nb.kl_gaussian((0.0, 1.0), (1.0, 1.0)) == pytest.approx(0.5, abs=1e-12)

    def test_reference_value(self):
        # KL(N(0,4) || N(0,1)) = 0.5 ln(1/4) + 4/2 - 0.5 = 0.80685281944005469...
        assert nb.kl_gaussian((0.0, 4.0), (0.0, 1.0)) == pytest.approx(
            0.8068528194400547, abs=1e-12)

    def kl_by_quadrature(self, a, b):
        mu_a, var_a = a
        mu_b, var_b = b

        def integrand(t):
            log_pa = -(t - mu_a) ** 2 / (2 * var_a) - 0.5 * math.log(2 * math.pi * var_a)
            log_pb = -(t - mu_b) ** 2 / (2 * var_b) - 0.5 * math.log(2 * math.pi * var_b)
            return math.exp(log_pa) * (log_pa - log_pb)

        lo = mu_a - 40 * math.sqrt(var_a)
        hi = mu_a + 40 * math.sqrt(var_a)
        val, _ = quad(integrand, lo, hi, limit=300)
        return val

    def test_matches_numerical_quadrature(self):
        gen = np.random.default_rng(1)
        for _ in range(25):
            a = (gen.uniform(-3, 3), gen.uniform(0.1, 5.0))
            b = (gen.uniform(-3, 3), gen.uniform(0.1, 5.0))
            assert nb.kl_gaussian(a, b) == pytest.approx(
                self.kl_by_quadrature(a, b), abs=1e-6)

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError):
            nb.kl_gaussian((0.0, 0.0), (0.0, 1.0))
        with pytest.raises(ValueError):
            nb.kl_gaussian((0.0, 1.0), (0.0, -1.0))

    @given(st.floats(-30, 30), st.floats(1e-5, 1e3),
           st.floats(-30, 30), st.floats(1e-5, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative(self, mu_a, var_a, mu_b, var_b):
        assert nb.kl_gaussian((mu_a, var_a), (mu_b, var_b)) >= -1e-12

    @given(st.floats(-10, 10), st.floats(0.1, 10),
           st.floats(-10, 10), st.floats(0.1, 10))
    @settings(max_examples=100, deadline=None)
    def test_asymmetric_for_unequal_variances(self, mu_a, var_a, mu_b, var_b):
        if abs(var_a - var_b) < 1e-3:
            return
        ab = nb.kl_gaussian((mu_a, var_a), (mu_b, var_b))
        ba = nb.kl_gaussian((mu_b, var_b), (mu_a, var_a))
        assert ab != pytest.approx(ba, abs=1e-9)


def build_selection_setup(offsets_in, offsets_out, num_models=4):
    """Challenge at conf 0.5 everywhere; candidate j's logit is shifted by
    offsets_in[j] on IN models and offsets_out[j] on OUT models."""
    x = np.array([10.0, 20.0])
    y = 1
    base_in = [0.3, 0.45, 0.55, 0.7]
    base_out = [0.2, 0.4, 0.6, 0.8]
    candidates = [NeighborCandidate(np.array([float(j), 0.0]), y)
                  for j in range(len(offsets_in))]
    in_models, out_models = [], []
    for side, bases, models in (("in", base_in, in_models), ("out", base_out, out_models)):
        for conf in bases:
            table = {proba_key(x): {y: conf}}
            for j, cand in enumerate(candidates):
                shift = offsets_in[j] if side == "in" else offsets_out[j]
                table[proba_key(cand.x_c)] = {y: sigmoid(logit(conf) + shift)}
            models.append(FixedProbaModel(table, 4))
    return (x, y), candidates, in_models, out_models


class TestSelectNeighborhood:
    def test_zero_divergence_candidate_admitted(self):
        challenge, cands, mi, mo = build_selection_setup([0.0, 3.0], [0.0, 3.0])
        result = nb.select_neighborhood(challenge, cands, mi, mo, t_nb=0.75, n=1)
        assert not result.fallback_filled
        assert np.array_equal(result.members[0].x_c, cands[0].x_c)
        assert result.member_kls[0][0] == pytest.approx(0.0, abs=1e-9)

    def test_conjunction_requires_both_sides(self):
        # Candidate close on OUT models but far on IN models must fail.
        challenge, cands, mi, mo = build_selection_setup([2.0], [0.0])
        result = nb.select_neighborhood(challenge, cands, mi, mo, t_nb=0.75, n=1)
        diag = result.diagnostics[0]
        assert diag.kl_out <= 0.75 < diag.kl_in
        assert not diag.admitted
        assert result.fallback_filled  # only a failing candidate was available

    def test_keeps_n_smallest_when_many_pass(self):
        offsets = [0.0, 0.1, 0.2, 0.3]
        challenge, cands, mi, mo = build_selection_setup(offsets, offsets)
        result = nb.select_neighborhood(challenge, cands, mi, mo, t_nb=10.0, n=2)
        picked = {tuple(m.x_c) for m in result.members}
        assert picked == {tuple(cands[0].x_c), tuple(cands[1].x_c)}
        assert not result.fallback_filled

    def test_fallback_fill_flagged_and_ordered(self):
        challenge, cands, mi, mo = build_selection_setup([0.0, 5.0, 3.0], [0.0, 5.0, 3.0])
        result = nb.select_neighborhood(challenge, cands, mi, mo, t_nb=0.05, n=2)
        assert result.fallback_filled
        assert len(result.members) == 2
        # Passing candidate first, then the closest failing one.
        assert np.array_equal(result.members[0].x_c, cands[0].x_c)
        assert np.array_equal(result.members[1].x_c, cands[2].x_c)

    def test_enlarging_threshold_never_shrinks_pass_set(self):
        offsets = [0.0, 0.5, 1.0, 2.0, 4.0]
        challenge, cands, mi, mo = build_selection_setup(offsets, offsets)
        previous = -1
        for t_nb in (0.05, 0.25, 0.75, 2.0, 8.0):
            result = nb.select_neighborhood(challenge, cands, mi, mo, t_nb=t_nb,
                                            n=len(cands))
            passing = sum(d.admitted for d in result.diagnostics)
            assert passing >= previous
            previous = passing

    def test_permutation_invariant_selection(self):
        offsets = [0.0, 0.4, 0.9, 1.5, 2.5]
        challenge, cands, mi, mo = build_selection_setup(offsets, offsets)
        base = nb.select_neighborhood(challenge, cands, mi, mo, t_nb=1.0, n=3)
        perm = [cands[i] for i in (3, 0, 4, 2, 1)]
        shuffled = nb.select_neighborhood(challenge, perm, mi, mo, t_nb=1.0, n=3)
        assert ({tuple(m.x_c) for m in base.members}
                == {tuple(m.x_c) for m in shuffled.members})

    def test_empty_pool_rejected(self):
        challenge, _, mi, mo = build_selection_setup([0.0], [0.0])
        with pytest.raises(ValueError):
            nb.select_neighborhood(challenge, [], mi, mo, t_nb=0.75, n=4)


class TestExport:
    def test_diagnostics_csv(self, tmp_path):
        challenge, cands, mi, mo = build_selection_setup([0.0, 2.0], [0.0, 2.0])
        result = nb.select_neighborhood(challenge, cands, mi, mo, t_nb=0.75, n=1)
        path = tmp_path / "diag.csv"
        nb.export_diagnostics_csv(str(path), {0: result}, {0: cands})
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "challenge_index,candidate_hash,kl_in,kl_out,admitted,selected"
        assert len(lines) == 3

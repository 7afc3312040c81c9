import csv
import math
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from milab import neighborhood as nb
from milab.harness.cache import ModelCache
from milab.nncore import LOGIT_EPS, logit
from stubs import FixedProbaModel, proba_key


def sigmoid(v):
    return 1.0 / (1.0 + math.exp(-v))


def lookup_models(confidence_lists, x, y, num_classes=4):
    """One stub model per confidence value, each pinning conf(x)[y]."""
    return [FixedProbaModel({proba_key(x): {y: c}}, num_classes)
            for c in confidence_lists]


def fit(x, y, models):
    """The Gaussian logit fit fit_kl makes of one point on one side:
    ``_moments`` over the ``_logit_matrix`` row of that point."""
    mu, var = nb._moments(nb._logit_matrix(np.atleast_2d(x), y, models))
    return float(mu[0]), float(var[0])


class TestFitLogitStats:
    def test_degenerate_spread_hits_floor(self):
        x, y = np.array([1.0, 2.0]), 1
        mu, var = fit(x, y, lookup_models([0.7] * 4, x, y))
        assert var == nb.VAR_FLOOR
        assert mu == pytest.approx(logit(0.7), abs=1e-12)

    def test_two_point_population_moments(self):
        # Confidences chosen so the logits are exactly {0, 2}.
        x, y = np.array([0.5]), 0
        confs = [sigmoid(0.0), sigmoid(2.0)]
        mu, var = fit(x, y, lookup_models(confs, x, y))
        assert mu == pytest.approx(1.0, abs=1e-9)
        assert var == pytest.approx(1.0, abs=1e-9)

    def test_matches_two_pass_reference(self):
        gen = np.random.default_rng(0)
        x, y = np.array([3.0, -1.0]), 2
        for confs in (gen.uniform(0.05, 0.95, 8), gen.uniform(0.05, 0.95, 8)):
            mu, var = fit(x, y, lookup_models(confs, x, y))
            logits = [logit(c) for c in confs]
            ref_mu = sum(logits) / len(logits)
            ref_var = sum((v - ref_mu) ** 2 for v in logits) / len(logits)
            assert mu == pytest.approx(ref_mu, rel=1e-12)
            assert var == pytest.approx(max(ref_var, nb.VAR_FLOOR), rel=1e-12)

    def test_too_few_models_rejected(self):
        challenge, cands, mi, mo = build_selection_setup([0.0], [0.0])
        with pytest.raises(ValueError, match="at least 2 models"):
            nb.fit_kl(challenge, cands, mi[:1], mo)


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
        # |KL(a||b) - KL(b||a)| is at least 0.5 * |2 ln r + 1/r - r| for the
        # variance ratio r >= 1, about (r - 1)**3 / 6, since the mean term
        # has the same sign; r >= 1.01 leaves at least 1.6e-7.
        if max(var_a, var_b) / min(var_a, var_b) < 1.01:
            return
        ab = nb.kl_gaussian((mu_a, var_a), (mu_b, var_b))
        ba = nb.kl_gaussian((mu_b, var_b), (mu_a, var_a))
        assert ab != pytest.approx(ba, abs=1e-9)


def scalar_logit(p):
    """The per-element logit the array version must reproduce."""
    p = min(max(p, LOGIT_EPS), 1.0 - LOGIT_EPS)
    return math.log(p / (1.0 - p))


def scalar_kl(a, b):
    """The closed-form KL on Python floats, as a per-candidate loop computes it."""
    (mu_a, var_a), (mu_b, var_b) = a, b
    return 0.5 * math.log(var_b / var_a) + (var_a + (mu_a - mu_b) ** 2) / (2.0 * var_b) - 0.5


def bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


class TestVectorKernels:
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_array_logit_matches_scalar_bit_for_bit(self, probs):
        # Both clamps, and values just inside them, are always included.
        eps = LOGIT_EPS
        probs = probs + [0.0, 1.0, eps, 1.0 - eps, eps / 2, 1.0 - eps / 2]
        got = logit(np.array(probs)[:, None])
        assert got.shape == (len(probs), 1)
        assert bits(np.ravel(got)) == bits([scalar_logit(p) for p in probs])
        assert bits([logit(p) for p in probs]) == bits(np.ravel(got))

    def test_array_kl_matches_scalar_bit_for_bit(self):
        gen = np.random.default_rng(7)
        mu_a, var_a = gen.normal(0, 3, 500), gen.uniform(1e-6, 5, 500)
        ref = (float(gen.normal()), float(gen.uniform(1e-6, 5)))
        got = nb.kl_gaussian((mu_a, var_a), ref)
        assert got.shape == (500,)
        assert bits(got) == bits([scalar_kl((m, v), ref)
                                  for m, v in zip(mu_a.tolist(), var_a.tolist())])

    def test_array_kl_squares_like_python(self):
        # For this difference numpy's d * d and Python's d ** 2 (libm pow)
        # round apart, and the gap survives into the divergence.
        d = 2.1548639179439935
        assert d * d != d ** 2
        a, ref = (d, 1.0), (0.0, 1.0)
        numpy_square = 0.5 * math.log(1.0) + (1.0 + np.square(d)) / 2.0 - 0.5
        assert scalar_kl(a, ref) != numpy_square
        got = nb.kl_gaussian((np.array([d]), np.array([1.0])), ref)
        assert bits(got) == bits([scalar_kl(a, ref)])
        assert nb.kl_gaussian(a, ref) == scalar_kl(a, ref)


def build_selection_setup(offsets_in, offsets_out, num_models=4):
    """Challenge at conf 0.5 everywhere; candidate j's logit is shifted by
    offsets_in[j] on IN models and offsets_out[j] on OUT models."""
    x = np.array([10.0, 20.0])
    y = 1
    base_in = [0.3, 0.45, 0.55, 0.7]
    base_out = [0.2, 0.4, 0.6, 0.8]
    candidates = np.array([[float(j), 0.0] for j in range(len(offsets_in))])
    in_models, out_models = [], []
    for side, bases, models in (("in", base_in, in_models), ("out", base_out, out_models)):
        for conf in bases:
            table = {proba_key(x): {y: conf}}
            for j, cand in enumerate(candidates):
                shift = offsets_in[j] if side == "in" else offsets_out[j]
                table[proba_key(cand)] = {y: sigmoid(logit(conf) + shift)}
            models.append(FixedProbaModel(table, 4))
    return (x, y), candidates, in_models, out_models


def select(challenge, cands, in_models, out_models, t_nb, n):
    """Fit, then pick: the two steps of the neighborhood stage."""
    return nb.select_neighborhood(nb.fit_kl(challenge, cands, in_models, out_models),
                                  cands, t_nb=t_nb, n=n)


class TestSelectNeighborhood:
    def test_zero_divergence_candidate_admitted(self):
        challenge, cands, mi, mo = build_selection_setup([0.0, 3.0], [0.0, 3.0])
        result = select(challenge, cands, mi, mo, t_nb=0.75, n=1)
        assert not result.fallback_filled
        assert np.array_equal(result.features[0], cands[0])
        assert result.diagnostics[0].selected
        assert result.diagnostics[0].kl_in == pytest.approx(0.0, abs=1e-9)

    def test_conjunction_requires_both_sides(self):
        # Candidate close on OUT models but far on IN models must fail.
        challenge, cands, mi, mo = build_selection_setup([2.0], [0.0])
        result = select(challenge, cands, mi, mo, t_nb=0.75, n=1)
        diag = result.diagnostics[0]
        assert diag.kl_out <= 0.75 < diag.kl_in
        assert not diag.admitted
        assert result.fallback_filled  # only a failing candidate was available

    def test_keeps_n_smallest_when_many_pass(self):
        offsets = [0.0, 0.1, 0.2, 0.3]
        challenge, cands, mi, mo = build_selection_setup(offsets, offsets)
        result = select(challenge, cands, mi, mo, t_nb=10.0, n=2)
        picked = {tuple(row) for row in result.features}
        assert picked == {tuple(cands[0]), tuple(cands[1])}
        assert not result.fallback_filled

    def test_fallback_fill_flagged_and_ordered(self):
        challenge, cands, mi, mo = build_selection_setup([0.0, 5.0, 3.0], [0.0, 5.0, 3.0])
        result = select(challenge, cands, mi, mo, t_nb=0.05, n=2)
        assert result.fallback_filled
        assert len(result.features) == 2
        # Passing candidate first, then the closest failing one.
        assert np.array_equal(result.features[0], cands[0])
        assert np.array_equal(result.features[1], cands[2])

    def test_enlarging_threshold_never_shrinks_pass_set(self):
        offsets = [0.0, 0.5, 1.0, 2.0, 4.0]
        challenge, cands, mi, mo = build_selection_setup(offsets, offsets)
        previous = -1
        for t_nb in (0.05, 0.25, 0.75, 2.0, 8.0):
            result = select(challenge, cands, mi, mo, t_nb=t_nb, n=len(cands))
            passing = sum(d.admitted for d in result.diagnostics)
            assert passing >= previous
            previous = passing

    def test_permutation_invariant_selection(self):
        offsets = [0.0, 0.4, 0.9, 1.5, 2.5]
        challenge, cands, mi, mo = build_selection_setup(offsets, offsets)
        base = select(challenge, cands, mi, mo, t_nb=1.0, n=3)
        perm = cands[[3, 0, 4, 2, 1]]
        shuffled = select(challenge, perm, mi, mo, t_nb=1.0, n=3)
        assert ({tuple(row) for row in base.features}
                == {tuple(row) for row in shuffled.features})

    def test_equal_max_kl_ordered_by_index(self):
        # Candidates 1 and 3 tie on both divergences; 0 and 2 tie further out.
        offsets = [0.6, 0.2, 0.6, 0.2]
        challenge, cands, mi, mo = build_selection_setup(offsets, offsets)
        result = select(challenge, cands, mi, mo, t_nb=10.0, n=3)
        kls = [(d.kl_in, d.kl_out) for d in result.diagnostics]
        assert kls[1] == kls[3] and kls[0] == kls[2] and kls[1] < kls[0]
        picked = result.features[:, 0].astype(int).tolist()
        assert picked == [1, 3, 0]
        assert [max(kls[i]) for i in picked] == sorted(max(kl) for kl in kls)[:3]
        assert [d.selected for d in result.diagnostics] == [True, True, False, True]

    @given(offsets=st.lists(st.tuples(st.floats(-4, 4), st.floats(-4, 4)),
                            min_size=1, max_size=10),
           t_nbs=st.tuples(st.floats(0, 20), st.floats(0, 20)), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_t_nb_sets_only_the_flags(self, offsets, t_nbs, data):
        # The members are the n KL-closest candidates whatever the threshold.
        n = data.draw(st.integers(0, len(offsets)))
        challenge, cands, mi, mo = build_selection_setup(*zip(*offsets))
        a, b = (select(challenge, cands, mi, mo, t_nb=t, n=n)
                for t in t_nbs)
        assert len(a.features) == n
        assert np.array_equal(a.features, b.features)
        assert ([(d.kl_in, d.kl_out, d.selected) for d in a.diagnostics]
                == [(d.kl_in, d.kl_out, d.selected) for d in b.diagnostics])
        for t, result in zip(t_nbs, (a, b)):
            admitted = [d.admitted for d in result.diagnostics]
            assert admitted == [max(d.kl_in, d.kl_out) <= t for d in result.diagnostics]
            assert result.fallback_filled == (sum(admitted) < n)

    def test_diagnostics_reproduce_the_arrays(self):
        challenge, cands, mi, mo = build_selection_setup([0.0, 5.0, 3.0, 0.2],
                                                         [0.0, 5.0, 3.0, 0.2])
        result = select(challenge, cands, mi, mo, t_nb=0.05, n=2)
        diags = result.diagnostics
        assert len(diags) == len(cands)
        assert bits([d.kl_in for d in diags]) == bits(result.kl[0])
        assert bits([d.kl_out for d in diags]) == bits(result.kl[1])
        assert [d.admitted for d in diags] == result.admitted.tolist()
        assert [d.selected for d in diags] == result.selected.tolist()
        assert result.admitted.tolist() == [True, False, False, False]
        assert result.selected.tolist() == [True, False, False, True]

    def test_empty_pool_rejected(self):
        challenge, _, mi, mo = build_selection_setup([0.0], [0.0])
        with pytest.raises(ValueError):
            nb.fit_kl(challenge, np.empty((0, 2)), mi, mo)


class TestCachedFit:
    def test_cached_fit_picks_like_a_fresh_one(self, tmp_path):
        # The fit is stored as float64 bytes and its pool as float32 bytes,
        # so a warm game's pick is the cold game's, diagnostics included.
        offsets = [0.0, 0.4, 0.9, 1.5, 2.5]
        challenge, cands, mi, mo = build_selection_setup(offsets, offsets[::-1])
        fresh = nb.fit_kl(challenge, cands, mi, mo)
        assert fresh.shape == (2, len(cands)) and fresh.dtype == np.float64
        cache = ModelCache(str(tmp_path))
        cache.put_kl("k", fresh, cands, nb.kl_text(fresh))
        cached, pool, text = cache.get_kl("k", *cands.shape)
        assert bits(cached.ravel()) == bits(fresh.ravel())
        assert pool.dtype == np.float64 and bits(pool.ravel()) == bits(cands.ravel())
        assert text == nb.kl_text(fresh)
        a = nb.select_neighborhood(fresh, cands, t_nb=1.0, n=3)
        b = nb.select_neighborhood(cached, pool, t_nb=1.0, n=3)
        assert a.fallback_filled == b.fallback_filled and a.diagnostics == b.diagnostics
        assert np.array_equal(a.features, b.features)

    @given(pairs=st.lists(st.tuples(st.floats(allow_nan=True), st.floats(allow_nan=True)),
                          min_size=1, max_size=12),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_entry_round_trip_keeps_floats_and_their_reprs(self, pairs, data):
        # A hit parses no float: its floats and its float32 pool come back
        # as stored bytes, and its rows are the repr of exactly those floats,
        # each led by its row.
        kl = np.array(pairs, dtype=np.float64).T.copy()
        dim = data.draw(st.integers(1, 3))
        pool = np.array(data.draw(st.lists(st.floats(allow_nan=False, width=32),
                                           min_size=len(pairs) * dim,
                                           max_size=len(pairs) * dim)),
                        dtype=np.float64).reshape(len(pairs), dim)
        with tempfile.TemporaryDirectory() as root:
            cache = ModelCache(root)
            cache.put_kl("k", kl, pool, nb.kl_text(kl))
            cached, cached_pool, text = cache.get_kl("k", kl.shape[1], dim)
        assert bits(cached.ravel()) == bits(kl.ravel())
        assert bits(cached_pool.ravel()) == bits(pool.ravel())
        assert not cached.flags.writeable
        assert text.split("\n")[:-1] == [f"{j},{a!r},{b!r}"
                                         for j, (a, b) in enumerate(cached.T.tolist())]
        counts = cache.counts()
        assert (counts["kl_cache_hits"], counts["kl_cache_corrupt"]) == (1, 0)


def diagnostics_csv(indices, per_point) -> str:
    """The diagnostics file of the points at ``indices``, printed fresh."""
    return nb.DIAGNOSTICS_HEADER + "".join(
        nb.diagnostics_rows(index, nb.kl_text(chosen.kl), chosen)
        for index, chosen in zip(indices.tolist(), per_point, strict=True))


class TestExport:
    def test_diagnostics_csv(self):
        challenge, cands, mi, mo = build_selection_setup([0.0, 2.0], [0.0, 2.0])
        result = select(challenge, cands, mi, mo, t_nb=0.75, n=1)
        lines = diagnostics_csv(np.array([17]), [result]).splitlines()
        assert lines[0] == "challenge_index,candidate,kl_in,kl_out,admitted,selected"
        assert len(lines) == 3
        # Each row names its point by pool index and its candidate by pool row.
        assert [line.split(",")[:2] for line in lines[1:]] == [["17", "0"], ["17", "1"]]
        assert [line.split(",")[-1] for line in lines[1:]] == ["1", "0"]

    def test_bytes_match_csv_writer(self, tmp_path):
        # Reference: the same rows through csv.writer, extreme floats included.
        kls = [0.0, -0.0, 5e-324, 1e300, math.inf, math.nan, 0.1, 1 / 3]
        indices = np.array([31, 4])
        rows = np.arange(len(kls))
        per_point = [nb.NeighborhoodSet(False, np.array([kls, kls[::-1]]), rows % 2 == 0,
                                        rows < 3, np.zeros((3, 2)))
                     for _ in indices]
        path = tmp_path / "diag.csv"
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(diagnostics_csv(indices, per_point))

        ref = tmp_path / "ref.csv"
        with open(ref, "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["challenge_index", "candidate", "kl_in", "kl_out",
                             "admitted", "selected"])
            for index in indices.tolist():
                for j in range(len(kls)):
                    writer.writerow([index, j, repr(kls[j]), repr(kls[-1 - j]),
                                     int(j % 2 == 0), int(j < 3)])
        assert path.read_bytes() == ref.read_bytes()

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milab import nncore as nn
from milab.attack import LabelOnlyModel
from milab.datagen import Dataset, gen_gaussian_mixture
from oracles import mean_grads, mean_loss


def params_equal(a: nn.ModelParams, b: nn.ModelParams) -> bool:
    return a.dims == b.dims and np.array_equal(a.flat, b.flat)


def random_layers(gen, dims):
    return [(gen.normal(0, 0.5, (o, i)), gen.normal(0, 0.5, o))
            for i, o in zip(dims[:-1], dims[1:])]


def labels(model, X) -> list[int]:
    """Argmax labels through the label-only facade, the one label path."""
    return LabelOnlyModel(model).predict_label_batch(X).tolist()


def zero_grads(layers):
    return [(np.zeros_like(w), np.zeros_like(b)) for w, b in layers]


class TestTraining:
    def test_zero_epochs_returns_seeded_init(self, xor_dataset):
        cfg = nn.TrainConfig(epochs=0, learning_rate=0.1, seed=11)
        model = nn.train(xor_dataset, cfg, hidden_sizes=(8,))
        init = nn.init_params(2, (8,), 2, seed=11)
        assert params_equal(model, init)

    def test_training_is_deterministic(self, xor_dataset):
        cfg = nn.TrainConfig(epochs=25, learning_rate=0.3, weight_decay=1e-4,
                             batch_size=2, seed=5)
        a = nn.train(xor_dataset, cfg, hidden_sizes=(6,))
        b = nn.train(xor_dataset, cfg, hidden_sizes=(6,))
        assert params_equal(a, b)

    def test_xor_reaches_full_training_accuracy(self, xor_dataset):
        # XOR is separable by one hidden layer; 500 epochs suffice here.
        cfg = nn.TrainConfig(epochs=500, learning_rate=0.5, batch_size=4, seed=3)
        model = nn.train(xor_dataset, cfg, hidden_sizes=(8,))
        assert nn.accuracy(model, xor_dataset) == 1.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.empty((0, 3)), np.empty(0, dtype=int), 2)

    def test_divergence_raises(self):
        # The step that first sees a non-finite loss is part of the contract.
        ds = gen_gaussian_mixture(3, 5, 10, 2.0, seed=1)
        huge = Dataset(ds.features * 1e8, ds.labels, 3)
        for lr, where in ((1e9, "epoch 2, step 2"), (1e3, "epoch 3, step 2")):
            cfg = nn.TrainConfig(epochs=5, learning_rate=lr, batch_size=8, seed=0)
            with pytest.raises(nn.NonFiniteLossError,
                               match=f"^non-finite loss at {where}$"):
                nn.train(huge, cfg, hidden_sizes=(8,))

    def test_weight_decay_only_step_shrinks_exactly(self):
        gen = np.random.default_rng(2)
        dims = [4, 5, 3]
        params = np.concatenate([arr.ravel() for wb in random_layers(gen, dims)
                                 for arr in wb])
        before = params.copy()  # the step updates params in place
        lr, wd = 0.07, 0.013
        nn._apply_update(params, np.zeros_like(params),
                         nn._decay_vector(dims, 1.0 - lr * wd), scale=0.25, lr=lr)
        for (w, b), (w2, b2) in zip(nn._param_views(before, dims),
                                    nn._param_views(params, dims)):
            assert np.array_equal(w2, w * (1.0 - lr * wd))
            assert np.array_equal(b2, b)


LOGIT = st.one_of(st.sampled_from([math.inf, -math.inf, math.nan]), st.floats(-50, 50),
                  st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def logit_batches(draw):
    """Logit rows mixing finite values, +-inf and NaN, with a label each."""
    c = draw(st.integers(2, 5))
    rows = draw(st.lists(st.tuples(st.lists(LOGIT, min_size=c, max_size=c),
                                   st.integers(0, c - 1)), min_size=1, max_size=6))
    return (np.array([z for z, _ in rows], dtype=np.float64),
            np.array([y for _, y in rows], dtype=np.int64))


class TestFiniteness:
    @given(logit_batches())
    @settings(max_examples=200, deadline=None)
    def test_row_sums_flag_exactly_the_non_finite_losses(self, batch):
        z, y = batch
        with np.errstate(over="ignore", invalid="ignore"):
            p = z.copy()
            row_sums = nn._softmax(p)
            flagged = not math.isfinite(np.add.reduce(row_sums, axis=None))
            # The softmax and summed cross-entropy written out with the
            # ndarray methods.
            ref = np.exp(z - z.max(axis=1, keepdims=True))
            ref /= ref.sum(axis=1, keepdims=True)
            loss = -np.log(np.maximum(ref[np.arange(len(y)), y], 1e-300)).sum()
        assert np.array_equal(p, ref, equal_nan=True)
        assert flagged == (not math.isfinite(loss))


class TestDpMode:
    def test_zero_noise_large_clip_matches_plain_sgd_bitwise(self):
        ds = gen_gaussian_mixture(3, 5, 20, 2.0, seed=1)
        base = dict(epochs=3, learning_rate=0.1, weight_decay=1e-3,
                    batch_size=16, seed=9)
        plain = nn.train(ds, nn.TrainConfig(**base), (16,))
        dp = nn.train(ds, nn.TrainConfig(
            **base, dp=nn.DpConfig(clip_norm=1e12, noise_multiplier=0.0)), (16,))
        assert params_equal(plain, dp)

    def test_clipped_sum_matches_explicit_per_example_clipping(self):
        gen = np.random.default_rng(5)
        layers = random_layers(gen, [4, 6, 3])
        X = gen.normal(0, 1, (7, 4))
        Y = np.eye(3)[gen.integers(0, 3, 7)]
        acts, deltas, _ = nn._forward_backward(layers, X, Y)
        dp = nn.DpConfig(clip_norm=0.7)
        got = zero_grads(layers)
        in_sq = 1.0 + (X * X).sum(axis=1)
        nn._contract_grads(acts, deltas, got,
                           nn._clip_factors(acts, deltas, dp.clip_norm, in_sq))

        expected = zero_grads(layers)
        for i in range(7):
            a_i, d_i, _ = nn._forward_backward(layers, X[i:i + 1], Y[i:i + 1])
            g_i = zero_grads(layers)
            nn._contract_grads(a_i, d_i, g_i)
            flat = np.concatenate([np.concatenate([gw.ravel(), gb.ravel()])
                                   for gw, gb in g_i])
            norm = np.linalg.norm(flat)
            c = min(1.0, dp.clip_norm / norm) if norm > 0 else 1.0
            for l, (gw, gb) in enumerate(g_i):
                expected[l] = (expected[l][0] + c * gw, expected[l][1] + c * gb)
        for (gw, gb), (ew, eb) in zip(got, expected):
            np.testing.assert_allclose(gw, ew, atol=1e-12)
            np.testing.assert_allclose(gb, eb, atol=1e-12)

    def test_noise_is_seeded(self):
        ds = gen_gaussian_mixture(2, 4, 10, 2.0, seed=3)
        cfg = nn.TrainConfig(epochs=2, learning_rate=0.05, batch_size=8, seed=4,
                             dp=nn.DpConfig(clip_norm=1.0, noise_multiplier=0.5))
        assert params_equal(nn.train(ds, cfg, (8,)), nn.train(ds, cfg, (8,)))


class TestGradients:
    def finite_difference(self, layers, X, y, h=1e-5):
        fd_layers = []
        for w, b in layers:
            grads = []
            for arr in (w, b):
                fd = np.zeros_like(arr)
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    ix = it.multi_index
                    orig = arr[ix]
                    arr[ix] = orig + h
                    lp = mean_loss(layers, X, y)
                    arr[ix] = orig - h
                    lm = mean_loss(layers, X, y)
                    arr[ix] = orig
                    fd[ix] = (lp - lm) / (2 * h)
                grads.append(fd)
            fd_layers.append(tuple(grads))
        return fd_layers

    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(0)
        for case in range(6):
            dims = [int(rng.integers(2, 6)), int(rng.integers(3, 7)),
                    int(rng.integers(2, 5))]
            gen = np.random.default_rng(100 + case)
            layers = random_layers(gen, dims)
            X = gen.normal(0, 1, (int(rng.integers(2, 7)), dims[0]))
            y = gen.integers(0, dims[-1], X.shape[0])
            analytic = mean_grads(layers, X, y)
            fd = self.finite_difference(layers, X, y)
            for (gw, gb), (fw, fb) in zip(analytic, fd):
                for a, f in ((gw, fw), (gb, fb)):
                    rel = np.linalg.norm(f - a) / max(np.linalg.norm(a), 1e-8)
                    assert rel < 1e-4


class TestPredict:
    def test_all_zero_model_is_uniform_with_label_zero(self):
        model = nn.ModelParams(np.zeros(15, dtype=np.float32), [4, 3])
        x = np.array([0.3, -1.0, 2.0, 0.5])
        np.testing.assert_allclose(model.predict_proba(x), 1.0 / 3, atol=1e-12)
        assert labels(model, x[None, :]) == [0]

    def test_hand_built_model_favors_class_two(self):
        # One linear layer; weights route e_1 strongly to class 2.
        model = nn.ModelParams(np.zeros(16, dtype=np.float32), [3, 4])
        [(w, _)] = nn._param_views(model.flat, model.dims)
        w[2, 0] = 5.0
        w[1, 0] = 1.0
        x = np.array([1.0, 0.0, 0.0])
        assert labels(model, x[None, :]) == [2]
        # Hand-computed softmax over logits (0, 1, 5, 0).
        z = np.array([0.0, 1.0, 5.0, 0.0])
        np.testing.assert_allclose(model.predict_proba(x), np.exp(z) / np.exp(z).sum(),
                                   atol=1e-12)

    def test_confidences_sum_to_one(self):
        gen = np.random.default_rng(3)
        dims = [5, 7, 4]
        flat = np.concatenate([arr.ravel() for wb in random_layers(gen, dims) for arr in wb])
        model = nn.ModelParams(flat.astype(np.float32), dims)
        for _ in range(20):
            x = gen.normal(0, 2, 5)
            probs = model.predict_proba(x)
            assert abs(probs.sum() - 1.0) < 1e-9
            assert labels(model, x[None, :]) == [int(np.argmax(probs))]

    @given(seed=st.integers(0, 2**32 - 1),
           hidden=st.lists(st.integers(1, 12), max_size=2),
           dim=st.integers(1, 8), classes=st.integers(2, 6), rows=st.integers(0, 40),
           scale=st.sampled_from([0.0, 0.1, 1.0, 100.0]))
    @settings(max_examples=100, deadline=None)
    def test_labels_are_the_argmax_of_the_confidences(self, seed, hidden, dim, classes,
                                                      rows, scale):
        # Labels skip the softmax; a zero input makes every logit a zero
        # bias, so every class ties and both sides pick class 0.
        model = nn.init_params(dim, tuple(hidden), classes, seed=seed)
        X = np.random.default_rng(seed).normal(0, scale, (rows, dim))
        got = model.predict_label_batch(X)
        assert got.shape == (rows,)
        assert np.array_equal(got, np.argmax(model.predict_proba_batch(X), axis=1))

    @pytest.mark.parametrize("hidden", [(32,), (16, 8)])
    def test_stack_has_the_bits_of_one_row_calls(self, hidden):
        # The poison probe stacks its points; each row must keep the bits of
        # a call on that row alone, which a plain [n, d] batch does not.
        ds = gen_gaussian_mixture(4, 8, 15, 2.0, seed=5)
        X = np.random.default_rng(9).normal(0, 2, (24, 8))
        for seed in range(3):
            model = nn.train(ds, nn.TrainConfig(epochs=3, learning_rate=0.1, seed=seed),
                             hidden)
            stack = model.predict_proba(X)
            assert stack.shape == (len(X), 4)
            rows = np.stack([model.predict_proba(x) for x in X])
            assert np.array_equal(stack.view(np.uint64), rows.view(np.uint64))
            assert model.predict_proba(X[:1]).shape == (1, 4)
            assert model.predict_proba(X[:0]).shape == (0, 4)

    def test_dimension_mismatch_raises(self):
        model = nn.init_params(4, (3,), 2, seed=0)
        with pytest.raises(ValueError):
            model.predict_proba(np.zeros(5))
        with pytest.raises(ValueError):
            model.predict_proba(np.zeros((2, 5)))
        with pytest.raises(ValueError):
            model.predict_proba(np.zeros((2, 1, 4)))
        with pytest.raises(ValueError):
            labels(model, np.zeros((2, 5)))


class TestLogit:
    def test_half_maps_to_zero(self):
        assert nn.logit(0.5) == 0.0

    def test_boundary_clamped_finite(self):
        assert nn.LOGIT_EPS == 1e-7
        v = nn.logit(1.0)
        assert math.isfinite(v)
        assert v == pytest.approx(math.log((1 - 1e-7) / 1e-7), rel=1e-9)
        assert math.isfinite(nn.logit(0.0))

    def test_reference_value(self):
        # ln 9 = 2.1972245773362193828...
        assert nn.logit(0.9) == pytest.approx(2.1972245773362196, abs=1e-12)


class TestSerialization:
    def test_round_trip_is_bit_exact(self, tmp_path):
        ds = gen_gaussian_mixture(3, 6, 15, 2.0, seed=8)
        model = nn.train(ds, nn.TrainConfig(epochs=4, learning_rate=0.1,
                                            batch_size=8, seed=2), (10,))
        stem = str(tmp_path / "model")
        nn.save_model(model, stem, seed=2, config_hash="abc")
        loaded, manifest = nn.load_model(stem)
        assert params_equal(model, loaded)
        assert manifest["dims"] == [6, 10, 3]
        assert manifest["config_hash"] == "abc"

        nn.save_model(loaded, stem + "2", seed=2, config_hash="abc")
        assert (tmp_path / "model.bin").read_bytes() == (tmp_path / "model2.bin").read_bytes()
        assert (tmp_path / "model.json").read_bytes() == (tmp_path / "model2.json").read_bytes()

    def test_blob_size_checked(self, tmp_path):
        model = nn.init_params(3, (2,), 2, seed=1)
        stem = str(tmp_path / "m")
        nn.save_model(model, stem)
        with open(stem + ".bin", "ab") as f:
            f.write(b"\x00\x00\x00\x00")
        with pytest.raises(ValueError):
            nn.load_model(stem)


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            nn.TrainConfig(epochs=-1, learning_rate=0.1)
        with pytest.raises(ValueError):
            nn.TrainConfig(epochs=1, learning_rate=0.0)
        with pytest.raises(ValueError):
            nn.TrainConfig(epochs=1, learning_rate=0.1, batch_size=0)
        with pytest.raises(ValueError):
            nn.DpConfig(clip_norm=0.0)
        with pytest.raises(ValueError):
            nn.DpConfig(clip_norm=1.0, noise_multiplier=-0.5)

    def test_parameter_count_validated(self):
        # dims [4, 3, 2] take 4*3 + 3 + 3*2 + 2 = 23 parameters.
        nn.ModelParams(np.zeros(23, dtype=np.float32), [4, 3, 2])
        for size in (22, 24):
            with pytest.raises(ValueError, match="do not fit dims"):
                nn.ModelParams(np.zeros(size, dtype=np.float32), [4, 3, 2])
        with pytest.raises(ValueError, match="non-finite"):
            nn.ModelParams(np.full(23, np.nan, dtype=np.float32), [4, 3, 2])

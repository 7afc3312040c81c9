import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milab import nncore as nn
from milab.datagen import Dataset, gen_gaussian_mixture


def params_equal(a: nn.ModelParams, b: nn.ModelParams) -> bool:
    return len(a.layers) == len(b.layers) and all(
        np.array_equal(wa, wb) and np.array_equal(ba, bb)
        for (wa, ba), (wb, bb) in zip(a.layers, b.layers))


def random_layers(gen, dims):
    return [(gen.normal(0, 0.5, (o, i)), gen.normal(0, 0.5, o))
            for i, o in zip(dims[:-1], dims[1:])]


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
        ds = gen_gaussian_mixture(3, 5, 10, 2.0, seed=1)
        huge = Dataset(ds.features * 1e8, ds.labels, 3)
        cfg = nn.TrainConfig(epochs=5, learning_rate=1e9, batch_size=8, seed=0)
        with pytest.raises(nn.NonFiniteLossError):
            nn.train(huge, cfg, hidden_sizes=(8,))

    def test_weight_decay_only_step_shrinks_exactly(self):
        gen = np.random.default_rng(2)
        layers = random_layers(gen, [4, 5, 3])
        zero = [(np.zeros_like(w), np.zeros_like(b)) for w, b in layers]
        lr, wd = 0.07, 0.013
        updated = nn._apply_update(layers, zero, scale=0.25, lr=lr,
                                   decay_factor=1.0 - lr * wd)
        for (w, b), (w2, b2) in zip(layers, updated):
            assert np.array_equal(w2, w * (1.0 - lr * wd))
            assert np.array_equal(b2, b)


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
        y = gen.integers(0, 3, 7)
        acts, deltas, _ = nn._forward_backward(layers, X, y)
        dp = nn.DpConfig(clip_norm=0.7)
        got = nn._dp_step_grads(acts, deltas, dp, None,
                                [(w.shape, b.shape) for w, b in layers])

        expected = [(np.zeros_like(w), np.zeros_like(b)) for w, b in layers]
        for i in range(7):
            a_i, d_i, _ = nn._forward_backward(layers, X[i:i + 1], y[i:i + 1])
            g_i = nn._contract_grads(a_i, d_i, None)
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
                    lp = nn.mean_loss(layers, X, y)
                    arr[ix] = orig - h
                    lm = nn.mean_loss(layers, X, y)
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
            analytic = nn.mean_grads(layers, X, y)
            fd = self.finite_difference(layers, X, y)
            for (gw, gb), (fw, fb) in zip(analytic, fd):
                for a, f in ((gw, fw), (gb, fb)):
                    rel = np.linalg.norm(f - a) / max(np.linalg.norm(a), 1e-8)
                    assert rel < 1e-4


class TestPredict:
    def test_all_zero_model_is_uniform_with_label_zero(self):
        model = nn.ModelParams([(np.zeros((3, 4), dtype=np.float32),
                                 np.zeros(3, dtype=np.float32))])
        x = np.array([0.3, -1.0, 2.0, 0.5])
        np.testing.assert_allclose(model.predict_proba(x), 1.0 / 3, atol=1e-12)
        assert nn.predict_labels(model, x[None, :]).tolist() == [0]

    def test_hand_built_model_favors_class_two(self):
        # One linear layer; weights route e_1 strongly to class 2.
        w = np.zeros((4, 3), dtype=np.float32)
        w[2, 0] = 5.0
        w[1, 0] = 1.0
        model = nn.ModelParams([(w, np.zeros(4, dtype=np.float32))])
        x = np.array([1.0, 0.0, 0.0])
        assert nn.predict_labels(model, x[None, :]).tolist() == [2]
        # Hand-computed softmax over logits (0, 1, 5, 0).
        z = np.array([0.0, 1.0, 5.0, 0.0])
        np.testing.assert_allclose(model.predict_proba(x), np.exp(z) / np.exp(z).sum(),
                                   atol=1e-12)

    def test_confidences_sum_to_one(self):
        gen = np.random.default_rng(3)
        layers = [(a.astype(np.float32), b.astype(np.float32))
                  for a, b in random_layers(gen, [5, 7, 4])]
        model = nn.ModelParams(layers)
        for _ in range(20):
            x = gen.normal(0, 2, 5)
            probs = model.predict_proba(x)
            assert abs(probs.sum() - 1.0) < 1e-9
            assert nn.predict_labels(model, x[None, :]).tolist() == [int(np.argmax(probs))]

    def test_dimension_mismatch_raises(self):
        model = nn.init_params(4, (3,), 2, seed=0)
        with pytest.raises(ValueError):
            model.predict_proba(np.zeros(5))
        with pytest.raises(ValueError):
            nn.predict_labels(model, np.zeros((2, 5)))


class TestLogit:
    def test_half_maps_to_zero(self):
        assert nn.logit(0.5) == 0.0

    def test_boundary_clamped_finite(self):
        v = nn.logit(1.0, eps=1e-7)
        assert math.isfinite(v)
        assert v == pytest.approx(math.log((1 - 1e-7) / 1e-7), rel=1e-9)
        assert math.isfinite(nn.logit(0.0, eps=1e-7))

    def test_reference_value(self):
        # ln 9 = 2.1972245773362193828...
        assert nn.logit(0.9) == pytest.approx(2.1972245773362196, abs=1e-12)

    def test_bad_eps_rejected(self):
        with pytest.raises(ValueError):
            nn.logit(0.5, eps=0.7)


class TestClipGradient:
    def test_above_threshold_rescaled(self):
        g = np.array([6.0, 8.0])  # norm 10
        out = nn.clip_gradient(g, 5.0)
        assert np.linalg.norm(out) == pytest.approx(5.0, rel=1e-12)
        np.testing.assert_allclose(out / np.linalg.norm(out),
                                   g / np.linalg.norm(g), atol=1e-12)

    def test_below_threshold_unchanged(self):
        g = np.array([3.0, 0.0])
        np.testing.assert_array_equal(nn.clip_gradient(g, 5.0), g)

    def test_zero_vector(self):
        np.testing.assert_array_equal(nn.clip_gradient(np.zeros(4), 5.0),
                                      np.zeros(4))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
           st.floats(1e-3, 1e3))
    @settings(max_examples=100, deadline=None)
    def test_norm_never_exceeds_bound(self, values, clip_norm):
        g = np.array(values)
        out = nn.clip_gradient(g, clip_norm)
        assert np.linalg.norm(out) <= clip_norm * (1 + 1e-9)


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

    def test_layer_shape_chain_validated(self):
        with pytest.raises(ValueError):
            nn.ModelParams([(np.zeros((3, 4), dtype=np.float32), np.zeros(3, dtype=np.float32)),
                            (np.zeros((2, 5), dtype=np.float32), np.zeros(2, dtype=np.float32))])

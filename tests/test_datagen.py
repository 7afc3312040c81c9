import json
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milab import datagen as dg
from milab import nncore as nn


class TestGaussianMixture:
    def test_wide_separation_is_learnable(self):
        # class_sep=100 makes classes essentially disjoint; a trained model
        # must classify held-out draws nearly perfectly.
        train = dg.gen_gaussian_mixture(2, 4, 30, class_sep=100.0, seed=1)
        test = dg.gen_gaussian_mixture(2, 4, 50, class_sep=100.0, seed=2)
        model = nn.train(train, nn.TrainConfig(epochs=20, learning_rate=0.05,
                                               batch_size=16, seed=0), (16,))
        assert nn.accuracy(model, test) >= 0.99

    def test_one_sample_per_class(self):
        ds = dg.gen_gaussian_mixture(3, 5, 1, class_sep=2.0, seed=0)
        assert len(ds) == 3
        assert set(ds.labels.tolist()) == {0, 1, 2}

    def test_seed_determinism(self):
        a = dg.gen_gaussian_mixture(4, 8, 10, 3.0, seed=42)
        b = dg.gen_gaussian_mixture(4, 8, 10, 3.0, seed=42)
        c = dg.gen_gaussian_mixture(4, 8, 10, 3.0, seed=43)
        assert np.array_equal(a.features, b.features)
        assert not np.array_equal(a.features, c.features)

    def test_dim_must_cover_classes(self):
        with pytest.raises(ValueError):
            dg.gen_gaussian_mixture(5, 3, 10, 2.0, seed=0)


class TestBinaryTabular:
    def test_zero_noise_copies_prototype(self):
        ds = dg.gen_binary_tabular(3, 20, 5, flip_noise=0.0, seed=7)
        for c in range(3):
            block = ds.features[ds.labels == c]
            assert np.all(block == block[0])

    def test_expected_hamming_distance(self):
        # flip_noise * dim = 0.025 * 600 = 15 expected flips per sample.
        ds = dg.gen_binary_tabular(2, 600, 100, flip_noise=0.025, seed=3)
        clean = dg.gen_binary_tabular(2, 600, 1, flip_noise=0.0, seed=3)
        dists = []
        for c in range(2):
            proto = clean.features[clean.labels == c][0]
            block = ds.features[ds.labels == c]
            dists.extend(np.sum(block != proto, axis=1))
        mean = np.mean(dists)
        sigma = np.sqrt(600 * 0.025 * 0.975 / len(dists))
        assert abs(mean - 15.0) <= 3 * sigma

    def test_empirical_flip_rate(self):
        # >= 1e5 bits, empirical rate within 3 sigma of the target.
        dim, n = 500, 250
        ds = dg.gen_binary_tabular(1, dim, n, flip_noise=0.1, seed=9)
        clean = dg.gen_binary_tabular(1, dim, 1, flip_noise=0.0, seed=9)
        flips = np.sum(ds.features != clean.features[0])
        total = dim * n
        sigma = np.sqrt(total * 0.1 * 0.9)
        assert abs(flips - 0.1 * total) <= 3 * sigma

    def test_distinct_seeds_distinct_prototypes(self):
        a = dg.gen_binary_tabular(2, 64, 1, 0.0, seed=1)
        b = dg.gen_binary_tabular(2, 64, 1, 0.0, seed=2)
        assert not np.array_equal(a.features, b.features)

    def test_features_are_binary(self):
        ds = dg.gen_binary_tabular(2, 30, 10, 0.3, seed=4)
        assert set(np.unique(ds.features)) <= {0.0, 1.0}


class TestSplitPlan:
    def test_challenge_columns_exactly_balanced(self):
        split = dg.make_split_plan(50, [3, 17, 40], num_models=16, seed=0)
        assert split.shape == (16, 50) and split.dtype == bool
        for i in (3, 17, 40):
            assert split[:, i].sum() == 8

    def test_no_challenges_is_all_bernoulli(self):
        split = dg.make_split_plan(2000, [], num_models=4, seed=1)
        frac = split.mean()
        assert abs(frac - 0.5) < 0.03

    def test_all_joint_patterns_appear_across_seeds(self):
        # With 4 models and 2 challenge points every C(4,2) column pattern
        # should show up somewhere over enough seeds.
        seen = {0: set(), 1: set()}
        for seed in range(200):
            split = dg.make_split_plan(2, [0, 1], num_models=4, seed=seed)
            for col in (0, 1):
                assert split[:, col].sum() == 2
                seen[col].add(tuple(split[:, col].tolist()))
        expected = set()
        for rows in combinations(range(4), 2):
            pattern = [False] * 4
            for r in rows:
                pattern[r] = True
            expected.add(tuple(pattern))
        assert seen[0] == expected
        assert seen[1] == expected

    def test_odd_model_count_rejected(self):
        with pytest.raises(ValueError):
            dg.make_split_plan(10, [0], num_models=5, seed=0)

    def test_out_of_range_challenge_rejected(self):
        with pytest.raises(ValueError):
            dg.make_split_plan(10, [10], num_models=4, seed=0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_balance_holds_for_any_seed(self, seed):
        split = dg.make_split_plan(12, [0, 5, 11], num_models=6, seed=seed)
        for i in (0, 5, 11):
            assert split[:, i].sum() == 3


class TestNeighbors:
    def test_requested_count_produced(self):
        x = np.zeros(10)
        cands = dg.gen_neighbors(x, dg.CONTINUOUS, count=64, noise_scale=0.5, seed=0)
        assert cands.shape == (64, 10)
        assert cands.dtype == np.float64

    def test_no_candidate_equals_the_point(self):
        x = np.ones(6)
        for modality, scale in ((dg.CONTINUOUS, 0.2), (dg.BINARY, 0.05)):
            cands = dg.gen_neighbors(x, modality, count=100, noise_scale=scale, seed=1)
            assert cands.shape == (100, 6)
            assert not (cands == x).all(axis=1).any()

    def test_rows_are_on_the_float32_grid_and_none_rounds_onto_the_point(self):
        # Jitter of 1e-7 on a float32 point rounds back onto it in some draws;
        # the pool is compared with x after rounding, so those are redrawn.
        x = np.array([1.0, 0.5, 0.75])
        cands = dg.gen_neighbors(x, dg.CONTINUOUS, count=200, noise_scale=1e-7, seed=4)
        assert cands.shape == (200, 3)
        np.testing.assert_array_equal(cands, cands.astype(np.float32))
        assert not (cands == x).all(axis=1).any()

    def test_small_noise_stays_close(self):
        x = np.linspace(0, 1, 8)
        cands = dg.gen_neighbors(x, dg.CONTINUOUS, count=50, noise_scale=1e-6, seed=2)
        assert cands.shape == (50, 8)
        assert np.max(np.abs(cands - x)) < 1e-4

    def test_binary_flips_bits(self):
        x = np.zeros(40)
        cands = dg.gen_neighbors(x, dg.BINARY, count=30, noise_scale=0.1, seed=3)
        assert cands.shape == (30, 40)
        assert set(np.unique(cands)) <= {0.0, 1.0}
        assert (cands.sum(axis=1) >= 1).all()  # at least one flip, else it equals x

    def test_unknown_modality_rejected(self):
        with pytest.raises(ValueError):
            dg.gen_neighbors(np.zeros(3), "audio", 4, 0.1, 0)

    @pytest.mark.parametrize("modality", [dg.CONTINUOUS, dg.BINARY])
    def test_noise_too_small_to_move_the_point_is_rejected(self, modality):
        # 1e-300 jitter rounds back to x and flips no bit: every draw equals
        # x, so the pool stops at its draw cap instead of resampling forever.
        with pytest.raises(ValueError, match="noise_scale 1e-300"):
            dg.gen_neighbors(np.ones(6), modality, 4, 1e-300, 0)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        ds = dg.gen_binary_tabular(4, 12, 6, 0.2, seed=5)
        stem = str(tmp_path / "data")
        dg.save_dataset(ds, stem)
        loaded = dg.load_dataset(stem)
        assert np.array_equal(loaded.features, ds.features)  # binary is f32-exact
        assert np.array_equal(loaded.labels, ds.labels)
        assert loaded.num_classes == 4

        # A second save of a loaded dataset is byte-identical.
        dg.save_dataset(loaded, stem + "2")
        assert (tmp_path / "data.bin").read_bytes() == (tmp_path / "data2.bin").read_bytes()

    def test_float_features_round_to_f32(self, tmp_path):
        ds = dg.gen_gaussian_mixture(2, 3, 4, 1.0, seed=0)
        stem = str(tmp_path / "g")
        dg.save_dataset(ds, stem)
        loaded = dg.load_dataset(stem)
        assert np.array_equal(loaded.features,
                              ds.features.astype(np.float32).astype(np.float64))

    def test_flipped_byte_is_rejected(self, tmp_path):
        stem = str(tmp_path / "data")
        dg.save_dataset(dg.gen_binary_tabular(3, 8, 4, 0.1, seed=1), stem)
        blob = bytearray((tmp_path / "data.bin").read_bytes())
        blob[len(blob) // 2] ^= 0x01
        (tmp_path / "data.bin").write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="sha256"):
            dg.load_dataset(stem)

    def test_manifest_rows_must_fit_the_blob(self, tmp_path):
        stem = str(tmp_path / "data")
        dg.save_dataset(dg.gen_binary_tabular(3, 8, 4, 0.1, seed=1), stem)
        manifest = json.loads((tmp_path / "data.json").read_text())
        manifest["n"] += 1
        (tmp_path / "data.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="does not hold"):
            dg.load_dataset(stem)

    def test_csv_import(self, tmp_path):
        path = tmp_path / "tab.csv"
        path.write_text("f0,f1,label\n0.5,1.25,0\n-1.0,2.0,2\n0.0,0.0,1\n")
        ds = dg.load_csv_dataset(str(path))
        assert ds.num_classes == 3
        assert np.array_equal(ds.labels, [0, 2, 1])
        np.testing.assert_allclose(ds.features[1], [-1.0, 2.0])

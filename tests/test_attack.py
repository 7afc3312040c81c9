import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milab import attack as atk
from milab import nncore as nn
from milab.datagen import gen_gaussian_mixture


class LabelTableModel:
    """Stub model with a fixed label per feature vector."""

    def __init__(self, labels_by_key, default=0):
        self.labels_by_key = labels_by_key
        self.default = default

    def predict_label_batch(self, X):
        return np.array([self.labels_by_key.get(row.tobytes(), self.default) for row in X])


def key(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def one_point(x, y, neighbors, dim=2):
    """``chameleon_score``'s arrays for one point: X [1, dim], y [1] and its
    neighbors as members [1, n, dim]."""
    members = np.array(neighbors, dtype=np.float64).reshape(1, len(neighbors), dim)
    return np.asarray(x, dtype=np.float64)[None, :], np.array([y]), members


class TestMisclassificationScore:
    def setup_method(self):
        self.x = np.array([9.0, 9.0])
        self.y = 1
        self.neighbors = [np.array([9.0 + i, 0.0]) for i in range(4)]

    def facade(self, correct_on):
        table = {key(q): (self.y if i in correct_on else 3)
                 for i, q in enumerate([self.x] + self.neighbors)}
        return atk.LabelOnlyModel(LabelTableModel(table))

    def score(self, target, neighbors=None):
        """The mislabelled fraction: 1 minus the chameleon score."""
        neighbors = self.neighbors if neighbors is None else neighbors
        [score] = atk.chameleon_score(target, *one_point(self.x, self.y, neighbors))
        return 1.0 - score

    def test_all_correct_scores_zero(self):
        target = self.facade(correct_on={0, 1, 2, 3, 4})
        assert self.score(target) == 0.0

    def test_all_wrong_scores_one(self):
        target = self.facade(correct_on=set())
        assert self.score(target) == 1.0

    def test_fraction_counts_point_and_neighbors(self):
        target = self.facade(correct_on={0, 2})  # 3 of 5 queries mismatch
        assert self.score(target) == pytest.approx(3 / 5)

    def test_query_count_is_n_plus_one(self):
        target = self.facade(correct_on={0})
        self.score(target)
        assert target.query_count == len(self.neighbors) + 1

    def test_batch_equals_points_one_at_a_time(self):
        # Two points of one label (the first one's neighbors) in one batch.
        # The second point's neighbors past the first are padding, which
        # the table leaves at the default, wrong label.
        other_x = np.array([-1.0, -1.0])
        other = [np.array([-2.0 - i, -1.0]) for i in range(len(self.neighbors))]
        table = {key(self.x): self.y, key(self.neighbors[1]): self.y, key(other_x): 3}
        batches = []

        class CountingModel(LabelTableModel):
            def predict_label_batch(self, X):
                batches.append(len(X))
                return super().predict_label_batch(X)

        X = np.stack([self.x, other_x])
        y = np.array([self.y, self.y])
        members = np.stack([np.stack(self.neighbors), np.stack(other)])
        target = atk.LabelOnlyModel(CountingModel(table))
        got = atk.chameleon_score(target, X, y, members)
        assert batches == [target.query_count] == [2 * (len(self.neighbors) + 1)]
        alone = [atk.chameleon_score(atk.LabelOnlyModel(LabelTableModel(table)),
                                     X[p:p + 1], y[p:p + 1], members[p:p + 1])[0]
                 for p in range(2)]
        assert got.dtype == np.float64 and got.tolist() == alone
        assert (1.0 - got).tolist() == [3 / 5, 1.0]

    def test_sixteen_of_sixtyfive(self):
        neighbors = [np.array([float(i), 1.0]) for i in range(64)]
        wrong = set(range(16))  # first 16 queries mismatch
        table = {key(q): (3 if i in wrong else self.y)
                 for i, q in enumerate([self.x] + neighbors)}
        target = atk.LabelOnlyModel(LabelTableModel(table))
        assert self.score(target, neighbors) == pytest.approx(16 / 65)

    def test_invariant_to_neighbor_order(self):
        base = self.score(self.facade(correct_on={0, 1, 4}))
        shuffled = [self.neighbors[i] for i in (2, 0, 3, 1)]
        assert self.score(self.facade(correct_on={0, 1, 4}), shuffled) == base

    @given(data=st.data(), points=st.integers(1, 6), size=st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_equals_per_point_mean_of_mislabels(self, data, points, size):
        # Row r of the query batch carries r in its first feature, and the
        # label table answers r with labels[r].
        def draw_labels(n):
            return np.array(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))

        labels, y = draw_labels(points * (size + 1)), draw_labels(points)
        ids = np.arange(points * (size + 1), dtype=np.float64).reshape(points, size + 1)
        rows = np.stack([ids, np.ones_like(ids)], axis=-1)

        class RowLabels:
            def predict_label_batch(self, X):
                return labels[X[:, 0].astype(int)]

        got = atk.chameleon_score(RowLabels(), rows[:, 0], y, rows[:, 1:])
        want = [1 - np.mean(labels[p * (size + 1):(p + 1) * (size + 1)] != y[p])
                for p in range(points)]
        assert got.dtype == np.float64 and got.tolist() == want


class TestChameleonScore:
    def test_score_is_one_minus_fraction(self):
        x, y = np.array([1.0, 2.0]), 2
        target = atk.LabelOnlyModel(LabelTableModel({key(x): y}, default=1))
        [score] = atk.chameleon_score(target, *one_point(x, y, [np.array([1.5, 2.0])]))
        assert score == 1.0 - 0.5  # one of the point and its neighbor is wrong

    def test_extreme_conventions(self):
        x, y = np.array([0.0]), 1
        arrays = one_point(x, y, [np.array([2.0])], dim=1)
        always_right = atk.LabelOnlyModel(LabelTableModel({}, default=y))
        assert atk.chameleon_score(always_right, *arrays).tolist() == [1.0]
        always_wrong = atk.LabelOnlyModel(LabelTableModel({}, default=0))
        assert atk.chameleon_score(always_wrong, *arrays).tolist() == [0.0]

    def test_empty_neighborhood_uses_single_query(self):
        x, y = np.array([0.0]), 1
        target = atk.LabelOnlyModel(LabelTableModel({}, default=y))
        assert atk.chameleon_score(target, *one_point(x, y, [], dim=1)).tolist() == [1.0]
        assert target.query_count == 1


class TestGapScore:
    def test_correct_prediction_is_member(self):
        x, y = np.array([3.0]), 2
        target = atk.LabelOnlyModel(LabelTableModel({key(x): 2}))
        assert atk.gap_score(target, x[None, :], np.array([y])).tolist() == [1.0]
        assert target.query_count == 1

    def test_wrong_prediction_is_nonmember(self):
        x, y = np.array([3.0]), 2
        target = atk.LabelOnlyModel(LabelTableModel({key(x): 0}))
        assert atk.gap_score(target, x[None, :], np.array([y])).tolist() == [0.0]

    def test_separates_members_on_overfit_model(self):
        # A memorising model labels its training points correctly and fresh
        # points at chance, so mean gap score must be higher on members.
        train = gen_gaussian_mixture(4, 8, 12, class_sep=1.0, seed=0)
        fresh = gen_gaussian_mixture(4, 8, 12, class_sep=1.0, seed=1)
        model = nn.train(train, nn.TrainConfig(epochs=150, learning_rate=0.1,
                                               batch_size=8, seed=0), (64,))
        target = atk.LabelOnlyModel(model)
        score_in = np.mean(atk.gap_score(target, train.features, train.labels))
        score_out = np.mean(atk.gap_score(target, fresh.features, fresh.labels))
        assert score_in > score_out
        assert target.query_count == len(train) + len(fresh)


class TestLabelOnlySeam:
    def test_facade_hides_confidences(self):
        model = nn.init_params(4, (8,), 3, seed=0)
        target = atk.LabelOnlyModel(model)
        assert not hasattr(target, "predict_proba")
        assert not hasattr(target, "predict_proba_batch")

    def test_attacks_need_only_label_queries(self):
        # Any object with a batched label method works: the attacks never
        # touch confidences.
        class LabelsOnly:
            def predict_label_batch(self, X):
                return np.zeros(len(X), dtype=int)

        X, y, members = one_point(np.array([1.0, 1.0]), 0, [np.array([1.0, 2.0])])
        assert atk.chameleon_score(LabelsOnly(), X, y, members).tolist() == [1.0]
        assert atk.gap_score(LabelsOnly(), X, y).tolist() == [1.0]


class TestScoreRecords:
    def test_score_bounds_validated(self, tmp_path):
        path = tmp_path / "scores.csv"
        for score in (1.5, -0.5, float("nan")):
            atk.write_scores_csv(str(path), {"chameleon": np.array([[score]])},
                                 np.array([[True]]), np.array([0]))
            with pytest.raises(ValueError, match=r"score must be in \[0, 1\]"):
                atk.read_scores_csv(str(path))

    def test_csv_round_trip(self, tmp_path):
        scores = {"chameleon": np.array([[1 / 3, 0.5], [1.0, 0.25]]),
                  "gap": np.array([[0.0, 1.0], [1.0, 0.0]])}
        truth = np.array([[True, False], [False, True]])
        path = tmp_path / "scores.csv"
        atk.write_scores_csv(str(path), scores, truth, np.array([5, 0]))
        assert path.read_text().splitlines() == [
            "attack,challenge_index,model_id,truth,score",
            "chameleon,5,0,1,0.3333333333333333", "chameleon,0,0,0,0.5",
            "chameleon,5,1,0,1.0", "chameleon,0,1,1,0.25",
            "gap,5,0,1,0.0", "gap,0,0,0,1.0", "gap,5,1,0,1.0", "gap,0,1,1,0.0"]
        loaded = atk.read_scores_csv(str(path))
        assert loaded == {attack: (s[truth].tolist(), s[~truth].tolist())
                          for attack, s in scores.items()}

    def test_split_scores(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("attack,challenge_index,model_id,truth,score\n"
                        "chameleon,0,0,1,0.9\nchameleon,0,1,0,0.4\ngap,0,0,1,1.0\n")
        s_in, s_out = atk.read_scores_csv(str(path))["chameleon"]
        assert (s_in, s_out) == ([0.9], [0.4])

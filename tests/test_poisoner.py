import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milab import poisoner as po
from milab.datagen import Dataset, blob_parts, dataset_blob, gen_gaussian_mixture
from milab.harness.cache import dataset_digest


class ReplicaCountingModel:
    """Stub shadow model whose confidence on a challenge point is a pure
    function of how many poisoned replicas of it the training set contained."""

    def __init__(self, train_set: Dataset, schedules):
        # schedules: {feature-bytes: (true_label, poisoned_label, mu_fn)}
        self.train_set = train_set
        self.schedules = schedules

    def predict_proba(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 2:  # a stack: answer row by row
            return np.stack([self._probs(row) for row in x])
        return self._probs(x)

    def _probs(self, x):
        key = x.tobytes()
        num_classes = self.train_set.num_classes
        probs = np.full(num_classes, 1.0 / num_classes)
        if key in self.schedules:
            y, y_p, mu_fn = self.schedules[key]
            matches = (self.train_set.features == x).all(axis=1)
            k = int(np.sum(matches & (self.train_set.labels == y_p)))
            conf = mu_fn(k)
            probs = np.full(num_classes, (1.0 - conf) / (num_classes - 1))
            probs[y] = conf
        return probs


class StubTrainer:
    def __init__(self, schedules):
        self.schedules = schedules
        self.models_trained = 0

    def __call__(self, jobs):
        self.models_trained += len(jobs)
        return [ReplicaCountingModel(recipe.build(), self.schedules) for recipe, _ in jobs]


class ProbeRecordingModel(ReplicaCountingModel):
    """Replica-counting model that records the input of each predict_proba
    call."""

    def __init__(self, train_set: Dataset, schedules):
        super().__init__(train_set, schedules)
        self.calls = []

    def predict_proba(self, x):
        self.calls.append(np.array(x))
        return super().predict_proba(x)


class ProbeRecordingTrainer(StubTrainer):
    """Stub trainer that keeps every model it returns, in training order."""

    def __init__(self, schedules):
        super().__init__(schedules)
        self.models = []

    def __call__(self, jobs):
        self.models_trained += len(jobs)
        models = [ProbeRecordingModel(recipe.build(), self.schedules) for recipe, _ in jobs]
        self.models += models
        return models


def base_dataset(n=20, dim=3, num_classes=4, seed=0):
    gen = np.random.default_rng(seed)
    return Dataset(gen.normal(0, 1, (n, dim)), gen.integers(0, num_classes, n),
                   num_classes)


def schedule_for(x, y, y_p, mu_fn):
    return {np.asarray(x, dtype=np.float64).tobytes(): (y, y_p, mu_fn)}


class TestAdaptPoisonSingle:
    def setup_method(self):
        self.d_adv = base_dataset()
        self.x = np.array([50.0, 50.0, 50.0])
        self.y, self.y_p = 1, 2

    def run(self, mu_fn, t_p=0.15, k_max=6, m=4):
        trainer = StubTrainer(schedule_for(self.x, self.y, self.y_p, mu_fn))
        cfg = po.PoisonConfig(t_p=t_p, m=m, k_max=k_max)
        k = po.adapt_poison_single((self.x, self.y), self.y_p, self.d_adv,
                                   cfg, trainer)
        return k, trainer.models_trained

    def test_linear_decay_stops_at_three(self):
        # mu(k) = 0.9 - 0.3k crosses 0.15 at k=3 (mu(2)=0.3 > 0.15 >= mu(3)=0).
        k, trained = self.run(lambda k: max(0.0, 0.9 - 0.3 * k))
        assert k == 3
        assert trained == 4 * 4  # m models per iteration, k = 0..3

    def test_threshold_one_never_poisons(self):
        k, trained = self.run(lambda k: 0.9, t_p=1.0)
        assert k == 0
        assert trained == 4

    def test_constant_confidence_exhausts_to_k_max(self):
        k, trained = self.run(lambda k: 0.5, k_max=6)
        assert k == 6
        assert trained == 7 * 4

    def test_challenge_in_attacker_data_rejected(self):
        ds = self.d_adv
        x, y = ds.features[0], int(ds.labels[0])
        trainer = StubTrainer({})
        with pytest.raises(ValueError):
            po.adapt_poison_single((x, y), (y + 1) % 4, ds, po.PoisonConfig(), trainer)

    def test_same_label_rejected(self):
        trainer = StubTrainer({})
        with pytest.raises(ValueError):
            po.adapt_poison_single((self.x, self.y), self.y, self.d_adv,
                                   po.PoisonConfig(), trainer)

    @given(st.lists(st.floats(0.0, 1.0), min_size=7, max_size=7),
           st.floats(0.05, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_first_crossing_semantics(self, mus, t_p):
        # Returned k is the first index with mu <= t_p, else k_max: the
        # minimal stopping point for any confidence profile.
        k, _ = self.run(lambda k: mus[k], t_p=t_p, k_max=6, m=2)
        expected = next((i for i, v in enumerate(mus) if v <= t_p), 6)
        assert k == expected


class TestAdaptPoisonMulti:
    def make_challenges(self, d_adv, indices):
        return po.make_challenge_set(d_adv, indices)

    def multi_schedules(self, d_adv, challenges, mu_fns):
        schedules = {}
        for i in range(len(challenges)):
            schedules[challenges.features[i].tobytes()] = (
                int(challenges.labels[i]), int(challenges.poisoned_labels[i]),
                mu_fns[i])
        return schedules

    def test_single_point_trace_and_cost(self):
        d_adv = base_dataset(n=12)
        challenges = self.make_challenges(d_adv, [4])
        mu = lambda k: max(0.0, 0.9 - 0.3 * k)
        trainer = StubTrainer(self.multi_schedules(d_adv, challenges, [mu]))
        cfg = po.PoisonConfig(t_p=0.15, m=2, k_max=6)
        plan = po.adapt_poison_multi(challenges, d_adv, cfg, trainer)
        assert plan.replica_counts.tolist() == [3]
        assert plan.iterations_run == 3
        assert plan.models_trained == 2 * 2 * 4  # 2m per iteration, k = 0..3
        assert trainer.models_trained == plan.models_trained

    def test_agrees_with_single_point_procedure(self):
        d_adv = base_dataset(n=16, seed=3)
        challenges = self.make_challenges(d_adv, [7])
        for mu in (lambda k: 0.8 - 0.25 * k, lambda k: 0.1, lambda k: 0.6):
            trainer = StubTrainer(self.multi_schedules(d_adv, challenges, [mu]))
            cfg = po.PoisonConfig(t_p=0.2, m=2, k_max=5)
            plan = po.adapt_poison_multi(challenges, d_adv, cfg, trainer)

            x = challenges.features[0]
            outside = Dataset(np.delete(d_adv.features, 7, axis=0),
                              np.delete(d_adv.labels, 7), d_adv.num_classes)
            single_trainer = StubTrainer(
                self.multi_schedules(d_adv, challenges, [mu]))
            k_single = po.adapt_poison_single(
                (x, int(challenges.labels[0])), int(challenges.poisoned_labels[0]),
                outside, cfg, single_trainer)
            assert plan.replica_counts[0] == k_single

    def test_immediate_freeze_trains_one_round(self):
        d_adv = base_dataset(n=10, seed=1)
        challenges = self.make_challenges(d_adv, [0, 5])
        trainer = StubTrainer(self.multi_schedules(
            d_adv, challenges, [lambda k: 0.9, lambda k: 0.9]))
        cfg = po.PoisonConfig(t_p=1.0, m=3, k_max=6)
        plan = po.adapt_poison_multi(challenges, d_adv, cfg, trainer)
        assert plan.replica_counts.tolist() == [0, 0]
        assert plan.iterations_run == 0
        assert plan.models_trained == 2 * 3

    def test_full_exhaustion_cost_formula(self):
        d_adv = base_dataset(n=24, seed=2)
        challenges = self.make_challenges(d_adv, [1, 8, 15])
        mu_fns = [lambda k: 0.9] * 3
        trainer = StubTrainer(self.multi_schedules(d_adv, challenges, mu_fns))
        cfg = po.PoisonConfig(t_p=0.15, m=8, k_max=6)
        plan = po.adapt_poison_multi(challenges, d_adv, cfg, trainer)
        assert plan.models_trained == 2 * (6 + 1) * 8  # 112
        assert plan.replica_counts.tolist() == [6, 6, 6]
        assert plan.iterations_run == 6

    def test_frozen_point_keeps_count_while_others_advance(self):
        d_adv = base_dataset(n=18, seed=5)
        challenges = self.make_challenges(d_adv, [2, 9])
        mu_fns = [lambda k: 0.05,                  # freezes immediately at k=0
                  lambda k: max(0.0, 0.8 - 0.2 * k)]  # freezes at k=4
        trainer = StubTrainer(self.multi_schedules(d_adv, challenges, mu_fns))
        cfg = po.PoisonConfig(t_p=0.1, m=2, k_max=6)
        plan = po.adapt_poison_multi(challenges, d_adv, cfg, trainer)
        assert plan.replica_counts.tolist() == [0, 4]
        assert plan.iterations_run == 4

    def test_split_plan_balance_and_model_tags(self):
        d_adv = base_dataset(n=30, seed=6)
        challenges = self.make_challenges(d_adv, [3, 20])
        trainer = StubTrainer(self.multi_schedules(
            d_adv, challenges, [lambda k: 0.9, lambda k: 0.9]))
        cfg = po.PoisonConfig(t_p=1.0, m=4, k_max=2)
        plan = po.adapt_poison_multi(challenges, d_adv, cfg, trainer)
        for idx in (3, 20):
            assert plan.split[:, idx].sum() == 4
        # Each point's IN and OUT models are those of the split rows that
        # include and exclude it, in row order, each trained on its row.
        for pos, idx in enumerate((3, 20)):
            for models, rows in ((plan.in_models[pos], plan.split[:, idx]),
                                 (plan.out_models[pos], ~plan.split[:, idx])):
                assert len(models) == cfg.m
                for model, row in zip(models, np.flatnonzero(rows)):
                    subset = np.flatnonzero(plan.split[row])
                    np.testing.assert_array_equal(model.train_set.features,
                                                  d_adv.features[subset])

    def test_each_model_is_probed_once_per_iteration(self):
        d_adv = base_dataset(n=30, seed=8)
        indices = [1, 6, 11, 17, 25]
        challenges = self.make_challenges(d_adv, indices)
        mu_fns = [lambda k: 0.05, lambda k: max(0.0, 0.8 - 0.2 * k),
                  lambda k: 0.9, lambda k: max(0.0, 0.6 - 0.3 * k), lambda k: 0.9]
        trainer = ProbeRecordingTrainer(self.multi_schedules(d_adv, challenges, mu_fns))
        cfg = po.PoisonConfig(t_p=0.1, m=3, k_max=6)
        plan = po.adapt_poison_multi(challenges, d_adv, cfg, trainer)
        # Each point freezes at the first k whose confidence is at most t_p,
        # or ends at k_max.
        assert plan.replica_counts.tolist() == [0, 4, 6, 2, 6]
        assert len(trainer.models) == plan.models_trained == 2 * 3 * 7
        for iteration in range(plan.iterations_run + 1):
            # A point is probed from iteration 0 through its final count.
            live = plan.replica_counts >= iteration
            for row in range(2 * cfg.m):
                calls = trainer.models[iteration * 2 * cfg.m + row].calls
                out = live & ~plan.split[row, indices]
                assert len(calls) == int(out.any())
                if calls:  # one stack: the live points it is OUT for, in order
                    np.testing.assert_array_equal(calls[0], challenges.features[out])

    def test_iteration_zero_models_carry_no_poison(self):
        d_adv = base_dataset(n=10, seed=7)
        challenges = self.make_challenges(d_adv, [4])
        trainer = StubTrainer(self.multi_schedules(d_adv, challenges,
                                                   [lambda k: 0.9]))
        cfg = po.PoisonConfig(t_p=0.15, m=2, k_max=2)
        plan = po.adapt_poison_multi(challenges, d_adv, cfg, trainer)
        y_p = int(challenges.poisoned_labels[0])
        for model in plan.in_models[0] + plan.out_models[0]:
            ts = model.train_set
            matches = (ts.features == challenges.features[0]).all(axis=1)
            assert int(np.sum(matches & (ts.labels == y_p))) == 0


class TestWithCopies:
    """Replica copies as ``TrainingSet.build`` appends them."""

    @staticmethod
    def poison(ds, challenges, counts):
        return po.TrainingSet(ds, None, challenges.features, challenges.poisoned_labels,
                              counts).build()

    def test_zero_counts_is_identity(self):
        ds = base_dataset(n=8)
        challenges = po.make_challenge_set(ds, [1, 3])
        out = self.poison(ds, challenges, np.zeros(2, dtype=np.int64))
        assert np.array_equal(out.features, ds.features)
        assert np.array_equal(out.labels, ds.labels)

    def test_single_point_appends_replicas(self):
        ds = base_dataset(n=8)
        challenges = po.make_challenge_set(ds, [2])
        out = self.poison(ds, challenges, np.array([3]))
        assert len(out) == 11
        y_p = challenges.poisoned_labels[0]
        assert np.all(out.labels[8:] == y_p)
        assert np.all(out.features[8:] == challenges.features[0])

    def test_replicas_grouped_in_ascending_index_order(self):
        ds = base_dataset(n=6)
        challenges = po.make_challenge_set(ds, [0, 4])
        out = self.poison(ds, challenges, np.array([1, 2]))
        assert len(out) == 9
        np.testing.assert_array_equal(out.features[6], challenges.features[0])
        np.testing.assert_array_equal(out.features[7], challenges.features[1])
        np.testing.assert_array_equal(out.features[8], challenges.features[1])

    def test_misaligned_lengths_rejected(self):
        ds = base_dataset(n=6)
        challenges = po.make_challenge_set(ds, [0, 4])
        with pytest.raises(ValueError):
            self.poison(ds, challenges, np.ones(3, dtype=np.int64))

    def test_all_zero_counts_return_the_base_object(self):
        ds = base_dataset(n=6)
        challenges = po.make_challenge_set(ds, [0, 4])
        assert self.poison(ds, challenges, [0, 0]) is ds

    def test_one_true_label_copy_is_the_strict_in_layout(self):
        ds = base_dataset(n=6)
        x, y = ds.features[2] + 0.5, int(ds.labels[2])
        out = po.TrainingSet(ds, None, x[None, :], [y], [1]).build()
        np.testing.assert_array_equal(out.features,
                                      np.concatenate([ds.features, x[None, :]]))
        np.testing.assert_array_equal(out.labels, np.append(ds.labels, y))
        assert out.num_classes == ds.num_classes


@st.composite
def recipes(draw) -> po.TrainingSet:
    """A random base, all of its rows or a random selection (repeats
    allowed), and 0-4 replica rows whose counts may all be 0."""
    n, dim = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    num_classes = draw(st.integers(2, 7))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = Dataset(gen.normal(0, 3, (n, dim)), gen.integers(0, num_classes, n), num_classes)
    rows = draw(st.none() | st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    copies = draw(st.integers(0, 4))
    counts = draw(st.lists(st.integers(0, 3), min_size=copies, max_size=copies)
                  | st.just([0] * copies))
    return po.TrainingSet(base, None if rows is None else np.array(rows),
                          gen.normal(0, 3, (copies, dim)),
                          gen.integers(0, num_classes, copies), counts)


class TestTrainingSet:
    @given(recipes())
    @settings(max_examples=150, deadline=None)
    def test_streamed_blob_and_digest_are_those_of_the_built_set(self, recipe):
        built = recipe.build()
        assert (b"".join(blob_parts(recipe.blocks(), recipe.num_classes))
                == dataset_blob(built))
        assert dataset_digest(recipe) == dataset_digest(built)
        selected = len(recipe.base) if recipe.rows is None else len(recipe.rows)
        assert len(built) == selected + int(recipe.counts.sum())

    def test_selected_rows_come_before_the_copies(self):
        ds = base_dataset(n=8)
        recipe = po.TrainingSet(ds, np.array([5, 1, 1]), ds.features[:2] + 9.0,
                                [2, 3], [0, 2])
        built = recipe.build()
        np.testing.assert_array_equal(
            built.features, np.concatenate([ds.features[[5, 1, 1]],
                                            np.tile(ds.features[1] + 9.0, (2, 1))]))
        np.testing.assert_array_equal(built.labels, [*ds.labels[[5, 1, 1]], 3, 3])

    def test_counts_are_copied(self):
        # The adaptive loop advances its counters after handing out recipes.
        ds = base_dataset(n=6)
        counts = np.array([1, 0])
        recipe = po.TrainingSet(ds, None, ds.features[:2] + 1.0, [0, 1], counts)
        counts += 5
        assert len(recipe.build()) == 7


class TestSavePoisonPlan:
    @given(st.integers(1, 3), st.integers(1, 6), st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_bytes_are_those_of_the_json_encoder(self, m, n, strict, seed):
        gen = np.random.default_rng(seed)
        ds = base_dataset(n=n, seed=seed % 100)
        challenges = po.make_challenge_set(ds, [0])
        split = None if strict else gen.random((2 * m, n)) < 0.5
        plan = po.PoisonPlan(np.array([2]), 1, 2 * m, [], [], split)
        refs = [f"models/{i}" for i in range(2 * m)]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "plan.json")
            po.save_poison_plan(plan, challenges, path, refs)
            with open(path, "r", encoding="utf-8") as f:
                written = f.read()
        expected = json.dumps({
            "replica_counts": [2], "iterations_run": 1, "challenge_indices": [0],
            "poisoned_labels": challenges.poisoned_labels.tolist(),
            "split_inclusion": None if split is None else split.astype(int).tolist(),
            "models": refs}, indent=2, sort_keys=True)
        assert written == expected


class TestChallengeSet:
    def test_poisoned_label_must_differ(self):
        with pytest.raises(ValueError):
            po.ChallengeSet(np.array([0]), np.zeros((1, 2)), np.array([1]),
                            np.array([1]))

    def test_default_label_shift(self):
        ds = base_dataset(n=10, num_classes=4)
        cs = po.make_challenge_set(ds, [0, 1, 2])
        assert np.array_equal(cs.poisoned_labels, (cs.labels + 1) % 4)


class TestMonotoneTrendOnRealTrainer:
    def test_mean_out_confidence_decreases_with_replicas(self):
        # Statistical trend: adding poisoned replicas drags the OUT models'
        # confidence on the true label down, on average over seeds.
        from milab import nncore as nn

        means = {k: [] for k in (0, 2, 4)}
        for seed in range(10):
            ds = gen_gaussian_mixture(4, 6, 15, class_sep=2.0, seed=100 + seed)
            x = ds.features[0] + 0.1
            y = 0
            for k in means:
                feats = np.concatenate([ds.features, np.tile(x, (k, 1))])
                labels = np.concatenate([ds.labels, np.full(k, 1)])
                train_set = Dataset(feats, labels, 4)
                cfg = nn.TrainConfig(epochs=30, learning_rate=0.1,
                                     batch_size=16, seed=seed)
                model = nn.train(train_set, cfg, (16,))
                means[k].append(model.predict_proba(x)[y])
        avg = {k: float(np.mean(v)) for k, v in means.items()}
        assert avg[2] <= avg[0] + 0.02
        assert avg[4] <= avg[2] + 0.02
        assert avg[4] < avg[0]

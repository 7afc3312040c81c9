"""Adaptive poisoning: choose per-challenge-point replica counts by training
OUT shadow models until they misclassify the point.

The single-point procedure trains m OUT models per candidate count k and
stops at the first k where the mean confidence on the true label falls to the
poison threshold.  The multi-point procedure amortises this over a fixed pool
of 2m half-splits of the attacker dataset (balanced so every challenge point
has exactly m IN and m OUT models), updating all replica counters in lockstep
per iteration; a full run trains 2(k_max+1)m models regardless of how many
challenge points there are.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .datagen import Dataset, make_split_plan
from .rng import derive_seed

# Trainer seam: a list of (training set recipe, model seed) jobs -> one model
# per job, in job order; each model exposes predict_proba, on one input [d]
# or a stack [n, d].
TrainerFn = Callable[[list[tuple["TrainingSet", int]]], list[Any]]


@dataclass(frozen=True)
class PoisonConfig:
    """Poison threshold, OUT-ensemble size and iteration cap."""

    t_p: float = 0.15
    m: int = 8
    k_max: int = 6

    def __post_init__(self):
        if not 0 < self.t_p <= 1:
            raise ValueError("t_p must be in (0, 1]")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.k_max < 0:
            raise ValueError("k_max must be >= 0")


@dataclass
class ChallengeSet:
    """Challenge points (by index into the attacker dataset) plus the flipped
    labels used for their poisoned replicas."""

    indices: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    poisoned_labels: np.ndarray

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.poisoned_labels = np.asarray(self.poisoned_labels, dtype=np.int64)
        if np.any(self.poisoned_labels == self.labels):
            raise ValueError("poisoned labels must differ from true labels")

    def __len__(self) -> int:
        return len(self.indices)


def make_challenge_set(dataset: Dataset, indices) -> ChallengeSet:
    """Challenge set with poisoned labels y' = (y + 1) mod C."""
    idx = np.asarray(sorted(int(i) for i in indices), dtype=np.int64)
    labels = dataset.labels[idx]
    poisoned = (labels + 1) % dataset.num_classes
    return ChallengeSet(idx, dataset.features[idx].copy(), labels, poisoned)


@dataclass
class PoisonPlan:
    """Replica counts chosen by the adaptive loop, how many shadow models it
    trained, and each point's poison-free ensembles: ``in_models[p]`` and
    ``out_models[p]`` were trained with and without point position p, in
    ascending split-row order when ``split`` is given."""

    replica_counts: np.ndarray
    iterations_run: int            # index of the last executed iteration
    models_trained: int
    in_models: list[list[Any]]
    out_models: list[list[Any]]
    split: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class TrainingSet:
    """Recipe of a training set: the rows ``rows`` of ``base`` (all of them
    when None), then ``counts[i]`` copies of the row ``(features[i],
    labels[i])``, in ascending i.

    A trainer job carries the recipe, not the rows, so only the process that
    trains on a set builds it. The counts are copied, so the caller may
    change its own array afterwards."""

    base: Dataset
    rows: np.ndarray | None
    features: np.ndarray
    labels: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        if not len(self.features) == len(self.labels) == len(self.counts):
            raise ValueError("replica counts misaligned with their rows")
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        object.__setattr__(self, "counts", np.array(self.counts, dtype=np.int64))

    @property
    def num_classes(self) -> int:
        return self.base.num_classes

    def blocks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(features, labels) of the base rows, then of the copies: the rows
        of ``build()``, in order."""
        base, rows = self.base, self.rows
        reps = np.repeat(np.arange(len(self.counts)), self.counts)
        head = ((base.features, base.labels) if rows is None
                else (base.features[rows], base.labels[rows]))
        return [head, (self.features[reps], self.labels[reps])]

    def build(self) -> Dataset:
        """The training set; ``base`` itself when it has no row selection and
        every count is 0."""
        (features, labels), (copy_features, copy_labels) = self.blocks()
        if len(copy_labels):
            features = np.concatenate([features, copy_features])
            labels = np.concatenate([labels, copy_labels])
        elif self.rows is None:
            return self.base
        return Dataset(features, labels, self.num_classes)


def adapt_poison_single(challenge: tuple[np.ndarray, int], poisoned_label: int,
                        d_adv: Dataset, cfg: PoisonConfig, train: TrainerFn,
                        seed: int = 0) -> int:
    """Adaptive replica count for one challenge point (not in d_adv).

    For k = 0..k_max, trains m OUT models on d_adv plus k poisoned replicas
    in one ``train`` call and returns the first k whose mean OUT confidence
    on the true label is at most t_p, or k_max when no count reaches the
    threshold.
    """
    x, y = challenge
    x = np.asarray(x, dtype=np.float64)
    if poisoned_label == y:
        raise ValueError("poisoned label must differ from the true label")
    if np.any((d_adv.features == x).all(axis=1) & (d_adv.labels == y)):
        raise ValueError("challenge point must not be in the attacker dataset")

    for k in range(cfg.k_max + 1):
        recipe = TrainingSet(d_adv, None, x[None, :], [poisoned_label], [k])
        models = train([(recipe, derive_seed(seed, k, j)) for j in range(cfg.m)])
        if float(np.mean([model.predict_proba(x)[y] for model in models])) <= cfg.t_p:
            return k
    return cfg.k_max


def adapt_poison_multi(challenges: ChallengeSet, d_adv: Dataset,
                       cfg: PoisonConfig, train: TrainerFn,
                       seed: int = 0) -> PoisonPlan:
    """Adaptive replica counts for a set of challenge points.

    Builds 2m half-splits of d_adv with balanced challenge membership, then
    iterates: train one model per split on its subset plus the current
    poisoned replicas, measure each unfrozen point's mean confidence over its
    m OUT models, freeze it once the mean reaches t_p and otherwise increment
    its counter.  Each model is probed once per iteration, on the stack of
    unfrozen points it is OUT for.  Stops when all points are frozen or after
    iteration k_max; counters are capped at k_max.  Only iteration 0's
    poison-free models are kept; each later iteration's are dropped once
    probed.
    """
    n_c = len(challenges)
    split = make_split_plan(len(d_adv), challenges.indices, 2 * cfg.m,
                            derive_seed(seed, 0))
    counts = np.zeros(n_c, dtype=np.int64)
    frozen = np.zeros(n_c, dtype=bool)
    # out[r, i]: shadow model r is OUT for point i.
    out = ~split[:, challenges.indices]
    assert (out.sum(axis=0) == cfg.m).all(), "split plan must give m OUT models per point"
    rows = [np.flatnonzero(row) for row in split]
    probe = np.zeros((len(rows), n_c))

    for iteration in range(cfg.k_max + 1):
        # The 2m trainings inside one iteration are independent; the trainer
        # may fan them out, iterations stay sequential.
        models = train([(TrainingSet(d_adv, split_rows, challenges.features,
                                     challenges.poisoned_labels, counts),
                         derive_seed(seed, 1 + iteration, r))
                        for r, split_rows in enumerate(rows)])
        if iteration == 0:
            in_models = [[models[r] for r in np.flatnonzero(~col)] for col in out.T]
            out_models = [[models[r] for r in np.flatnonzero(col)] for col in out.T]
        live = np.flatnonzero(~frozen)
        assert (counts[live] == iteration).all(), "unfrozen counters advance in lockstep"
        # probe[r, i]: model r's confidence on point i's true label, one
        # stacked call per model over the live points it is OUT for. Each
        # live point's m OUT confidences then form one row in ascending
        # model order, so its mean sums in the order np.mean of that row
        # alone does.
        for r, model in enumerate(models):
            points = live[out[r, live]]
            if len(points):
                probs = model.predict_proba(challenges.features[points])
                probe[r, points] = probs[np.arange(len(points)), challenges.labels[points]]
        conf = probe.T[live][out.T[live]].reshape(len(live), cfg.m)
        reached = conf.mean(axis=1) <= cfg.t_p
        frozen[live[reached]] = True
        counts[live[~reached]] += 1
        if frozen.all():
            break

    np.minimum(counts, cfg.k_max, out=counts)
    return PoisonPlan(replica_counts=counts, iterations_run=iteration,
                      models_trained=(iteration + 1) * len(rows),
                      in_models=in_models, out_models=out_models, split=split)


def save_poison_plan(plan: PoisonPlan, challenges: ChallengeSet, path: str,
                     model_refs: list[str]) -> None:
    """Plan manifest: per-point counts, poisoned labels, split bits, model
    refs, in the bytes ``json.dump(doc, f, indent=2, sort_keys=True)``
    writes. The split block, one bit per line, is joined as text: the JSON
    encoder took five times as long to indent it."""
    doc = {
        "replica_counts": [int(k) for k in plan.replica_counts],
        "iterations_run": plan.iterations_run,
        "challenge_indices": [int(i) for i in challenges.indices],
        "poisoned_labels": [int(y) for y in challenges.poisoned_labels],
        "models": model_refs,
    }
    split = "null"
    if plan.split is not None:
        bits = np.where(plan.split, "1", "0").tolist()
        split = ("[\n    [\n      "
                 + "\n    ],\n    [\n      ".join(",\n      ".join(row) for row in bits)
                 + "\n    ]\n  ]")
    # "split_inclusion" sorts after every other key, so it closes the document.
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(doc, indent=2, sort_keys=True)[:-2])
        f.write(',\n  "split_inclusion": ')
        f.write(split)
        f.write("\n}")

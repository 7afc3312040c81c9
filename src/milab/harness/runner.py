"""End-to-end privacy game: dataset, adaptive poisoning, neighborhoods,
challenger target models, label-only scoring and metrics.

Stage layout mirrors the challenger/attacker protocol: the attacker owns the
pool, the poison plan and the neighborhoods; the challenger trains target
models on half-pool subsets (membership balanced per challenge point) plus
the attacker's poisoned replicas, and exposes them label-only.  Every model
seed derives from the master seed through tagged paths, so results are
independent of scheduling and reruns are byte-identical.
"""

from __future__ import annotations

import csv
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .. import BLAS_ENV, __version__, metrics, nncore
from ..attack import (CHAMELEON, LabelOnlyModel, chameleon_score, gap_score,
                      write_scores_csv)
from ..datagen import (Dataset, gen_binary_tabular, gen_gaussian_mixture,
                       gen_neighbors, load_csv_dataset, make_split_plan,
                       save_dataset)
from ..neighborhood import (DIAGNOSTICS_HEADER, diagnostics_rows, fit_kl, kl_text,
                            select_neighborhood)
from ..poisoner import (ChallengeSet, PoisonPlan, TrainingSet, adapt_poison_single,
                        adapt_poison_multi, make_challenge_set, save_poison_plan)
from ..rng import derive_seed, make_rng
from .cache import (ModelCache, canonical_json, dataset_digest, digest, file_digest,
                    kl_key, params_digest, stats_key)
from .config import ConfigError, ExperimentConfig

# Seed-path tags, one per random stream in the pipeline.
TAG_DATASET = 1
TAG_EVAL = 2
TAG_CHALLENGES = 3
TAG_POISON = 4
TAG_NEIGHBOR = 5
TAG_TARGET_SPLIT = 6
TAG_TARGET_MODEL = 7
TAG_STRICT = 8
TAG_STRICT_IN = 9

# Row cap of one label query batch in the scores stage.
LABEL_BATCH_ROWS = 650

# Run-manifest artifact name -> file in the run directory.
ARTIFACTS = {
    "dataset": "dataset.bin",
    "challenges": "challenges.json",
    "poison_plan": "poison_plan.json",
    "neighborhoods": "neighborhood_diagnostics.csv",
    "model_stats": "model_stats.csv",
    "scores": "scores.csv",
    "metrics": "metrics.csv",
}


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@contextmanager
def _stage(name: str, stage_seconds: dict[str, float]):
    """Time one stage of the game into ``stage_seconds``; any failure other
    than a configuration error becomes a StageError naming the stage."""
    start = time.perf_counter()
    try:
        yield
    except ConfigError:
        raise
    except Exception as exc:  # partial artifacts stay on disk for inspection
        raise StageError(name, exc) from exc
    stage_seconds[name] = time.perf_counter() - start


@dataclass
class GameResult:
    """``scores[attack][j, p]`` is target j's score on challenge point p;
    ``truth[j, p]`` says whether target j trained on it; ``cost`` is the
    document written to ``cost.json``."""

    reports: dict[str, metrics.MetricReport]
    scores: dict[str, np.ndarray]
    truth: np.ndarray
    replica_counts: np.ndarray
    cost: dict
    out_dir: str


def _quantize(ds: Dataset) -> Dataset:
    """Round features to float32 so disk round-trips are lossless."""
    return Dataset(ds.features.astype(np.float32).astype(np.float64),
                   ds.labels, ds.num_classes)


def _gen_dataset(cfg: ExperimentConfig, seed: int, n_per_class: int) -> Dataset:
    """Pool or evaluation data; what the generator or CSV reader rejects is a
    config error."""
    d = cfg.dataset
    try:
        if d.kind == "gaussian":
            ds = gen_gaussian_mixture(d.num_classes, d.dim, n_per_class, d.class_sep, seed)
        elif d.kind == "binary":
            ds = gen_binary_tabular(d.num_classes, d.dim, n_per_class, d.flip_noise, seed)
        else:
            ds = load_csv_dataset(d.csv_path)
        return _quantize(ds)
    except (OSError, ValueError) as exc:
        where = f" {d.csv_path}" if d.kind == "csv" else ""
        raise ConfigError(f"bad {d.kind} dataset{where}: {exc}") from None


def _train_job(args) -> nncore.ModelParams:
    recipe, train_cfg, hidden = args
    return nncore.train(recipe.build(), train_cfg, hidden)


class TrainerPool:
    """Cached, optionally parallel model training with derived seeds.

    A job names its training set by its recipe, which the process that
    trains the model builds: a worker when the pool runs, else this one.
    ``keys`` lists the cache key of every model returned, in call order."""

    def __init__(self, base_cfg: nncore.TrainConfig, hidden: tuple[int, ...],
                 cache: ModelCache, workers: int = 1):
        self.base_cfg = base_cfg
        self.hidden = hidden
        self.cache = cache
        self.workers = workers
        self.keys: list[str] = []

    def many(self, jobs: list[tuple[TrainingSet, int]]) -> list[nncore.ModelParams]:
        cfgs = [replace(self.base_cfg, seed=seed) for _, seed in jobs]
        keys = [self.cache.model_key(recipe, cfg, self.hidden)
                for (recipe, _), cfg in zip(jobs, cfgs)]
        models = [self.cache.get(key) for key in keys]
        missing = [i for i, model in enumerate(models) if model is None]
        args = [(jobs[i][0], cfgs[i], self.hidden) for i in missing]
        workers = min(self.workers, len(missing))
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                trained = list(pool.map(_train_job, args))
        else:
            trained = [_train_job(a) for a in args]
        for i, model in zip(missing, trained):
            self.cache.put(keys[i], model, cfgs[i])
            models[i] = model
        self.keys.extend(keys)
        return models  # order matches jobs: merged by index, not completion


def _make_datasets(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """Attacker pool and held-out evaluation data.

    A ``csv`` dataset has nothing to hold out, so its pool doubles as the
    evaluation data and ``eval_accuracy`` in ``model_stats.csv`` is accuracy
    on the training pool."""
    pool = _gen_dataset(cfg, derive_seed(cfg.master_seed, TAG_DATASET),
                        cfg.dataset.n_per_class)
    if cfg.num_challenge_points > len(pool):  # a CSV's size shows only here
        raise ConfigError("more challenge points than pool points")
    if cfg.dataset.kind == "csv":
        return pool, pool
    return pool, _gen_dataset(cfg, derive_seed(cfg.master_seed, TAG_EVAL),
                              cfg.eval_size // cfg.dataset.num_classes)


def _pick_challenges(cfg: ExperimentConfig, pool: Dataset) -> ChallengeSet:
    gen = make_rng(cfg.master_seed, TAG_CHALLENGES)
    indices = gen.choice(len(pool), size=cfg.num_challenge_points, replace=False)
    return make_challenge_set(pool, indices)


def _write_challenges(challenges: ChallengeSet, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump({
            "indices": challenges.indices.tolist(),
            "labels": challenges.labels.tolist(),
            "poisoned_labels": challenges.poisoned_labels.tolist(),
        }, f, indent=2, sort_keys=True)


def _poison(cfg: ExperimentConfig, pool: Dataset, challenges: ChallengeSet,
            trainer: TrainerPool, replica_counts: np.ndarray | None,
            game_strict: bool) -> PoisonPlan:
    """Adaptive or strict per-point adaptive poisoning, or the given counts;
    the plan carries each point's poison-free ensembles."""
    if game_strict:
        return _strict_poisoning(cfg, pool, challenges, trainer)
    # At k_max 0 the loop trains only iteration 0's 2m poison-free models.
    poison_cfg = cfg.poison if replica_counts is None else replace(cfg.poison, k_max=0)
    plan = adapt_poison_multi(challenges, pool, poison_cfg, trainer.many,
                              derive_seed(cfg.master_seed, TAG_POISON))
    if replica_counts is not None:
        plan.replica_counts = replica_counts
    return plan


def _strict_poisoning(cfg: ExperimentConfig, pool: Dataset,
                      challenges: ChallengeSet, trainer: TrainerPool) -> PoisonPlan:
    """Per-point adaptive poisoning (the literal game ordering): each point
    gets its own attacker dataset (pool minus the point) and OUT ensembles;
    IN ensembles for the neighborhood are trained separately."""
    counts = np.zeros(len(challenges), dtype=np.int64)
    in_models, out_models = [], []
    for pos in range(len(challenges)):
        idx = int(challenges.indices[pos])
        keep = np.setdiff1d(np.arange(len(pool)), [idx])
        d_i = pool.subset(keep)
        x = challenges.features[pos]
        y = int(challenges.labels[pos])
        seed_i = derive_seed(cfg.master_seed, TAG_STRICT, pos)

        def train_out(jobs):
            models = trainer.many(jobs)
            # The first call trains k = 0: the poison-free OUT ensemble the
            # neighborhood stage needs.
            if len(out_models) == pos:
                out_models.append(models)
            return models

        counts[pos] = adapt_poison_single(
            (x, y), int(challenges.poisoned_labels[pos]), d_i, cfg.poison,
            train_out, seed=seed_i)
        d_in = TrainingSet(d_i, None, x[None, :], [y], [1])
        in_models.append(trainer.many(
            [(d_in, derive_seed(cfg.master_seed, TAG_STRICT_IN, pos, j))
             for j in range(cfg.poison.m)]))
    return PoisonPlan(replica_counts=counts, iterations_run=int(counts.max(initial=0)),
                      models_trained=len(trainer.keys), in_models=in_models,
                      out_models=out_models)


def _build_neighborhoods(cfg: ExperimentConfig, challenges: ChallengeSet,
                         plan: PoisonPlan, cache: ModelCache, path: str) -> np.ndarray:
    """Candidate pools plus KL selection, one per point position, from that
    point's poison-free IN and OUT ensembles in ``plan``.
    Returns the neighbors as one [points, size, dim] array; each point's
    diagnostics rows go to ``path`` as it is selected, so neither its
    selection record nor its printed rows outlive its turn.

    A point's KL fit is keyed by its point, the recipe of its candidate
    pool and its models, before any candidate exists. On a hit the pool,
    the fit and its printed rows all come from the cache, and no candidate
    is generated; otherwise the pool is generated, the fit made, printed
    once and stored with its pool."""
    modality = cfg.dataset.modality
    # A float, so a configured 1 and 1.0 key the same pool.
    noise = float(cfg.neighborhood.resolved_noise_scale(modality))
    pool_size, dim = cfg.neighborhood.pool_size, challenges.features.shape[1]
    # Each distinct model is digested once; every one stays alive (and so
    # keeps its id) through the stage.
    distinct = {id(m): m for models in (*plan.in_models, *plan.out_models) for m in models}
    digests = {ident: params_digest(m) for ident, m in distinct.items()}
    members = np.empty((len(challenges), cfg.neighborhood.size, dim))
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(DIAGNOSTICS_HEADER)
        for pos, index in enumerate(challenges.indices.tolist()):
            x, y = challenges.features[pos], int(challenges.labels[pos])
            seed = derive_seed(cfg.master_seed, TAG_NEIGHBOR, pos)
            key = kl_key(x, y, {"modality": modality, "pool_size": pool_size,
                                "noise_scale": noise, "seed": seed},
                         [digests[id(m)] for m in plan.in_models[pos]],
                         [digests[id(m)] for m in plan.out_models[pos]])
            cached = cache.get_kl(key, pool_size, dim)
            if cached is None:
                cands = gen_neighbors(x, modality, pool_size, noise, seed)
                kl = fit_kl((x, y), cands, plan.in_models[pos], plan.out_models[pos])
                text = kl_text(kl)
                cache.put_kl(key, kl, cands, text)
            else:
                kl, cands, text = cached
            chosen = select_neighborhood(kl, cands, t_nb=cfg.neighborhood.t_nb,
                                         n=cfg.neighborhood.size)
            f.write(diagnostics_rows(index, text, chosen))
            members[pos] = chosen.features
    return members


def _train_targets(cfg: ExperimentConfig, pool: Dataset, challenges: ChallengeSet,
                   plan: PoisonPlan, trainer: TrainerPool):
    """Challenger target models: half-pool splits, balanced membership per
    challenge point, plus the attacker's poisoned replicas.

    Returns the [target, point] membership matrix, the recipe of each
    target's training set and the targets."""
    split = make_split_plan(len(pool), challenges.indices, cfg.num_target_models,
                            derive_seed(cfg.master_seed, TAG_TARGET_SPLIT))
    half = cfg.num_target_models // 2
    for idx in challenges.indices:
        assert split[:, idx].sum() == half, \
            "challenge membership must be balanced across target models"
    recipes = [TrainingSet(pool, np.flatnonzero(row), challenges.features,
                           challenges.poisoned_labels, plan.replica_counts)
               for row in split]
    seeds = [derive_seed(cfg.master_seed, TAG_TARGET_MODEL, j)
             for j in range(cfg.num_target_models)]
    return split, recipes, trainer.many(list(zip(recipes, seeds)))


def _write_model_stats(path: str, targets, recipes: list[TrainingSet], keys: list[str],
                       eval_ds: Dataset, cache: ModelCache) -> None:
    """Per-target train/eval accuracy to ``path``.

    Target j's pair is cached under its model key ``keys[j]`` and the eval
    set, so only a miss computes it, and only a miss builds the target's
    training set from ``recipes[j]``."""
    eval_digest = dataset_digest(eval_ds)
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["model_id", "train_accuracy", "eval_accuracy"])
        for j, (model, recipe, model_key) in enumerate(zip(targets, recipes, keys)):
            key = stats_key(model_key, eval_digest)
            cached = cache.get_stats(key)
            if cached is None:
                tr = nncore.accuracy(model, recipe.build())
                ev = nncore.accuracy(model, eval_ds)
                cache.put_stats(key, tr, ev)
            else:
                tr, ev = cached
            writer.writerow([j, repr(tr), repr(ev)])


def _score(cfg: ExperimentConfig, challenges: ChallengeSet, members: np.ndarray,
           targets) -> tuple[dict[str, np.ndarray], int]:
    """Per attack, the [target, point] matrix of label-only scores, and the
    number of label queries they took; ``members[p]`` holds the neighbors
    of point p.

    Each target answers one label query batch per run of consecutive points:
    ``LABEL_BATCH_ROWS // (size + 1)`` points (at least one) for chameleon,
    which queries each point with its ``size`` neighbors, and
    ``LABEL_BATCH_ROWS`` for gap. The cap is a constant, so a game's batch
    shapes, and with them the bits of its labels, depend on its config
    alone."""
    X, y = challenges.features, challenges.labels
    scores: dict[str, np.ndarray] = {}
    total_queries = 0
    for attack in cfg.attacks:
        run = (max(1, LABEL_BATCH_ROWS // (cfg.neighborhood.size + 1))
               if attack == CHAMELEON else LABEL_BATCH_ROWS)
        matrix = scores[attack] = np.empty((len(targets), len(X)))
        for j, model in enumerate(targets):
            facade = LabelOnlyModel(model)
            for start in range(0, len(X), run):
                batch = slice(start, start + run)
                matrix[j, batch] = (
                    chameleon_score(facade, X[batch], y[batch], members[batch])
                    if attack == CHAMELEON else gap_score(facade, X[batch], y[batch]))
            total_queries += facade.query_count
    return scores, total_queries


def _write_metrics(scores: dict[str, np.ndarray], truth: np.ndarray, out_dir: str,
                   path: str) -> dict[str, metrics.MetricReport]:
    """Per attack, the metric report (``metrics_<attack>.json``) and its ROC
    curve (``roc_<attack>.csv``) in the run directory; one row per attack in
    the table at ``path``."""
    reports = {attack: metrics.compute_report(s[truth], s[~truth])
               for attack, s in scores.items()}
    targets = sorted(metrics.DEFAULT_FPR_TARGETS)
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["attack", "n_in", "n_out", "auc", "mi_accuracy"]
                        + [f"tpr_at_{t}" for t in targets]
                        + ["fpr_resolution", "tpr_at_resolution"])
        for attack, r in reports.items():
            writer.writerow([attack, r.n_in, r.n_out, repr(r.auc), repr(r.mi_accuracy)]
                            + [repr(r.tpr_at[t]) for t in targets]
                            + [repr(r.fpr_resolution), repr(r.tpr_at_resolution)])
    for attack, report in reports.items():
        metrics.write_roc_csv(os.path.join(out_dir, f"roc_{attack}.csv"), report.curve)
        with open(os.path.join(out_dir, f"metrics_{attack}.json"), "w",
                  encoding="utf-8") as f:
            f.write(report.to_json())
            f.write("\n")
    return reports


def run_privacy_game(cfg: ExperimentConfig, out_dir: str, cache_dir: str | None = None,
                     replica_counts: np.ndarray | None = None,
                     game_strict: bool = False) -> GameResult:
    """Run the full challenger/attacker game and write all artifacts.

    ``replica_counts``, one non-negative int per challenge point, replaces the
    adaptive loop's counts, so only the poison-free shadow models train;
    ``game_strict`` runs the adaptive procedure one point at a time.
    """
    if replica_counts is not None:
        counts = np.asarray(replica_counts)
        if (game_strict or counts.dtype.kind not in "iu"
                or counts.shape != (cfg.num_challenge_points,) or (counts < 0).any()):
            raise ConfigError(f"replica_counts must be {cfg.num_challenge_points} "
                              "non-negative ints, and not given with game_strict")
        replica_counts = counts.astype(np.int64)  # a copy the caller cannot change
    stage_seconds: dict[str, float] = {}
    artifacts = {name: os.path.join(out_dir, file) for name, file in ARTIFACTS.items()}

    with _stage("dataset", stage_seconds):
        # Built before any directory exists, so a bad CSV writes nothing.
        pool, eval_ds = _make_datasets(cfg)
        os.makedirs(out_dir, exist_ok=True)
        save_dataset(pool, os.path.join(out_dir, "dataset"))
    cache = ModelCache(cache_dir if cache_dir is not None
                       else os.path.join(out_dir, "cache"))
    shadow_trainer = TrainerPool(cfg.train, cfg.hidden_sizes, cache, cfg.workers)
    target_trainer = TrainerPool(cfg.train, cfg.hidden_sizes, cache, cfg.workers)
    with _stage("challenges", stage_seconds):
        challenges = _pick_challenges(cfg, pool)
        _write_challenges(challenges, artifacts["challenges"])
    with _stage("poison", stage_seconds):
        plan = _poison(cfg, pool, challenges, shadow_trainer, replica_counts,
                       game_strict)
        save_poison_plan(plan, challenges, artifacts["poison_plan"],
                         [f"models/{key}" for key in shadow_trainer.keys])
    with _stage("neighborhood", stage_seconds):
        members = _build_neighborhoods(cfg, challenges, plan, cache,
                                       artifacts["neighborhoods"])
    with _stage("targets", stage_seconds):
        target_split, recipes, targets = _train_targets(cfg, pool, challenges,
                                                        plan, target_trainer)
        _write_model_stats(artifacts["model_stats"], targets, recipes,
                           target_trainer.keys, eval_ds, cache)
    with _stage("scores", stage_seconds):
        scores, total_queries = _score(cfg, challenges, members, targets)
        truth = target_split[:, challenges.indices]
        write_scores_csv(artifacts["scores"], scores, truth, challenges.indices)
    with _stage("metrics", stage_seconds):
        reports = _write_metrics(scores, truth, out_dir, artifacts["metrics"])
    with _stage("manifest", {}):  # untimed: its files record the stage times
        seconds = {name: round(v, 3) for name, v in stage_seconds.items()}
        cost = {"shadow_models": plan.models_trained,
                "target_models": cfg.num_target_models,
                "queries_per_challenge": {a: cfg.neighborhood.size + 1 if a == CHAMELEON
                                          else 1 for a in cfg.attacks},
                "total_label_queries": total_queries,
                "stage_seconds": seconds,
                **cache.counts()}
        with open(os.path.join(out_dir, "cost.json"), "w", encoding="utf-8") as f:
            json.dump(cost, f, indent=2, sort_keys=True)
        _write_manifest(cfg, out_dir, artifacts, seconds)
    return GameResult(reports=reports, scores=scores, truth=truth,
                      replica_counts=plan.replica_counts, cost=cost, out_dir=out_dir)


# Ablation knob -> (config section, field, cast of the value).
ABLATION_KNOBS = {
    "t_p": ("poison", "t_p", float),
    "m": ("poison", "m", int),
    "k_max": ("poison", "k_max", int),
    "t_nb": ("neighborhood", "t_nb", float),
    "neighborhood_size": ("neighborhood", "size", int),
}


def _apply_knob(cfg: ExperimentConfig, knob: str, value) -> ExperimentConfig:
    section, name, cast = ABLATION_KNOBS[knob]
    try:
        return replace(cfg, **{section: replace(getattr(cfg, section),
                                                **{name: cast(value)})})
    except ValueError as exc:
        raise ConfigError(f"bad value {value!r} for knob {knob}: {exc}") from None


def run_ablation(cfg: ExperimentConfig, knob: str, values, out_root: str,
                 cache_dir: str | None = None) -> list[dict]:
    """Re-run the game per knob value; the shared cache re-trains only the
    models whose inputs actually changed. Every value is checked before the
    first game, so a bad one writes nothing."""
    if knob not in ABLATION_KNOBS:
        raise ConfigError(f"unknown ablation knob {knob!r}; "
                          f"expected one of {tuple(ABLATION_KNOBS)}")
    if not values:
        raise ConfigError("an ablation needs at least one value")
    variants = [(value, _apply_knob(cfg, knob, value)) for value in values]
    cache_dir = cache_dir if cache_dir is not None else os.path.join(out_root, "cache")
    rows = []
    for value, variant in variants:
        out_dir = os.path.join(out_root, f"{knob}_{value}")
        result = run_privacy_game(variant, out_dir, cache_dir)
        for attack in variant.attacks:
            report = result.reports[attack]
            row = {"knob": knob, "value": value, "attack": attack,
                   "auc": report.auc, "mi_accuracy": report.mi_accuracy,
                   "tpr_at_resolution": report.tpr_at_resolution}
            for target, tpr in sorted(report.tpr_at.items()):
                row[f"tpr_at_{target}"] = tpr
            rows.append(row)
    with open(os.path.join(out_root, "ablation.csv"), "w", encoding="utf-8",
              newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return rows


def _write_manifest(cfg: ExperimentConfig, out_dir: str, artifacts: dict[str, str],
                    stage_seconds: dict[str, float]) -> None:
    manifest = {
        "tool_version": __version__,
        "numpy_version": np.__version__,
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "config_hash": digest(cfg.canonical_dict()),
        "created_unix": time.time(),
        "artifacts": {name: {"path": os.path.relpath(path, out_dir),
                             "sha256": file_digest(path)}
                      for name, path in sorted(artifacts.items())},
        "stage_seconds": stage_seconds,
    }
    with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8") as f:
        f.write(canonical_json(cfg.canonical_dict()))
        f.write("\n")
    with open(os.path.join(out_dir, "run_manifest.json"), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)


def verify_manifest(out_dir: str) -> list[str]:
    """Check every artifact listed in the manifest exists with its hash."""
    with open(os.path.join(out_dir, "run_manifest.json"), "r", encoding="utf-8") as f:
        manifest = json.load(f)
    problems = []
    for name, entry in manifest["artifacts"].items():
        path = os.path.join(out_dir, entry["path"])
        if not os.path.exists(path):
            problems.append(f"{name}: missing {entry['path']}")
        elif file_digest(path) != entry["sha256"]:
            problems.append(f"{name}: hash mismatch for {entry['path']}")
    return problems

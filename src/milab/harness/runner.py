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
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .. import __version__, metrics, nncore
from ..attack import (CHAMELEON, LabelOnlyModel, ScoreRecord, chameleon_score,
                      gap_score, split_scores, write_scores_csv)
from ..datagen import (Dataset, gen_binary_tabular, gen_gaussian_mixture,
                       gen_neighbors, load_csv_dataset, make_split_plan,
                       save_dataset)
from ..neighborhood import (NeighborhoodSet, export_diagnostics_csv,
                            select_neighborhood)
from ..poisoner import (ChallengeSet, PoisonConfig, PoisonPlan,
                        adapt_poison_single, adapt_poison_multi,
                        build_poisoned_training_set, make_challenge_set,
                        save_poison_plan, static_plan)
from ..rng import derive_seed, make_rng
from .cache import ModelCache, canonical_json, digest, file_digest
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
class CostReport:
    shadow_models: int
    target_models: int
    queries_per_challenge: dict[str, int]
    total_label_queries: int
    stage_seconds: dict[str, float]
    cache_hits: int
    cache_misses: int

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["stage_seconds"] = {k: round(v, 3) for k, v in self.stage_seconds.items()}
        return doc


@dataclass
class GameResult:
    reports: dict[str, metrics.MetricReport]
    tpr_at_resolution: dict[str, float]
    records: list[ScoreRecord]
    replica_counts: np.ndarray
    cost: CostReport
    out_dir: str
    model_stats: dict[str, float] = field(default_factory=dict)


def _quantize(ds: Dataset) -> Dataset:
    """Round features to float32 so disk round-trips are lossless."""
    return Dataset(ds.features.astype(np.float32).astype(np.float64),
                   ds.labels, ds.num_classes)


def _gen_dataset(cfg: ExperimentConfig, seed: int, n_per_class: int) -> Dataset:
    d = cfg.dataset
    if d.kind == "gaussian":
        return _quantize(gen_gaussian_mixture(d.num_classes, d.dim, n_per_class,
                                              d.class_sep, seed))
    if d.kind == "binary":
        return _quantize(gen_binary_tabular(d.num_classes, d.dim, n_per_class,
                                            d.flip_noise, seed))
    return _quantize(load_csv_dataset(d.csv_path))


def _train_job(args) -> nncore.ModelParams:
    ds, train_cfg, hidden = args
    return nncore.train(ds, train_cfg, hidden)


class TrainerPool:
    """Cached, optionally parallel model training with derived seeds.

    ``keys`` lists the cache key of every model returned, in call order."""

    def __init__(self, base_cfg: nncore.TrainConfig, hidden: tuple[int, ...],
                 cache: ModelCache, workers: int = 1):
        self.base_cfg = base_cfg
        self.hidden = hidden
        self.cache = cache
        self.workers = workers
        self.keys: list[str] = []

    def one(self, ds: Dataset, seed: int) -> nncore.ModelParams:
        return self.many([(ds, seed)])[0]

    def many(self, jobs: list[tuple[Dataset, int]]) -> list[nncore.ModelParams]:
        cfgs = [replace(self.base_cfg, seed=seed) for _, seed in jobs]
        keys = [self.cache.model_key(ds, cfg, self.hidden)
                for (ds, _), cfg in zip(jobs, cfgs)]
        models = [self.cache.get(key) for key in keys]
        missing = [i for i, model in enumerate(models) if model is None]
        args = [(jobs[i][0], cfgs[i], self.hidden) for i in missing]
        if self.workers > 1 and len(missing) > 1:
            with ProcessPoolExecutor(max_workers=self.workers) as pool:
                trained = list(pool.map(_train_job, args))
        else:
            trained = [_train_job(a) for a in args]
        for i, model in zip(missing, trained):
            self.cache.put(keys[i], model, cfgs[i])
            models[i] = model
        self.keys.extend(keys)
        return models  # order matches jobs: merged by index, not completion


def _make_datasets(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """Attacker pool and held-out evaluation data."""
    pool = _gen_dataset(cfg, derive_seed(cfg.master_seed, TAG_DATASET),
                        cfg.dataset.n_per_class)
    if cfg.dataset.kind == "csv":
        return pool, pool
    eval_per_class = max(1, cfg.eval_size // cfg.dataset.num_classes)
    return pool, _gen_dataset(cfg, derive_seed(cfg.master_seed, TAG_EVAL), eval_per_class)


def _pick_challenges(cfg: ExperimentConfig, pool: Dataset) -> ChallengeSet:
    if cfg.num_challenge_points > len(pool):
        raise ConfigError("more challenge points than pool points")
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
            trainer: TrainerPool, k_static: int | None, game_strict: bool):
    """Adaptive, static or strict per-point adaptive poisoning.

    Returns the plan, the number of shadow models the attacker trained, and
    the poison-free IN and OUT ensembles for the neighborhood stage (maps of
    point position -> model list)."""
    if game_strict:
        return _strict_poisoning(cfg, pool, challenges, trainer)
    poison_seed = derive_seed(cfg.master_seed, TAG_POISON)
    if k_static is None:
        plan = adapt_poison_multi(challenges, pool, cfg.poison, trainer.one,
                                  seed=poison_seed, batch_trainer=trainer.many)
    else:
        # Static baseline still needs the poison-free shadow ensemble for
        # the neighborhood stage; freezing every point at iteration 0
        # trains exactly the 2m unpoisoned models (shared via the cache
        # with any adaptive run on the same data).
        shadow_cfg = PoisonConfig(t_p=1.0, m=cfg.poison.m, k_max=0)
        shadow_plan = adapt_poison_multi(challenges, pool, shadow_cfg, trainer.one,
                                         seed=poison_seed, batch_trainer=trainer.many)
        plan = replace(shadow_plan, replica_counts=static_plan(
            k_static, len(challenges)).replica_counts)
    iter0 = plan.iteration_models(0)
    in_models, out_models = {}, {}
    for pos, idx in enumerate(challenges.indices):
        in_rows = set(plan.split.in_rows(int(idx)).tolist())
        in_models[pos] = [t.model for t in iter0 if t.subset_row in in_rows]
        out_models[pos] = [t.model for t in iter0 if t.subset_row not in in_rows]
    return plan, plan.models_trained, in_models, out_models


def _strict_poisoning(cfg: ExperimentConfig, pool: Dataset,
                      challenges: ChallengeSet, trainer: TrainerPool):
    """Per-point adaptive poisoning (the literal game ordering): each point
    gets its own attacker dataset (pool minus the point) and OUT ensembles;
    IN ensembles for the neighborhood are trained separately."""
    counts = np.zeros(len(challenges), dtype=np.int64)
    in_models, out_models = {}, {}
    models_trained = 0
    for pos in range(len(challenges)):
        idx = int(challenges.indices[pos])
        keep = np.setdiff1d(np.arange(len(pool)), [idx])
        d_i = pool.subset(keep)
        x = challenges.features[pos]
        y = int(challenges.labels[pos])
        seed_i = derive_seed(cfg.master_seed, TAG_STRICT, pos)
        counts[pos] = adapt_poison_single(
            (x, y), int(challenges.poisoned_labels[pos]), d_i, cfg.poison,
            trainer.one, seed=seed_i)
        models_trained += cfg.poison.m * (int(counts[pos]) + 1)
        # Poison-free ensembles for the neighborhood; OUT seeds coincide with
        # the k=0 iteration above, so the cache supplies those for free.
        out_models[pos] = trainer.many(
            [(d_i, derive_seed(seed_i, 0, j)) for j in range(cfg.poison.m)])
        with_point = Dataset(np.concatenate([d_i.features, x[None, :]]),
                             np.concatenate([d_i.labels, [y]]), pool.num_classes)
        in_models[pos] = trainer.many(
            [(with_point, derive_seed(cfg.master_seed, TAG_STRICT_IN, pos, j))
             for j in range(cfg.poison.m)])
        models_trained += cfg.poison.m
    plan = PoisonPlan(replica_counts=counts, iterations_run=int(counts.max(initial=0)))
    return plan, models_trained, in_models, out_models


def _build_neighborhoods(cfg: ExperimentConfig, challenges: ChallengeSet,
                         in_models, out_models,
                         path: str) -> dict[int, NeighborhoodSet]:
    """Candidate pools plus KL selection; one poison-free ensemble pair per
    point (``in_models``/``out_models`` map point position -> model list)."""
    modality = cfg.dataset.modality
    noise = cfg.neighborhood.resolved_noise_scale(modality)
    selected: dict[int, NeighborhoodSet] = {}
    pools = {}
    for pos in range(len(challenges)):
        x = challenges.features[pos]
        y = int(challenges.labels[pos])
        cands = gen_neighbors(x, y, modality, cfg.neighborhood.pool_size, noise,
                              derive_seed(cfg.master_seed, TAG_NEIGHBOR, pos))
        for c in cands:
            c.x_c = c.x_c.astype(np.float32).astype(np.float64)
        pools[pos] = cands
        selected[pos] = select_neighborhood(
            (x, y), cands, in_models[pos], out_models[pos],
            t_nb=cfg.neighborhood.t_nb, n=cfg.neighborhood.size)
    export_diagnostics_csv(path, selected, pools)
    return selected


def _train_targets(cfg: ExperimentConfig, pool: Dataset, challenges: ChallengeSet,
                   plan: PoisonPlan, trainer: TrainerPool):
    """Challenger target models: half-pool splits, balanced membership per
    challenge point, plus the attacker's poisoned replicas.

    Returns the split plan, each target's training set and the targets."""
    split = make_split_plan(len(pool), challenges.indices, cfg.num_target_models,
                            derive_seed(cfg.master_seed, TAG_TARGET_SPLIT))
    half = cfg.num_target_models // 2
    for idx in challenges.indices:
        assert split.inclusion[:, int(idx)].sum() == half, \
            "challenge membership must be balanced across target models"
    train_sets = [build_poisoned_training_set(pool.subset(np.flatnonzero(row)),
                                              plan, challenges)
                  for row in split.inclusion]
    seeds = [derive_seed(cfg.master_seed, TAG_TARGET_MODEL, j)
             for j in range(cfg.num_target_models)]
    return split, train_sets, trainer.many(list(zip(train_sets, seeds)))


def _write_model_stats(path: str, targets, train_sets, eval_ds: Dataset) -> dict[str, float]:
    """Per-target train/eval accuracy to ``path``; returns their means."""
    train_accs, eval_accs = [], []
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["model_id", "train_accuracy", "eval_accuracy"])
        for j, (model, train_set) in enumerate(zip(targets, train_sets)):
            tr = nncore.accuracy(model, train_set)
            ev = nncore.accuracy(model, eval_ds)
            train_accs.append(tr)
            eval_accs.append(ev)
            writer.writerow([j, repr(tr), repr(ev)])
    return {"mean_train_accuracy": float(np.mean(train_accs)),
            "mean_eval_accuracy": float(np.mean(eval_accs))}


def _score(cfg: ExperimentConfig, challenges: ChallengeSet,
           neighborhoods: dict[int, NeighborhoodSet], targets,
           target_split) -> tuple[list[ScoreRecord], int]:
    """Label-only scores of every (attack, target, challenge) triple and the
    number of label queries they took."""
    records: list[ScoreRecord] = []
    total_queries = 0
    for attack in cfg.attacks:
        for j, model in enumerate(targets):
            facade = LabelOnlyModel(model)
            for pos in range(len(challenges)):
                idx = int(challenges.indices[pos])
                x = challenges.features[pos]
                y = int(challenges.labels[pos])
                truth = bool(target_split.inclusion[j, idx])
                if attack == CHAMELEON:
                    records.append(chameleon_score(
                        facade, (x, y), neighborhoods[pos],
                        challenge_index=idx, model_id=j, truth=truth))
                else:
                    records.append(gap_score(facade, (x, y),
                                             challenge_index=idx, model_id=j,
                                             truth=truth))
            total_queries += facade.query_count
    return records, total_queries


def _write_metrics(cfg: ExperimentConfig, records: list[ScoreRecord], out_dir: str):
    """Metric report, ROC curve and TPR at the FPR resolution per attack,
    each written to the run directory."""
    reports, tpr_at_res = {}, {}
    for attack in cfg.attacks:
        s_in, s_out = split_scores(records, attack)
        report = metrics.compute_report(s_in, s_out)
        reports[attack] = report
        curve = metrics.roc_curve(s_in, s_out)
        tpr_at_res[attack] = metrics.tpr_at_fpr(curve, report.fpr_resolution)
        metrics.write_roc_csv(os.path.join(out_dir, f"roc_{attack}.csv"), curve)
        with open(os.path.join(out_dir, f"metrics_{attack}.json"), "w",
                  encoding="utf-8") as f:
            f.write(report.to_json())
            f.write("\n")
    return reports, tpr_at_res


def run_privacy_game(cfg: ExperimentConfig, out_dir: str,
                     cache_dir: str | None = None, k_static: int | None = None,
                     game_strict: bool = False) -> GameResult:
    """Run the full challenger/attacker game and write all artifacts.

    ``k_static`` switches the attacker to fixed-count poisoning (no adaptive
    loop); ``game_strict`` runs the single-point adaptive procedure per
    challenge point instead of the batched one.
    """
    if game_strict and k_static is not None:
        raise ConfigError("k_static and game_strict are exclusive")
    os.makedirs(out_dir, exist_ok=True)
    cache = ModelCache(cache_dir if cache_dir is not None
                       else os.path.join(out_dir, "cache"))
    trainer = TrainerPool(cfg.train, cfg.hidden_sizes, cache, cfg.workers)
    stage_seconds: dict[str, float] = {}
    artifacts = {name: os.path.join(out_dir, file) for name, file in ARTIFACTS.items()}

    with _stage("dataset", stage_seconds):
        pool, eval_ds = _make_datasets(cfg)
        save_dataset(pool, os.path.join(out_dir, "dataset"))
    with _stage("challenges", stage_seconds):
        challenges = _pick_challenges(cfg, pool)
        _write_challenges(challenges, artifacts["challenges"])
    with _stage("poison", stage_seconds):
        plan, shadow_models, in_models, out_models = _poison(
            cfg, pool, challenges, trainer, k_static, game_strict)
        # The poison stage is the trainer's first user, so its first keys
        # are those of the plan's shadow models, in plan order.
        model_refs = [f"models/{key}" for key in trainer.keys[:plan.models_trained]]
        save_poison_plan(plan, challenges, artifacts["poison_plan"], model_refs=model_refs)
    with _stage("neighborhood", stage_seconds):
        neighborhoods = _build_neighborhoods(cfg, challenges, in_models, out_models,
                                             artifacts["neighborhoods"])
    with _stage("targets", stage_seconds):
        target_split, train_sets, targets = _train_targets(cfg, pool, challenges,
                                                           plan, trainer)
        model_stats = _write_model_stats(artifacts["model_stats"], targets,
                                         train_sets, eval_ds)
    with _stage("scores", stage_seconds):
        records, total_queries = _score(cfg, challenges, neighborhoods, targets,
                                        target_split)
        write_scores_csv(artifacts["scores"], records)
    with _stage("metrics", stage_seconds):
        reports, tpr_at_res = _write_metrics(cfg, records, out_dir)
        _write_metrics_csv(artifacts["metrics"], cfg.attacks, reports, tpr_at_res)
    with _stage("manifest", {}):  # untimed: its files record the stage times
        cost = CostReport(
            shadow_models=shadow_models,
            target_models=cfg.num_target_models,
            queries_per_challenge={a: cfg.neighborhood.size + 1 if a == CHAMELEON else 1
                                   for a in cfg.attacks},
            total_label_queries=total_queries,
            stage_seconds=stage_seconds,
            cache_hits=cache.hits,
            cache_misses=cache.misses)
        with open(os.path.join(out_dir, "cost.json"), "w", encoding="utf-8") as f:
            json.dump(cost.to_dict(), f, indent=2, sort_keys=True)
        _write_manifest(cfg, out_dir, artifacts, stage_seconds)
    return GameResult(reports=reports, tpr_at_resolution=tpr_at_res,
                      records=records, replica_counts=plan.replica_counts,
                      cost=cost, out_dir=out_dir, model_stats=model_stats)


def run_static_baseline(cfg: ExperimentConfig, k_static: int, out_dir: str,
                        cache_dir: str | None = None) -> GameResult:
    """Same pipeline with a fixed replica count per challenge point."""
    if k_static < 0:
        raise ConfigError("k_static must be >= 0")
    return run_privacy_game(cfg, out_dir, cache_dir, k_static=k_static)


ABLATION_KNOBS = ("t_p", "m", "k_max", "t_nb", "neighborhood_size")


def _apply_knob(cfg: ExperimentConfig, knob: str, value) -> ExperimentConfig:
    try:
        if knob == "t_p":
            return replace(cfg, poison=replace(cfg.poison, t_p=float(value)))
        if knob == "m":
            return replace(cfg, poison=replace(cfg.poison, m=int(value)))
        if knob == "k_max":
            return replace(cfg, poison=replace(cfg.poison, k_max=int(value)))
        if knob == "t_nb":
            return replace(cfg, neighborhood=replace(cfg.neighborhood, t_nb=float(value)))
        if knob == "neighborhood_size":
            return replace(cfg, neighborhood=replace(cfg.neighborhood, size=int(value)))
    except ValueError as exc:
        raise ConfigError(f"bad value {value!r} for knob {knob}: {exc}") from None
    raise ConfigError(f"unknown ablation knob {knob!r}; "
                      f"expected one of {ABLATION_KNOBS}")


def run_ablation(cfg: ExperimentConfig, knob: str, values, out_root: str,
                 cache_dir: str | None = None) -> list[dict]:
    """Re-run the game per knob value; the shared cache re-trains only the
    models whose inputs actually changed."""
    if knob not in ABLATION_KNOBS:
        raise ConfigError(f"unknown ablation knob {knob!r}; "
                          f"expected one of {ABLATION_KNOBS}")
    os.makedirs(out_root, exist_ok=True)
    cache_dir = cache_dir if cache_dir is not None else os.path.join(out_root, "cache")
    rows = []
    for value in values:
        variant = _apply_knob(cfg, knob, value)
        out_dir = os.path.join(out_root, f"{knob}_{value}")
        result = run_privacy_game(variant, out_dir, cache_dir)
        for attack in variant.attacks:
            report = result.reports[attack]
            row = {"knob": knob, "value": value, "attack": attack,
                   "auc": report.auc, "mi_accuracy": report.mi_accuracy,
                   "tpr_at_resolution": result.tpr_at_resolution[attack]}
            for target, tpr in sorted(report.tpr_at.items()):
                row[f"tpr_at_{target}"] = tpr
            rows.append(row)
    if rows:
        path = os.path.join(out_root, "ablation.csv")
        with open(path, "w", encoding="utf-8", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=list(rows[0]))
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
    return rows


def _write_metrics_csv(path: str, attacks, reports, tpr_at_res) -> None:
    targets = sorted(next(iter(reports.values())).tpr_at) if reports else []
    header = (["attack", "n_in", "n_out", "auc", "mi_accuracy"]
              + [f"tpr_at_{t}" for t in targets]
              + ["fpr_resolution", "tpr_at_resolution"])
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for attack in attacks:
            r = reports[attack]
            writer.writerow([attack, r.n_in, r.n_out, repr(r.auc), repr(r.mi_accuracy)]
                            + [repr(r.tpr_at[t]) for t in targets]
                            + [repr(r.fpr_resolution), repr(tpr_at_res[attack])])


def _write_manifest(cfg: ExperimentConfig, out_dir: str, artifacts: dict[str, str],
                    stage_seconds: dict[str, float]) -> None:
    manifest = {
        "tool_version": __version__,
        "numpy_version": np.__version__,
        "config_hash": digest(cfg.canonical_dict()),
        "created_unix": time.time(),
        "artifacts": {name: {"path": os.path.relpath(path, out_dir),
                             "sha256": file_digest(path)}
                      for name, path in sorted(artifacts.items())},
        "stage_seconds": {k: round(v, 3) for k, v in stage_seconds.items()},
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

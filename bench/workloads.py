"""Workloads, output checks and the measurement loop of the milab benchmark.

Each workload times ``run_privacy_game`` from outside on one configuration:

* ``desk_cold``: the desk config with an empty model cache per game, except
  for a poison threshold ``t_p`` of 0.05 instead of 0.15. At 0.15 the adaptive
  loop stops after 5 to 7 iterations depending on the seed (80 to 112 shadow
  models over seeds 0-19), which moves the training work per seed by a
  quarter; at 0.05 every seed tried (0-23) runs to ``k_max``, 112 shadow
  models. Training (``nncore.train``), cache saves and the poison probe
  dominate.
* ``desk_warm``: the ``desk_cold`` config rerun on a cache that set-up fills
  with one cold game, so no model is trained and the time goes to
  neighbourhood selection, label-only scoring and the poison probe. It stands
  in for a paper-scale warm game (500 points, 64 targets): on a shared
  2-vCPU VM that workload's set-up alone took 30-45 s, a 10-seed set of its
  runs spanned about nine minutes of host speed drift, and its median game time
  spread reached 22-23%.
* ``dp_parallel``: binary data, DP-SGD-lite and two training workers with an
  empty cache. The adaptive loop runs to ``k_max``, every model is trained
  with per-example clipping plus noise, and training fans out over a process
  pool per ``TrainerPool.many`` call.

In all three the adaptive loop runs to ``k_max``, so every game trains (or,
warm, loads) the full shadow budget ``2(k_max+1)m`` and the check says so.

Every timed game's ``scores.csv`` and ``metrics.csv`` are compared by sha256
against golden.json (seeds 0 to GOLDEN_SEEDS-1; record_golden.py rewrites
it), against the first game of the run (any seed) and, for ``desk_warm``,
against the cold set-up game, so a change to the output bytes counts as a
failed game, never as a speed-up. A run plays at least MIN_GAMES timed games,
so a seed without golden digests is still checked game against game.
"""

from __future__ import annotations

import contextlib
import gc
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace

import numpy as np

from milab.harness.cache import file_digest
from milab.harness.config import DatasetConfig, ExperimentConfig
from milab.harness.runner import run_privacy_game
from milab.nncore import DpConfig

import tracer

GOLDEN_SEEDS = 32
MIN_GAMES = 2
CHECKED_FILES = ("scores.csv", "metrics.csv")
HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")
WARMUPS = 3  # toy games in a cold workload's set-up


@dataclass(frozen=True)
class Workload:
    name: str
    cfg: ExperimentConfig
    warm: bool  # timed games reuse a cache filled during set-up

    @property
    def shadow_budget(self) -> int:
        return 2 * (self.cfg.poison.k_max + 1) * self.cfg.poison.m


def make_workload(name: str, seed: int) -> Workload:
    base = ExperimentConfig(master_seed=seed)
    desk = replace(base, poison=replace(base.poison, t_p=0.05))
    if name == "desk_cold":
        return Workload(name, desk, warm=False)
    if name == "desk_warm":
        return Workload(name, desk, warm=True)
    if name == "dp_parallel":
        cfg = replace(base, dataset=DatasetConfig(kind="binary", dim=64), workers=2,
                      train=replace(base.train, dp=DpConfig(clip_norm=5.0,
                                                            noise_multiplier=0.5)))
        return Workload(name, cfg, warm=False)
    raise ValueError(f"unknown workload {name!r}")


def warmup_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """A game of the same kind (data, DP) at toy sizes: it runs every stage
    once so lazy imports and first-call costs land in set-up. It trains in
    process, because every ``TrainerPool.many`` call starts a new pool, so a
    pool started here warms nothing for the timed games; on a shared 2-vCPU VM
    those starts only made ``dp_parallel``'s set-up time swing by a third
    between two 10-run sets (median 0.64 s, then 0.85 s)."""
    return replace(cfg, num_challenge_points=4, num_target_models=2, eval_size=20,
                   workers=1,
                   poison=replace(cfg.poison, m=2, k_max=1),
                   neighborhood=replace(cfg.neighborhood, size=4, pool_size=8),
                   train=replace(cfg.train, epochs=2))


def digests(out_dir: str) -> dict[str, str]:
    return {name: file_digest(os.path.join(out_dir, name)) for name in CHECKED_FILES}


def load_golden(workload: str, seed: int) -> dict[str, str] | None:
    """The recorded digests of one workload and seed, or None if unrecorded."""
    with open(GOLDEN_PATH, "r", encoding="utf-8") as f:
        return json.load(f)[workload].get(str(seed))


def check_game(out_dir: str, wl: Workload, full_cache: bool,
               references: dict[str, dict[str, str]]) -> list[str]:
    """Problems with one finished game's outputs; empty when correct.
    ``full_cache`` says whether every model should have been a cache hit."""
    problems = []
    got = digests(out_dir)
    for ref_name, ref in references.items():
        for name, sha in ref.items():
            if got[name] != sha:
                problems.append(f"{name} differs from {ref_name}")
    cfg = wl.cfg
    with open(os.path.join(out_dir, "cost.json"), "r", encoding="utf-8") as f:
        cost = json.load(f)
    pairs = cfg.num_target_models * cfg.num_challenge_points
    queries = pairs * sum(cfg.neighborhood.size + 1 if a == "chameleon" else 1
                          for a in cfg.attacks)
    if cost["total_label_queries"] != queries:
        problems.append(f"{cost['total_label_queries']} label queries, expected {queries}")
    with open(os.path.join(out_dir, "scores.csv"), "r", encoding="utf-8") as f:
        rows = sum(1 for _ in f) - 1
    if rows != pairs * len(cfg.attacks):
        problems.append(f"scores.csv has {rows} rows, expected {pairs * len(cfg.attacks)}")
    shadow = cost["shadow_models"]
    if shadow != wl.shadow_budget:
        problems.append(f"{shadow} shadow models against a budget of {wl.shadow_budget}")
    models = shadow + cost["target_models"]
    expect_hits = models if full_cache else 0
    if (cost["cache_hits"], cost["cache_misses"]) != (expect_hits, models - expect_hits):
        problems.append(f"cache hits/misses {cost['cache_hits']}/{cost['cache_misses']} "
                        f"for {models} models on a {'full' if full_cache else 'empty'} cache")
    return problems


STAGES = ("poison", "neighborhood", "targets", "scores", "metrics")
ROUNDING = 0.001  # cost.json rounds stage seconds to milliseconds


def layer_metrics(summary: dict, c: dict, cost: dict, wl: Workload,
                  untraced_s: float) -> tuple[dict[str, float], dict[str, bool]]:
    """Per-layer metrics of one traced game from its span summary and
    counters ``c``, and the checks that must hold exactly (counts) or by
    containment of spans in the runner's stages (times)."""
    names, layers = summary["names"], summary["layers"]

    def calls(name):
        return names[name]["calls"] if name in names else 0

    def inclusive(name):
        return names[name]["s"] if name in names else 0.0

    def own(name):
        return names[name]["self_s"] if name in names else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    stage = cost["stage_seconds"]
    hits, misses = calls("harness.cache.load"), calls("harness.cache.save")
    queries, batches = c["attack.label_queries"], calls("attack.query")
    game_s = inclusive(tracer.ROOT_SPAN)
    v = {f"harness.runner.{s}_s": stage[s] for s in STAGES}
    v.update({
        "harness.runner.many_calls": calls("harness.runner.many"),
        "harness.runner.many_s": inclusive("harness.runner.many"),
        "harness.runner.pool_spawns": c["harness.runner.pool_spawns"],
        "harness.runner.self_s": layers.get("harness.runner", 0.0),
        "nncore.train_calls": calls("nncore.train"),
        "nncore.train_s": inclusive("nncore.train"),
        "nncore.train_examples": c["nncore.train_examples"],
        "nncore.train_examples_per_s": ratio(c["nncore.train_examples"],
                                             inclusive("nncore.train")),
        "nncore.forward_calls": c["nncore.forward_calls"],
        "nncore.forward_rows": c["nncore.forward_rows"],
        "nncore.forward_s": c["nncore.forward_s"],
        "nncore.logit_calls": c["nncore.logit_calls"],
        "poisoner.adapt_s": inclusive("poisoner.adapt"),
        "poisoner.adapt_self_s": own("poisoner.adapt"),
        "poisoner.iterations": c["poisoner.iterations"],
        "poisoner.shadow_models": c["poisoner.shadow_models"],
        "neighborhood.select_calls": calls("neighborhood.select"),
        "neighborhood.select_s": inclusive("neighborhood.select"),
        "neighborhood.select_self_s": own("neighborhood.select"),
        "neighborhood.candidates": c["neighborhood.candidates"],
        "neighborhood.admit_ratio": ratio(c["neighborhood.admitted"],
                                          c["neighborhood.candidates"]),
        "neighborhood.fallback_ratio": ratio(c["neighborhood.fallbacks"],
                                             calls("neighborhood.select")),
        "datagen.gen_neighbors_calls": calls("datagen.gen_neighbors"),
        "datagen.gen_neighbors_s": inclusive("datagen.gen_neighbors"),
        "attack.score_calls": calls("attack.score"),
        "attack.score_s": inclusive("attack.score"),
        "attack.label_queries": queries,
        "attack.query_batches": batches,
        "attack.rows_per_batch": ratio(queries, batches),
        "metrics.scores": c["metrics.scores"],
        "metrics.report_s": inclusive("metrics.report"),
        "harness.cache.hits": hits,
        "harness.cache.misses": misses,
        "harness.cache.hit_ratio": ratio(hits, hits + misses),
        "harness.cache.key_calls": calls("harness.cache.key"),
        "harness.cache.key_s": inclusive("harness.cache.key"),
        "harness.cache.load_calls": hits,
        "harness.cache.load_s": inclusive("harness.cache.load"),
        "harness.cache.save_calls": misses,
        "harness.cache.save_s": inclusive("harness.cache.save"),
        "harness.cache.bytes_read": c["harness.cache.bytes_read"],
        "harness.cache.bytes_written": c["harness.cache.bytes_written"],
        "trace.game_s": game_s,
        "trace.untraced_game_s": untraced_s,
        "trace.overhead_s": game_s - untraced_s,
    })
    shadow, budget = v["poisoner.shadow_models"], wl.shadow_budget
    checks = {
        "attack.label_queries == cost.json total_label_queries":
            queries == cost["total_label_queries"],
        "harness.cache.hits == cost.json cache_hits": hits == cost["cache_hits"],
        "harness.cache.misses == cost.json cache_misses": misses == cost["cache_misses"],
        "poisoner.shadow_models == cost.json shadow_models": shadow == cost["shadow_models"],
        f"poisoner.shadow_models == 2(k_max+1)m = {budget}": shadow == budget,
        "poisoner.adapt_s within the poison stage":
            v["poisoner.adapt_s"] <= stage["poison"] + ROUNDING,
        "neighborhood.select_s + datagen.gen_neighbors_s within the neighborhood stage":
            v["neighborhood.select_s"] + v["datagen.gen_neighbors_s"]
            <= stage["neighborhood"] + ROUNDING,
        "attack.score_s within the scores stage": v["attack.score_s"] <= stage["scores"] + ROUNDING,
        "metrics.report_s within the metrics stage":
            v["metrics.report_s"] <= stage["metrics"] + ROUNDING,
        "stage seconds within the game span":
            sum(stage.values()) <= game_s + ROUNDING * len(stage),
    }
    return v, checks


def upper_quartile(times: list[float]) -> float:
    """The third quartile of a run's game times, interpolated between games.

    On a shared 2-vCPU VM the same game runs at one steady speed for most of
    the time and up to 1.8x faster in bursts of a few to tens of seconds,
    whose share of a run changes from run to run. A run's median lands
    anywhere between the two speeds; its upper quartile stays on the steady
    one. Over five 60-second desk_warm runs the spread (IQR/median across
    runs) was 0.186 for the median and 0.092 for the upper quartile."""
    return statistics.quantiles(times, n=4, method="inclusive")[2]


def peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def machine_record(blas: dict) -> dict:
    deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": deps.get("name"), "version": deps.get("version"), **blas},
        "notes": "OS caches left as found; no CPU pinning; no system settings touched",
    }


class Bench:
    """The games of one benchmark process, their workspace and their checks."""

    def __init__(self, wl: Workload, workdir: str, golden: dict[str, str] | None):
        self.wl = wl
        self.workdir = workdir
        self.references: dict[str, dict[str, str]] = {}
        if golden is not None:
            self.references["golden.json"] = golden
        self.games = 0
        self.attempted = 0
        self.failed = 0

    def play(self, cfg: ExperimentConfig, full_cache: bool,
             traced: tracer.Tracer | None = None) -> tuple[float, list[str], str]:
        """One game in a fresh output directory: (seconds, problems, out_dir).

        Only the ``run_privacy_game`` call is timed. Warm workloads share one
        cache in the workspace; cold ones get an empty cache per game. The
        first game's digests become a reference for every later game."""
        out_dir = os.path.join(self.workdir, f"game{self.games}")
        cache_dir = os.path.join(self.workdir if self.wl.warm else out_dir, "cache")
        self.games += 1
        with tracer.instrument(traced) if traced else contextlib.nullcontext():
            gc.collect()
            start = time.perf_counter()
            span = traced.begin(tracer.ROOT_SPAN) if traced else None
            try:
                run_privacy_game(cfg, out_dir, cache_dir)
            finally:
                if traced:
                    traced.end(span)
            seconds = time.perf_counter() - start
        problems = check_game(out_dir, self.wl, full_cache, self.references)
        self.references.setdefault("the run's first game", digests(out_dir))
        return seconds, problems, out_dir

    def setup(self) -> list[float]:
        """Work before the timed games, after imports: the cold game that
        fills the cache (warm workloads), else WARMUPS toy games. Returns the
        seconds of each."""
        if self.wl.warm:
            seconds, problems, out_dir = self.play(self.wl.cfg, full_cache=False)
            if problems:
                raise RuntimeError(f"cold set-up game failed its checks: {problems}")
            shutil.rmtree(out_dir)
            return [seconds]
        times = []
        for i in range(WARMUPS):
            path = os.path.join(self.workdir, f"warmup{i}")
            start = time.perf_counter()
            run_privacy_game(warmup_config(self.wl.cfg), path, os.path.join(path, "cache"))
            times.append(time.perf_counter() - start)
            shutil.rmtree(path)
        return times

    def game(self, traced: tracer.Tracer | None = None) -> tuple[float | None, str | None]:
        """One timed game of the workload, counted as attempted, and as failed
        when it raises or its outputs fail a check. Returns (seconds, out_dir),
        or (None, None) when it raised."""
        self.attempted += 1
        try:
            seconds, problems, out_dir = self.play(self.wl.cfg, self.wl.warm, traced)
        except Exception:  # a broken game is a failed game, reported here
            traceback.print_exc()
            self.failed += 1
            return None, None
        if problems:
            print(f"bench: game {self.games - 1} failed: {'; '.join(problems)}",
                  file=sys.stderr)
            self.failed += 1
        return seconds, out_dir

    def measure(self, seconds: float) -> list[float]:
        """Timed games until the next one would end past ``seconds`` (at
        least MIN_GAMES); stops early when a game raises."""
        times: list[float] = []
        start = time.perf_counter()
        while True:
            dt, out_dir = self.game()
            if dt is None:
                return times
            times.append(dt)
            shutil.rmtree(out_dir)
            if (len(times) >= MIN_GAMES
                    and time.perf_counter() - start + statistics.median(times) > seconds):
                return times

    def trace(self) -> tuple[dict[str, float], dict]:
        """One untraced then one traced game; per-layer metrics of the latter."""
        untraced_s, out_dir = self.game()
        if untraced_s is None:
            raise RuntimeError("untraced game raised")
        shutil.rmtree(out_dir)
        t = tracer.Tracer()
        traced_s, out_dir = self.game(t)
        if traced_s is None:
            raise RuntimeError("traced game raised")
        with open(os.path.join(out_dir, "cost.json"), "r", encoding="utf-8") as f:
            cost = json.load(f)
        summary = tracer.summarize(t.spans)
        values, checks = layer_metrics(summary, t.counts, cost, self.wl, untraced_s)
        failed_checks = [name for name, ok in checks.items() if not ok]
        if failed_checks:
            print(f"bench: traced game failed checks: {failed_checks}", file=sys.stderr)
            self.failed += 1
        layers = sorted(summary["layers"].items(), key=lambda kv: -kv[1])
        return values, {"checks": checks, "layer_self_s": dict(layers)}


def run(args, start: float, root: str, blas: dict) -> int:
    """Run one workload as ``args`` say and print the report and result lines."""
    logging.getLogger("milab.metrics").setLevel(logging.ERROR)
    import_s = time.perf_counter() - start
    with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    wl = make_workload(args.workload, args.seed)
    scratch = os.path.join(root, ".bench_work")
    workdir = os.path.join(scratch, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    golden = load_golden(wl.name, args.seed)
    bench = Bench(wl, workdir, golden)
    report = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "machine": machine_record(blas), "import_s": import_s,
              "golden_digests": golden is not None}
    try:
        report["setup_games_s"] = bench.setup()
        # Set-up is everything from the process start to the first timed game.
        setup_s = time.perf_counter() - start
        if args.trace:
            values, report["trace_report"] = bench.trace()
        else:
            times = bench.measure(args.seconds)
            if not times:
                raise RuntimeError("no timed game completed")
            values = {"game_p75_s": upper_quartile(times), "setup_s": setup_s,
                      "peak_rss_mb": peak_rss_mib()}
            report.update(games_s=times, game_s=statistics.median(times), setup_s=setup_s)
    except Exception:  # no result line: the run is broken, not slow
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch)
    report.update(attempted=bench.attempted, failed=bench.failed,
                  error_rate=bench.failed / bench.attempted)
    correct = bench.failed == 0
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1

"""Compare two milab checkouts by alternating warm games in one process.

    python3 tools/ab_inproc.py --a PARENT --b CHANGE --seed 1 --pairs 80

``--a`` and ``--b`` are checkout roots. Each one's ``src/milab`` is loaded
as a package of its own (``milab_a``, ``milab_b``), which works because every
import inside milab is relative. Both sides then run on the same host speed
phase, which two separate ``bench/run.py`` runs do not.

The game is the ``desk_warm`` one unless ``--config`` names a JSON config:
the default config with ``t_p`` 0.05, at master seed ``--seed``. Each side
first fills its own cache with one cold game. Then each pair plays one warm
game per side, alternating which side goes first, and only the
``run_privacy_game`` call is timed. Every game's output files must equal
the first cold game's, and its ``cost.json`` counters (model counts, label
queries and every cache lookup count) those of side A's first game of the
same kind, cold or warm. So a change to the bytes, or one that skips or
adds a lookup, fails the comparison (exit 1) instead of counting as a
speed-up. It prints each side's median and quartiles, the number of pairs
that B won, and the ratio of the medians.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import json
import logging
import os
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import replace

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHECKED_FILES = ("scores.csv", "metrics.csv", "model_stats.csv", "poison_plan.json",
                 "neighborhood_diagnostics.csv")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", required=True, help="checkout root of side A")
    parser.add_argument("--b", required=True, help="checkout root of side B")
    parser.add_argument("--config", help="JSON config (default: the desk_warm config)")
    parser.add_argument("--seed", type=int, required=True, help="master seed of the game")
    parser.add_argument("--pairs", type=int, required=True, help="timed pairs, at least 2")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    return args


def load_package(name: str, root: str):
    """The ``src/milab`` package of the checkout at ``root``, imported as
    ``name``; returns its runner and config modules."""
    path = os.path.join(root, "src", "milab")
    init = os.path.join(path, "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"ab_inproc: no milab package under {root}/src")
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[path])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    logging.getLogger(f"{name}.metrics").setLevel(logging.ERROR)
    return (importlib.import_module(f"{name}.harness.runner"),
            importlib.import_module(f"{name}.harness.config"))


def game_config(config, path: str | None, seed: int):
    """The side's own ExperimentConfig: ``path``'s, or the desk_warm one."""
    if path is not None:
        cfg = config.load_config(path)
    else:
        base = config.ExperimentConfig()
        cfg = replace(base, poison=replace(base.poison, t_p=0.05))
    return replace(cfg, master_seed=seed)


class Side:
    def __init__(self, label: str, root: str, config_path: str | None, seed: int,
                 workdir: str):
        self.label = label
        self.runner, config = load_package(f"milab_{label.lower()}", root)
        self.cfg = game_config(config, config_path, seed)
        self.workdir = workdir
        self.cache = os.path.join(workdir, "cache")
        self.games = 0
        self.times: list[float] = []

    def play(self) -> tuple[float, dict[str, str], dict[str, int]]:
        """One game on the side's cache: its seconds, output digests and
        counters."""
        out_dir = os.path.join(self.workdir, f"game{self.games}")
        self.games += 1
        gc.collect()
        start = time.perf_counter()
        self.runner.run_privacy_game(self.cfg, out_dir, self.cache)
        seconds = time.perf_counter() - start
        digests = {}
        for name in CHECKED_FILES:
            with open(os.path.join(out_dir, name), "rb") as f:
                digests[name] = hashlib.sha256(f.read()).hexdigest()
        with open(os.path.join(out_dir, "cost.json"), "r", encoding="utf-8") as f:
            counters = {name: value for name, value in json.load(f).items()
                        if name in ("shadow_models", "total_label_queries")
                        or name.endswith(("_hits", "_misses", "_corrupt"))}
        shutil.rmtree(out_dir)
        return seconds, digests, counters


def summary(side: Side) -> str:
    q1, median, q3 = statistics.quantiles(side.times, n=4, method="inclusive")
    return (f"{side.label}: median {median:.4f} s, quartiles {q1:.4f}-{q3:.4f} s "
            f"over {len(side.times)} warm games")


def check(side: Side, game: str, digests: dict[str, str], reference: dict[str, str],
          counters: dict[str, int], counted: dict[str, int]) -> bool:
    """Whether the game's digests equal ``reference`` and its counters equal
    ``counted``, those of A's first game of its kind; prints each that
    differs."""
    differ = [name for name in CHECKED_FILES if digests[name] != reference[name]]
    for name in differ:
        print(f"ab_inproc: {side.label} {game}: {name} differs from the first cold game",
              file=sys.stderr)
    miscounted = [name for name in sorted(set(counters) | set(counted))
                  if counters.get(name) != counted.get(name)]
    for name in miscounted:
        print(f"ab_inproc: {side.label} {game}: {name} is {counters.get(name)}, "
              f"{counted.get(name)} in A's first game of this kind", file=sys.stderr)
    return not differ and not miscounted


def compare(sides: list[Side], pairs: int) -> int:
    reference = None
    counted: dict[str, dict[str, int]] = {}  # game kind -> A's first game's counters
    for side in sides:
        _, digests, counters = side.play()  # fills the side's cache
        reference = reference or digests
        counted.setdefault("cold", counters)
        if not check(side, "cold game", digests, reference, counters, counted["cold"]):
            return 1
    wins = 0
    for i in range(pairs):
        seconds = {}
        for side in (sides if i % 2 == 0 else sides[::-1]):
            seconds[side.label], digests, counters = side.play()
            counted.setdefault("warm", counters)
            if not check(side, f"warm game {i}", digests, reference, counters,
                         counted["warm"]):
                return 1
            side.times.append(seconds[side.label])
        wins += seconds["B"] < seconds["A"]
    for side in sides:
        print(summary(side))
    a, b = (statistics.median(side.times) for side in sides)
    print(f"B won {wins} of {pairs} pairs")
    print(f"median ratio B/A: {b / a:.3f}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    # Before numpy is first imported, as bench/run.py does.
    for var in BLAS_ENV:
        os.environ[var] = "1"
    workdir = tempfile.mkdtemp(prefix="ab_inproc-")
    try:
        sides = []
        for label, root in (("A", args.a), ("B", args.b)):
            path = os.path.join(workdir, label)
            os.makedirs(path)
            sides.append(Side(label, os.path.abspath(root), args.config, args.seed, path))
        return compare(sides, args.pairs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands: ``theory`` (closed-form k-sweep), ``run`` (privacy game),
``static`` (fixed-k baseline), ``ablate`` (knob sweep), ``cost`` (report of a
finished run), ``metrics`` (recompute from a score CSV).  Exit codes:
0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

import os

from .. import BLAS_ENV

# One BLAS thread unless the caller's environment sets another count. BLAS
# reads these when numpy first loads, so they are set before that. On a
# 2-vCPU VM, at OpenBLAS's default of 2 threads, a warm paper-scale scores
# stage took 1.8-3.0 s against 0.9-1.2 s at 1 thread, with the same bytes.
for _var in BLAS_ENV:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402

import numpy as np  # noqa: E402

from .. import __version__, metrics, theory  # noqa: E402
from ..attack import read_scores_csv  # noqa: E402
from .config import ConfigError, load_config  # noqa: E402
from .runner import run_ablation, run_privacy_game  # noqa: E402


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="experiment config JSON")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--cache", default=None,
                        help="model and KL-fit cache directory (default: <out>/cache)")
    parser.add_argument("--seed", type=int, default=None, help="override master seed")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for model training")
    parser.add_argument("--paper-scale", action="store_true",
                        help="use 500 challenge points and 64 target models")


def _load_cfg(args) -> "ExperimentConfig":
    cfg = load_config(args.config)
    if args.paper_scale:
        cfg = cfg.paper_scale()
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)
    if args.workers is not None:
        cfg = replace(cfg, workers=args.workers)
    return cfg


def cmd_theory(args) -> int:
    ks = [args.k] if args.k is not None else range(args.k_max + 1)
    try:
        points = theory.tpr_vs_k_curve(args.tau, args.classes, args.fpr, ks)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    lines = ["k,tpr,p,fpr"]
    lines += [f"{pt.k},{pt.tpr!r},{pt.p!r},{pt.fpr!r}" for pt in points]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_run(args) -> int:
    """The privacy game of ``run`` (adaptive counts) and ``static`` (``k`` per point)."""
    cfg = _load_cfg(args)
    counts = None if args.k is None else np.full(cfg.num_challenge_points, args.k)
    result = run_privacy_game(cfg, args.out, cache_dir=args.cache, replica_counts=counts,
                              game_strict=args.game_strict)
    for attack, report in result.reports.items():
        tprs = " ".join(f"tpr@{t:g}={v:.4f}" for t, v in sorted(report.tpr_at.items()))
        print(f"{attack}: auc={report.auc:.4f} mi_acc={report.mi_accuracy:.4f} "
              f"{tprs} tpr@res={report.tpr_at_resolution:.4f}")
    print(f"replica counts: {result.replica_counts.tolist()}")
    print(f"outputs in {result.out_dir}")
    return 0


def cmd_ablate(args) -> int:
    cfg = _load_cfg(args)
    values = [v for v in args.values.split(",") if v]
    rows = run_ablation(cfg, args.knob, values, args.out, cache_dir=args.cache)
    for row in rows:
        print(json.dumps(row, sort_keys=True))
    return 0


def cmd_cost(args) -> int:
    with open(f"{args.run}/cost.json", "r", encoding="utf-8") as f:
        sys.stdout.write(f.read())
    return 0


def cmd_metrics(args) -> int:
    try:
        split = read_scores_csv(args.scores)
        reports = {attack: metrics.compute_report(*split[attack]) for attack in sorted(split)}
    except ValueError as exc:
        raise ConfigError(f"bad scores file {args.scores}: {exc}") from None
    for attack, report in reports.items():
        print(f"{attack}: {json.dumps(report.to_dict(), sort_keys=True)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="milab",
        description="Label-only membership inference lab with adaptive poisoning")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theory", help="closed-form optimal attack TPR vs k")
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--fpr", type=float, default=0.05, help="target FPR fraction")
    p.add_argument("--k", type=int, default=None, help="single replica count")
    p.add_argument("--k-max", type=int, default=6, help="sweep k = 0..k_max")
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("run", help="run the full privacy game")
    _add_run_options(p)
    p.add_argument("--game-strict", action="store_true",
                   help="single-point adaptive poisoning per challenge point")
    p.set_defaults(func=cmd_run, k=None)

    p = sub.add_parser("static", help="fixed-k poisoning baseline")
    _add_run_options(p)
    p.add_argument("--k", type=int, required=True, help="replicas per challenge point")
    p.set_defaults(func=cmd_run, game_strict=False)

    p = sub.add_parser("ablate", help="sweep one pipeline knob")
    _add_run_options(p)
    p.add_argument("--knob", required=True,
                   help="t_p | m | k_max | t_nb | neighborhood_size")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("cost", help="print the cost report of a finished run")
    p.add_argument("--run", required=True, help="run output directory")
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("metrics", help="recompute metrics from a score CSV")
    p.add_argument("--scores", required=True)
    p.set_defaults(func=cmd_metrics)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary, StageError included
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

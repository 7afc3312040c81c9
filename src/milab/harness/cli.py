"""Command-line interface.

Subcommands: ``theory`` (closed-form k-sweep), ``run`` (privacy game),
``static`` (fixed-k baseline), ``ablate`` (knob sweep), ``cost`` (report of a
finished run), ``metrics`` (recompute from a score CSV).  Exit codes:
0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .. import __version__, metrics, theory
from ..attack import read_scores_csv, split_scores
from .config import ConfigError, load_config
from .runner import StageError, run_ablation, run_privacy_game, run_static_baseline


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="experiment config JSON")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--cache", default=None,
                        help="model cache directory (default: <out>/cache)")
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


def _print_reports(result) -> None:
    for attack, report in result.reports.items():
        tprs = " ".join(f"tpr@{t:g}={v:.4f}" for t, v in sorted(report.tpr_at.items()))
        print(f"{attack}: auc={report.auc:.4f} mi_acc={report.mi_accuracy:.4f} "
              f"{tprs} tpr@res={result.tpr_at_resolution[attack]:.4f}")
    print(f"replica counts: {result.replica_counts.tolist()}")
    print(f"outputs in {result.out_dir}")


def cmd_theory(args) -> int:
    if args.k is not None:
        points = theory.tpr_vs_k_curve(args.tau, args.classes, args.fpr, [args.k])
    else:
        points = theory.tpr_vs_k_curve(args.tau, args.classes, args.fpr,
                                       range(args.k_max + 1))
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
    cfg = _load_cfg(args)
    result = run_privacy_game(cfg, args.out, cache_dir=args.cache,
                              game_strict=args.game_strict)
    _print_reports(result)
    return 0


def cmd_static(args) -> int:
    cfg = _load_cfg(args)
    result = run_static_baseline(cfg, args.k, args.out, cache_dir=args.cache)
    _print_reports(result)
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
    records = read_scores_csv(args.scores)
    attacks = sorted({r.attack_name for r in records})
    for attack in attacks:
        s_in, s_out = split_scores(records, attack)
        report = metrics.compute_report(s_in, s_out)
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
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("static", help="fixed-k poisoning baseline")
    _add_run_options(p)
    p.add_argument("--k", type=int, required=True, help="replicas per challenge point")
    p.set_defaults(func=cmd_static)

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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except StageError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

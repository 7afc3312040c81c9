"""Rewrite golden.json: the sha256 of scores.csv and metrics.csv of one cold
game per workload and seed, for seeds 0 to GOLDEN_SEEDS-1.

    python3 bench/record_golden.py

Run it from the root of a milab checkout, and only when a change to the
game's outputs is intended. Each game must pass the benchmark's count checks;
workloads with the same config share their games.
"""

import json
import logging
import os
import sys
import tempfile

import run


def main() -> int:
    if not run.use_checkout():
        return 2
    import workloads
    logging.getLogger("milab.metrics").setLevel(logging.ERROR)
    golden: dict[str, dict[str, dict[str, str]]] = {}
    played: dict[str, dict[str, str]] = {}
    scratch = os.path.join(run.ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    for name in run.WORKLOADS:
        golden[name] = {}
        for seed in range(workloads.GOLDEN_SEEDS):
            wl = workloads.make_workload(name, seed)
            key = repr(wl.cfg)
            if key not in played:
                with tempfile.TemporaryDirectory(dir=scratch) as tmp:
                    bench = workloads.Bench(wl, tmp, golden=None)
                    _, problems, out_dir = bench.play(wl.cfg, full_cache=False)
                    if problems:
                        print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                        return 1
                    played[key] = workloads.digests(out_dir)
            golden[name][str(seed)] = played[key]
            print(name, seed, played[key], flush=True)
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

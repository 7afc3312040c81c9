"""Wall-clock benchmark of milab's privacy game (workloads in workloads.py).

    python3 bench/run.py --workload desk_cold --seed 0 --seconds 40 --trace 0

Run it from the root of a milab checkout. The package is imported from that
checkout's ``src`` directory, never from an installed copy, and scratch
files go to ``.bench_work/`` there. ``--trace 0`` prints the end-to-end
metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones. The last line
printed is one JSON object with the keys correct, attempted, failed and
metrics; the line before it is a JSON report with the machine record, every
game's time and, when tracing, the per-layer self times and count checks.
"""

import time

START = time.perf_counter()  # set-up time counts from here, before imports

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("desk_cold", "desk_warm", "dp_parallel")
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed of the game (seeds with digests in "
                             "golden.json are also checked against them)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="time budget for the timed games")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def use_checkout() -> bool:
    """Caps BLAS threads and puts the checkout's ``src`` first on the path;
    False when there is no milab package there. Call it before numpy is
    first imported."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "milab", "__init__.py")):
        print(f"bench: no milab package under {src}; run from a full checkout",
              file=sys.stderr)
        return False
    # The cap holds in this process and its forked workers.
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, src)
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_checkout():
        return 2
    import workloads
    return workloads.run(args, start=START, root=ROOT,
                         blas={"threads_cap": BLAS_THREADS, "set_via": list(BLAS_ENV)})


if __name__ == "__main__":
    sys.exit(main())

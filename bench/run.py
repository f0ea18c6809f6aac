"""Benchmark entry point: run one workload and print its result as JSON.

    python3 bench/run.py --workload s1_fold --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
calls into each pcldetect module are timed and the per-layer metrics are
printed instead. See bench/README.md.
"""

import time

_PROCESS_T0 = time.perf_counter()  # before any heavy import: set-up starts here

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
BLAS_THREADS = 1

WORKLOADS = ("s1_fold", "s1_predict", "s2_kfold")


def prepare_imports() -> None:
    """Pin the BLAS thread count and put the checkout's sources on sys.path.

    Exits with an error when the checkout holds no pcldetect sources, so
    that nothing installed elsewhere is benchmarked by mistake.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    src, tests = ROOT / "src", ROOT / "tests"
    needed = (src / "pcldetect" / "__init__.py", tests / "synthcorpus.py")
    if not all(path.is_file() for path in needed):
        sys.exit(f"error: {ROOT} holds no src/pcldetect or tests/synthcorpus.py to benchmark")
    for path in (str(BENCH_DIR), str(tests), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="time spent in timed rounds (at least one round runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: time each module's calls and print per-layer metrics")
    parser.add_argument("--train-checkpoint", metavar="WORK_DIR",
                        help="internal: train the s1_predict checkpoint in WORK_DIR")
    args = parser.parse_args(argv)
    if args.workload is None and args.train_checkpoint is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    prepare_imports()
    import workloads  # noqa: E402  (needs the paths set above)

    if args.train_checkpoint:
        workloads.train_checkpoint_child(Path(args.train_checkpoint), bool(args.trace))
        return 0
    import_s = time.perf_counter() - _PROCESS_T0
    result = workloads.run(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        import_s=import_s,
        out_dir=OUT_DIR,
    )
    for problem in result.pop("problems"):
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

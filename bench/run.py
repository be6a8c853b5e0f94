"""Session benchmark for netgen.

    python3 bench/run.py --workload planted-gru --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. One process runs one workload:
it builds the dataset from --seed, repeats whole train / evaluate /
interpret sessions for --seconds, checks the outputs and prints one JSON
object as its last line: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones and
writes the spans to bench/out/trace-<workload>-seed<seed>.json.

Exit codes: 0 result printed and every check passed, 1 a check failed or
the run could not finish, 2 bad usage or no netgen source next to the
benchmark.
"""
import time

STARTED = time.perf_counter()  # before any other import: set-up time starts here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("planted-gru", "planted-cnn", "wide-roi")
BLAS_THREADS = "1"  # fixed, and never more than nproc, so runs repeat


def main(argv=None):
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    if not (ROOT / "src" / "netgen" / "__init__.py").is_file():
        print(f"bench/run.py: no netgen source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # BLAS reads its thread count once, when numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import sessions

    result, ledger = sessions.run(sessions.WORKLOADS[args.workload], args.seed, args.seconds,
                                  bool(args.trace), BENCH_DIR / "out", STARTED)
    for line in ledger.errors + ledger.wrong:
        print(line, file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

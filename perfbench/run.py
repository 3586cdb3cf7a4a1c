"""End-to-end Table III benchmark of the repro package.

Run from the root of a checkout::

    python3 perfbench/run.py --workload recurrent-train --seed 1 \
        --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones and
writes the spans to ``perfbench/results/`` in the JSONL format
``python -m repro trace spans`` reads.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402  (no numpy import)

# One BLAS thread: every workload runs in this single process, and at
# bench scale a second thread made Graph-WaveNet steps slower, not faster.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ["REPRO_DATA_CACHE"] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    start = time.perf_counter()
    import repro                                  # noqa: F401  (timed)
    import_seconds = time.perf_counter() - start

    from perfbench.report import run_workload
    return run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                        bool(args.trace), import_seconds,
                        work_dir=BENCH_DIR / ".work" / f"run-{os.getpid()}",
                        results_dir=BENCH_DIR / "results")


if __name__ == "__main__":
    sys.exit(main())

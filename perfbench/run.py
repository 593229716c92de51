"""Benchmark of the hermwave CLI, transform kernel and certification suite.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cli-pipeline --seed 1 --seconds 10 --trace 0

A run sets up the inputs of the chosen workload (from ``--seed``) and
repeats whole rounds of its operations for at least ``--seconds``.  It
then runs rounds of the other two workloads, so that every end-to-end
metric is measured on every workload.  Only the chosen workload's
operations count in ``attempted`` and ``failed``.  Every output is
checked against the independent references in ``oracle.py``.  With
``--trace 1`` the package's public functions are wrapped (``tracer.py``)
and the per-layer metrics are printed instead; the spans are written to
``.perfbench/trace-<workload>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable report.  Without ``src/hermwave`` the run exits with
code 2 and prints no result.  See README.md for every metric.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: BLAS threads for numpy in the benchmark process and its children (``nproc`` is 2).
BLAS_THREADS = "1"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-pipeline", "kernel-large", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hermwave" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'hermwave'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS  # before numpy is first imported
    os.environ.pop("HERMWAVE_LOG", None)
    sys.path.insert(0, str(SRC))
    import hermwave

    if Path(hermwave.__file__).resolve().parent != SRC / "hermwave":
        print(f"error: imported hermwave from {hermwave.__file__}", file=sys.stderr)
        return 2
    print(f"# BLAS threads {BLAS_THREADS}")
    import bench

    return bench.main(args)


if __name__ == "__main__":
    sys.exit(main())

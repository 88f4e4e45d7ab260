"""Run one workload of the pexsurv benchmark and print its result line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload kidney-frailty --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of that checkout, never from an
installed copy.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric by name with its unit, the failures, and the machine
(CPU count, Python, numpy and BLAS versions).  Outputs, generated inputs,
spans and a result record go to ``.perfbench_out/<workload>/``.
"""

import os
import sys

# Pin BLAS/OpenMP pools to one thread before numpy is imported: the sampler
# is single-threaded, and idle pool threads on a small machine only add
# run-to-run spread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "pexsurv"
WORKLOAD_NAMES = ("kidney-frailty", "simulate-s1")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no pexsurv sources at {PACKAGE}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import pexsurv

    if Path(pexsurv.__file__).resolve().parent != PACKAGE:
        print(f"error: pexsurv was imported from {pexsurv.__file__}", file=sys.stderr)
        return 2
    import bench

    return bench.main(args, ROOT / ".perfbench_out")


if __name__ == "__main__":
    sys.exit(main())

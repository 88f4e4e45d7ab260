"""Fit many random valid datasets with the frailty sampler and print its failures, grouped.

Usage, from the root of a source checkout:

    python3 robustness/run.py --datasets 2500 --seed 0 --sweeps 50

The package is imported from ``src/`` of that checkout.  Each dataset that
``strategy.cases()`` draws is fitted by ``run_chain`` with both frailty
families in both censoring modes (imputed and analytic), for ``--sweeps``
sweeps, half of them burn-in, with every warning raised as an error.  A
chain passes when it finishes with finite draws.  Failures are grouped by
their message, with its numbers masked, and the line that raised them; the
largest group comes first, with its count per family and mode and its first
example.  The exit status is 1 when any chain failed.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
import traceback
import warnings
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
from hypothesis import HealthCheck, Phase, given, seed, settings  # noqa: E402

from pexsurv import (  # noqa: E402
    FAMILY_GAMMA_CHAIN,
    FAMILY_LOGNORMAL_RW,
    ChainAbortError,
    McmcConfig,
    ModelSpec,
    run_chain,
)
from strategy import cases  # noqa: E402

FITS = [(f, impute) for f in (FAMILY_GAMMA_CHAIN, FAMILY_LOGNORMAL_RW) for impute in (True, False)]
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def draw_cases(n, at_seed):
    """``n`` datasets from ``cases()``, the same ones for the same ``at_seed``."""
    drawn = []

    @seed(at_seed)
    @settings(
        max_examples=n,
        database=None,
        deadline=None,
        phases=[Phase.generate],
        suppress_health_check=list(HealthCheck),
    )
    @given(cases())
    def keep(case):
        drawn.append(case)

    keep()
    return drawn


def fit(case, family, impute, sweeps, chain_seed):
    """None if the chain finishes with finite draws, else what went wrong."""
    config = McmcConfig(
        n_chains=1, burn_in=sweeps // 2, n_iter=sweeps - sweeps // 2, seed=chain_seed, impute=impute
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            store = run_chain(ModelSpec(family, case.grid), case.data, config)
        except Exception as exc:
            return exc
    bad = [name for name, column in store.draws.items() if not np.isfinite(column).all()]
    return f"non-finite draws of {', '.join(bad)}" if bad else None


def describe(failure):
    """The failure's message, and the line that raised it; an abort is described by its cause."""
    if isinstance(failure, str):
        return failure, "the draws"
    if isinstance(failure, ChainAbortError) and failure.__cause__ is not None:
        failure = failure.__cause__
    frame = traceback.extract_tb(failure.__traceback__)[-1]
    return f"{type(failure).__name__}: {failure}", f"{Path(frame.filename).name}:{frame.lineno}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--datasets", type=int, default=2500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sweeps", type=int, default=50)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    drawn = draw_cases(args.datasets, args.seed)
    groups = defaultdict(list)
    for i, case in enumerate(drawn):
        for family, impute in FITS:
            failure = fit(case, family, impute, args.sweeps, chain_seed=i)
            if failure is not None:
                message, where = describe(failure)
                groups[_NUMBER.sub("#", message), where].append((i, family, impute, failure))
    n_chains = len(drawn) * len(FITS)
    n_failed = sum(map(len, groups.values()))
    print(
        f"{n_chains} chains ({len(drawn)} datasets x {len(FITS)} fits, seed {args.seed}),"
        f" {args.sweeps} sweeps each, in {time.perf_counter() - start:.1f} s"
    )
    print(f"{n_chains - n_failed} finished with finite draws and no warning; {n_failed} failed")
    for (message, where), hits in sorted(groups.items(), key=lambda kv: -len(kv[1])):
        per_fit = Counter(f"{family}/{'imputed' if impute else 'analytic'}" for _, family, impute, _ in hits)
        i, family, impute, failure = hits[0]
        print(f"\n{len(hits):6d}  {message}  (raised at {where})")
        print("        " + ", ".join(f"{name} {k}" for name, k in sorted(per_fit.items())))
        print(f"        first: dataset {i} ({drawn[i].about}), {family}, impute={impute}: {failure}")
    return 1 if n_failed else 0


if __name__ == "__main__":
    sys.exit(main())

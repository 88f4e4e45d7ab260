"""A Hypothesis strategy over valid survival datasets, for the sampler's robustness runs.

``cases()`` draws a ``Case``: a valid ``SurvivalDataset``, an equal-interval
grid for it, and a one-line description.  The space spans:

* 1-11 subjects with 1-3 records each;
* a time scale of 10^u, u in [-8, 8], or 1e-300 or 1e300 in about one
  dataset in ten, times a factor in [0.01, 5] per record;
* a censored fraction of 0, 0.3, 0.7 or 1 of the records;
* 0-2 covariates, each binary, per-record or per-subject, with values in
  [-3, 3] (binary: 0 or 1) times a scale of 10^u, u in [-3, 3];
* 1-6 intervals of ``default_grid``, reaching 0.5-3 times the largest
  time, so the grid ends before or beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import strategies as st

from pexsurv import SurvivalDataset, SurvivalRecord, TimeGrid, default_grid

COVARIATE_KINDS = ("binary", "per-record", "per-subject")


@dataclass(frozen=True)
class Case:
    data: SurvivalDataset
    grid: TimeGrid
    about: str


def _values(draw, kind, subjects):
    """One covariate column, a value per record."""
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    n = len(subjects)
    if kind == "binary":
        column = draw(st.lists(st.sampled_from((0.0, 1.0)), min_size=n, max_size=n))
    elif kind == "per-record":
        column = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    else:
        per_subject = draw(st.lists(st.floats(-3.0, 3.0), min_size=subjects[-1], max_size=subjects[-1]))
        column = [per_subject[s - 1] for s in subjects]
    return scale, [scale * v for v in column]


@st.composite
def cases(draw) -> Case:
    records_per_subject = draw(st.lists(st.integers(1, 3), min_size=1, max_size=11))
    subjects = [s for s, k in enumerate(records_per_subject, 1) for _ in range(k)]
    replicates = [r for k in records_per_subject for r in range(1, k + 1)]
    n = len(subjects)
    extreme = draw(st.integers(0, 9)) == 0
    scale = 10.0 ** draw(st.sampled_from((-300.0, 300.0)) if extreme else st.floats(-8.0, 8.0))
    times = [scale * f for f in draw(st.lists(st.floats(0.01, 5.0), min_size=n, max_size=n))]
    fraction = draw(st.sampled_from((0.0, 0.3, 0.7, 1.0)))
    censored = set(draw(st.permutations(range(n)))[: round(fraction * n)])
    kinds = draw(st.lists(st.sampled_from(COVARIATE_KINDS), max_size=2))
    scales, columns = zip(*(_values(draw, kind, subjects) for kind in kinds)) if kinds else ((), ())
    records = []
    for i, (s, r, t) in enumerate(zip(subjects, replicates, times)):
        x = [column[i] for column in columns]
        if i in censored:
            records.append(SurvivalRecord(s, r, None, 0, censor_time=t, covariates=x))
        else:
            records.append(SurvivalRecord(s, r, t, 1, covariates=x))
    m = draw(st.integers(1, 6))
    reach = max(times) * draw(st.floats(0.5, 3.0))
    names = [f"x{k + 1}" for k in range(len(kinds))]
    covariates = ", ".join(f"{k} x {c:.3g}" for k, c in zip(kinds, scales)) or "none"
    about = (
        f"{len(records_per_subject)} subjects, {n} records, time scale {scale:.3g},"
        f" {len(censored)} censored, covariates: {covariates}, m = {m} to {reach:.3g}"
    )
    return Case(SurvivalDataset(records, covariate_names=names), default_grid(reach, m), about)

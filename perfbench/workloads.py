"""The benchmark's workloads: inputs made from a seed, set-up, run length, checks.

Each workload drives pexsurv through its public API only.  Inputs are made
by this module from the workload seed, untimed; the program receives only
the generated inputs.  Why each workload exists is in RATIONALE.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from pexsurv import (
    FAMILY_GAMMA_CHAIN,
    FAMILY_LOGNORMAL_RW,
    FAMILY_SIMPLE,
    SurvivalDataset,
    SurvivalRecord,
    TimeGrid,
    default_grid,
    load_kidney,
)

S1_GRID = (0.0, 2.0, 3.0, 5.0)
S1_RATES = (0.3, 0.6, 0.8, 1.3)
S1_N = 100_000

# A posterior mean further than this many posterior SDs from the value that
# generated the data fails the fit.
TOLERANCE_SDS = 5.0


@dataclass(frozen=True)
class Workload:
    """Inputs, run length and output check of one benchmark workload."""

    name: str
    families: tuple[str, ...]
    n_chains: int
    burn_in: int
    n_iter: int
    # Fits (each with its own seed) whose draws feed the ESS figures.  A run
    # always makes at least this many, so ESS per draw is exact for a seed.
    mixing_reps: int
    make_inputs: Callable[[int], Any]
    ingest: Callable[[Any], SurvivalDataset]
    make_grid: Callable[[SurvivalDataset], TimeGrid]
    check: Callable[[str, dict], list[str]]

    @property
    def sweeps_per_rep(self) -> int:
        return len(self.families) * self.n_chains * (self.burn_in + self.n_iter)

    @property
    def draws_per_rep(self) -> int:
        return len(self.families) * self.n_chains * self.n_iter


def pe_times(cuts, rates, levels):
    """Times at which a PE cumulative hazard reaches ``levels`` (all rates > 0)."""
    cuts = np.asarray(cuts, dtype=float)
    rates = np.asarray(rates, dtype=float)
    cum = np.concatenate(([0.0], np.cumsum(rates[:-1] * np.diff(cuts))))
    j = np.searchsorted(cum, levels, side="right") - 1
    return cuts[j] + (levels - cum[j]) / rates[j]


# -- kidney-frailty ------------------------------------------------------------


def _kidney_check(family, summ) -> list[str]:
    """Criterion 7's sub-checks that hold at this run length (κ is not gated)."""
    out = []
    bs, ba = summ["beta_sex"], summ["beta_age"]
    if not -2.0 < bs.mean < -1.0:
        out.append(f"{family}: beta_sex mean {bs.mean:.3f} outside (-2, -1)")
    if not bs.hpd_high < 0.0:
        out.append(f"{family}: beta_sex HPD does not exclude 0")
    if not ba.hpd_low < 0.0 < ba.hpd_high:
        out.append(f"{family}: beta_age HPD does not contain 0")
    sds = [summ[f"lambda[{j}]"].sd for j in range(1, 11)]
    if int(np.argmax(sds)) != 9:
        out.append(f"{family}: sd(lambda[10]) is not the largest rate sd")
    return out


KIDNEY = Workload(
    name="kidney-frailty",
    families=(FAMILY_GAMMA_CHAIN, FAMILY_LOGNORMAL_RW),
    n_chains=2,
    burn_in=500,
    n_iter=3_000,
    mixing_reps=3,
    make_inputs=lambda _seed: None,
    ingest=lambda _inputs: load_kidney(),
    make_grid=lambda _data: default_grid(562.0, 10),
    check=_kidney_check,
)


# -- simulate-s1 ---------------------------------------------------------------


def _s1_inputs(seed):
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    return pe_times(S1_GRID, S1_RATES, rng.exponential(size=S1_N))


def _s1_check(_family, summ) -> list[str]:
    """Each rate's posterior mean within TOLERANCE_SDS posterior SDs of the truth."""
    out = []
    for j, rate in enumerate(S1_RATES, start=1):
        s = summ[f"lambda[{j}]"]
        if not abs(s.mean - rate) <= TOLERANCE_SDS * s.sd:
            out.append(
                f"lambda[{j}]: mean {s.mean:.4g} is more than {TOLERANCE_SDS:g} sd "
                f"({s.sd:.3g}) from the generating rate {rate:g}"
            )
    return out


def _s1_ingest(times) -> SurvivalDataset:
    # as the simulate harness builds its datasets: one record per draw
    records = [
        SurvivalRecord(subject_id=i + 1, replicate_id=1, time=float(t), event=1)
        for i, t in enumerate(times)
    ]
    return SurvivalDataset(records)


SIMULATE_S1 = Workload(
    name="simulate-s1",
    families=(FAMILY_SIMPLE,),
    n_chains=2,
    burn_in=100,
    n_iter=500,
    mixing_reps=3,
    make_inputs=_s1_inputs,
    ingest=_s1_ingest,
    make_grid=lambda _data: TimeGrid(S1_GRID),
    check=_s1_check,
)


WORKLOADS = {w.name: w for w in (KIDNEY, SIMULATE_S1)}

"""Posterior summaries: mean/median/sd, HPD intervals, effective sample size.

Conventions follow the usual multi-chain reporting: descriptive statistics
pool all chains, the effective sample size is computed from the first chain
only.  The HPD interval is the empirical shortest interval; ESS uses the
initial-positive-sequence truncation of the autocorrelation sum.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import astuple, dataclass, fields

import numpy as np

__all__ = [
    "InsufficientDataError",
    "SchemaError",
    "Summary",
    "hpd_interval",
    "effective_sample_size",
    "summarize",
    "write_summary_csv",
    "format_summary_table",
]


class InsufficientDataError(ValueError):
    """Too few draws for the requested statistic."""


class SchemaError(ValueError):
    """Chains disagree about which parameters they monitor."""


@dataclass(frozen=True)
class Summary:
    """Posterior summary row for one monitored scalar; each statistic is a Python float."""

    name: str
    mean: float
    median: float
    sd: float
    hpd_low: float
    hpd_high: float
    ess: float


def _unit_scaled(draws) -> tuple[np.ndarray, int]:
    """``draws`` times 2**-e, and e, the binary exponent of their largest magnitude.

    Every statistic is taken from this view; a NaN or infinite draw is a
    ``ValueError``.  The largest scaled magnitude lies in [0.5, 1), so no sum,
    width or sum of squares overflows, nor does a sum of squares underflow to
    zero; the scaling is exact unless a scaled draw is subnormal.
    """
    x = np.asarray(draws, dtype=float)
    top = np.max(np.abs(x), initial=0.0)  # NaN if any draw is NaN
    if not np.isfinite(top):
        raise ValueError("draws must be finite")
    e = int(np.frexp(top)[1])
    return np.ldexp(x, -e), e


def hpd_interval(draws, mass: float = 0.95) -> tuple[float, float]:
    """Shortest contiguous interval holding at least ``mass`` of the draws.

    Among all windows of ceil(mass * n) consecutive sorted draws the
    narrowest wins; ties resolve to the lowest window so the result is
    deterministic.  The widths are compared on the draws scaled by a power of
    two, so none overflows, and each bound is one of the draws, bit for bit.
    A NaN or infinite draw raises ``ValueError``.
    """
    x = np.sort(np.asarray(draws, dtype=float))
    unit, _ = _unit_scaled(x)
    n = x.size
    if n < 10:
        raise InsufficientDataError(f"need at least 10 draws for an HPD interval, got {n}")
    if not 0.0 < mass < 1.0:
        raise ValueError("mass must lie in (0, 1)")
    k = int(np.ceil(mass * n))
    widths = unit[k - 1 :] - unit[: n - k + 1]
    i = int(np.argmin(widths))  # argmin returns the first (lowest) minimizer
    return float(x[i]), float(x[i + k - 1])


def _autocorrelations(x: np.ndarray) -> np.ndarray:
    n = x.size
    x = x - x.mean()
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:n] / n
    return acov / acov[0]


def effective_sample_size(draws) -> float:
    """ESS = n / (1 + 2 * sum of autocorrelations), truncated a la Geyer.

    Lag pairs (rho_{2k} + rho_{2k+1}) are summed while they stay positive.
    A zero-variance sequence has no information content: the ESS is defined
    as 0 and a RuntimeWarning flags the degeneracy.  The estimate is capped
    at n.  It does not depend on the draws' scale.  A NaN or infinite draw
    raises ``ValueError``.
    """
    x, _ = _unit_scaled(draws)
    n = x.size
    if n < 100:
        raise InsufficientDataError(f"need at least 100 draws for an ESS estimate, got {n}")
    if np.ptp(x) == 0.0:
        warnings.warn("zero-variance draws: effective sample size set to 0", RuntimeWarning)
        return 0.0
    rho = _autocorrelations(x)
    pairs = rho[: 2 * (n // 2)].reshape(-1, 2).sum(axis=1)
    neg = np.flatnonzero(pairs <= 0.0)
    keep = pairs[: neg[0]] if neg.size else pairs
    tau = 2.0 * float(keep.sum()) - 1.0
    return float(min(n / tau, n))


def summarize(chains, mass: float = 0.95) -> list[Summary]:
    """Pooled mean/median/sd/HPD per parameter; ESS from the first chain.

    Every statistic is taken from the pooled draws scaled by a power of two,
    so the summary of finite draws is finite (unless the sd itself passes the
    largest double) and the HPD bounds are draws; only where every draw lies
    below 1 in magnitude, so that no sum overflows, is the mean the raw
    pool's, rounded once even where it is subnormal.  The median is the middle
    of the sorted pooled draws, or the mean of the two middle ones:
    ``np.median``'s value, without the ``numpy.ma`` it imports."""
    if not chains:
        raise ValueError("need at least one chain")
    names = chains[0].names
    for c in chains[1:]:
        if c.names != names:
            raise SchemaError(
                f"chains monitor different parameters: {names} vs {c.names}"
            )
    out = []
    for name in names:
        pooled = np.concatenate([c.draws[name] for c in chains])
        low, high = hpd_interval(pooled, mass)
        unit, e = _unit_scaled(pooled)
        middle = np.sort(unit)[(unit.size - 1) // 2 : unit.size // 2 + 1]
        mean, median, sd = np.ldexp([unit.mean(), middle.mean(), unit.std(ddof=1)], e).tolist()
        if e <= 0:  # ldexp would round a subnormal mean a second time
            mean = float(pooled.mean())
        ess = effective_sample_size(chains[0].draws[name])
        out.append(Summary(name, mean, median, sd, low, high, ess))
    return out


def write_summary_csv(summaries, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)  # csv writes a float as its shortest repr
        writer.writerow(["parameter", *(f.name for f in fields(Summary)[1:])])
        writer.writerows(map(astuple, summaries))


def format_summary_table(summaries, mass: float = 0.95) -> str:
    """Aligned plain-text table: Mean, Median, S.D., HPD bounds, ESS."""
    pct = f"{100 * mass:g}%"
    header = f"{'parameter':<14} {'mean':>12} {'median':>12} {'sd':>12} {'hpd ' + pct:>26} {'ess':>10}"
    lines = [header, "-" * len(header)]
    for s in summaries:
        hpd = f"({s.hpd_low:.4f}, {s.hpd_high:.4f})"
        lines.append(
            f"{s.name:<14} {s.mean:>12.4f} {s.median:>12.4f} {s.sd:>12.4f} {hpd:>26} {s.ess:>10.1f}"
        )
    return "\n".join(lines) + "\n"

"""The benchmark's own effective-sample-size estimate.

Geyer's (1992) initial positive sequence: the autocorrelation sum is
truncated at the first lag pair (rho_2k + rho_2k+1) that is not positive.
The estimate for several chains is the sum of the per-chain estimates.
It is kept apart from ``pexsurv.effective_sample_size`` on purpose, so
that a change to the library's diagnostics cannot redefine a benchmark
metric.
"""

from __future__ import annotations

import numpy as np


def chain_ess(x) -> float:
    """ESS of one chain: n / (2 * sum of positive pair sums - 1), capped at n.

    A constant chain carries no information and gets 0.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if x.max() == x.min():
        return 0.0
    size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(x - x.mean(), size)
    acov = np.fft.irfft(spec * spec.conj(), size)[:n]
    rho = acov / acov[0]
    pairs = rho[: n - n % 2].reshape(-1, 2).sum(axis=1)
    stop = np.flatnonzero(pairs <= 0.0)
    kept = pairs[: stop[0]] if stop.size else pairs
    return float(min(n / (2.0 * kept.sum() - 1.0), n))


def pooled_ess(chains) -> float:
    """Sum of :func:`chain_ess` over independent chains of one scalar."""
    return float(sum(chain_ess(c) for c in chains))

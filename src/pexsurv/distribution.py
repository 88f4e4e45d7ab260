"""Piecewise exponential distribution on a fixed time grid.

A time grid ``tau = (a_1, ..., a_m)`` with ``a_1 = 0`` partitions the
positive axis into intervals ``I_j = (a_j, a_{j+1}]`` for ``j < m`` and the
unbounded tail ``I_m = (a_m, +inf)``.  A piecewise exponential random
variable has constant hazard ``rates[j]`` on ``I_j``, so its cumulative
hazard is continuous and piecewise linear:

    H(t) = rates[j] * (t - a_j) + sum_{i<j} rates[i] * (a_{i+1} - a_i),
           for t in I_j,

with ``S(t) = exp(-H(t))``, ``F(t) = 1 - S(t)`` and
``f(t) = h(t) * exp(-H(t))``.  Quantiles invert ``H`` at ``w = -ln(1 - p)``
segment by segment.  All evaluation methods are pure functions of state
frozen at construction time and are safe for concurrent use; sampling
mutates only the caller-supplied generator.

Boundary conventions (fixed here once, relied on everywhere else):

* a time equal to a cut point ``a_{j+1}`` belongs to interval ``j``
  (intervals are left-open, right-closed);
* ``t <= 0`` is outside the support and is a domain error;
* zero rates are legal: the density is zero on such an interval and the
  quantile function uses the generalized inverse, returning the left
  endpoint of a flat stretch of ``H`` and raising
  :class:`UnreachableMassError` for mass that ``H`` never reaches.

The ladder arithmetic lives once, in the plain functions
:func:`hazard_ladder`, :func:`cum_hazard_at` and
:func:`inverse_cum_hazard_at`.  They trust their arrays:
:class:`PiecewiseExponential` validates before it calls them, and the sampler
calls them on a grid and rates that its constructors already checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "InvalidParamsError",
    "UnreachableMassError",
    "Violation",
    "validate_params",
    "TimeGrid",
    "PiecewiseExponential",
    "hazard_ladder",
    "cum_hazard_at",
    "inverse_cum_hazard_at",
]


class InvalidParamsError(ValueError):
    """A grid / rate pair failed validation.

    Carries the full list of :class:`Violation` entries so callers (the CLI
    in particular) can report every problem, not just the first.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(v.message for v in self.violations))


class UnreachableMassError(RuntimeError):
    """Requested probability mass lies beyond the reachable cumulative hazard.

    Happens when the final rate is zero, so ``H`` saturates and the total
    mass of the distribution is below one.
    """


@dataclass(frozen=True)
class Violation:
    """One violated parameter rule; ``index`` locates the first offender."""

    rule: str
    index: int | None
    message: str


def validate_params(cut_points, rates) -> list[Violation]:
    """Check a (grid, rates) pair against the parameter rules.

    Rules: equal lengths, at least one cut point, finite entries,
    ``cut_points[0] == 0``, strictly increasing cut points, and
    ``rates[j] >= 0``.  Returns an empty list when the pair is valid;
    violations are data, never exceptions.
    """
    cuts = np.asarray(cut_points, dtype=float)
    lam = np.asarray(rates, dtype=float)
    if cuts.ndim != 1 or lam.ndim != 1:
        raise ValueError("cut_points and rates must be one-dimensional")

    out: list[Violation] = []
    if cuts.size == 0:
        out.append(Violation("length", None, "grid must contain at least one cut point"))
    if cuts.size != lam.size:
        out.append(
            Violation(
                "length",
                None,
                f"grid has {cuts.size} cut points but {lam.size} rates; lengths must match",
            )
        )

    bad = np.flatnonzero(~np.isfinite(cuts))
    if bad.size:
        out.append(Violation("finite", int(bad[0]), f"cut_points[{bad[0]}] is not finite"))
    bad = np.flatnonzero(~np.isfinite(lam))
    if bad.size:
        out.append(Violation("finite", int(bad[0]), f"rates[{bad[0]}] is not finite"))

    if cuts.size:
        if not cuts[0] == 0.0:
            out.append(
                Violation("origin", 0, f"first cut point must be exactly 0, got {cuts[0]:g}")
            )
        nondec = np.flatnonzero(~(np.diff(cuts) > 0))
        if nondec.size:
            i = int(nondec[0]) + 1
            out.append(
                Violation(
                    "increasing",
                    i,
                    f"cut points must be strictly increasing; cut_points[{i}] breaks the order",
                )
            )

    neg = np.flatnonzero(~(lam >= 0) & np.isfinite(lam))
    if neg.size:
        i = int(neg[0])
        out.append(Violation("nonnegative", i, f"rates[{i}] is negative ({lam[i]:g})"))
    return out


def _prep_times(t):
    """Coerce to float array, reject values outside the open support (0, inf)."""
    arr = np.asarray(t, dtype=float)
    if arr.size and (np.any(~(arr > 0.0)) or np.any(np.isinf(arr))):
        raise ValueError("time points must lie in the open support (0, +inf)")
    return arr, arr.ndim == 0


def hazard_ladder(widths, rates) -> np.ndarray:
    """H at each cut point, from ``widths = np.diff(cut_points)``."""
    return np.concatenate(([0.0], np.cumsum(rates[:-1] * widths)))


def cum_hazard_at(cuts, cum, rates, t):
    """H(t) for times in the open support, given ``cum = hazard_ladder(...)``."""
    j = np.searchsorted(cuts, t, side="left") - 1
    return cum[j] + rates[j] * (t - cuts[j])


def inverse_cum_hazard_at(cuts, cum, rates, w):
    """Smallest t with H(t) >= w, for levels ``w >= 0``.

    Inverts on the ladder of intervals where H actually climbs, so flat
    stretches are skipped.  Raises :class:`UnreachableMassError` for levels
    above the supremum of H (zero-rate tail).
    """
    pos = np.flatnonzero(rates > 0)
    if pos.size == 0:
        raise UnreachableMassError("all rates are zero; the distribution has no mass")
    tail_climbs = rates[-1] > 0
    hend = np.append(cum[1:], np.inf if tail_climbs else cum[-1])[pos]
    k = np.searchsorted(hend, w, side="left")
    if (k >= pos.size).any():
        h_sup = np.inf if tail_climbs else float(cum[-1])
        raise UnreachableMassError(
            f"cumulative hazard saturates at {h_sup:g}; requested level unreachable"
        )
    j = pos[k]
    return cuts[j] + (w - cum[j]) / rates[j]


@dataclass(frozen=True)
class TimeGrid:
    """Ordered cut points ``a_1 = 0 < a_2 < ... < a_m < inf``.

    The implicit unbounded endpoint ``a_{m+1} = +inf`` is never stored.
    """

    cut_points: tuple[float, ...]

    def __post_init__(self):
        pts = tuple(float(c) for c in self.cut_points)
        object.__setattr__(self, "cut_points", pts)
        violations = validate_params(pts, np.zeros(len(pts)))
        if violations:
            raise InvalidParamsError(violations)

    @cached_property
    def _cuts(self) -> np.ndarray:
        arr = np.array(self.cut_points, dtype=float)
        arr.flags.writeable = False
        return arr

    @cached_property
    def _uppers(self) -> np.ndarray:
        arr = np.append(self._cuts[1:], np.inf)
        arr.flags.writeable = False
        return arr

    @property
    def m(self) -> int:
        return len(self.cut_points)

    def interval_index(self, t):
        """1-based index j of the interval I_j containing t.

        ``t == a_{j+1}`` maps to j (right-closed intervals); anything past
        the last cut point maps to m.  Accepts scalars or arrays.
        """
        arr, scalar = _prep_times(t)
        idx = np.searchsorted(self._cuts, arr, side="left")
        return int(idx) if scalar else idx

    def exposures(self, times) -> np.ndarray:
        """Overlap length of (0, t] with each interval, shape (len(times), m).

        Row sums reconstruct the times themselves, which is what makes these
        overlaps the exposure component of the sufficient statistics.
        """
        t = np.asarray(times, dtype=float)[:, None]
        return np.clip(np.minimum(t, self._uppers[None, :]) - self._cuts[None, :], 0.0, None)


class PiecewiseExponential:
    """PE(rates, grid) distribution with cached cumulative-hazard ladder.

    Parameters are validated once; prefix sums of ``rates * widths`` are
    cached so every evaluation is O(log m).  Instances are immutable.
    """

    def __init__(self, grid, rates):
        if isinstance(grid, TimeGrid):
            pts: tuple[float, ...] = grid.cut_points
            self.grid = grid
        else:
            pts = tuple(float(c) for c in np.asarray(grid, dtype=float))
            self.grid = None  # set after joint validation below
        violations = validate_params(pts, rates)
        if violations:
            raise InvalidParamsError(violations)
        if self.grid is None:
            self.grid = TimeGrid(pts)

        self.cuts = self.grid._cuts
        self.rates = np.array(rates, dtype=float)
        self.rates.flags.writeable = False
        self._cum = hazard_ladder(np.diff(self.cuts), self.rates)
        self._cum.flags.writeable = False
        self._h_sup = np.inf if self.rates[-1] > 0 else float(self._cum[-1])

    @property
    def m(self) -> int:
        return self.grid.m

    def __repr__(self):
        return f"PiecewiseExponential(cuts={self.cuts.tolist()}, rates={self.rates.tolist()})"

    # -- evaluation --------------------------------------------------------

    def _segment(self, arr):
        """0-based interval index for validated times."""
        return np.searchsorted(self.cuts, arr, side="left") - 1

    def hazard(self, t):
        arr, scalar = _prep_times(t)
        out = self.rates[self._segment(arr)]
        return float(out) if scalar else out

    def cum_hazard(self, t):
        arr, scalar = _prep_times(t)
        out = self._cum_hazard_raw(arr)
        return float(out) if scalar else out

    def survival(self, t):
        arr, scalar = _prep_times(t)
        out = np.exp(-self._cum_hazard_raw(arr))
        return float(out) if scalar else out

    def cdf(self, t):
        arr, scalar = _prep_times(t)
        out = -np.expm1(-self._cum_hazard_raw(arr))
        return float(out) if scalar else out

    def log_density(self, t):
        """Log density; -inf on intervals with zero rate (density truly zero)."""
        arr, scalar = _prep_times(t)
        j = self._segment(arr)
        with np.errstate(divide="ignore"):
            out = np.log(self.rates[j]) - (self._cum[j] + self.rates[j] * (arr - self.cuts[j]))
        return float(out) if scalar else out

    def density(self, t):
        out = np.exp(self.log_density(t))
        return float(out) if np.ndim(t) == 0 else out

    def _cum_hazard_raw(self, arr):
        return cum_hazard_at(self.cuts, self._cum, self.rates, arr)

    # -- inversion ---------------------------------------------------------

    def inverse_cum_hazard(self, w):
        """Generalized inverse of H: the smallest t with H(t) >= w (vectorized).

        ``w`` is a cumulative-hazard level, w >= 0.  Flat stretches of H are
        skipped; if w lands exactly on a plateau value the left endpoint of
        the plateau is returned.  Unlike :meth:`quantile` this works on the
        hazard scale, so it stays exact far past the level at which
        ``1 - exp(-w)`` rounds to 1.  Raises :class:`UnreachableMassError`
        for levels above the supremum of H (zero-rate tail).
        """
        w = np.asarray(w, dtype=float)
        if not np.all(w >= 0.0):
            raise ValueError("cumulative hazard levels must be non-negative")
        return inverse_cum_hazard_at(self.cuts, self._cum, self.rates, w)

    def quantile(self, p):
        """Generalized inverse CDF, inf{t : F(t) >= p}, for p in (0, 1)."""
        arr = np.asarray(p, dtype=float)
        if np.any(~((arr > 0.0) & (arr < 1.0))):
            raise ValueError("probabilities must lie strictly inside (0, 1)")
        out = self.inverse_cum_hazard(-np.log1p(-arr))
        return float(out) if arr.ndim == 0 else out

    def median(self):
        return self.quantile(0.5)

    # -- sampling ----------------------------------------------------------

    def sample(self, size=None, *, rng, lower=None, upper=None):
        """Inverse-CDF sampling, optionally truncated to (lower, upper].

        One uniform draw per sample is mapped through the inverse of the
        truncated CDF; the draw interval is kept open so the inversion never
        sees probability 0 or 1 exactly.  The inversion works on the
        cumulative-hazard scale (``H(T)`` is unit-exponential, truncation
        shifts it by ``H(lower)``), which is the same map as a uniform draw
        on ``(F(lower), F(upper))`` followed by the quantile function but
        does not saturate when ``H(lower)`` is large.  ``size=None`` returns
        a single float.  Draws are reproducible given ``rng`` state and call
        order; never share one generator across concurrent callers.
        """
        if lower is not None:
            lower = float(lower)
            if not np.isfinite(lower) or lower < 0:
                raise ValueError("lower bound must be finite and non-negative")
        if upper is not None:
            upper = float(upper)
            if np.isinf(upper):
                upper = None
            elif upper <= (lower if lower is not None else 0.0):
                raise ValueError("upper bound must exceed the lower bound")

        h_lo = 0.0 if not lower else float(self.cum_hazard(lower))
        if upper is None:
            if not np.isinf(self._h_sup):
                raise UnreachableMassError(
                    "total mass above the lower bound is deficient (zero-rate tail); "
                    "cannot sample with an unbounded upper limit"
                )
            span = np.inf
        else:
            span = float(self.cum_hazard(upper)) - h_lo
            if not span > 0.0:
                raise UnreachableMassError("no probability mass inside the requested bounds")

        u = rng.uniform(size=size)
        u = np.maximum(u, np.nextafter(0.0, 1.0))  # open at the lower endpoint
        # inverse CDF of Exp(1) truncated to (0, span]
        if np.isinf(span):
            excess = -np.log1p(-u)
        else:
            excess = -np.log1p(u * np.expm1(-span))
        out = self.inverse_cum_hazard(h_lo + excess)
        return float(out) if size is None else out

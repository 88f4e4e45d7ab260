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
with one lookup per level in the ladder of H at the cut points.  All
evaluation methods are pure functions of state frozen at construction time
and are safe for concurrent use; sampling mutates only the caller-supplied
generator.

Boundary conventions (fixed here once, relied on everywhere else):

* a time equal to a cut point ``a_{j+1}`` belongs to interval ``j``
  (intervals are left-open, right-closed);
* ``t <= 0`` is outside the support and is a domain error;
* zero rates are legal: the density is zero on such an interval and the
  quantile function uses the generalized inverse, returning the left
  endpoint of a flat stretch of ``H`` (so level 0 reads t = 0) and raising
  :class:`UnreachableMassError` for mass that ``H`` never reaches.

Every pointwise method of :class:`PiecewiseExponential` takes one path,
``_pointwise``: one check of the times, one lookup each, and a float for a
scalar argument.  ``sample`` draws a truncated Exp(1) excess, bounded or not,
with one expression.

Two plain functions, :func:`hazard_ladder` and :func:`inverse_cum_hazard_at`,
hold the ladder arithmetic that is shared.  They trust their arrays:
:class:`PiecewiseExponential` validates before it calls them, and
``mcmc.impute``, their one caller outside the class, calls them on a grid and
rates that its constructors already checked.
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
    "inverse_cum_hazard_at",
]

_TINY = np.nextafter(0.0, 1.0)  # the smallest positive double


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


def _first_offender(ok):
    """Index of the first False in the boolean array ``ok``, or None."""
    if ok.size:
        i = int(ok.argmin())  # a boolean argmin is the first False
        if not ok[i]:
            return i
    return None


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
        msg = f"grid has {cuts.size} cut points but {lam.size} rates; lengths must match"
        out.append(Violation("length", None, msg))

    lam_finite = np.isfinite(lam)
    for name, finite in (("cut_points", np.isfinite(cuts)), ("rates", lam_finite)):
        i = _first_offender(finite)
        if i is not None:
            out.append(Violation("finite", i, f"{name}[{i}] is not finite"))

    if cuts.size:
        if not cuts[0] == 0.0:
            out.append(
                Violation("origin", 0, f"first cut point must be exactly 0, got {cuts[0]:g}")
            )
        # compared, not subtracted: inf - inf would warn
        i = _first_offender(cuts[1:] > cuts[:-1])
        if i is not None:
            msg = f"cut points must be strictly increasing; cut_points[{i + 1}] breaks the order"
            out.append(Violation("increasing", i + 1, msg))

    # a non-finite rate is the finite rule's offender, not this one's
    i = _first_offender((lam >= 0.0) | ~lam_finite)
    if i is not None:
        out.append(Violation("nonnegative", i, f"rates[{i}] is negative ({lam[i]:g})"))
    return out


def _prep_times(t):
    """Coerce to float array, reject values outside the open support (0, inf)."""
    arr = np.asarray(t, dtype=float)
    if arr.size and not (arr.min() > 0.0 and arr.max() < np.inf):  # NaN fails both
        raise ValueError("time points must lie in the open support (0, +inf)")
    return arr, arr.ndim == 0


def hazard_ladder(widths, rates) -> np.ndarray:
    """H at each cut point, from ``widths = np.diff(cut_points)``."""
    return np.concatenate(([0.0], np.cumsum(rates[:-1] * widths)))


def inverse_cum_hazard_at(cuts, cum, rates, w):
    """Smallest t with H(t) >= w, for levels ``w >= 0``.

    One lookup finds, for each level, the first interval j whose end
    reaches it.  For w > 0 its start lies below w (H(a_j) < w), so H climbs
    on it and its rate is positive; flat stretches are never chosen.  Level
    0 reads t = 0.0, which a leading zero rate would make 0/0; a NaN level
    reads NaN, so callers can test the result for finiteness.  Raises
    :class:`UnreachableMassError` when every rate is zero and for levels
    above the supremum of H (zero-rate tail).
    """
    if not rates[-1] > 0:
        if not rates.any():
            raise UnreachableMassError("all rates are zero; the distribution has no mass")
        if not (w <= cum[-1]).all():
            raise UnreachableMassError(
                f"cumulative hazard saturates at {float(cum[-1]):g}; requested level unreachable"
            )
    j = np.searchsorted(cum[1:], w, side="left")
    # the floor changes no positive rate; level 0 (j = 0, w - cum[0] = 0) reads 0 / _TINY
    return cuts[j] + (w - cum[j]) / np.maximum(rates[j], _TINY)


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

    @classmethod
    def _checked(cls, pts):
        """The grid of cut points that ``validate_params`` has already passed."""
        grid = object.__new__(cls)
        object.__setattr__(grid, "cut_points", tuple(float(c) for c in pts))
        return grid

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

        The result is the transposed view of one interval-major
        ``(m, len(times))`` array, so ``.T`` holds each interval's overlaps
        contiguously.  Row sums reconstruct the times themselves, which is
        what makes these overlaps the exposure component of the sufficient
        statistics.  Times outside the open support raise ``ValueError``.
        """
        t, _ = _prep_times(times)
        # one (m, len(times)) array, clipped in place
        out = np.minimum(t, self._uppers[:, None])
        out -= self._cuts[:, None]
        return np.maximum(out, 0.0, out=out).T

    def interval_totals(self, times, events):
        """Per-interval event counts ``d`` and exposures ``R`` of unit-weight records.

        ``R[j]`` sums the overlaps of (0, t] with I_j over ``times``, the
        entries of one column of :meth:`exposures`; ``d[j]`` counts the times
        flagged in the boolean ``events`` that lie in I_j, as the number of them
        above a_j less the number above a_{j+1}.  Both are float arrays of length
        m.  One interval at a time is summed in one reused ``len(times)`` buffer,
        so no ``(m, len(times))`` array is built.  Times outside the open
        support, or ``events`` of another shape, raise ``ValueError``.
        """
        t, _ = _prep_times(times)
        if np.shape(events) != t.shape:
            raise ValueError(f"events has shape {np.shape(events)}, times {t.shape}")
        buf, flag = np.empty_like(t), np.empty(t.shape, dtype=bool)
        above, risk = [], np.empty(self.m)
        for j, (a, b) in enumerate(zip(self._cuts, self._uppers)):
            np.greater(t, a, out=flag)
            above.append(np.count_nonzero(np.logical_and(flag, events, out=flag)))
            np.minimum(t, b, out=buf)
            buf -= a
            risk[j] = np.maximum(buf, 0.0, out=buf).sum()
        d = np.array(above, dtype=float)
        d[:-1] -= above[1:]
        return d, risk


class PiecewiseExponential:
    """PE(rates, grid) distribution with cached cumulative-hazard ladder.

    Parameters are validated once; prefix sums of ``rates * widths`` are
    cached so every evaluation is O(log m).  Each public method checks its
    own argument once and evaluates through ``_pointwise`` or ``_invert``.
    Every H and every inverse reads +inf past the largest double, with no
    warning.  :meth:`sample` raises :class:`UnreachableMassError` for bounds
    that hold no float mass: H(lower) = +inf, H(upper) <= H(lower), or no
    upper bound above a zero-rate tail.  Instances are immutable.
    """

    def __init__(self, grid, rates):
        is_grid = isinstance(grid, TimeGrid)
        pts = grid.cut_points if is_grid else np.asarray(grid, dtype=float)
        # one report lists the grid's violations and the rates' together
        violations = validate_params(pts, rates)
        if violations:
            raise InvalidParamsError(violations)
        # the rates' check covered the grid's rules, so raw points are not checked again
        self.grid = grid if is_grid else TimeGrid._checked(pts)
        self.cuts = self.grid._cuts
        self.rates = np.array(rates, dtype=float)
        self.rates.flags.writeable = False
        with np.errstate(over="ignore"):
            self._cum = hazard_ladder(np.diff(self.cuts), self.rates)
        self._cum.flags.writeable = False

    @property
    def m(self) -> int:
        return self.grid.m

    def __repr__(self):
        return f"PiecewiseExponential(cuts={self.cuts.tolist()}, rates={self.rates.tolist()})"

    # -- evaluation --------------------------------------------------------

    def _locate(self, arr):
        """0-based interval index of validated times, one lookup each."""
        return np.searchsorted(self.cuts, arr, side="left") - 1

    def _cum_at(self, j, arr):
        """H at validated times ``arr`` in their intervals ``j``."""
        with np.errstate(over="ignore"):
            return self._cum[j] + self.rates[j] * (arr - self.cuts[j])

    def _invert(self, w):
        """Smallest t with H(t) >= w, for checked levels ``w >= 0``."""
        with np.errstate(over="ignore"):
            return inverse_cum_hazard_at(self.cuts, self._cum, self.rates, w)

    def _pointwise(self, t, evaluate):
        """``evaluate(j, x)`` at the checked times ``x``; a float for a scalar, else an array."""
        arr, scalar = _prep_times(t)
        out = evaluate(self._locate(arr), arr)
        return float(out) if scalar else out

    def _log_f(self, j, x):
        h = self._cum_at(j, x)
        with np.errstate(divide="ignore"):  # a zero rate reads -inf
            return np.log(self.rates[j]) - h

    def hazard(self, t):
        return self._pointwise(t, lambda j, x: self.rates[j])

    def cum_hazard(self, t):
        return self._pointwise(t, self._cum_at)

    def survival(self, t):
        return self._pointwise(t, lambda j, x: np.exp(-self._cum_at(j, x)))

    def cdf(self, t):
        return self._pointwise(t, lambda j, x: -np.expm1(-self._cum_at(j, x)))

    def log_density(self, t):
        """Log density; -inf on intervals with zero rate (density truly zero)."""
        return self._pointwise(t, self._log_f)

    def density(self, t):
        return self._pointwise(t, lambda j, x: np.exp(self._log_f(j, x)))

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
        out = self._invert(w)
        return float(out) if w.ndim == 0 else out

    def quantile(self, p):
        """Generalized inverse CDF, inf{t : F(t) >= p}, for p in (0, 1)."""
        arr = np.asarray(p, dtype=float)
        if np.any(~((arr > 0.0) & (arr < 1.0))):
            raise ValueError("probabilities must lie strictly inside (0, 1)")
        out = self._invert(-np.log1p(-arr))
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
        does not saturate when ``H(lower)`` is large.  ``lower`` must be
        finite and non-negative; ``upper`` must exceed it, and only
        ``+inf`` (or ``None``) means no upper bound.  ``size=None`` returns
        a single float.  Draws are reproducible given ``rng`` state and call
        order; never share one generator across concurrent callers.
        """
        if lower is not None:
            lower = float(lower)
            if not np.isfinite(lower) or lower < 0:
                raise ValueError("lower bound must be finite and non-negative")
        if upper is not None:
            upper = float(upper)
            if upper == np.inf:
                upper = None
            elif not upper > (lower or 0.0):  # -inf and NaN fail here too
                raise ValueError("upper bound must exceed the lower bound")

        # both bounds now lie in the open support (or are 0 / absent)
        h_lo = float(self._cum_at(self._locate(lower), lower)) if lower else 0.0
        if h_lo == np.inf:  # S(lower) is 0.0: no float mass above the bound
            raise UnreachableMassError(f"H at the lower bound {lower:g} is infinite; no mass above it")
        if upper is None:
            if not self.rates[-1] > 0:
                raise UnreachableMassError(
                    "total mass above the lower bound is deficient (zero-rate tail); "
                    "cannot sample with an unbounded upper limit"
                )
            span = np.inf
        else:
            span = float(self._cum_at(self._locate(upper), upper)) - h_lo
            if not span > 0.0:
                raise UnreachableMassError("no probability mass inside the requested bounds")

        u = rng.uniform(size=size)
        # inverse CDF of Exp(1) truncated to (0, span]; expm1(-inf) is exactly -1
        excess = -np.log1p(u * np.expm1(-span))
        # open at the lower endpoint: a zero excess would invert level 0 to t = 0
        excess = np.maximum(excess, _TINY)
        out = self._invert(h_lo + excess)
        if lower:
            # An excess below half an ulp of h_lo inverts to lower, or to the
            # left end of a flat stretch of H around it: lift it to where H
            # climbs above lower.
            climb = self.cuts[np.searchsorted(self._cum, h_lo, side="right") - 1]
            out = np.maximum(out, max(np.nextafter(lower, np.inf), climb))
        return float(out) if size is None else out

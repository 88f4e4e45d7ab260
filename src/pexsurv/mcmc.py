"""Seed-reproducible samplers for the piecewise exponential models.

The public entry points are ``run_chain`` / ``run_chains`` and the scalar
slice kernel ``update_scalar_slice``.

The simple family's rates are independent a posteriori: given the events
``d`` and the exposure ``R`` up to each record's observed or censoring time
(censored records enter through their survival term), lambda_j ~ Gamma(a +
d_j, b + R_j).  ``run_chains`` takes ``(d, R)`` once per fit from
``TimeGrid.interval_totals``, which sums the records' times and event flags
one interval at a time and builds no (m, n) overlap array, and every chain
takes its ``n_iter // thin`` exact, independent draws from it in one call:
burn-in and thinning would only discard draws as good as those kept.

The frailty families run a Gibbs sweep.  Every block of it is a method of
one private fit context, built once per chain, which holds the only
implementation of each update.  Each sweep updates, in this fixed order:
imputed censored times, the rates (slice sampled), and three more blocks:

* (eta, z), partially collapsed: eta is sliced on the log scale with the
  frailties integrated out, then every frailty takes its exact Gamma draw
  given the new eta (van Dyk & Park 2008), one numpy call for each group of
  subjects with the same number of density records;
* one rescale of the frailties against the baseline rates, sliced on
  s = log c along (e^s z, log lambda - s), which leaves every z_i lambda_j
  and so the likelihood unchanged: a group move (Liu & Sabatti 2000) that
  interweaves the frailty scale with the rates (Yu & Meng 2011), applied
  as the products e^s z and e^{-s} lambda;
* one centred slice move per coefficient, along
  (beta_k + delta, log lambda - delta * xbar_k) with xbar_k the column mean
  of the design matrix, so the hazard changes only through x_k - xbar_k.

Chains are driven by numpy's PCG64 generator seeded from
``(config.seed, chain_id)``, so a rerun with the same seed on the same
machine and library versions gives bit-identical output; one chain owns its
generator and state exclusively.  A chain's draws therefore do not depend on
the process that runs it: ``run_chains`` shares a frailty fit's chain ids
equally among the calling process and forked workers, at most one process per
usable CPU, and runs the simple family's chains one after another in the
calling process.  Only a frailty fit of two or more chains imports the
worker machinery (``multiprocessing``), where it may fork: importing the
package, a simple-family fit, ``pexsurv simulate`` and ``pexsurv dist``
never load it.

Inputs are validated once, by the public constructors (``TimeGrid``,
``PiecewiseExponential``, ``SurvivalRecord``, ``ModelSpec``); the sweep then
builds no distribution object.  A frailty chain's fit context is built whole
from its starting state: the constructor caches the interval overlaps E of
the working times and the counts d, each counted record in its
``TimeGrid.interval_index``, from one ``sufficient_stats`` call, and every
sweep reads R = E (z e^{X beta}) and H = lambda E from them.  Only
imputation moves a working time, and it rewrites the moved records'
overlaps and counts; only its inverse draw reads the ladder of the rates,
through the plain functions of :mod:`pexsurv.distribution`.

Scalar slice sampling follows the stepping-out / shrinkage scheme: the
bracket grows by its width up to 50 total expansions (an exceeded cap simply
falls back to the current bracket) and proposals shrink toward the current
point until one lands inside the slice.  Positive parameters are updated on
the log scale with the Jacobian included.  Each slice coordinate (a log-rate
or xi_j, log eta, the frailty rescale's log c, a coefficient's shift) has
its own width: 1.0 during burn-in, then frozen at ``_WIDTH_PER_JUMP`` times
the coordinate's mean burn-in jump |x1 - x0|, so the retained draws come
from one fixed kernel (Neal 2003, section 4.4); every block slices through
the fit context's ``slice_update``, which applies that rule.  The sweep
draws through three entry points: the kernel's ``random()``, handed out of
blocks of ``_UNIFORM_BLOCK`` doubles, ``uniform(size=)`` and ``standard_gamma``.

The frailty families' rate prior is stated once per chain, as the fit
context's ``link`` from each log-rate to the next, which the rate targets,
the rescale and the coefficient moves all read.

A rate whose e^x would not be a positive, finite double has density zero:
the rate targets, and the coefficient and frailty moves that rescale every
rate, read -inf there.  The frailty rescale reads -inf, too, where a
positive frailty would leave the positive, finite doubles.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import SurvivalDataset
from .distribution import UnreachableMassError, hazard_ladder, inverse_cum_hazard_at
from .models import (
    FAMILY_GAMMA_CHAIN,
    ModelSpec,
    ParamState,
    initial_state,
    sufficient_stats,
)

__all__ = [
    "InvariantViolationError",
    "ChainAbortError",
    "McmcConfig",
    "ChainStore",
    "update_scalar_slice",
    "run_chain",
    "run_chains",
]


# The smallest positive double; largest x with a finite e^x, and smallest with a positive one.
_TINY = np.nextafter(0.0, 1.0)
_LOG_MAX = math.log(np.finfo(float).max)
_LOG_MIN = math.log(_TINY)

# A slice width is frozen after burn-in at this multiple of the coordinate's
# mean burn-in jump: for a normal target the mean jump is ~1.05 sd at any
# width, and evaluations per update are fewest at a width of 3-4 sd.
_WIDTH_PER_JUMP = 3.0

# Stepping out grows a slice bracket by at most this many widths in all.
_MAX_STEPS = 50

# Scalar uniforms for the slice kernel are drawn this many at a time.
_UNIFORM_BLOCK = 256


class InvariantViolationError(RuntimeError):
    """The sampler was handed a state it cannot recover from."""


class ChainAbortError(RuntimeError):
    """An update failed; the message carries the iteration index."""


@dataclass(frozen=True)
class McmcConfig:
    """Chain layout, seeding and likelihood mode.

    The four layout fields and ``seed`` are Python or numpy integers, not
    bools, stored as ``int``; a value out of range is rejected with a message
    naming its field.  ``n_iter`` counts post-burn-in iterations; ``n_iter //
    thin`` draws are retained, so ``thin`` may not exceed ``n_iter``; ``seed``
    is non-negative.  The samplers are fixed per family: the simple family's
    rates are exact, independent conjugate Gamma draws, so ``burn_in`` and
    ``thin`` set only their count, ``n_iter // thin``; the frailty families
    slice the rates, draw (eta, z) as one collapsed block, then rescale every
    frailty against the rates (z -> c z, lambda -> lambda / c) and move each
    coefficient along its centred covariate; each slice coordinate steps out
    with width 1.0 during burn-in and, after it, with a width tuned from its
    burn-in jumps (recorded as ``slice_widths`` in the chain metadata, the
    rescale's as ``frailty_scale``), by at most 50 expansions.
    ``impute`` is a Python or numpy bool, stored as ``bool``; for the frailty
    families ``False`` switches censored records to their analytic
    log-survival contribution instead of data augmentation, which the simple
    family always uses.  Where the chains run is not configured:
    ``run_chains`` runs the simple family's in the calling process and shares
    a frailty fit's equally among it and forked workers, at most one process
    per usable CPU; the draws are the same wherever a chain runs.
    """

    n_chains: int = 2
    burn_in: int = 1000
    n_iter: int = 2000
    thin: int = 1
    seed: int = 0
    impute: bool = True

    def __post_init__(self):
        lowest = {"n_chains": 1, "burn_in": 0, "n_iter": 1, "thin": 1, "seed": 0}
        for name, least in lowest.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
            object.__setattr__(self, name, int(value))  # JSON-safe in chain metadata
        if self.thin > self.n_iter:
            raise ValueError(
                f"thin ({self.thin}) exceeds n_iter ({self.n_iter}); no draw would be retained"
            )
        if not isinstance(self.impute, (bool, np.bool_)):
            raise ValueError(f"impute must be a bool, got {self.impute!r}")
        object.__setattr__(self, "impute", bool(self.impute))


@dataclass
class ChainStore:
    """Retained draws (name -> 1-D array) plus run metadata."""

    draws: dict[str, np.ndarray]
    meta: dict = field(default_factory=dict)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.draws)

    @property
    def n_draws(self) -> int:
        return 0 if not self.draws else len(next(iter(self.draws.values())))

    def to_csv(self, path) -> None:
        """One column per monitored scalar and one row per retained draw, each value
        a float in Python's shortest round-trip ``repr``, each line ended by CRLF."""
        lengths = {name: len(col) for name, col in self.draws.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"chain columns differ in length: {lengths}")
        rows = np.array(list(self.draws.values()), dtype=float).T
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow(self.names)
            for row in rows:  # row by row, so no Python copy of the whole table
                fh.write(",".join(map(repr, row.tolist())) + "\r\n")

    def write_metadata(self, path, extra: dict | None = None) -> None:
        payload = dict(self.meta)
        if extra:
            payload.update(extra)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def update_scalar_slice(log_density, x0, rng, width=1.0):
    """One stepping-out + shrinkage slice transition for a scalar target.

    Requires a finite log density at the current point; the target is left
    invariant by the transition.
    """
    x0 = float(x0)
    fx0 = log_density(x0)
    if not math.isfinite(fx0):
        raise InvariantViolationError(
            f"slice target is not finite at the current point x={x0!r}"
        )
    u = rng.random()
    logy = fx0 + math.log(u) if u > 0.0 else -math.inf

    left = x0 - width * rng.random()
    right = left + width
    grow_left = int(_MAX_STEPS * rng.random())
    grow_right = _MAX_STEPS - 1 - grow_left
    while grow_left > 0 and log_density(left) > logy:
        left -= width
        grow_left -= 1
    while grow_right > 0 and log_density(right) > logy:
        right += width
        grow_right -= 1

    for _ in range(10_000):
        x1 = left + (right - left) * rng.random()
        if log_density(x1) > logy:
            return x1
        if x1 < x0:
            left = x1
        else:
            right = x1
    raise InvariantViolationError("slice shrinkage failed to terminate")


class _FitContext:
    """Precomputed data views shared by every sweep of one frailty fit, and its blocks.

    ``augmented`` is the likelihood mode (``McmcConfig.impute``) and
    ``state`` the chain's starting state.  Grid, data and specification were
    validated by their constructors.  H is the rates times interval
    overlaps: ``overlap``, the interval-major (m, n) E at the working times,
    cached with the counts ``d`` by the constructor and kept current by
    ``impute``, and ``bound_overlap`` at the censoring bounds, which never
    move; imputation inverts H on the ladder over the grid's ``cuts``.
    Every block slices through ``slice_update`` and draws by ``random()``,
    ``uniform(size=)`` and ``standard_gamma`` only.
    """

    def __init__(self, spec: ModelSpec, data: SurvivalDataset, augmented: bool, state: ParamState):
        self.spec = spec
        self.data = data
        self.augmented = augmented
        self.cuts = np.array(spec.grid.cut_points)
        self.widths = np.diff(self.cuts)
        self.m = spec.grid.m
        self.h = h = spec.hyper
        # The frailty families' rate prior, one link of the chain at a time:
        # link(dx) is the log prior of a log-rate given the one before, as a
        # function of the increment dx = x_j - x_{j-1} (x_0 = 0), up to a
        # constant.  For the gamma chain it includes the log-scale Jacobian
        # and reads -inf where e^dx would overflow.  Every target that moves
        # the rates reads it.
        if spec.family == FAMILY_GAMMA_CHAIN:

            def link(dx, a=h.alpha, exp=math.exp):
                return -math.inf if dx > _LOG_MAX else a * dx - a * exp(dx)

        else:

            def link(dx, two_nu=2.0 * h.nu):
                return -(dx * dx) / two_nu

        self.link = link
        self.X = data.design_matrix
        self.p = self.X.shape[1]
        self.subj = data.subject_positions
        self.n_sub = max(data.n_subjects, 1)
        events = data.event_flags
        self.cens_idx = np.flatnonzero(~events)
        # imputation's fixed per-chain views: the censored rows of X and their subjects
        self.cens_X, self.cens_subj = self.X[self.cens_idx], self.subj[self.cens_idx]
        self.bound_overlap = spec.grid.exposures(data.marginal_times[self.cens_idx]).T  # (m, #censored)
        # Density indicator per record: with augmentation every working time
        # is scored as an event; otherwise only true events are.
        dens = np.ones(data.n_records) if augmented else events.astype(float)
        self.sub_counts = np.bincount(self.subj, weights=dens, minlength=self.n_sub)
        # The collapsed eta target sums lgamma(eta + d_i) - lgamma(eta) as
        # sum_k c_k log(eta + k), with c_k = #{i : d_i > k}.
        counts = self.sub_counts.astype(int)
        self.count_ladder = [
            (float(k), float(np.count_nonzero(counts > k))) for k in range(counts.max(initial=0))
        ]
        # The subjects of each d_i, in ascending order of d_i: the frailty
        # draw takes one scalar-shape Gamma call per group.
        self.count_groups = [
            (float(c), np.flatnonzero(self.sub_counts == c)) for c in np.unique(self.sub_counts)
        ]
        # The centred beta move, per covariate: x_k - xbar_k (xbar_k the
        # column mean over records), xbar_k, its range, and its sum over
        # density records.
        xbar = self.X.mean(axis=0) if data.n_records else np.zeros(self.p)
        self.centred = []
        for k in range(self.p):
            xc = self.X[:, k] - xbar[k]
            lo, hi = xc.min(initial=0.0), xc.max(initial=0.0)
            self.centred.append((xc, float(xbar[k]), float(lo), float(hi), float(dens @ xc)))
        self.monitor_names = [f"lambda[{j}]" for j in range(1, self.m + 1)]
        self.monitor_names += [f"beta_{n}" for n in data.covariate_names]
        self.monitor_names += ["eta", "kappa"]
        # Slice coordinates, named after their parameter: the rates (log
        # lambda_j or xi_j), each coefficient's shift delta, log eta, then
        # the frailty rescale's log c.  Their jumps are summed on every sweep
        # and read once, when run_chain freezes the widths after burn-in.
        self.slice_names = self.monitor_names[:-1] + ["frailty_scale"]
        self.slice_widths = [1.0] * len(self.slice_names)
        self.jump_sums = [0.0] * len(self.slice_names)
        # E and d at the starting state's working times, from one
        # sufficient_stats call.  No event time and no censoring bound ever
        # moves, so only impute rewrites them, for the censored records.
        stats = sufficient_stats(state, spec, data, augmented=augmented)
        self.overlap, self.d = stats.overlap, stats.d
        if augmented:  # the counts of the records whose times never move
            cens_last = self.last_interval(state.times[self.cens_idx])
            self.fixed_d = stats.d - np.bincount(cens_last, minlength=self.m)

    def last_interval(self, times):
        """0-based ``TimeGrid.interval_index`` of each time, without its check of the times."""
        return np.searchsorted(self.cuts, times, "left") - 1

    def freeze_widths(self, sweeps):
        """Set each slice width from its mean jump over ``sweeps`` burn-in sweeps.

        A width stays as it is when there was no burn-in sweep or its mean
        jump is zero or not finite.
        """
        for i, total in enumerate(self.jump_sums):
            width = _WIDTH_PER_JUMP * total / sweeps if sweeps else 0.0
            if 0.0 < width < math.inf:
                self.slice_widths[i] = width

    def slice_update(self, i, logf, x0, rng):
        """Slice coordinate ``i`` from ``x0`` at its width; its jump joins ``jump_sums[i]``."""
        x1 = update_scalar_slice(logf, x0, rng, width=self.slice_widths[i])
        self.jump_sums[i] += abs(x1 - x0)
        return x1

    def describe_record(self, i):
        """Which record ``i`` is, and which time of it the sweep works with."""
        r = self.data.record(i)
        where = f"record {i} (subject {r.subject_id}, replicate {r.replicate_id}"
        if r.event:
            return f"time of {where}, event at {r.time:g})"
        if self.augmented:
            return f"imputed time of censored {where}, censored at {r.censor_time:g})"
        return f"censoring time of {where}, censored at {r.censor_time:g})"

    def cum_hazard(self, rates):
        """Baseline cumulative hazard of every record at its working time.

        H is ``rates @ self.overlap``, the cached E, so the rate of an
        interval that no record reaches meets only zeros.  A value that is
        not finite aborts the sweep with an error that names the record.
        """
        with np.errstate(over="ignore"):  # checked below
            out = rates @ self.overlap
        if not np.isfinite(out).all():
            bad = int(np.flatnonzero(~np.isfinite(out))[0])
            raise FloatingPointError(f"cumulative hazard at the {self.describe_record(bad)} is not finite")
        return out

    # -- sweep pieces ------------------------------------------------------

    def impute(self, state, rng):
        """Redraw censored times from their truncated conditional.

        On the record's scaled hazard scale the residual beyond the
        censoring bound is unit-exponential, so one uniform per record
        suffices.  A new time that is not finite (the residual overflows when
        the record's weight underflows) aborts the sweep with an error that
        names the record.
        """
        idx = self.cens_idx
        rates = state.rates
        if not rates[-1] > 0:
            raise UnreachableMassError(
                "zero-rate tail: censored times cannot be imputed above their bounds"
            )
        w = np.exp(self.cens_X @ state.beta) * state.z[self.cens_subj]
        u = np.maximum(rng.uniform(size=idx.size), _TINY)
        with np.errstate(over="ignore"):  # checked below
            level = rates @ self.bound_overlap - np.log1p(-u) / w
            times = inverse_cum_hazard_at(self.cuts, hazard_ladder(self.widths, rates), rates, level)
        if not np.isfinite(times).all():
            bad = int(np.flatnonzero(~np.isfinite(times))[0])
            raise FloatingPointError(f"{self.describe_record(int(idx[bad]))} is not finite")
        state.times[idx] = times
        self.overlap[:, idx] = self.spec.grid.exposures(times).T
        self.d = self.fixed_d + np.bincount(self.last_interval(times), minlength=self.m)

    def update_rates(self, state, rng, d, risk):
        # Each rate is sliced on x = log lambda_j (xi_j for the random walk),
        # with x_0 = 0 before the first: its likelihood d_j x - R_j e^x, with
        # the counts d and the exposures R, the link from the rate before and,
        # but for the last rate, the link to the rate after.  The targets do
        # plain float arithmetic on d, R and the log-rates, taken out of numpy
        # once per block, and read -inf where e^x would not be a positive,
        # finite double.
        d, risk = d.tolist(), risk.tolist()
        link = self.link
        xi = np.log(state.rates).tolist()
        for j in range(self.m):
            prev = xi[j - 1] if j > 0 else 0.0
            nxt = xi[j + 1] if j + 1 < self.m else None

            def logf(x, dj=d[j], rj=risk[j], prev=prev, nxt=nxt, link=link, exp=math.exp):
                if not _LOG_MIN <= x <= _LOG_MAX:
                    return -math.inf
                v = dj * x - rj * exp(x) + link(x - prev)
                if nxt is not None:
                    v += link(nxt - x)
                return v

            xi[j] = self.slice_update(j, logf, xi[j], rng)
        state.rates = np.exp(xi)

    def update_z(self, state, rng, a_sum):
        """z_i ~ Gamma(eta + d_i, rate eta + A_i), as standard_gamma(eta + d_i) / (eta + A_i).

        Each group of equal d_i takes one ``standard_gamma(eta + d, size)``
        call, the groups in ascending order of d; numpy's per-call overhead
        far exceeds its per-draw cost.  With one group this is the stream of
        ``Generator.gamma(eta + d, 1 / (eta + A))``.
        """
        z = np.empty(self.n_sub)
        for c, idx in self.count_groups:
            z[idx] = rng.standard_gamma(state.eta + c, idx.size)
        z *= 1.0 / (state.eta + a_sum)
        state.z = z

    def update_eta(self, state, rng, expb, cumhaz):
        """Collapsed (eta, z) block: eta from its z-marginal, then z | eta.

        A_i is subject i's sum of e^{x' beta} H over its records, from
        ``expb`` = e^{X beta} and ``cumhaz`` = H at the working times.  With
        z_i ~ Gamma(eta, eta) integrated out, subject i contributes
        eta^eta Gamma(eta + d_i) / (Gamma(eta) (eta + A_i)^(eta + d_i)); given
        the new eta, z_i ~ Gamma(eta + d_i, eta + A_i), d_i the subject's
        density records.
        """
        a_sum = np.bincount(self.subj, weights=expb * cumhaz, minlength=self.n_sub)
        counts, ladder, n = self.sub_counts, self.count_ladder, self.n_sub
        phi1, phi2 = self.h.phi1, self.h.phi2

        def logf(s):
            # log eta = s; the prior's log-scale Jacobian is included
            if s > 600.0 or s < -700.0:
                return -math.inf
            eta = math.exp(s)
            v = phi1 * s - phi2 * eta + n * eta * s
            for k, c in ladder:
                v += c * math.log(eta + k)
            return v - float((eta + counts) @ np.log(eta + a_sum))

        state.eta = math.exp(self.slice_update(-2, logf, math.log(state.eta), rng))
        self.update_z(state, rng, a_sum)

    def update_scale(self, state, rng):
        """Rescale move: (z, log lambda) -> (e^s z, log lambda - s), all at once.

        Every z_i lambda_j, and so the likelihood, is unchanged.  On s the
        target is the frailty prior with its Jacobian, eta n s - eta e^s
        sum_i z_i, plus the rate prior's change at the anchor, link(x_1 - s)
        with x_1 = log lambda_1: the move shifts every log-rate alike, so no
        other link changes.  It reads -inf wherever a frailty or a rate would
        leave the positive, finite doubles, as read from the smallest positive
        frailty, the frailties' sum and the extreme rates.  The move
        multiplies z by e^s and the rates by e^{-s}, so a frailty of 0.0 stays
        0.0.
        """
        eta, n, link = state.eta, self.n_sub, self.link
        zl = state.z.tolist()
        z_lo, z_sum = min(zl), math.fsum(zl)
        if z_lo == 0.0:
            z_lo = min((v for v in zl if v > 0.0), default=math.inf)
        log_z_sum = math.log(z_sum) if z_sum > 0.0 else -math.inf
        rl = state.rates.tolist()
        x1 = math.log(rl[0])
        s_lo = max(_LOG_MIN - math.log(z_lo), math.log(max(rl)) - _LOG_MAX)
        s_hi = min(_LOG_MAX - log_z_sum, math.log(min(rl)) - _LOG_MIN)

        def logf(s):
            if not s_lo <= s <= s_hi:
                return -math.inf
            return eta * n * s - eta * math.exp(s + log_z_sum) + link(x1 - s)

        s1 = self.slice_update(-1, logf, 0.0, rng)
        state.z = state.z * math.exp(s1)
        state.rates = state.rates * math.exp(-s1)

    def update_beta(self, state, rng, weight):
        """Centred move per covariate: (beta_k + delta, log lambda - delta xbar_k).

        Along that line the hazard moves only through x_k - xbar_k.  The
        target is in (beta, log lambda) coordinates, so it carries the rate
        prior's change at the anchor, the link of log lambda_1 (or xi_1).
        ``weight`` is each record's z e^{x' beta} H at the current state.
        The rates are then multiplied by e^{-sum_k delta_k xbar_k} at once.
        """
        var, link = self.h.beta_var, self.link
        # The move scales each weight by e^{delta (x_ik - xbar_k)}.
        beta = state.beta.tolist()
        # Every move shifts all log-rates alike; `moved` is their total shift.
        rl = state.rates.tolist()
        xi1, xi_lo, xi_hi = math.log(rl[0]), math.log(min(rl)), math.log(max(rl))
        moved = 0.0
        for k in range(self.p):
            xc, xbar = self.centred[k][:2]
            # Past `room` the hazard term could overflow: there the target is
            # far below any slice level and counts as -inf.  A shift outside
            # (shift_lo, shift_hi) would take a rate out of the positive,
            # finite doubles, where the rate targets read -inf.
            room = _LOG_MAX - math.log(max(1.0, float(weight.sum())))

            def logf(
                delta,
                col=self.centred[k],
                b=beta[k],
                xi1=xi1 + moved,
                shift_lo=_LOG_MIN - xi_lo - moved,
                shift_hi=_LOG_MAX - xi_hi - moved,
                w=weight,
                link=link,
            ):
                xc, xbar, lo, hi, sx = col
                if delta * (hi if delta > 0.0 else lo) > room:
                    return -math.inf
                shift = -delta * xbar
                if not shift_lo <= shift <= shift_hi:
                    return -math.inf
                v = delta * sx - float(w @ np.exp(delta * xc)) - (b + delta) ** 2 / (2.0 * var)
                return v + link(xi1 + shift)

            delta = self.slice_update(self.m + k, logf, 0.0, rng)
            beta[k] += delta
            moved -= delta * xbar
            weight = weight * np.exp(delta * xc)
        state.beta = np.array(beta)
        state.rates = state.rates * math.exp(moved)

    # -- full sweep and monitoring -----------------------------------------

    def sweep(self, state, rng):
        """One Gibbs sweep on the constructor's E and d, which ``impute`` keeps current."""
        if self.augmented and self.cens_idx.size:
            self.impute(state, rng)
        # No working time moves after imputation, and beta is fixed until
        # update_beta: R = E (z e^{X beta}) and H = lambda E share the
        # overlaps E, and the rescale leaves each record's weight
        # z e^{x' beta} H as it is.
        expb = np.exp(self.X @ state.beta)
        self.update_rates(state, rng, self.d, self.overlap @ (expb * state.z[self.subj]))
        cumhaz = self.cum_hazard(state.rates)
        self.update_eta(state, rng, expb, cumhaz)
        weight = state.z[self.subj] * expb * cumhaz
        self.update_scale(state, rng)
        self.update_beta(state, rng, weight)

    def monitor_values(self, state):
        return [*state.rates, *state.beta, state.eta, state.kappa]


# -- chain runner ------------------------------------------------------------


def chain_rng(seed: int, chain_id: int) -> np.random.Generator:
    """The fixed, portable generator for one chain: PCG64 on (seed, chain)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chain_id,)))


class _ChainSource:
    """A chain's generator, with scalar uniforms handed out of blocks.

    ``random()`` returns the next double of a block drawn with
    ``gen.random(_UNIFORM_BLOCK)``; ``uniform(size=)`` (imputation's vector)
    and ``standard_gamma`` (the frailty draw's unit-scale Gamma) are the
    generator's own, so the sweep's blocks take this or a plain ``Generator``.
    """

    __slots__ = ("random", "uniform", "standard_gamma")

    def __init__(self, gen: np.random.Generator):
        blocks = iter(lambda: gen.random(_UNIFORM_BLOCK).tolist(), None)
        self.random = itertools.chain.from_iterable(blocks).__next__
        self.uniform = gen.uniform
        self.standard_gamma = gen.standard_gamma


def run_chain(
    spec: ModelSpec,
    data: SurvivalDataset,
    config: McmcConfig,
    chain_id: int = 1,
    init: ParamState | None = None,
) -> ChainStore:
    """Run one chain; returns retained draws after burn-in and thinning.

    A frailty chain starts from ``init`` (by default ``initial_state``), and
    any update failure aborts it with the iteration index attached.  A simple
    chain takes its ``(d, R)`` from one ``TimeGrid.interval_totals`` call,
    with no ``(m, n)`` overlap array; its ``n_iter // thin`` draws are
    independent of each other and of ``init``, and its ``wall_time_s``
    covers them, not the ``(d, R)`` they use.
    """
    if not spec.is_frailty:
        d, risk = spec.grid.interval_totals(data.marginal_times, data.event_flags)
        return _conjugate_chain(spec, config, chain_id, d, risk)
    state = init.copy() if init is not None else initial_state(spec, data)
    rng = _ChainSource(chain_rng(config.seed, chain_id))
    kept = config.n_iter // config.thin
    start = time.perf_counter()
    ctx = _FitContext(spec, data, config.impute, state)
    buf, row = np.empty((kept, len(ctx.monitor_names))), 0
    for it in range(config.burn_in + config.n_iter):
        if it == config.burn_in:
            ctx.freeze_widths(it)
        try:
            ctx.sweep(state, rng)
            k = it - config.burn_in
            if k >= 0 and (k + 1) % config.thin == 0:
                buf[row] = ctx.monitor_values(state)
                row += 1
        except Exception as exc:
            raise ChainAbortError(f"chain {chain_id} aborted at iteration {it}: {exc}") from exc
    widths = dict(zip(ctx.slice_names, ctx.slice_widths))
    return _chain_store(spec, config, chain_id, ctx.monitor_names, buf, widths, start)


def _conjugate_chain(spec, config, chain_id, d, risk) -> ChainStore:
    """One simple-family chain of exact Gamma(a + d, b + R) draws, R being ``risk``.

    ``(d, R)`` is the fit's ``TimeGrid.interval_totals`` of the records'
    observed or censoring times and event flags, which counts censored
    records through their survival term, so no draw moves them.  The
    ``n_iter // thin`` rows come from one call on ``chain_rng(config.seed,
    chain_id)``; no burn-in or thinned-out row is drawn.
    """
    gen = chain_rng(config.seed, chain_id)
    h, m = spec.hyper, spec.grid.m
    shape, scale = h.gamma_shape + d, 1.0 / (h.gamma_rate + risk)
    start = time.perf_counter()
    rows = gen.gamma(shape, scale, size=(config.n_iter // config.thin, m))
    names = [f"lambda[{j}]" for j in range(1, m + 1)]
    return _chain_store(spec, config, chain_id, names, rows, {}, start)


def _chain_store(spec, config, chain_id, names, rows, widths, start) -> ChainStore:
    """A chain's store: the columns of ``rows`` by ``names``, and metadata timed from ``start``."""
    draws = dict(zip(names, rows.T.copy()))  # each name's draws contiguous
    meta = {
        "chain_id": chain_id,
        "seed": config.seed,
        "generator": "numpy PCG64, SeedSequence(seed, spawn_key=(chain_id,))",
        "family": spec.family,
        "grid": list(spec.grid.cut_points),
        "config": asdict(config),
        "n_recorded": config.n_iter // config.thin,
        "slice_widths": widths,
        "wall_time_s": time.perf_counter() - start,
    }
    return ChainStore(draws=draws, meta=meta)


def run_chains(
    spec: ModelSpec,
    data: SurvivalDataset,
    config: McmcConfig,
) -> list[ChainStore]:
    """Run ``config.n_chains`` independent chains (ids 1..n), in id order.

    The simple family's chains run one after another in the calling process,
    all from one ``(d, R)``, taken once per fit by ``TimeGrid.interval_totals``
    from the records' observed or censoring times and event flags; each
    chain's ``n_iter // thin`` draws are those ``run_chain`` gives for its id,
    whatever ``burn_in`` is, and its ``wall_time_s`` covers its own draws
    only, not the shared ``(d, R)``.

    A frailty fit's chains run in ``n_procs`` processes: one for a fit of one
    chain or a daemonic calling process, else ``min(n_chains, usable CPUs)``,
    where a platform without ``fork`` or ``os.sched_getaffinity`` has one
    usable CPU.  Process ``p`` runs chain ids ``p + 1, p + 1 + n_procs, ...``
    in turn; the calling process is ``p = 0``, and the other ``n_procs - 1``
    are workers forked from it, each of which sends its stores back through a
    pipe.  With one process nothing is forked.  Only a frailty fit of two or
    more chains imports ``multiprocessing``, where it may fork; a simple fit,
    and so ``pexsurv simulate`` and ``pexsurv dist``, never loads it.  Each
    chain's draws are the same wherever it runs; its ``wall_time_s`` is the
    time it took in the process that ran it.  A worker's ``ChainAbortError``
    is raised here with its message, a worker that exits without a result
    raises one naming its chains, and every worker is reaped before this
    returns or raises.
    """
    chain_ids = range(1, config.n_chains + 1)
    if not spec.is_frailty:
        d, risk = spec.grid.interval_totals(data.marginal_times, data.event_flags)
        return [_conjugate_chain(spec, config, c, d, risk) for c in chain_ids]
    n_procs, fork = 1, None
    if config.n_chains > 1:
        import multiprocessing  # here, so that only a fit that may fork loads it

        if not multiprocessing.current_process().daemon:
            n_procs = min(config.n_chains, _usable_cpus())
        if n_procs > 1:
            # Forked, not spawned: a worker starts with this process's modules
            # and fit inputs already in memory, so nothing is imported or
            # pickled on the way in.
            fork = multiprocessing.get_context("fork")
    workers = []
    try:
        for p in range(1, n_procs):
            ids = chain_ids[p::n_procs]
            recv, send = fork.Pipe(duplex=False)
            proc = fork.Process(target=_run_share, args=(send, spec, data, config, ids), daemon=True)
            proc.start()
            send.close()  # so recv() meets EOF if the worker dies without a result
            workers.append((proc, recv, ids))
        stores = [run_chain(spec, data, config, chain_id=c) for c in chain_ids[::n_procs]]
        for proc, recv, ids in workers:
            stores += _receive(proc, recv, ids)
    finally:
        for proc, recv, _ in workers:
            if proc.exitcode is None:
                proc.terminate()
            proc.join()
            recv.close()
    return sorted(stores, key=lambda store: store.meta["chain_id"])


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where fork or the affinity mask is missing."""
    import multiprocessing  # here, so that only a fit that may fork loads it

    if not hasattr(os, "sched_getaffinity") or "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return len(os.sched_getaffinity(0))


def _run_share(send, spec, data, config, chain_ids) -> None:
    """Worker body: run ``chain_ids`` in turn, then send their stores or the abort."""
    try:
        result = [run_chain(spec, data, config, chain_id=c) for c in chain_ids]
    except ChainAbortError as exc:
        result = exc
    send.send(result)
    send.close()


def _receive(proc, recv, chain_ids) -> list[ChainStore]:
    """A worker's stores, once it has sent them and exited; raises its abort."""
    try:
        result = recv.recv()
    except EOFError:
        proc.join()
        names = ", ".join(map(str, chain_ids))
        raise ChainAbortError(
            f"chain {names} aborted: its worker process exited with code {proc.exitcode}"
            " before sending a result"
        ) from None
    proc.join()
    if isinstance(result, ChainAbortError):
        raise result
    return result

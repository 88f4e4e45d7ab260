"""Seed-reproducible Gibbs sampler for the piecewise exponential models.

The public entry points are ``run_chain`` / ``run_chains`` and the scalar
slice kernel ``update_scalar_slice``.  Every block of the sweep is a method of
one private fit context, built once per chain, which holds the only
implementation of each update.

Each sweep updates, in this fixed order: imputed censored times, the rates
(conjugate Gamma draws where the prior is conjugate, slice sampling
otherwise), and, for the frailty families, three more blocks:

* (eta, z), partially collapsed: eta is sliced on the log scale with the
  frailties integrated out, then every frailty takes its exact Gamma draw
  given the new eta (van Dyk & Park 2008);
* one rescale of the frailties against the baseline rates, sliced on
  s = log c along (e^s z, log lambda - s), which leaves every z_i lambda_j
  and so the likelihood unchanged: a group move (Liu & Sabatti 2000) that
  interweaves the frailty scale with the rates (Yu & Meng 2011);
* one centred slice move per coefficient, along
  (beta_k + delta, log lambda - delta * xbar_k) with xbar_k the column mean
  of the design matrix, so the hazard changes only through x_k - xbar_k.

Chains are driven by numpy's PCG64 generator seeded from
``(config.seed, chain_id)``, so a rerun with the same seed on the same
machine and library versions gives bit-identical output; one chain owns its
generator and state exclusively.  A chain's draws therefore do not depend on
the process that runs it: ``run_chains`` runs chain 1 of a frailty fit in
the calling process and its other chains in forked worker processes, at most
one process per usable CPU.  The simple family's chains all run in the
calling process: they last milliseconds, about what forking a worker
costs.

Inputs are validated once, by the public constructors (``TimeGrid``,
``PiecewiseExponential``, ``SurvivalRecord``, ``ModelSpec``); the sweep then
evaluates H and its inverse from trusted ``(cuts, cum, rates)`` arrays with
the plain functions of :mod:`pexsurv.distribution` and builds no
distribution object.

The simple family's sufficient statistics ``(d, R)`` depend only on the
working times, so when no time is imputed (no censored record, or
``impute=False``) they are computed once per chain and reused by every sweep.

Scalar slice sampling follows the stepping-out / shrinkage scheme: the
bracket grows by its width up to 50 total expansions (an exceeded cap simply
falls back to the current bracket) and proposals shrink toward the current
point until one lands inside the slice.  Positive parameters are updated on
the log scale with the Jacobian included.  Each slice coordinate (a log-rate
or xi_j, log eta, the frailty rescale's log c, a coefficient's shift) has
its own width: 1.0 during burn-in, then frozen at ``_WIDTH_PER_JUMP`` times
the coordinate's mean burn-in jump |x1 - x0|, so the retained draws come
from one fixed kernel (Neal 2003, section 4.4).  The kernel reads its
uniforms from blocks of ``_UNIFORM_BLOCK`` doubles drawn from the chain's
generator.

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
import multiprocessing
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import SurvivalDataset
from .distribution import (
    UnreachableMassError,
    cum_hazard_at,
    hazard_ladder,
    inverse_cum_hazard_at,
)
from .models import (
    FAMILY_GAMMA_CHAIN,
    FAMILY_SIMPLE,
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


# Largest x with a finite e^x, and smallest with a positive one.
_LOG_MAX = math.log(np.finfo(float).max)
_LOG_MIN = math.log(np.nextafter(0.0, 1.0))

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

    The four layout fields and ``seed`` are Python or numpy integers, stored
    as ``int``; a value out of range is rejected with a message naming its
    field.  ``n_iter`` counts post-burn-in iterations; ``n_iter // thin``
    draws are retained, so ``thin`` may not exceed ``n_iter``; ``seed`` is
    non-negative.  The samplers are fixed per block: the simple family's
    rates take their exact conjugate Gamma draw, whose ``(d, R)`` are
    computed once per chain when no time is imputed; the frailty families
    draw (eta, z) as one collapsed block, then rescale every frailty against
    the rates (z -> c z, lambda -> lambda / c) and move each coefficient
    along its centred covariate; each slice coordinate steps out with width
    1.0 during burn-in and, after it, with a width tuned from its burn-in
    jumps (recorded as ``slice_widths`` in the chain metadata, the rescale's
    as ``frailty_scale``), by at most 50 expansions.
    ``impute`` is a Python or numpy bool, stored as ``bool``; ``False``
    switches censored records to their analytic log-survival contribution
    instead of data augmentation.  Where the chains run is not configured:
    ``run_chains`` decides it from the family and the usable CPUs, and the
    draws are the same wherever a chain runs.
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
            if not isinstance(value, (int, np.integer)):
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
        """One column per monitored scalar, one row per retained iteration."""
        names = list(self.draws)
        cols = [self.draws[n] for n in names]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(names)
            for i in range(self.n_draws):
                writer.writerow([repr(float(c[i])) for c in cols])

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
    """Precomputed data views shared by every sweep of one fit, and its blocks.

    ``augmented`` is the likelihood mode (``McmcConfig.impute``).  Grid, data
    and specification were validated by their constructors, so the sweep
    evaluates H and H^-1 from trusted arrays: the grid's ``cuts`` and
    ``widths``, taken once here, and the ladder of the current rates.
    """

    def __init__(self, spec: ModelSpec, data: SurvivalDataset, augmented: bool):
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
        # the rates reads it; the simple family's rates do not.
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
        self.events = data.event_flags
        self.cens_idx = np.flatnonzero(~self.events)
        self.marg_times = data.marginal_times
        # Density indicator per record: with augmentation every working time
        # is scored as an event; otherwise only true events are.
        dens = np.ones(data.n_records) if augmented else self.events.astype(float)
        self.sub_counts = np.bincount(self.subj, weights=dens, minlength=self.n_sub)
        # The collapsed eta target sums lgamma(eta + d_i) - lgamma(eta) as
        # sum_k c_k log(eta + k), with c_k = #{i : d_i > k}.
        counts = self.sub_counts.astype(int)
        self.count_ladder = [
            (float(k), float(np.count_nonzero(counts > k))) for k in range(counts.max(initial=0))
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
        # The simple family's (d, R) depend only on the working times, which
        # move only when censored times are imputed; otherwise the first
        # rate update computes them and every later sweep reuses them.
        self.fixed_stats = spec.family == FAMILY_SIMPLE and not (augmented and self.cens_idx.size)
        self.stats = None
        self.monitor_names = [f"lambda[{j}]" for j in range(1, self.m + 1)]
        if spec.is_frailty:
            self.monitor_names += [f"beta_{n}" for n in data.covariate_names]
            self.monitor_names += ["eta", "kappa"]
        # Slice coordinates, named after their parameter: the rates (log
        # lambda_j or xi_j), each coefficient's shift delta, log eta, then
        # the frailty rescale's log c.  Their jumps are summed on every sweep
        # and read once, when run_chain freezes the widths after burn-in.
        self.slice_names = self.monitor_names[:-1] + ["frailty_scale"] if spec.is_frailty else []
        self.slice_widths = [1.0] * len(self.slice_names)
        self.jump_sums = [0.0] * len(self.slice_names)

    def freeze_widths(self, sweeps):
        """Set each slice width from its mean jump over ``sweeps`` burn-in sweeps.

        A width stays as it is when there was no burn-in sweep or its mean
        jump is zero or not finite.
        """
        for i, total in enumerate(self.jump_sums):
            width = _WIDTH_PER_JUMP * total / sweeps if sweeps else 0.0
            if 0.0 < width < math.inf:
                self.slice_widths[i] = width

    def working_times(self, state):
        return state.times if self.augmented else self.marg_times

    def describe_record(self, i):
        """Which record ``i`` is, and which time of it the sweep works with."""
        r = self.data.records[i]
        where = f"record {i} (subject {r.subject_id}, replicate {r.replicate_id}"
        if r.event:
            return f"time of {where}, event at {r.time:g})"
        if self.augmented:
            return f"imputed time of censored {where}, censored at {r.censor_time:g})"
        return f"censoring time of {where}, censored at {r.censor_time:g})"

    def cum_hazard(self, state):
        """Baseline cumulative hazard of every record at its working time.

        A value that is not finite (a huge imputed time under a large rate)
        aborts the sweep with an error that names the record.  Ladder entries
        may overflow to inf (a huge rate in an interval no record reaches);
        only a record that reads one aborts.
        """
        rates = state.rates
        with np.errstate(over="ignore"):  # checked below
            cum = hazard_ladder(self.widths, rates)
            out = cum_hazard_at(self.cuts, cum, rates, self.working_times(state))
        bad = np.flatnonzero(~np.isfinite(out))
        if bad.size:
            raise FloatingPointError(
                f"cumulative hazard at the {self.describe_record(int(bad[0]))} is not finite"
            )
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
        if self.spec.is_frailty:
            w = np.exp(self.X[idx] @ state.beta) * state.z[self.subj[idx]]
        else:
            w = np.ones(idx.size)
        u = np.maximum(rng.random(idx.size), np.nextafter(0.0, 1.0))
        bounds = self.marg_times[idx]
        with np.errstate(over="ignore"):  # checked below
            cum = hazard_ladder(self.widths, rates)
            level = cum_hazard_at(self.cuts, cum, rates, bounds) - np.log1p(-u) / w
            times = inverse_cum_hazard_at(self.cuts, cum, rates, level)
        bad = np.flatnonzero(~np.isfinite(times))
        if bad.size:
            raise FloatingPointError(f"{self.describe_record(int(idx[bad[0]]))} is not finite")
        state.times[idx] = times

    def update_rates(self, state, rng):
        h = self.h
        st = self.stats
        if st is None:
            st = sufficient_stats(state, self.spec, self.data, augmented=self.augmented)
            if self.fixed_stats:
                self.stats = st
        d, risk = st.d, st.exposure
        if self.spec.family == FAMILY_SIMPLE:
            state.rates = rng.gamma(h.gamma_shape + d, 1.0 / (h.gamma_rate + risk))
            return

        # Each rate is sliced on x = log lambda_j (xi_j for the random walk),
        # with x_0 = 0 before the first: its likelihood d_j x - R_j e^x, the
        # link from the rate before and, but for the last rate, the link to
        # the rate after.  The targets do plain float arithmetic on d, R and
        # the log-rates, taken out of numpy once per block, and read -inf
        # where e^x would not be a positive, finite double.
        d, risk = d.tolist(), risk.tolist()
        widths, jumps = self.slice_widths, self.jump_sums
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

            x1 = update_scalar_slice(logf, xi[j], rng, width=widths[j])
            jumps[j] += abs(x1 - xi[j])
            xi[j] = x1
        state.rates = np.exp(xi)

    def update_z(self, state, rng, a_sum):
        state.z = rng.gamma(state.eta + self.sub_counts, 1.0 / (state.eta + a_sum))

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

        s0 = math.log(state.eta)
        s1 = update_scalar_slice(logf, s0, rng, width=self.slice_widths[-2])
        self.jump_sums[-2] += abs(s1 - s0)
        state.eta = math.exp(s1)
        self.update_z(state, rng, a_sum)

    def update_scale(self, state, rng):
        """Rescale move: (z, log lambda) -> (e^s z, log lambda - s), all at once.

        Every z_i lambda_j, and so the likelihood, is unchanged.  On s the
        target is the frailty prior with its Jacobian, eta n s - eta e^s
        sum_i z_i, plus the rate prior's change at the anchor, link(x_1 - s)
        with x_1 = log lambda_1: the move shifts every log-rate alike, so no
        other link changes.  It reads -inf wherever a frailty or a rate would
        leave the positive, finite doubles; a frailty of 0.0 stays 0.0.
        """
        eta, n, link = state.eta, self.n_sub, self.link
        with np.errstate(divide="ignore"):  # log 0.0 = -inf, and e^{-inf + s} = 0.0
            logz = np.log(state.z)
        lz = logz.tolist()
        lz_lo, lz_hi = min(lz), max(lz)
        if lz_lo == -math.inf:
            lz_lo = min((v for v in lz if v > -math.inf), default=math.inf)
        z_sum = math.fsum(state.z.tolist())
        log_z_sum = math.log(z_sum) if z_sum > 0.0 else -math.inf
        xi = np.log(state.rates)
        xl = xi.tolist()
        x1 = xl[0]
        s_lo = max(_LOG_MIN - lz_lo, max(xl) - _LOG_MAX)
        s_hi = min(_LOG_MAX - lz_hi, min(xl) - _LOG_MIN)

        def logf(s):
            if not s_lo <= s <= s_hi or s + log_z_sum > _LOG_MAX:
                return -math.inf
            return eta * n * s - eta * math.exp(s + log_z_sum) + link(x1 - s)

        s1 = update_scalar_slice(logf, 0.0, rng, width=self.slice_widths[-1])
        self.jump_sums[-1] += abs(s1)
        state.z = np.exp(logz + s1)
        state.rates = np.exp(xi - s1)

    def update_beta(self, state, rng, weight):
        """Centred move per covariate: (beta_k + delta, log lambda - delta xbar_k).

        Along that line the hazard moves only through x_k - xbar_k.  The
        target is in (beta, log lambda) coordinates, so it carries the rate
        prior's change at the anchor, the link of log lambda_1 (or xi_1).
        ``weight`` is each record's z e^{x' beta} H at the current state.
        """
        if not self.p:
            return
        var, link = self.h.beta_var, self.link
        widths, jumps = self.slice_widths, self.jump_sums
        # The move scales each weight by e^{delta (x_ik - xbar_k)}.
        beta = state.beta.tolist()
        # Every move shifts all log-rates alike; `moved` is their total shift.
        xi = np.log(state.rates)
        xi1, xi_lo, xi_hi = float(xi[0]), float(xi.min()), float(xi.max())
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

            delta = update_scalar_slice(logf, 0.0, rng, width=widths[self.m + k])
            jumps[self.m + k] += abs(delta)
            beta[k] += delta
            moved -= delta * xbar
            weight = weight * np.exp(delta * xc)
        state.beta = np.array(beta)
        state.rates = np.exp(xi + moved)

    # -- full sweep and monitoring -----------------------------------------

    def sweep(self, state, rng):
        if self.augmented and self.cens_idx.size:
            self.impute(state, rng)
        self.update_rates(state, rng)
        if self.spec.is_frailty:
            # beta and the rates are fixed until update_scale; the rescale
            # leaves each record's weight z e^{x' beta} H as it is.
            expb = np.exp(self.X @ state.beta)
            cumhaz = self.cum_hazard(state)
            self.update_eta(state, rng, expb, cumhaz)
            weight = state.z[self.subj] * expb * cumhaz
            self.update_scale(state, rng)
            self.update_beta(state, rng, weight)

    def monitor_values(self, state):
        vals = list(state.rates)
        if self.spec.is_frailty:
            vals += list(state.beta)
            vals += [state.eta, state.kappa]
        return vals


# -- chain runner ------------------------------------------------------------


def chain_rng(seed: int, chain_id: int) -> np.random.Generator:
    """The fixed, portable generator for one chain: PCG64 on (seed, chain)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chain_id,)))


class _ChainSource:
    """A chain's generator, with scalar uniforms handed out of blocks.

    ``random()`` returns the next double of a block drawn with
    ``gen.random(_UNIFORM_BLOCK)``; ``random(size)`` and ``gamma`` draw from
    the generator itself.  The sweep's blocks take this or a plain
    ``Generator``.
    """

    __slots__ = ("gen", "gamma", "_next")

    def __init__(self, gen: np.random.Generator):
        self.gen = gen
        self.gamma = gen.gamma
        blocks = iter(lambda: gen.random(_UNIFORM_BLOCK).tolist(), None)
        self._next = itertools.chain.from_iterable(blocks).__next__

    def random(self, size=None):
        return self._next() if size is None else self.gen.random(size)


def run_chain(
    spec: ModelSpec,
    data: SurvivalDataset,
    config: McmcConfig,
    chain_id: int = 1,
    init: ParamState | None = None,
) -> ChainStore:
    """Run one chain; returns retained draws after burn-in and thinning.

    Any update failure aborts the chain with the iteration index attached.
    """
    ctx = _FitContext(spec, data, config.impute)
    rng = _ChainSource(chain_rng(config.seed, chain_id))
    state = init.copy() if init is not None else initial_state(spec, data)
    kept = config.n_iter // config.thin
    buf = np.empty((kept, len(ctx.monitor_names)))
    row = 0
    start = time.perf_counter()
    for it in range(config.burn_in + config.n_iter):
        if it == config.burn_in:
            ctx.freeze_widths(it)
        try:
            ctx.sweep(state, rng)
            k = it - config.burn_in
            if k >= 0 and (k + 1) % config.thin == 0 and row < kept:
                buf[row] = ctx.monitor_values(state)
                row += 1
        except Exception as exc:
            raise ChainAbortError(f"chain {chain_id} aborted at iteration {it}: {exc}") from exc
    wall = time.perf_counter() - start
    draws = {name: buf[:, i].copy() for i, name in enumerate(ctx.monitor_names)}
    meta = {
        "chain_id": chain_id,
        "seed": config.seed,
        "generator": "numpy PCG64, SeedSequence(seed, spawn_key=(chain_id,))",
        "family": spec.family,
        "grid": list(spec.grid.cut_points),
        "config": asdict(config),
        "n_recorded": kept,
        "slice_widths": dict(zip(ctx.slice_names, ctx.slice_widths)),
        "wall_time_s": wall,
    }
    return ChainStore(draws=draws, meta=meta)


def run_chains(
    spec: ModelSpec,
    data: SurvivalDataset,
    config: McmcConfig,
) -> list[ChainStore]:
    """Run ``config.n_chains`` independent chains (ids 1..n), in id order.

    A frailty fit with several chains runs them in ``min(n_chains, usable
    CPUs)`` processes: chain 1 in the calling process, the others shared out
    among workers forked from it, each of which sends its stores back through
    a pipe.  The simple family, one chain, one usable CPU, a platform without
    ``fork`` or ``os.sched_getaffinity``, and a daemonic calling process run
    every chain in the calling process, one after another.  Each chain's
    draws are the same either way; its ``wall_time_s`` is the time it took in
    the process that ran it.  A worker's ``ChainAbortError`` is raised here
    with its message, a worker that exits without a result raises one naming
    its chains, and every worker is reaped before this returns or raises.
    """
    others = list(range(2, config.n_chains + 1))
    n_workers = min(len(others), _usable_cpus() - 1)
    if not spec.is_frailty or n_workers < 1 or multiprocessing.current_process().daemon:
        return [run_chain(spec, data, config, chain_id=c) for c in range(1, config.n_chains + 1)]
    # Forked, not spawned: a worker starts with this process's modules and
    # fit inputs already in memory, so nothing is imported or pickled on the
    # way in.
    fork = multiprocessing.get_context("fork")
    workers = []
    try:
        for w in range(n_workers):
            ids = others[w::n_workers]
            recv, send = fork.Pipe(duplex=False)
            proc = fork.Process(target=_run_share, args=(send, spec, data, config, ids), daemon=True)
            proc.start()
            send.close()  # so recv() meets EOF if the worker dies without a result
            workers.append((proc, recv, ids))
        stores = [run_chain(spec, data, config, chain_id=1)]
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

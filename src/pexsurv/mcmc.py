"""Seed-reproducible Gibbs sampler for the piecewise exponential models.

Each sweep updates, in this fixed order: imputed censored times, the rates
(conjugate Gamma draws where the prior is conjugate, slice sampling
otherwise), the frailties (conjugate), eta (slice, log scale) and the
regression coefficients (slice).  Chains are driven by numpy's PCG64
generator seeded from ``(config.seed, chain_id)``, so identical inputs give
bit-identical output on every platform; one chain owns its generator and
state exclusively.

The simple family's sufficient statistics ``(d, R)`` depend only on the
working times, so when no time is imputed (no censored record, or
``impute=False``) they are computed once per chain and reused by every sweep.

Scalar slice sampling follows the stepping-out / shrinkage scheme: the
bracket grows by a fixed width of 1.0 up to 50 total expansions (an exceeded
cap simply falls back to the current bracket) and proposals shrink toward
the current point until one lands inside the slice.  Positive parameters are
updated on the log scale with the Jacobian included.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import SurvivalDataset
from .distribution import PiecewiseExponential, UnreachableMassError
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
    "update_rates_conjugate",
    "update_frailties",
    "impute_censored",
    "run_chain",
    "run_chains",
]


class InvariantViolationError(RuntimeError):
    """The sampler was handed a state it cannot recover from."""


class ChainAbortError(RuntimeError):
    """An update failed; the message carries the iteration index."""


@dataclass(frozen=True)
class McmcConfig:
    """Chain layout, seeding and likelihood mode.

    ``n_iter`` counts post-burn-in iterations; ``n_iter // thin`` draws are
    retained, so ``thin`` may not exceed ``n_iter``; ``seed`` is a
    non-negative integer.  The samplers are fixed per block: the simple
    family's rates take their exact conjugate Gamma draw, whose ``(d, R)`` are
    computed once per chain when no time is imputed, and every slice update
    uses width 1.0 and at most 50 expansions.
    ``impute=False`` switches censored records to their analytic
    log-survival contribution instead of data augmentation.
    """

    n_chains: int = 2
    burn_in: int = 1000
    n_iter: int = 2000
    thin: int = 1
    seed: int = 0
    impute: bool = True

    def __post_init__(self):
        if self.n_chains < 1 or self.n_iter < 1 or self.thin < 1 or self.burn_in < 0:
            raise ValueError("chain layout values out of range")
        if self.thin > self.n_iter:
            raise ValueError(
                f"thin ({self.thin}) exceeds n_iter ({self.n_iter}); no draw would be retained"
            )
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))  # JSON-safe in chain metadata


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


def update_scalar_slice(log_density, x0, rng, width=1.0, max_steps=50):
    """One stepping-out + shrinkage slice transition for a scalar target.

    Requires a finite log density at the current point; the target is left
    invariant by the transition.
    """
    x0 = float(x0)
    fx0 = log_density(x0)
    if not np.isfinite(fx0):
        raise InvariantViolationError(
            f"slice target is not finite at the current point x={x0!r}"
        )
    u = rng.uniform()
    logy = fx0 + math.log(u) if u > 0.0 else -math.inf

    left = x0 - width * rng.uniform()
    right = left + width
    grow_left = int(math.floor(max_steps * rng.uniform()))
    grow_right = max_steps - 1 - grow_left
    while grow_left > 0 and log_density(left) > logy:
        left -= width
        grow_left -= 1
    while grow_right > 0 and log_density(right) > logy:
        right += width
        grow_right -= 1

    for _ in range(10_000):
        x1 = left + (right - left) * rng.uniform()
        if log_density(x1) > logy:
            return x1
        if x1 < x0:
            left = x1
        else:
            right = x1
    raise InvariantViolationError("slice shrinkage failed to terminate")


class _FitContext:
    """Precomputed data views shared by every sweep of one fit.

    ``augmented`` is the likelihood mode (``McmcConfig.impute``).
    """

    def __init__(self, spec: ModelSpec, data: SurvivalDataset, augmented: bool):
        self.spec = spec
        self.data = data
        self.augmented = augmented
        self.grid = spec.grid
        self.m = spec.grid.m
        self.h = spec.hyper
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
        self.dens_x = dens @ self.X if self.p else np.zeros(0)
        # The simple family's (d, R) depend only on the working times, which
        # move only when censored times are imputed; otherwise the first
        # rate update computes them and every later sweep reuses them.
        self.fixed_stats = spec.family == FAMILY_SIMPLE and not (augmented and self.cens_idx.size)
        self.stats = None
        self.monitor_names = [f"lambda[{j}]" for j in range(1, self.m + 1)]
        if spec.is_frailty:
            self.monitor_names += [f"beta_{n}" for n in data.covariate_names]
            self.monitor_names += ["eta", "kappa"]

    def working_times(self, state):
        return state.times if self.augmented else self.marg_times

    def cum_hazard(self, state):
        """Baseline cumulative hazard of every record at its working time."""
        pe = PiecewiseExponential(self.grid, state.rates)
        return pe.cum_hazard(self.working_times(state))

    # -- sweep pieces ------------------------------------------------------

    def impute(self, state, rng):
        """Redraw censored times from their truncated conditional.

        On the record's scaled hazard scale the residual beyond the
        censoring bound is unit-exponential, so one uniform per record
        suffices and nothing saturates however large H(t_cen) gets.
        """
        idx = self.cens_idx
        pe = PiecewiseExponential(self.grid, state.rates)
        if not state.rates[-1] > 0:
            raise UnreachableMassError(
                "zero-rate tail: censored times cannot be imputed above their bounds"
            )
        if self.spec.is_frailty:
            w = np.exp(self.X[idx] @ state.beta) * state.z[self.subj[idx]]
        else:
            w = np.ones(idx.size)
        u = np.maximum(rng.uniform(size=idx.size), np.nextafter(0.0, 1.0))
        state.times[idx] = pe.inverse_cum_hazard(
            pe.cum_hazard(self.marg_times[idx]) - np.log1p(-u) / w
        )

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

        if self.spec.family == FAMILY_GAMMA_CHAIN:
            a = h.alpha
            for j in range(self.m):
                lam_prev = state.rates[j - 1] if j > 0 else 1.0
                lam_next = state.rates[j + 1] if j + 1 < self.m else None
                dj, rj = d[j], risk[j]
                own_rate = rj + a / lam_prev

                def logf(s, dj=dj, own=own_rate, nxt=lam_next, a=a):
                    # likelihood + own prior + Jacobian: (d_j + alpha) s - own e^s;
                    # child prior adds -alpha s - alpha lam_next e^{-s}.
                    v = (dj + a) * s - own * math.exp(s)
                    if nxt is not None:
                        v += -a * s - a * nxt * math.exp(-s)
                    return v

                state.rates[j] = math.exp(update_scalar_slice(logf, math.log(state.rates[j]), rng))
            return

        # log-normal random walk: slice each xi_j on its natural scale
        nu = h.nu
        xi = np.log(state.rates)
        for j in range(self.m):
            prev = xi[j - 1] if j > 0 else 0.0
            nxt = xi[j + 1] if j + 1 < self.m else None
            dj, rj = d[j], risk[j]

            def logf(x, dj=dj, rj=rj, prev=prev, nxt=nxt, nu=nu):
                v = dj * x - rj * math.exp(x) - (x - prev) ** 2 / (2.0 * nu)
                if nxt is not None:
                    v -= (nxt - x) ** 2 / (2.0 * nu)
                return v

            xi[j] = update_scalar_slice(logf, xi[j], rng)
        state.rates = np.exp(xi)

    def update_z(self, state, rng, cumhaz):
        expb = np.exp(self.X @ state.beta)
        a_sum = np.bincount(self.subj, weights=expb * cumhaz, minlength=self.n_sub)
        state.z = rng.gamma(state.eta + self.sub_counts, 1.0 / (state.eta + a_sum))

    def update_eta(self, state, rng):
        n = state.z.size
        sum_z = float(np.sum(state.z))
        sum_log_z = float(np.sum(np.log(state.z)))
        phi1, phi2 = self.h.phi1, self.h.phi2

        def logf(s):
            # includes the log-scale Jacobian: (phi1 - 1) log eta + log eta
            if s > 600.0 or s < -700.0:
                return -math.inf
            eta = math.exp(s)
            return (
                phi1 * s
                - phi2 * eta
                + n * (eta * s - math.lgamma(eta))
                + (eta - 1.0) * sum_log_z
                - eta * sum_z
            )

        state.eta = math.exp(update_scalar_slice(logf, math.log(state.eta), rng))

    def update_beta(self, state, rng, cumhaz):
        z_haz = state.z[self.subj] * cumhaz
        var = self.h.beta_var
        for k in range(self.p):
            beta = state.beta

            def logf(b, k=k):
                vec = beta.copy()
                vec[k] = b
                lin = self.X @ vec
                return float(self.dens_x @ vec - np.dot(z_haz, np.exp(lin))) - 0.5 * b * b / var

            state.beta[k] = update_scalar_slice(logf, state.beta[k], rng)

    # -- full sweep and monitoring -----------------------------------------

    def sweep(self, state, rng):
        if self.augmented and self.cens_idx.size:
            self.impute(state, rng)
        self.update_rates(state, rng)
        if self.spec.is_frailty:
            cumhaz = self.cum_hazard(state)
            self.update_z(state, rng, cumhaz)
            self.update_eta(state, rng)
            self.update_beta(state, rng, cumhaz)

    def monitor_values(self, state):
        vals = list(state.rates)
        if self.spec.is_frailty:
            vals += list(state.beta)
            vals += [state.eta, state.kappa]
        return vals


# -- public update operations (one sweep block each) --------------------------


def update_rates_conjugate(state, spec, data, rng, augmented=True):
    """Exact Gamma draw of every rate for the simple family.

    The full conditional is Gamma(a + d_j, b + R_j); with no data this is
    simply the prior.
    """
    if spec.family != FAMILY_SIMPLE:
        raise ValueError("conjugate rate updates apply to the simple family only")
    _FitContext(spec, data, augmented).update_rates(state, rng)


def update_frailties(state, spec, data, rng, augmented=True):
    """Conjugate Gamma draw of each subject's frailty.

    z_i ~ Gamma(eta + events_i, eta + sum_k A_ik) with A_ik the record's
    covariate-scaled cumulative baseline hazard at its working time.
    """
    if not spec.is_frailty:
        raise ValueError("frailty updates apply to frailty families only")
    ctx = _FitContext(spec, data, augmented)
    ctx.update_z(state, rng, ctx.cum_hazard(state))


def impute_censored(state, spec, data, rng):
    """Redraw every censored record's time above its censoring bound."""
    ctx = _FitContext(spec, data, augmented=True)
    if ctx.cens_idx.size:
        ctx.impute(state, rng)


# -- chain runner ------------------------------------------------------------


def chain_rng(seed: int, chain_id: int) -> np.random.Generator:
    """The fixed, portable generator for one chain: PCG64 on (seed, chain)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chain_id,)))


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
    rng = chain_rng(config.seed, chain_id)
    state = init.copy() if init is not None else initial_state(spec, data)
    kept = config.n_iter // config.thin
    buf = np.empty((kept, len(ctx.monitor_names)))
    row = 0
    start = time.perf_counter()
    for it in range(config.burn_in + config.n_iter):
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
        "wall_time_s": wall,
    }
    return ChainStore(draws=draws, meta=meta)


def run_chains(
    spec: ModelSpec,
    data: SurvivalDataset,
    config: McmcConfig,
    inits=None,
) -> list[ChainStore]:
    """Run ``config.n_chains`` independent chains (ids 1..n)."""
    if inits is not None and len(inits) != config.n_chains:
        raise ValueError("need one init per chain")
    out = []
    for c in range(1, config.n_chains + 1):
        init = inits[c - 1] if inits is not None else None
        out.append(run_chain(spec, data, config, chain_id=c, init=init))
    return out

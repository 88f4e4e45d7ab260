"""Bayesian survival models with a piecewise exponential baseline hazard.

Three model families share the conditional hazard

    h(t | x, z) = lambda_j * exp(x' beta) * z,   t in I_j,

where ``z`` is a per-subject multiplicative frailty (identically 1 in the
simple family, which also drops the regression part):

* ``simple`` -- independent Gamma(a, b) priors on every rate;
* ``frailty_gamma_chain`` -- rates correlated across adjacent intervals,
  (lambda_j | lambda_{j-1}) ~ Gamma(alpha, alpha / lambda_{j-1}) anchored at
  lambda_0 = 1, plus frailties z_i ~ Gamma(eta, eta), eta ~ Gamma(phi1, phi2)
  and independent normal priors on the regression coefficients;
* ``frailty_lognormal_rw`` -- same frailty/regression structure, but the
  log-rates follow a Gaussian random walk, (xi_j | xi_{j-1}) ~ N(xi_{j-1}, nu)
  anchored at xi_0 = 0.

Likelihood bookkeeping uses the algebraic regrouping of the log-likelihood
into per-interval counts and weighted time at risk, under which the rates
factorize as lambda_j^{d_j} * exp(-lambda_j * R_j).  Two likelihood modes are
exposed everywhere: ``augmented`` treats the current (possibly imputed) time
of every record as an event time, matching the data-augmentation scheme used
inside the sampler; marginal mode scores censored records by their
log-survival at the censoring time.  ``sufficient_stats`` and
``joint_log_density`` default to augmented mode, ``log_likelihood`` to
marginal mode.
"""

from __future__ import annotations

import math
from copy import deepcopy
from dataclasses import dataclass, field, fields

import numpy as np

from .data import SurvivalDataset
from .distribution import PiecewiseExponential, TimeGrid

__all__ = [
    "FAMILY_SIMPLE",
    "FAMILY_GAMMA_CHAIN",
    "FAMILY_LOGNORMAL_RW",
    "FAMILIES",
    "HyperParams",
    "ModelSpec",
    "ParamState",
    "SufficientStats",
    "default_grid",
    "initial_state",
    "record_weights",
    "sufficient_stats",
    "log_likelihood",
    "log_prior",
    "joint_log_density",
    "zeros_trick_loglik",
]

FAMILY_SIMPLE = "simple"
FAMILY_GAMMA_CHAIN = "frailty_gamma_chain"
FAMILY_LOGNORMAL_RW = "frailty_lognormal_rw"
FAMILIES = (FAMILY_SIMPLE, FAMILY_GAMMA_CHAIN, FAMILY_LOGNORMAL_RW)


def default_grid(max_time: float, m: int) -> TimeGrid:
    """Equally spaced grid a_j = max_time * (j - 1) / m for j = 1..m."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if not 0 < max_time < math.inf:  # NaN fails too
        raise ValueError("max_time must be finite and positive")
    return TimeGrid(tuple(max_time * j / m for j in range(m)))


@dataclass(frozen=True)
class HyperParams:
    """Hyperparameters for all families; unused entries are simply ignored.

    Defaults are the vague settings used throughout: Gamma(0.01, 0.01) rate
    priors, chain shape alpha = 0.01, random-walk variance nu = 1e4,
    eta ~ Gamma(1e-3, 1e-3) and coefficient prior variance 1e3.
    """

    gamma_shape: float = 0.01
    gamma_rate: float = 0.01
    alpha: float = 0.01
    nu: float = 1.0e4
    phi1: float = 1.0e-3
    phi2: float = 1.0e-3
    beta_var: float = 1.0e3

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"hyperparameter {f.name} must be finite and strictly positive")


@dataclass(frozen=True)
class ModelSpec:
    """Which family to fit, on which grid, with which hyperparameters."""

    family: str
    grid: TimeGrid
    hyper: HyperParams = field(default_factory=HyperParams)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose one of {FAMILIES}")

    @property
    def is_frailty(self) -> bool:
        return self.family != FAMILY_SIMPLE


@dataclass
class ParamState:
    """Current parameter values for one chain.

    ``times`` holds the working time of every record: observed event times
    stay fixed, censored entries carry the latest imputed value;
    ``run_chain`` takes them from ``initial_state``, never from a caller's
    start.  ``z`` and ``beta`` are kept (as ones/zeros) even for the simple
    family so state shapes never depend on the family.
    """

    rates: np.ndarray
    beta: np.ndarray
    z: np.ndarray
    eta: float
    times: np.ndarray

    @property
    def kappa(self) -> float:
        """Frailty variance, 1 / eta."""
        return 1.0 / self.eta

    def copy(self) -> "ParamState":
        return deepcopy(self)


@dataclass(frozen=True)
class SufficientStats:
    """Per-interval counts ``d`` and weighted time at risk ``exposure``, the
    latter summed from ``overlap``, the working times' ``grid.exposures(times).T``."""

    d: np.ndarray
    exposure: np.ndarray
    overlap: np.ndarray


def initial_state(spec: ModelSpec, data: SurvivalDataset) -> ParamState:
    """Deterministic starting point: unit rates and frailties, zero betas.

    Censored times start at the median of the record's truncated residual
    distribution under this initial parameter value.
    """
    m = spec.grid.m
    rates = np.ones(m)
    beta = np.zeros(len(data.covariate_names))
    z = np.ones(max(data.n_subjects, 1))
    times = data.marginal_times.copy()
    cens = np.flatnonzero(~data.event_flags)
    if cens.size:
        # truncated median: S(t) = S(t_cen) / 2, i.e. H(t) = H(t_cen) + ln 2
        pe = PiecewiseExponential(spec.grid, rates)
        times[cens] = pe.inverse_cum_hazard(pe.cum_hazard(times[cens]) + math.log(2.0))
    return ParamState(rates=rates, beta=beta, z=z, eta=1.0, times=times)


def record_weights(state: ParamState, spec: ModelSpec, data: SurvivalDataset) -> np.ndarray:
    """Multiplier exp(x' beta) * z per record; ones for the simple family."""
    if not spec.is_frailty:
        return np.ones(data.n_records)
    return np.exp(data.design_matrix @ state.beta) * state.z[data.subject_positions]


def _working_times(state, data, augmented):
    return state.times if augmented else data.marginal_times


def sufficient_stats(
    state: ParamState, spec: ModelSpec, data: SurvivalDataset, augmented: bool = True
) -> SufficientStats:
    """Counts and weighted exposures under which the rates factorize.

    In augmented mode every record's working time counts as an event; in
    marginal mode only true events count while censored records still
    accumulate exposure up to their censoring time.  A counted record's
    interval is ``TimeGrid.interval_index`` of its working time.  The simple
    family's sampler does not call this: its unit-weight marginal ``(d, R)``
    comes from ``TimeGrid.interval_totals``, without the overlap array.
    """
    times = _working_times(state, data, augmented)
    overlap = spec.grid.exposures(times).T  # (m, n)
    counted = times if augmented else times[data.event_flags]
    d = np.bincount(spec.grid.interval_index(counted) - 1, minlength=spec.grid.m).astype(float)
    return SufficientStats(d, overlap @ record_weights(state, spec, data), overlap)


def _check_positive_state(state, spec):
    if spec.is_frailty and not np.all(state.rates > 0):
        raise ValueError("frailty families require strictly positive rates")
    if not (np.all(state.z > 0) and state.eta > 0):
        raise ValueError("frailties and eta must be strictly positive")


def log_likelihood(
    state: ParamState, spec: ModelSpec, data: SurvivalDataset, augmented: bool = False
) -> float:
    """Direct log-likelihood from per-record density / survival terms.

    This is the reference path: each record is scored through the piecewise
    exponential functions with subject-specific rates, without any
    sufficient-statistic shortcuts.
    """
    _check_positive_state(state, spec)
    times = _working_times(state, data, augmented)
    w = record_weights(state, spec, data)
    pe = PiecewiseExponential(spec.grid, state.rates)
    with np.errstate(divide="ignore"):
        log_haz = np.log(pe.hazard(times) * w)
    dens = np.ones(data.n_records, dtype=bool) if augmented else data.event_flags
    return float(np.sum(log_haz[dens]) - np.sum(w * pe.cum_hazard(times)))


def _gamma_log_density(x, shape, rate):
    """Gamma(shape, rate) log density summed over ``x``; ``rate`` is a scalar or one per ``x``."""
    x = np.asarray(x)
    terms = (shape - 1.0) * np.log(x) - rate * x + shape * np.log(rate)
    return float(terms.sum()) - x.size * math.lgamma(shape)


def _normal_log_density(x, mean, var):
    """N(mean, var) log density summed over the array ``x``."""
    return -0.5 * float(((x - mean) ** 2 / var + math.log(2.0 * math.pi * var)).sum())


def log_prior(state: ParamState, spec: ModelSpec) -> float:
    """Log prior density of the state under the family's prior.

    For the log-normal random-walk family the rate block is the density of
    the log-rates (the natural coordinates of that prior); the remaining
    blocks are shared across frailty families.
    """
    _check_positive_state(state, spec)
    h, lam = spec.hyper, state.rates
    if spec.family == FAMILY_SIMPLE:
        if not np.all(lam > 0):
            raise ValueError("rate prior is defined on strictly positive rates")
        return _gamma_log_density(lam, h.gamma_shape, h.gamma_rate)
    if spec.family == FAMILY_GAMMA_CHAIN:
        lp = _gamma_log_density(lam, h.alpha, h.alpha / np.concatenate(([1.0], lam[:-1])))
    else:
        xi = np.log(lam)
        lp = _normal_log_density(xi, np.concatenate(([0.0], xi[:-1])), h.nu)
    return (
        lp
        + _gamma_log_density(state.z, state.eta, state.eta)
        + _gamma_log_density(state.eta, h.phi1, h.phi2)
        + _normal_log_density(state.beta, 0.0, h.beta_var)
    )


def joint_log_density(
    state: ParamState, spec: ModelSpec, data: SurvivalDataset, augmented: bool = True
) -> float:
    """Log-likelihood plus log-prior; augmented mode matches the sampler."""
    return log_likelihood(state, spec, data, augmented=augmented) + log_prior(state, spec)


def zeros_trick_loglik(state: ParamState, spec: ModelSpec, data: SurvivalDataset) -> float:
    """Indirect log-likelihood through per-interval Poisson contributions.

    Each record contributes sum_j [d_j * log(mu_j) - mu_j] with
    mu_j = overlap((0, t], I_j) * lambda_j * exp(x' beta) * z and d_j the
    indicator of the event interval (all zero for censored records, whose
    contribution collapses to the exact log-survival -H(t)).  The arbitrary
    positive offset that keeps Poisson means positive in indirect-likelihood
    encodings is omitted here: it cancels in every comparison this oracle is
    used for.  The difference to :func:`log_likelihood` depends only on the
    data and the grid, never on the parameters.
    """
    _check_positive_state(state, spec)
    times = data.marginal_times
    w = record_weights(state, spec, data)
    mu = spec.grid.exposures(times) * (w[:, None] * state.rates[None, :])
    ev = np.flatnonzero(data.event_flags)
    j_ev = spec.grid.interval_index(times[ev]) - 1
    return float(np.sum(np.log(mu[ev, j_ev])) - mu.sum())

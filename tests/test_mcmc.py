import ast
import contextlib
import inspect
import itertools
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special, stats

from pexsurv import mcmc
from pexsurv.data import SurvivalDataset, SurvivalRecord, load_kidney
from pexsurv.distribution import PiecewiseExponential, TimeGrid
from pexsurv.diagnostics import effective_sample_size
from pexsurv.mcmc import (
    ChainAbortError,
    ChainStore,
    InvariantViolationError,
    McmcConfig,
    chain_rng,
    run_chain,
    run_chains,
    update_scalar_slice,
)
from pexsurv.models import (
    FAMILY_GAMMA_CHAIN,
    FAMILY_LOGNORMAL_RW,
    FAMILY_SIMPLE,
    HyperParams,
    ModelSpec,
    ParamState,
    initial_state,
    joint_log_density,
    sufficient_stats,
)

GRID4 = TimeGrid((0.0, 2.0, 3.0, 5.0))
S1 = (0.3, 0.6, 0.8, 1.3)
KIDNEY_GRID = TimeGrid(tuple(562.0 * j / 10 for j in range(10)))


def _uncensored_dataset(rates, n, seed):
    pe = PiecewiseExponential(GRID4, rates)
    times = pe.sample(n, rng=np.random.default_rng(seed))
    return SurvivalDataset(
        [SurvivalRecord(i + 1, 1, float(t), 1) for i, t in enumerate(times)]
    )


def _partially_censored_dataset(rates, n, seed, frac=0.3):
    rng = np.random.default_rng(seed)
    pe = PiecewiseExponential(GRID4, rates)
    times = pe.sample(n, rng=rng)
    recs = []
    for i, t in enumerate(times):
        if rng.random() < frac:
            recs.append(SurvivalRecord(i + 1, 1, None, 0, float(t * rng.uniform(0.2, 0.9))))
        else:
            recs.append(SurvivalRecord(i + 1, 1, float(t), 1))
    return SurvivalDataset(recs)


# -- scalar slice sampler -------------------------------------------------------


def test_slice_standard_normal_moments():
    rng = np.random.default_rng(101)
    x = 0.0
    draws = np.empty(100_000)
    for i in range(draws.size):
        x = update_scalar_slice(lambda v: -0.5 * v * v, x, rng)
        draws[i] = x
    assert abs(draws.mean()) < 0.02
    assert draws.var() == pytest.approx(1.0, rel=0.03)


def test_slice_gamma_on_log_scale():
    # Gamma(3, rate 2) updated through s = log(x); Jacobian folded into the target
    rng = np.random.default_rng(102)
    s = 0.0
    draws = np.empty(100_000)
    for i in range(draws.size):
        s = update_scalar_slice(lambda v: 3.0 * v - 2.0 * np.exp(v), s, rng)
        draws[i] = np.exp(s)
    assert draws.mean() == pytest.approx(1.5, rel=0.03)
    assert draws.var() == pytest.approx(0.75, rel=0.03)


def test_slice_flat_target_stays_inside_support():
    rng = np.random.default_rng(103)

    def logf(v):
        return 0.0 if 0.0 <= v <= 1.0 else -np.inf

    x = 0.5
    for _ in range(2000):
        x = update_scalar_slice(logf, x, rng)
        assert 0.0 <= x <= 1.0


def test_slice_rejects_non_finite_start():
    rng = np.random.default_rng(104)
    with pytest.raises(InvariantViolationError):
        update_scalar_slice(lambda v: -np.inf, 0.0, rng)


def test_slice_shrinkage_that_never_accepts_stops_at_its_cap():
    # finite only at the current point, so every proposal is rejected
    points = []

    def logf(v):
        points.append(v)
        return 0.0 if len(points) == 1 else -np.inf

    with pytest.raises(InvariantViolationError, match="slice shrinkage failed to terminate"):
        update_scalar_slice(logf, 0.0, np.random.default_rng(105))
    assert len(points) >= 1 + 10_000


def test_slice_histogram_mass_preserved():
    # bimodal target: long-run bin masses match the target within MC error
    log_w = (np.log(0.6), np.log(0.4) - np.log(0.5))

    def logf(x):
        a = log_w[0] - 0.5 * x * x
        b = log_w[1] - 2.0 * (x - 4.0) ** 2
        return max(a, b) + np.log1p(np.exp(-abs(a - b)))

    rng = np.random.default_rng(303)
    x = 0.0
    n = 200_000
    draws = np.empty(n)
    for i in range(n):
        x = update_scalar_slice(logf, x, rng)
        draws[i] = x
    edges = np.linspace(-4, 7, 23)
    emp = np.histogram(draws, edges)[0] / n
    true = 0.6 * np.diff(stats.norm.cdf(edges, 0, 1)) + 0.4 * np.diff(stats.norm.cdf(edges, 4, 0.5))
    tv = 0.5 * np.abs(emp - true).sum() + 0.5 * (1.0 - true.sum())
    assert tv < 0.02


# -- conjugate updates ----------------------------------------------------------


def test_conjugate_rates_with_no_data_draw_from_prior():
    spec = ModelSpec(FAMILY_SIMPLE, TimeGrid((0.0,)))
    cfg = McmcConfig(n_chains=1, burn_in=0, n_iter=50_000, seed=17)
    draws = run_chain(spec, SurvivalDataset([]), cfg).draws["lambda[1]"]
    res = stats.kstest(draws, "gamma", args=(0.01, 0, 1 / 0.01))
    assert res.pvalue > 0.001


def _grid_moments(xs, log_vals):
    log_vals = log_vals - log_vals.max()
    w = np.exp(log_vals)
    z = integrate.simpson(w, x=xs)
    m1 = integrate.simpson(w * xs, x=xs) / z
    m2 = integrate.simpson(w * xs * xs, x=xs) / z
    return m1, m2 - m1 * m1


def test_conjugate_rate_full_conditional_matches_numeric():
    # Gamma(a + d_j, b + R_j) is the rate's conditional in either mode; in
    # marginal mode, the simple chain's, a censored record adds exposure up
    # to its censoring time and no event.
    rng = np.random.default_rng(55)
    spec = ModelSpec(FAMILY_SIMPLE, GRID4)
    rates = (0.4, 0.7, 0.9, 1.2)
    cases = [
        (_uncensored_dataset(rates, 80, 2), True),
        (_partially_censored_dataset(rates, 80, 2), False),
    ]
    for data, augmented in cases:
        state = initial_state(spec, data)
        state.rates = rng.gamma(2.0, 0.5, 4)
        st = sufficient_stats(state, spec, data, augmented=augmented)
        j = 1
        shape, rate = 0.01 + st.d[j], 0.01 + st.exposure[j]
        xs = np.linspace(
            stats.gamma.ppf(1e-12, shape, scale=1 / rate),
            stats.gamma.ppf(1 - 1e-12, shape, scale=1 / rate),
            4001,
        )
        probe = state.copy()
        vals = np.empty(xs.size)
        for i, v in enumerate(xs):
            probe.rates[j] = v
            vals[i] = joint_log_density(probe, spec, data, augmented=augmented)
        mean, var = _grid_moments(xs, vals)
        assert mean == pytest.approx(shape / rate, rel=1e-4)
        assert var == pytest.approx(shape / rate**2, rel=1e-4)


def _captured_targets(monkeypatch):
    """Slice targets handed to the kernel, which then leaves every point as is."""
    targets = []

    def capture(log_density, x0, rng, **_):
        targets.append(log_density)
        return float(x0)

    monkeypatch.setattr(mcmc, "update_scalar_slice", capture)
    return targets


def _stats(ctx, state):
    """The sufficient statistics that the sweep hands its blocks at the state."""
    return sufficient_stats(state, ctx.spec, ctx.data, augmented=ctx.augmented)


def _record_weights(ctx, state):
    """Each record's z e^{x' beta} H at the state, as the sweep hands them on."""
    cumhaz = ctx.cum_hazard(state.rates)
    return state.z[ctx.subj] * np.exp(ctx.X @ state.beta) * cumhaz


def _kidney_state(spec, rng):
    kidney = load_kidney()
    state = initial_state(spec, kidney)
    state.rates = rng.gamma(2.0, 0.01, spec.grid.m)
    state.beta = np.array([-1.2, 0.01])
    state.z = rng.gamma(4.0, 0.25, 38)
    state.eta = 2.5
    return kidney, state


@pytest.mark.parametrize("impute", [True, False], ids=["imputing", "analytic"])
@pytest.mark.parametrize("family", [FAMILY_GAMMA_CHAIN, FAMILY_LOGNORMAL_RW])
def test_beta_block_reads_weights_of_the_frailties_drawn_in_its_sweep(monkeypatch, family, impute):
    # The weights handed to update_beta are z e^{x' beta} H at the state it
    # moves: the frailties update_eta drew in the same sweep, after the
    # rescale, which leaves each z H as it is.  H is recomputed here by the
    # validated distribution, not from the sweep's interval overlaps.
    kidney = load_kidney()
    seen = []
    real = mcmc._FitContext.update_beta

    def spying(self, state, rng, weight):
        seen.append((state.copy(), weight.copy()))
        return real(self, state, rng, weight)

    monkeypatch.setattr(mcmc._FitContext, "update_beta", spying)
    cfg = McmcConfig(n_chains=1, burn_in=0, n_iter=20, seed=13, impute=impute)
    run_chain(ModelSpec(family, KIDNEY_GRID), kidney, cfg)
    assert len(seen) == 20
    for state, weight in seen:
        times = state.times if impute else kidney.marginal_times
        cumhaz = PiecewiseExponential(KIDNEY_GRID, state.rates).cum_hazard(times)
        expb = np.exp(kidney.design_matrix @ state.beta)
        want = state.z[kidney.subject_positions] * expb * cumhaz
        np.testing.assert_allclose(weight, want, rtol=1e-9)


def test_frailty_full_conditional_matches_numeric():
    spec = ModelSpec(FAMILY_GAMMA_CHAIN, KIDNEY_GRID)
    kidney, state = _kidney_state(spec, np.random.default_rng(66))
    pe = PiecewiseExponential(spec.grid, state.rates)
    exposure = np.exp(kidney.design_matrix @ state.beta) * pe.cum_hazard(state.times)
    i = 7
    a_i = exposure[kidney.subject_positions == i].sum()
    shape, rate = state.eta + 2.0, state.eta + a_i
    xs = np.linspace(
        stats.gamma.ppf(1e-12, shape, scale=1 / rate),
        stats.gamma.ppf(1 - 1e-12, shape, scale=1 / rate),
        4001,
    )
    probe = state.copy()
    vals = np.empty(xs.size)
    for n_, v in enumerate(xs):
        probe.z[i] = v
        vals[n_] = joint_log_density(probe, spec, kidney, augmented=True)
    mean, var = _grid_moments(xs, vals)
    assert mean == pytest.approx(shape / rate, rel=1e-4)
    assert var == pytest.approx(shape / rate**2, rel=1e-4)


def test_frailty_update_prior_limit():
    # no events and negligible exposure: the conditional collapses to Ga(eta, eta)
    recs = [SurvivalRecord(i + 1, 1, None, 0, 1e-9) for i in range(3000)]
    data = SurvivalDataset(recs)
    spec = ModelSpec(FAMILY_GAMMA_CHAIN, TimeGrid((0.0,)))
    state = initial_state(spec, data)
    state.rates = np.array([1e-9])
    state.eta = 2.0
    ctx = mcmc._FitContext(spec, data, augmented=False, state=state)
    cumhaz = ctx.cum_hazard(state.rates)
    exposure = np.exp(data.design_matrix @ state.beta) * cumhaz
    ctx.update_z(state, np.random.default_rng(19), np.bincount(data.subject_positions, exposure))
    res = stats.kstest(state.z, "gamma", args=(2.0, 0, 0.5))
    assert res.pvalue > 0.001


@pytest.mark.parametrize("family", [FAMILY_GAMMA_CHAIN, FAMILY_LOGNORMAL_RW])
def test_frailty_draw_is_numpys_two_array_gamma_draw(family):
    # update_z draws standard_gamma(k) * theta; numpy's gamma(k, theta) is the
    # same product element by element, so the two streams agree bit for bit.
    kidney = load_kidney()
    spec = ModelSpec(family, KIDNEY_GRID)
    state = initial_state(spec, kidney)
    ctx = mcmc._FitContext(spec, kidney, augmented=True, state=state)
    a_sum = np.random.default_rng(3).uniform(1e-3, 50.0, ctx.n_sub)
    for seed, eta in ((0, 0.01), (24, 1.7), (2**40, 300.0)):
        state.eta = eta
        ctx.update_z(state, np.random.default_rng(seed), a_sum)
        expected = np.random.default_rng(seed).gamma(eta + ctx.sub_counts, 1.0 / (eta + a_sum))
        assert state.z.tobytes() == expected.tobytes()


@pytest.mark.parametrize("family", [FAMILY_GAMMA_CHAIN, FAMILY_LOGNORMAL_RW])
def test_frailty_draw_takes_one_gamma_call_per_count_group(family):
    # Scoring only events, kidney's subjects have 0, 1 or 2 density records;
    # each group, in ascending order of its count, is one scalar-shape draw.
    kidney = load_kidney()
    spec = ModelSpec(family, KIDNEY_GRID)
    state = initial_state(spec, kidney)
    ctx = mcmc._FitContext(spec, kidney, augmented=False, state=state)
    a_sum = np.random.default_rng(4).uniform(1e-3, 50.0, ctx.n_sub)
    groups = [np.flatnonzero(ctx.sub_counts == c) for c in (0.0, 1.0, 2.0)]
    assert all(g.size for g in groups) and sum(g.size for g in groups) == ctx.n_sub
    for seed, eta in ((0, 0.01), (25, 1.7), (2**40, 300.0)):
        state.eta = eta
        ctx.update_z(state, np.random.default_rng(seed), a_sum)
        rng = np.random.default_rng(seed)
        for c, idx in zip((0.0, 1.0, 2.0), groups):
            expected = rng.standard_gamma(eta + c, idx.size) * (1.0 / (eta + a_sum))[idx]
            assert state.z[idx].tobytes() == expected.tobytes(), (seed, c)


def test_frailty_fixed_at_one_reproduces_simple_path():
    data = _uncensored_dataset(S1, 60, 3)
    frail = ModelSpec(FAMILY_GAMMA_CHAIN, GRID4)
    simple = ModelSpec(FAMILY_SIMPLE, GRID4)
    sf = initial_state(frail, data)
    ss_ = initial_state(simple, data)
    sf.rates = ss_.rates = np.array([0.2, 0.5, 0.8, 1.1])
    a = sufficient_stats(sf, frail, data)
    b = sufficient_stats(ss_, simple, data)
    np.testing.assert_array_equal(a.d, b.d)
    np.testing.assert_allclose(a.exposure, b.exposure, rtol=1e-15)


@pytest.mark.parametrize("augmented", [True, False], ids=["augmented", "marginal"])
def test_collapsed_eta_target_is_the_z_marginal(monkeypatch, augmented):
    # log p(eta) + sum_i log int Gamma(z_i; eta, eta) z_i^d_i e^{-z_i A_i} dz_i,
    # on s = log eta with its Jacobian, up to a constant in eta.
    spec = ModelSpec(FAMILY_GAMMA_CHAIN, KIDNEY_GRID)
    kidney, state = _kidney_state(spec, np.random.default_rng(67))
    targets = _captured_targets(monkeypatch)
    ctx = mcmc._FitContext(spec, kidney, augmented, state)
    expb = np.exp(kidney.design_matrix @ state.beta)
    cumhaz = ctx.cum_hazard(state.rates)
    ctx.update_eta(state, np.random.default_rng(0), expb, cumhaz)
    (logf,) = targets

    times = state.times if augmented else kidney.marginal_times
    dens = np.ones(kidney.n_records) if augmented else kidney.event_flags
    d = np.bincount(kidney.subject_positions, weights=dens)
    w = np.exp(kidney.design_matrix @ state.beta)
    cumhaz = PiecewiseExponential(KIDNEY_GRID, state.rates).cum_hazard(times)
    a = np.bincount(kidney.subject_positions, weights=w * cumhaz)
    assert set(d) == ({2.0} if augmented else {0.0, 1.0, 2.0})
    h = spec.hyper

    def marginal(eta):
        per_subject = (
            eta * np.log(eta) - special.gammaln(eta) + special.gammaln(eta + d)
            - (eta + d) * np.log(eta + a)
        )
        return stats.gamma.logpdf(eta, h.phi1, scale=1 / h.phi2) + np.log(eta) + per_subject.sum()

    # one subject's integral, by quadrature, against its closed form
    i = int(np.argmax(d))
    for eta in (0.7, 3.0):
        def integrand(z):
            return np.exp(stats.gamma.logpdf(z, eta, scale=1 / eta) + d[i] * np.log(z) - z * a[i])

        closed = (
            eta * np.log(eta) - special.gammaln(eta) + special.gammaln(eta + d[i])
            - (eta + d[i]) * np.log(eta + a[i])
        )
        assert np.log(integrate.quad(integrand, 0, np.inf)[0]) == pytest.approx(closed, abs=1e-7)

    s = np.linspace(np.log(0.05), np.log(40.0), 25)
    got = np.array([logf(v) for v in s])
    want = np.array([marginal(np.exp(v)) for v in s])
    assert np.ptp(want) > 10.0
    assert np.ptp(got - want) < 1e-9


@pytest.mark.parametrize("log_eta", [599.99, -699.99], ids=["below-600", "above-minus-700"])
def test_eta_slice_next_to_its_range_guard_draws_a_finite_eta(monkeypatch, log_eta):
    # log eta starts 0.01 inside [-700, 600]; stepping out crosses the bound,
    # where the target reads -inf instead of overflowing
    spec = ModelSpec(FAMILY_GAMMA_CHAIN, KIDNEY_GRID)
    kidney, state = _kidney_state(spec, np.random.default_rng(68))
    state.eta = math.exp(log_eta)
    ctx = mcmc._FitContext(spec, kidney, augmented=False, state=state)
    expb = np.exp(kidney.design_matrix @ state.beta)
    cumhaz = ctx.cum_hazard(state.rates)
    seen = []
    real = mcmc.update_scalar_slice

    def traced(logf, x0, rng, **kw):
        def target(s):
            seen.append((s, logf(s)))
            return seen[-1][1]

        return real(target, x0, rng, **kw)

    monkeypatch.setattr(mcmc, "update_scalar_slice", traced)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ctx.update_eta(state, np.random.default_rng(1), expb, cumhaz)
    assert any(v == -math.inf for s, v in seen if not -700.0 <= s <= 600.0)
    assert 0.0 < state.eta < math.inf and np.isfinite(state.z).all()


@pytest.mark.parametrize("augmented", [True, False], ids=["augmented", "marginal"])
@pytest.mark.parametrize("family", [FAMILY_GAMMA_CHAIN, FAMILY_LOGNORMAL_RW])
def test_frailty_rate_target_is_the_joint_along_its_log_rate(monkeypatch, family, augmented):
    # Rate j's target differs from the joint density with x_j = log lambda_j
    # (xi_j) moved by a constant; for the gamma chain the joint is on lambda,
    # so it gains the Jacobian x_j.  Strong rate priors make the links from
    # the rate before and to the rate after visible; the last rate has none
    # after it.
    spec = ModelSpec(family, KIDNEY_GRID, HyperParams(alpha=3.0, nu=0.5))
    kidney, state = _kidney_state(spec, np.random.default_rng(73))
    targets = _captured_targets(monkeypatch)
    ctx = mcmc._FitContext(spec, kidney, augmented, state)
    st = _stats(ctx, state)
    ctx.update_rates(state, np.random.default_rng(0), st.d, st.exposure)
    assert len(targets) == spec.grid.m
    for j in (0, 4, 9):
        x0 = np.log(state.rates[j])
        got, want = [], []
        for x in np.linspace(x0 - 1.5, x0 + 1.5, 21):
            moved = state.copy()
            moved.rates[j] = np.exp(x)
            jacobian = x if family == FAMILY_GAMMA_CHAIN else 0.0
            got.append(targets[j](x))
            want.append(joint_log_density(moved, spec, kidney, augmented=augmented) + jacobian)
        diff = np.array(got) - np.array(want)
        assert np.ptp(want) > 1.0
        assert np.ptp(diff) < 1e-8, (j, np.ptp(diff))


@pytest.mark.parametrize("augmented", [True, False], ids=["augmented", "marginal"])
@pytest.mark.parametrize("family", [FAMILY_GAMMA_CHAIN, FAMILY_LOGNORMAL_RW])
def test_centred_beta_target_is_the_joint_along_the_shift(monkeypatch, family, augmented):
    # (beta_k + delta, log lambda - delta xbar_k): the target differs from the
    # joint density of the shifted state in (beta, log lambda) coordinates by
    # a constant.  Strong rate priors make their term along the shift visible.
    spec = ModelSpec(family, KIDNEY_GRID, HyperParams(alpha=3.0, nu=0.5))
    kidney, state = _kidney_state(spec, np.random.default_rng(68))
    targets = _captured_targets(monkeypatch)
    ctx = mcmc._FitContext(spec, kidney, augmented, state)
    ctx.update_beta(state, np.random.default_rng(0), _record_weights(ctx, state))
    xbar = kidney.design_matrix.mean(axis=0)
    assert len(targets) == 2 and xbar[1] > 40.0  # age is far off centre

    for k, (logf, span) in enumerate(zip(targets, (0.5, 0.02))):
        deltas = np.linspace(-span, span, 21)
        got, want = [], []
        for delta in deltas:
            shifted = state.copy()
            shifted.beta[k] += delta
            shifted.rates = state.rates * np.exp(-delta * xbar[k])
            jacobian = np.sum(np.log(shifted.rates)) if family == FAMILY_GAMMA_CHAIN else 0.0
            got.append(logf(delta))
            want.append(joint_log_density(shifted, spec, kidney, augmented=augmented) + jacobian)
        diff = np.array(got) - np.array(want)
        assert np.ptp(want) > 1.0
        assert np.ptp(diff) < 1e-8, (k, np.ptp(diff))


@pytest.mark.parametrize("augmented", [True, False], ids=["augmented", "marginal"])
@pytest.mark.parametrize("family", [FAMILY_GAMMA_CHAIN, FAMILY_LOGNORMAL_RW])
def test_frailty_rescale_target_is_the_joint_along_the_orbit(monkeypatch, family, augmented):
    # (e^s z, log lambda - s): the target differs from the joint density of
    # the moved state in (z, log lambda) coordinates, whose Jacobian is
    # e^{n s}, by a constant.  A strong rate prior makes its term visible.
    spec = ModelSpec(family, KIDNEY_GRID, HyperParams(alpha=3.0, nu=0.5))
    kidney, state = _kidney_state(spec, np.random.default_rng(70))
    targets = _captured_targets(monkeypatch)
    mcmc._FitContext(spec, kidney, augmented, state).update_scale(state, np.random.default_rng(0))
    (logf,) = targets
    got, want = [], []
    for s in np.linspace(-0.8, 0.8, 21):
        moved = state.copy()
        moved.z = state.z * np.exp(s)
        moved.rates = state.rates * np.exp(-s)
        jacobian = 38 * s + (np.sum(np.log(moved.rates)) if family == FAMILY_GAMMA_CHAIN else 0.0)
        got.append(logf(s))
        want.append(joint_log_density(moved, spec, kidney, augmented=augmented) + jacobian)
    diff = np.array(got) - np.array(want)
    assert np.ptp(want) > 1.0
    assert np.ptp(diff) < 1e-8, np.ptp(diff)


@pytest.mark.parametrize("family", [FAMILY_GAMMA_CHAIN, FAMILY_LOGNORMAL_RW])
def test_frailty_rescale_keeps_every_frailty_times_rate(family):
    spec = ModelSpec(family, KIDNEY_GRID)
    kidney, state = _kidney_state(spec, np.random.default_rng(71))
    ctx = mcmc._FitContext(spec, kidney, augmented=True, state=state)
    rng = np.random.default_rng(5)
    for _ in range(20):
        before = np.outer(state.z, state.rates)
        z0 = state.z.copy()
        ctx.update_scale(state, rng)
        scale = state.z / z0
        assert not np.allclose(scale, 1.0)  # the move moved
        np.testing.assert_allclose(scale, scale[0], rtol=1e-13)
        np.testing.assert_allclose(np.outer(state.z, state.rates), before, rtol=1e-13)
    assert ctx.jump_sums[-1] > 0.0


@pytest.mark.parametrize("family", [FAMILY_GAMMA_CHAIN, FAMILY_LOGNORMAL_RW])
def test_frailty_underflowed_to_zero_passes_the_rescale(family):
    # A frailty that underflowed to 0.0 (as under a huge H) has log -inf; the
    # move must neither warn (RuntimeWarnings are errors here) nor abort.
    spec = ModelSpec(family, KIDNEY_GRID)
    kidney, state = _kidney_state(spec, np.random.default_rng(72))
    state.z[3] = 0.0
    state.z[5] = 3e-309  # subnormal
    ctx = mcmc._FitContext(spec, kidney, True, state)
    rng = mcmc._ChainSource(np.random.default_rng(6))
    for _ in range(50):
        ctx.update_scale(state, rng)
    assert state.z[3] == 0.0
    assert np.all(state.z[np.arange(38) != 3] > 0.0) and np.all(np.isfinite(state.z))
    assert np.all(state.rates > 0.0) and np.all(np.isfinite(state.rates))
    ctx.sweep(state, rng)


@pytest.mark.parametrize("family", [FAMILY_GAMMA_CHAIN, FAMILY_LOGNORMAL_RW])
def test_covariate_of_scale_1e3_moves_without_overflow(family):
    # Stepping out along age in thousands reaches hazards past the float range;
    # the target must read -inf there, with no RuntimeWarning (an error here).
    kidney = load_kidney()
    data = SurvivalDataset(
        [replace(r, covariates=(r.covariates[0], 1e3 * r.covariates[1])) for r in kidney.records],
        kidney.covariate_names,
    )
    cfg = McmcConfig(n_chains=1, burn_in=100, n_iter=300, seed=3)
    age = run_chain(ModelSpec(family, KIDNEY_GRID), data, cfg).draws["beta_age"]
    assert np.unique(age).size == age.size


def test_gamma_chain_rates_of_intervals_without_records_stay_positive():
    # No record reaches (4, 100) or beyond, so with alpha = 0.01 those
    # log-rates drift far below -745, where e^x underflows to 0 and the next
    # sweep's log(0) would abort the chain ("math domain error"); this run
    # gets there without the targets' guard.
    times = np.linspace(0.1, 3.9, 40)
    data = SurvivalDataset(
        [SurvivalRecord(i + 1, 1, float(t), 1, covariates=(float(i % 3),)) for i, t in enumerate(times)],
        ("x",),
    )
    cfg = McmcConfig(n_chains=1, burn_in=500, n_iter=3000, seed=4)
    store = run_chain(ModelSpec(FAMILY_GAMMA_CHAIN, TimeGrid((0.0, 2.0, 4.0, 100.0))), data, cfg)
    tail = np.concatenate([store.draws["lambda[3]"], store.draws["lambda[4]"]])
    assert np.all(tail > 0.0) and np.all(np.isfinite(tail))


def test_diffuse_random_walk_rates_of_intervals_without_records_do_not_abort():
    # Under nu = 1e6 the rate of (4, 100) wanders up to ~e^709, where the
    # hazard ladder's width * rate overflows; no record reads that entry, so
    # the overflow must not abort the chain (RuntimeWarnings are errors here).
    times = np.linspace(0.1, 3.9, 40)
    data = SurvivalDataset([SurvivalRecord(i + 1, 1, float(t), 1) for i, t in enumerate(times)])
    spec = ModelSpec(FAMILY_LOGNORMAL_RW, TimeGrid((0.0, 2.0, 4.0, 100.0)), HyperParams(nu=1e6))
    store = run_chain(spec, data, McmcConfig(n_chains=1, burn_in=500, n_iter=3000, seed=1))
    draws = np.concatenate(list(store.draws.values()))
    assert np.all(draws > 0.0) and np.all(np.isfinite(draws))


@pytest.mark.parametrize("family", [FAMILY_GAMMA_CHAIN, FAMILY_LOGNORMAL_RW])
def test_targets_read_minus_inf_where_a_rate_would_leave_the_doubles(monkeypatch, family):
    # The last two rates are subnormal, as after a long drift with no data.
    spec = ModelSpec(family, KIDNEY_GRID)
    kidney, state = _kidney_state(spec, np.random.default_rng(69))
    state.rates[-2:] = (1e-315, 1e-320)
    targets = _captured_targets(monkeypatch)
    ctx = mcmc._FitContext(spec, kidney, augmented=True, state=state)
    st = _stats(ctx, state)
    ctx.update_rates(state, np.random.default_rng(0), st.d, st.exposure)
    ctx.update_beta(state, np.random.default_rng(0), _record_weights(ctx, state))
    *rate_targets, _, age = targets
    # finite at the current point, even where 1 / lambda_{j-1} overflows;
    # -inf where e^x underflows to 0 or overflows
    for logf, x in zip(rate_targets, np.log(state.rates)):
        assert np.isfinite(logf(x))
        assert logf(-746.0) == logf(710.0) == -np.inf
    # The coefficient move shifts every log-rate by -delta * xbar; past
    # log(5e-324) - log(1e-320) = -7.6 the last rate would underflow.
    xbar = kidney.design_matrix[:, 1].mean()
    assert np.isfinite(age(7.5 / xbar))
    assert age(7.7 / xbar) == -np.inf


def test_slice_widths_are_one_in_burn_in_then_frozen_and_recorded(monkeypatch):
    widths = []
    kernel = mcmc.update_scalar_slice

    def recording(log_density, x0, rng, width):
        widths.append(width)
        return kernel(log_density, x0, rng, width=width)

    monkeypatch.setattr(mcmc, "update_scalar_slice", recording)
    spec = ModelSpec(FAMILY_GAMMA_CHAIN, KIDNEY_GRID)
    store = run_chain(spec, load_kidney(), McmcConfig(n_chains=1, burn_in=40, n_iter=60, seed=2))
    # per sweep: ten rates, eta, the frailty rescale, then the two coefficients
    per_sweep = np.array(widths).reshape(100, 14)
    assert np.all(per_sweep[:40] == 1.0)
    assert np.all(per_sweep[40:] == per_sweep[40])
    assert np.unique(per_sweep[40]).size == 14
    names = [f"lambda[{j}]" for j in range(1, 11)]
    names += ["eta", "frailty_scale", "beta_sex", "beta_age"]
    assert store.meta["slice_widths"] == dict(zip(names, per_sweep[40].tolist()))

    no_burn_in = McmcConfig(n_chains=1, burn_in=0, n_iter=5, seed=2)
    assert set(run_chain(spec, load_kidney(), no_burn_in).meta["slice_widths"].values()) == {1.0}
    simple = ModelSpec(FAMILY_SIMPLE, KIDNEY_GRID)
    assert run_chain(simple, load_kidney(), no_burn_in).meta["slice_widths"] == {}


def test_only_slice_update_calls_the_slice_kernel():
    # One rule freezes every coordinate's width: no block or later move may
    # call the kernel, or alias it, with a width of its own.
    tree = ast.parse(inspect.getsource(mcmc))

    def uses(node):
        return [n for n in ast.walk(node) if isinstance(n, ast.Name) and n.id == "update_scalar_slice"]

    (ctx,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_FitContext"]
    (method,) = [n for n in ctx.body if isinstance(n, ast.FunctionDef) and n.name == "slice_update"]
    (use,) = uses(tree)
    assert use in uses(method)
    (call,) = [n for n in ast.walk(method) if isinstance(n, ast.Call) and n.func is use]
    assert [kw.arg for kw in call.keywords] == ["width"]


def test_coefficient_moves_cost_the_same_on_any_covariate_scale(monkeypatch):
    # With one fixed width of 1.0, age in thousands (where delta's posterior
    # sd is ~1e-5) costs ~14.5 target evaluations per coefficient update
    # against ~7.7 in years; a width tuned during burn-in follows the scale.
    kidney = load_kidney()
    thousands = SurvivalDataset(
        [replace(r, covariates=(r.covariates[0], 1e3 * r.covariates[1])) for r in kidney.records],
        kidney.covariate_names,
    )
    evals = []
    kernel = mcmc.update_scalar_slice

    def counting(log_density, x0, rng, **kwargs):
        if "update_beta" not in log_density.__qualname__:
            return kernel(log_density, x0, rng, **kwargs)
        count = [0]

        def counted(x):
            count[0] += 1
            return log_density(x)

        x1 = kernel(counted, x0, rng, **kwargs)
        evals.append(count[0])
        return x1

    monkeypatch.setattr(mcmc, "update_scalar_slice", counting)
    cfg = McmcConfig(n_chains=1, burn_in=300, n_iter=900, seed=3)
    cost = {}
    for label, data in (("years", kidney), ("thousands", thousands)):
        evals.clear()
        run_chain(ModelSpec(FAMILY_GAMMA_CHAIN, KIDNEY_GRID), data, cfg)
        cost[label] = np.mean(evals[2 * cfg.burn_in:])  # two coefficients per sweep
    assert cost["thousands"] == pytest.approx(cost["years"], rel=0.1)


# -- imputation -------------------------------------------------------------------
# Only the frailty families impute.  With no covariate and every z at 1, as
# initial_state leaves them, each record's imputation weight is 1.


def test_imputed_values_exceed_censor_times():
    data = _partially_censored_dataset(S1, 200, 4)
    spec = ModelSpec(FAMILY_GAMMA_CHAIN, GRID4)
    state = initial_state(spec, data)
    mcmc._FitContext(spec, data, True, state).impute(state, np.random.default_rng(1))
    cens = ~data.event_flags
    assert np.all(state.times[cens] > data.marginal_times[cens])
    assert np.all(state.times[~cens] == data.marginal_times[~cens])


def test_imputation_memoryless_under_constant_rates():
    c = 0.7
    recs = [SurvivalRecord(i + 1, 1, None, 0, 1.5) for i in range(4000)]
    data = SurvivalDataset(recs)
    spec = ModelSpec(FAMILY_GAMMA_CHAIN, GRID4)
    state = initial_state(spec, data)
    state.rates = np.full(4, c)
    mcmc._FitContext(spec, data, True, state).impute(state, np.random.default_rng(3))
    res = stats.kstest(state.times - 1.5, "expon", args=(0, 1 / c))
    assert res.pvalue > 0.001


def test_imputation_beyond_last_cut_is_finite():
    data = SurvivalDataset([SurvivalRecord(1, 1, None, 0, 50.0)])
    spec = ModelSpec(FAMILY_GAMMA_CHAIN, GRID4)
    state = initial_state(spec, data)
    mcmc._FitContext(spec, data, True, state).impute(state, np.random.default_rng(23))
    assert np.isfinite(state.times[0]) and state.times[0] > 50.0


def test_imputation_zero_tail_aborts_chain():
    data = SurvivalDataset([SurvivalRecord(1, 1, None, 0, 50.0)])
    spec = ModelSpec(FAMILY_GAMMA_CHAIN, GRID4)
    state = initial_state(spec, data)
    state.rates = np.array([1.0, 1.0, 1.0, 0.0])
    with pytest.raises(Exception, match="zero-rate tail"):
        mcmc._FitContext(spec, data, True, state).impute(state, np.random.default_rng(2))


def _assert_overflowing_imputation_aborts():
    # H(1e300) is ~1e300, so the subject's frailty draw underflows and the
    # residual -log1p(-u) / w overflows; the sweep that draws it must stop.
    records = [SurvivalRecord(1, 1, None, 0, 1e300)] + [
        SurvivalRecord(i, 1, 0.5 * i, 1) for i in range(2, 12)
    ]
    spec = ModelSpec(FAMILY_GAMMA_CHAIN, TimeGrid((0.0, 2.0, 4.0)))
    cfg = McmcConfig(n_chains=1, burn_in=0, n_iter=300, seed=1, impute=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ChainAbortError) as info:
            run_chain(spec, SurvivalDataset(records), cfg)
    msg = str(info.value)
    assert "imputed time of censored record 0 (subject 1, replicate 1, censored at 1e+300)" in msg
    assert "not finite" in msg


def test_overflowing_imputation_aborts_at_once_naming_the_record():
    _assert_overflowing_imputation_aborts()


def test_overflowing_cumulative_hazard_names_the_record():
    spec = ModelSpec(FAMILY_GAMMA_CHAIN, GRID4)
    for record, where in [
        (SurvivalRecord(1, 1, 1e300, 1), "time of record 0 (subject 1, replicate 1, event at 1e+300)"),
        (
            SurvivalRecord(1, 1, None, 0, 1e300),
            "censoring time of record 0 (subject 1, replicate 1, censored at 1e+300)",
        ),
    ]:
        data = SurvivalDataset([record, SurvivalRecord(2, 1, 1.0, 1)])
        state = initial_state(spec, data)
        state.rates = np.full(4, 1e10)
        ctx = mcmc._FitContext(spec, data, augmented=False, state=state)
        with pytest.raises(FloatingPointError) as info:
            ctx.cum_hazard(state.rates)
        assert str(info.value) == f"cumulative hazard at the {where} is not finite"

    # A rate of e^709 on (4, 100] meets no record below 4, so H is finite,
    # with no warning; one record at 150 reads it, and H there overflows.
    grid = TimeGrid((0.0, 2.0, 4.0, 100.0))
    rates = np.array([0.5, 0.5, math.exp(709.0), 0.5])
    records = [SurvivalRecord(i + 1, 1, 0.1 * (i + 1), 1) for i in range(39)]
    data = SurvivalDataset(records)
    spec = ModelSpec(FAMILY_LOGNORMAL_RW, grid)
    state = initial_state(spec, data)
    ctx = mcmc._FitContext(spec, data, augmented=False, state=state)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cumhaz = ctx.cum_hazard(rates)
        want = PiecewiseExponential(grid, rates).cum_hazard(data.marginal_times)
    assert np.all(np.isfinite(cumhaz))
    np.testing.assert_allclose(cumhaz, want, rtol=1e-14)

    data = SurvivalDataset(records + [SurvivalRecord(40, 1, 150.0, 1)])
    state = initial_state(spec, data)
    ctx = mcmc._FitContext(spec, data, augmented=False, state=state)
    with pytest.raises(FloatingPointError) as info:
        ctx.cum_hazard(rates)
    assert str(info.value) == (
        "cumulative hazard at the time of record 39 (subject 40, replicate 1, event at 150) "
        "is not finite"
    )


# -- chain runner -------------------------------------------------------------------


def test_run_chain_deterministic():
    data = _partially_censored_dataset(S1, 80, 5)
    spec = ModelSpec(FAMILY_SIMPLE, GRID4)
    cfg = McmcConfig(n_chains=2, burn_in=50, n_iter=200, seed=7)
    a = run_chains(spec, data, cfg)
    b = run_chains(spec, data, cfg)
    for ca, cb in zip(a, b):
        assert ca.names == cb.names
        for name in ca.names:
            np.testing.assert_array_equal(ca.draws[name], cb.draws[name])


def test_chains_differ_across_ids_and_seeds():
    data = _uncensored_dataset(S1, 50, 6)
    spec = ModelSpec(FAMILY_SIMPLE, GRID4)
    cfg = McmcConfig(n_chains=2, burn_in=10, n_iter=100, seed=7)
    a, b = run_chains(spec, data, cfg)
    assert not np.array_equal(a.draws["lambda[1]"], b.draws["lambda[1]"])
    c = run_chain(spec, data, McmcConfig(n_chains=1, burn_in=10, n_iter=100, seed=8), chain_id=1)
    assert not np.array_equal(a.draws["lambda[1]"], c.draws["lambda[1]"])


def test_thinning_and_retention_length():
    data = _uncensored_dataset(S1, 30, 8)
    spec = ModelSpec(FAMILY_SIMPLE, GRID4)
    cfg = McmcConfig(n_chains=1, burn_in=20, n_iter=205, thin=10, seed=1)
    store = run_chain(spec, data, cfg)
    assert store.n_draws == 20  # floor(205 / 10)


def test_thin_above_n_iter_is_rejected_up_front():
    # would retain 0 draws and only fail later, in summarize
    with pytest.raises(ValueError, match="thin"):
        McmcConfig(n_iter=5, thin=6)
    McmcConfig(n_iter=5, thin=5)  # one retained draw is allowed


def test_bad_seed_is_rejected_up_front():
    # would construct, then fail inside numpy's SeedSequence once the chains ran
    for bad in (-1, 1.5, "3", None, True):
        with pytest.raises(ValueError, match="seed"):
            McmcConfig(seed=bad)
    for good in (0, 7, np.int64(7), np.uint32(7)):
        seed = McmcConfig(seed=good).seed
        assert seed == good and type(seed) is int  # chain metadata is written as JSON


@pytest.mark.parametrize("name", ["n_chains", "burn_in", "n_iter", "thin"])
def test_chain_layout_must_be_integers(name):
    # a float n_iter would construct, then fail inside run_chain with a bare
    # TypeError; a numpy integer would run, then fail in write_metadata; a bool
    # would be stored as 0 or 1
    for bad in (100.0, "100", None, True):
        with pytest.raises(ValueError, match=name):
            McmcConfig(**{name: bad})
    value = getattr(McmcConfig(**{name: np.int64(1)}), name)
    assert value == 1 and type(value) is int


@pytest.mark.parametrize(
    "name, value, least",
    [("n_chains", 0, 1), ("burn_in", -1, 0), ("n_iter", 0, 1), ("thin", 0, 1), ("seed", -1, 0)],
)
def test_out_of_range_layout_names_its_field(name, value, least):
    with pytest.raises(ValueError, match=f"^{name} must be at least {least}, got {value}$"):
        McmcConfig(**{name: value})


def test_impute_must_be_a_bool():
    # 'no' is truthy: unchecked, it would impute and be echoed as "no"
    for bad in ("no", 0, 1, None, 1.0):
        with pytest.raises(ValueError, match="impute"):
            McmcConfig(impute=bad)
    for good, want in ((True, True), (False, False), (np.bool_(False), False)):
        value = McmcConfig(impute=good).impute
        assert value is want  # chain metadata is written as JSON true / false


@pytest.mark.parametrize(
    "data, impute",
    [
        (_uncensored_dataset(S1, 120, 31), True),
        (_partially_censored_dataset(S1, 120, 32), False),
        (_partially_censored_dataset(S1, 120, 32), True),
    ],
    ids=["uncensored-imputing", "censored-marginal", "censored-imputing"],
)
def test_reused_statistics_give_the_per_sweep_reference_draws(data, impute):
    # impute applies to the frailty families only: the simple chain counts
    # censored records through their survival term either way.
    spec = ModelSpec(FAMILY_SIMPLE, GRID4)
    h = spec.hyper
    for thin, burn_in in itertools.product((1, 3), (0, 5)):
        cfg = McmcConfig(n_chains=1, burn_in=burn_in, n_iter=30, thin=thin, seed=19, impute=impute)
        store = run_chain(spec, data, cfg)

        # reference loop: one Gamma draw per retained draw, the fit's own (d, R)
        # recomputed each time
        rng = chain_rng(19, 1)
        ref = []
        for _ in range(cfg.n_iter // thin):
            d, risk = spec.grid.interval_totals(data.marginal_times, data.event_flags)
            ref.append(rng.gamma(h.gamma_shape + d, 1.0 / (h.gamma_rate + risk)))
        got = np.column_stack([store.draws[f"lambda[{j}]"] for j in range(1, GRID4.m + 1)])
        assert np.array_equal(got, np.array(ref)), (thin, burn_in)


def test_simple_draws_depend_on_burn_in_and_thin_only_through_their_count():
    # Burn-in and thinning draw nothing: at 40 retained draws the chain is the
    # same for every (burn_in, thin).
    spec = ModelSpec(FAMILY_SIMPLE, GRID4)
    data = _partially_censored_dataset(S1, 80, 37)
    stores = [
        run_chain(spec, data, McmcConfig(n_chains=1, burn_in=b, n_iter=40 * t, thin=t, seed=8))
        for b, t in ((0, 1), (5, 3), (1000, 7))
    ]
    for store in stores:
        assert store.n_draws == 40
        for name in store.names:
            assert np.array_equal(store.draws[name], stores[0].draws[name]), name


@pytest.mark.parametrize(
    "family, data",
    [
        (FAMILY_SIMPLE, _uncensored_dataset(S1, 60, 33)),
        (FAMILY_SIMPLE, _partially_censored_dataset(S1, 60, 34)),
        (FAMILY_GAMMA_CHAIN, _uncensored_dataset(S1, 60, 35)),
        (FAMILY_GAMMA_CHAIN, _partially_censored_dataset(S1, 60, 36)),
    ],
    ids=["simple-fixed-times", "simple-imputing", "gamma-chain", "gamma-chain-imputing"],
)
def test_sufficient_stats_calls_per_fit(monkeypatch, family, data):
    # Every chain takes its statistics once, censored or not, with the
    # default impute=True: a frailty chain calls sufficient_stats for the
    # exposures and counts that its sweeps keep current; the simple chain
    # never calls it and takes its (d, R) from interval_totals instead.
    calls = _count_calls(monkeypatch, mcmc, "sufficient_stats")
    totals = _count_calls(monkeypatch, TimeGrid, "interval_totals")
    cfg = McmcConfig(n_chains=2, burn_in=4, n_iter=6, seed=3)
    # run_chain per id: run_chains runs a frailty fit's later chains in worker
    # processes, whose calls this process does not see.
    for c in range(1, cfg.n_chains + 1):
        run_chain(ModelSpec(family, GRID4), data, cfg, chain_id=c)
    want = (0, cfg.n_chains) if family == FAMILY_SIMPLE else (cfg.n_chains, 0)
    assert (len(calls), len(totals)) == want


@pytest.mark.parametrize("impute", [True, False], ids=["imputing", "analytic"])
@pytest.mark.parametrize("family", [FAMILY_GAMMA_CHAIN, FAMILY_LOGNORMAL_RW])
def test_cached_exposures_and_counts_never_go_stale(monkeypatch, family, impute):
    # 12 subjects with 1 to 3 records each, a third of them censored: after
    # every sweep the context's E and d, and the R the rate block read, are
    # those of a fresh sufficient_stats call at the state, bit for bit.
    rng = np.random.default_rng(27)
    records = []
    for s in range(1, 13):
        for r in range(1, s % 3 + 2):
            t, x = float(rng.uniform(0.2, 6.0)), (float(rng.normal()),)
            censored = rng.random() < 1 / 3
            records.append(SurvivalRecord(s, r, None if censored else t, int(not censored), t, x))
    data = SurvivalDataset(records, ("x",))
    spec = ModelSpec(family, GRID4)
    seen = []
    real = mcmc._FitContext.update_rates

    def spying(self, state, rng, d, risk):
        fresh = sufficient_stats(state, self.spec, self.data, augmented=self.augmented)
        seen.append(fresh.exposure.tobytes() == risk.tobytes() and fresh.d.tobytes() == d.tobytes())
        return real(self, state, rng, d, risk)

    monkeypatch.setattr(mcmc._FitContext, "update_rates", spying)
    state = initial_state(spec, data)
    ctx = mcmc._FitContext(spec, data, impute, state)
    source = mcmc._ChainSource(chain_rng(8, 1))
    for _ in range(20):
        ctx.sweep(state, source)
        fresh = sufficient_stats(state, spec, data, augmented=impute)
        assert ctx.overlap.tobytes() == fresh.overlap.tobytes()
        assert ctx.d.tobytes() == fresh.d.tobytes()
    assert seen == [True] * 20
    assert len(set(np.bincount(data.subject_positions))) == 3 and (~data.event_flags).any()


def _count_calls(monkeypatch, owner, name):
    """The calls to ``owner.name`` (a module function or a method) from now on, one entry each."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("n_chains", [1, 2, 4])
@pytest.mark.parametrize(
    "data",
    [_uncensored_dataset(S1, 60, 33), _partially_censored_dataset(S1, 60, 34)],
    ids=["uncensored", "censored"],
)
def test_simple_fit_takes_its_statistics_once_and_times_each_chains_draws(
    monkeypatch, data, n_chains
):
    calls = _count_calls(monkeypatch, mcmc, "sufficient_stats")
    totals = _count_calls(monkeypatch, TimeGrid, "interval_totals")
    cfg = McmcConfig(n_chains=n_chains, burn_in=4, n_iter=6, seed=3)
    stores = run_chains(ModelSpec(FAMILY_SIMPLE, GRID4), data, cfg)
    assert (len(calls), len(totals)) == (0, 1)
    assert [s.meta["chain_id"] for s in stores] == list(range(1, n_chains + 1))
    for store in stores:
        wall = store.meta["wall_time_s"]
        assert type(wall) is float and math.isfinite(wall) and wall >= 0.0


def test_a_long_thinned_simple_chain_holds_a_block_and_its_retained_draws():
    # 401,000 rows of 4 rates would take 12.8 MB at once; the chain draws and
    # keeps 200, and its store copies them once, one contiguous array per rate.
    # The untraced first run fills the interpreter's and numpy's caches; the
    # 64 kB of slack covers gamma's buffers for its broadcast parameters.
    spec = ModelSpec(FAMILY_SIMPLE, GRID4)
    data = _uncensored_dataset(S1, 50, 42)
    cfg = McmcConfig(n_chains=1, burn_in=1000, n_iter=400_000, thin=2000, seed=6)
    run_chain(spec, data, cfg)
    tracemalloc.start()
    try:
        store = run_chain(spec, data, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert store.n_draws == 200
    row = 8 * GRID4.m
    assert peak < 2 * store.n_draws * row + 65_536
    assert peak < (cfg.burn_in + cfg.n_iter) * row / 10


def test_a_simple_fit_peaks_below_one_interval_by_record_array():
    # (d, R) are summed one interval at a time in one n-length buffer, so the
    # fit never holds an (m, n) float array, as the overlaps of
    # sufficient_stats would be.  The untraced first run fills the caches.
    spec = ModelSpec(FAMILY_SIMPLE, GRID4)
    data = _partially_censored_dataset(S1, 20_000, 43)
    cfg = McmcConfig(n_chains=2, burn_in=0, n_iter=10, seed=6)
    run_chains(spec, data, cfg)
    tracemalloc.start()
    try:
        run_chains(spec, data, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * GRID4.m * data.n_records


@pytest.mark.parametrize(
    "family", [FAMILY_SIMPLE, FAMILY_GAMMA_CHAIN], ids=["simple-imputing", "gamma-chain"]
)
def test_sweeps_build_no_distribution_object(monkeypatch, family):
    # Only initial_state builds a PiecewiseExponential (for the censored
    # records' starting times); the simple chain's (d, R) and the frailty
    # sweep work on trusted arrays.
    data = _partially_censored_dataset(S1, 60, 36)
    built = []
    real = PiecewiseExponential.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(PiecewiseExponential, "__init__", counting)
    cfg = McmcConfig(n_chains=2, burn_in=4, n_iter=6, seed=3)
    for c in range(1, cfg.n_chains + 1):  # in this process, as above
        run_chain(ModelSpec(family, GRID4), data, cfg, chain_id=c)
    assert len(built) <= cfg.n_chains


def test_a_censored_simple_fit_builds_no_starting_state(monkeypatch):
    # The simple family's (d, R) reads the data, not a state, so neither entry
    # point builds initial_state's PiecewiseExponential; the draws stay
    # independent of init.
    spec = ModelSpec(FAMILY_SIMPLE, GRID4)
    data = _partially_censored_dataset(S1, 60, 38)
    assert not data.event_flags.all()
    cfg = McmcConfig(n_chains=2, burn_in=4, n_iter=6, seed=3)
    init = initial_state(spec, data)
    init.rates, init.times = init.rates * 7.0, init.times * 1.5

    def refuse(self, *args, **kwargs):
        raise AssertionError("a simple fit built a PiecewiseExponential")

    monkeypatch.setattr(PiecewiseExponential, "__init__", refuse)
    fit = run_chains(spec, data, cfg)
    for c in (1, 2):
        for store in (run_chain(spec, data, cfg, chain_id=c), run_chain(spec, data, cfg, c, init)):
            for name in store.names:
                assert np.array_equal(store.draws[name], fit[c - 1].draws[name]), (c, name)


def test_random_and_uniform_draw_the_same_doubles():
    # The slice kernel's uniform blocks and imputation come from
    # Generator.random, which returns the doubles Generator.uniform(0, 1)
    # returns (0 + 1 * x is exact).
    for seed in (0, 5, 2**40):
        assert np.array_equal(
            np.random.default_rng(seed).uniform(size=17), np.random.default_rng(seed).random(17)
        )
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert [a.uniform() for _ in range(50)] == [b.random() for _ in range(50)]


def test_chain_source_hands_out_scalar_uniforms_in_blocks():
    # Scalar uniforms come from blocks of gen.random(256); sized uniform and
    # Gamma draws go to the generator between blocks.
    source = mcmc._ChainSource(np.random.default_rng(8))
    scalars = [source.random() for _ in range(300)]
    sized = source.uniform(size=3)
    ref = np.random.default_rng(8)
    blocks = ref.random(256).tolist() + ref.random(256).tolist()
    assert scalars == blocks[:300]
    assert np.array_equal(sized, ref.random(3))
    assert source.standard_gamma(2.0) == ref.standard_gamma(2.0)
    assert source.random() == blocks[300]


def test_monitored_quantities_present():
    base = _partially_censored_dataset(S1, 40, 9)
    data = SurvivalDataset(
        [replace(r, covariates=(float(r.subject_id % 2),)) for r in base.records], ("x",)
    )
    spec = ModelSpec(FAMILY_GAMMA_CHAIN, GRID4)
    cfg = McmcConfig(n_chains=1, burn_in=20, n_iter=50, seed=2)
    store = run_chain(spec, data, cfg)
    assert store.names == (
        "lambda[1]", "lambda[2]", "lambda[3]", "lambda[4]", "beta_x", "eta", "kappa",
    )
    k = store.draws["kappa"]
    assert np.allclose(k, 1.0 / store.draws["eta"], rtol=1e-12)


def test_chain_abort_carries_iteration_index():
    data = SurvivalDataset([SurvivalRecord(1, 1, None, 0, 50.0)])
    spec = ModelSpec(FAMILY_GAMMA_CHAIN, GRID4)
    cfg = McmcConfig(n_chains=1, burn_in=0, n_iter=10, seed=1)
    bad = initial_state(spec, data)
    bad.rates = np.array([1.0, 1.0, 1.0, 0.0])  # zero-rate tail: imputation cannot proceed
    with pytest.raises(ChainAbortError, match="iteration 0"):
        run_chain(spec, data, cfg, init=bad)


# -- chain CSV ------------------------------------------------------------------------


def test_chain_csv_bytes_are_pinned(tmp_path):
    # a name holding a comma is quoted; an integer column is written as floats
    store = ChainStore({
        "beta_a,b": np.array([0.1, -0.0, 1e-300]),
        "count": np.array([1, 2, 3]),
        "x": np.array([np.nan, np.inf, -np.inf]),
    })
    path = tmp_path / "chain.csv"
    store.to_csv(path)
    assert path.read_bytes() == (
        b'"beta_a,b",count,x\r\n0.1,1.0,nan\r\n-0.0,2.0,inf\r\n1e-300,3.0,-inf\r\n'
    )


def test_chain_csv_holds_one_row_at_a_time_beside_its_table(tmp_path):
    # the float table is one (n_draws, k) copy of 336 kB; a Python list of all
    # its floats would take ~1.5 MB more
    store = ChainStore({f"c{j}": np.random.default_rng(j).random(3000) for j in range(14)})
    store.to_csv(tmp_path / "warm.csv")
    tracemalloc.start()
    try:
        store.to_csv(tmp_path / "chain.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 3000 * 14 * 8 + 65_536


@pytest.mark.parametrize("lengths", [(2, 3), (3, 2)], ids=["first-short", "later-short"])
def test_a_ragged_chain_store_is_rejected_before_writing(tmp_path, lengths):
    # a short first column wrote that many rows; a short later one raised IndexError
    store = ChainStore({"a": np.zeros(lengths[0]), "b": np.zeros(lengths[1])})
    path = tmp_path / "chain.csv"
    message = f"chain columns differ in length: {{'a': {lengths[0]}, 'b': {lengths[1]}}}"
    with pytest.raises(ValueError, match=re.escape(message)):
        store.to_csv(path)
    assert not path.exists()


# -- chains in worker processes ------------------------------------------------------

needs_fork = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or "fork" not in multiprocessing.get_all_start_methods(),
    reason="run_chains forks workers only where fork and the CPU affinity mask exist",
)


def _kidney_fit(family, n_chains):
    cfg = McmcConfig(n_chains=n_chains, burn_in=20, n_iter=30, seed=11)
    return ModelSpec(family, KIDNEY_GRID), load_kidney(), cfg


def _assert_same_chains(got, want):
    assert [c.meta["chain_id"] for c in got] == [c.meta["chain_id"] for c in want]
    for a, b in zip(got, want):
        assert a.names == b.names
        assert all(np.array_equal(a.draws[n], b.draws[n]) for n in b.names)
        assert a.meta["slice_widths"] == b.meta["slice_widths"]
        assert {**a.meta, "wall_time_s": None} == {**b.meta, "wall_time_s": None}


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls this process makes, one entry each."""
    calls = []
    real = os.fork

    def counting():
        calls.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counting)
    return calls


@contextlib.contextmanager
def _deadline(seconds):
    """Fail, instead of hanging, when the block takes longer than ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _patch_sweep(monkeypatch, in_caller=None, in_worker=None):
    """Call ``in_caller()`` before each sweep in this process, ``in_worker()`` in a worker."""
    caller = os.getpid()
    real = mcmc._FitContext.sweep

    def sweep(self, state, rng):
        act = in_caller if os.getpid() == caller else in_worker
        if act is not None:
            act()
        real(self, state, rng)

    monkeypatch.setattr(mcmc._FitContext, "sweep", sweep)


def _raise_boom():
    raise FloatingPointError("boom")


@needs_fork
@pytest.mark.parametrize("family", [FAMILY_GAMMA_CHAIN, FAMILY_LOGNORMAL_RW])
@pytest.mark.parametrize(
    "cpus, n_chains",
    [(None, 3), ({0}, 3), ({0, 1, 2}, 4)],
    ids=["host-cpus-3-chains", "one-cpu-3-chains", "three-cpus-4-chains"],
)
def test_chains_in_workers_equal_chains_run_one_by_one(monkeypatch, forks, family, cpus, n_chains):
    # More chains than CPUs, so a process runs two chains: on a 2-CPU host the
    # caller runs chains 1 and 3, its worker chain 2; on three CPUs the caller
    # runs chains 1 and 4, one worker chain 2 and the other chain 3.
    if cpus is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    spec, data, cfg = _kidney_fit(family, n_chains)
    got = run_chains(spec, data, cfg)
    want = [run_chain(spec, data, cfg, chain_id=c) for c in range(1, n_chains + 1)]
    _assert_same_chains(got, want)
    assert len(forks) == min(n_chains, len(os.sched_getaffinity(0))) - 1
    assert multiprocessing.active_children() == []


def test_simple_family_chains_start_no_process(monkeypatch, forks):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    spec = ModelSpec(FAMILY_SIMPLE, GRID4)
    data = _partially_censored_dataset(S1, 60, 41)
    cfg = McmcConfig(n_chains=3, burn_in=10, n_iter=20, seed=4)
    got = run_chains(spec, data, cfg)
    _assert_same_chains(got, [run_chain(spec, data, cfg, chain_id=c) for c in (1, 2, 3)])
    assert forks == []


def test_without_fork_a_frailty_fit_runs_every_chain_in_the_caller(monkeypatch, forks):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert mcmc._usable_cpus() == 1
    spec, data, cfg = _kidney_fit(FAMILY_GAMMA_CHAIN, 2)
    got = run_chains(spec, data, cfg)
    _assert_same_chains(got, [run_chain(spec, data, cfg, chain_id=c) for c in (1, 2)])
    assert forks == []


@needs_fork
def test_abort_in_a_worker_is_raised_naming_its_chain(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    _patch_sweep(monkeypatch, in_worker=_raise_boom)
    spec, data, cfg = _kidney_fit(FAMILY_GAMMA_CHAIN, 2)
    with _deadline(60), pytest.raises(ChainAbortError) as info:
        run_chains(spec, data, cfg)
    assert str(info.value) == "chain 2 aborted at iteration 0: boom"
    assert multiprocessing.active_children() == []


@needs_fork
def test_worker_that_exits_without_a_result_raises_instead_of_hanging(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    _patch_sweep(monkeypatch, in_worker=lambda: os._exit(3))
    spec, data, cfg = _kidney_fit(FAMILY_GAMMA_CHAIN, 2)
    with _deadline(60), pytest.raises(ChainAbortError) as info:
        run_chains(spec, data, cfg)
    assert str(info.value) == (
        "chain 2 aborted: its worker process exited with code 3 before sending a result"
    )
    assert multiprocessing.active_children() == []


@needs_fork
def test_abort_in_the_calling_process_reaps_the_workers(monkeypatch):
    # The worker would never finish: run_chains must end it, not wait for it.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    _patch_sweep(monkeypatch, in_caller=_raise_boom, in_worker=lambda: time.sleep(3600))
    spec, data, cfg = _kidney_fit(FAMILY_LOGNORMAL_RW, 2)
    with _deadline(60), pytest.raises(ChainAbortError) as info:
        run_chains(spec, data, cfg)
    assert str(info.value) == "chain 1 aborted at iteration 0: boom"
    assert multiprocessing.active_children() == []


def _stamp_pids(monkeypatch):
    """Record in each store's meta the id of the process that ran its chain."""
    real = mcmc.run_chain

    def stamped(*args, **kwargs):
        store = real(*args, **kwargs)
        store.meta["pid"] = os.getpid()
        return store

    monkeypatch.setattr(mcmc, "run_chain", stamped)


@needs_fork
@pytest.mark.parametrize(
    "cpus, shares",
    [({0, 1}, [{1, 3}, {2, 4}]), ({0, 1, 2}, [{1, 4}, {2}, {3}])],
    ids=["two-cpus", "three-cpus"],
)
def test_every_process_takes_an_equal_share_of_the_chain_ids(monkeypatch, cpus, shares):
    # shares[0] runs in the calling process, each other share in one worker
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    _stamp_pids(monkeypatch)
    spec, data, cfg = _kidney_fit(FAMILY_GAMMA_CHAIN, 4)
    with _deadline(60):
        stores = run_chains(spec, data, cfg)
    by_pid = {}
    for store in stores:
        by_pid.setdefault(store.meta["pid"], set()).add(store.meta["chain_id"])
    assert by_pid.pop(os.getpid()) == shares[0]
    assert sorted(by_pid.values(), key=min) == shares[1:]
    assert multiprocessing.active_children() == []


@needs_fork
def test_abort_in_the_callers_second_chain_reaps_the_workers(monkeypatch):
    # Two CPUs, four chains: the caller runs chains 1 and 3, so its first sweep
    # past chain 1's is chain 3's first.  The worker would never finish.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    spec, data, cfg = _kidney_fit(FAMILY_GAMMA_CHAIN, 4)
    sweeps = itertools.count(1)

    def boom_in_chain_3():
        if next(sweeps) > cfg.burn_in + cfg.n_iter:
            _raise_boom()

    _patch_sweep(monkeypatch, in_caller=boom_in_chain_3, in_worker=lambda: time.sleep(3600))
    with _deadline(60), pytest.raises(ChainAbortError) as info:
        run_chains(spec, data, cfg)
    assert str(info.value) == "chain 3 aborted at iteration 0: boom"
    assert multiprocessing.active_children() == []


@needs_fork
def test_chains_run_one_by_one_inside_a_daemonic_process(monkeypatch):
    # A daemonic process may not start children; run_chains must not try.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    spec, data, cfg = _kidney_fit(FAMILY_GAMMA_CHAIN, 2)
    fork = multiprocessing.get_context("fork")
    recv, send = fork.Pipe(duplex=False)

    def fit():
        try:
            send.send(run_chains(spec, data, cfg))
        except Exception as exc:  # reported to the test process below
            send.send(repr(exc))

    proc = fork.Process(target=fit, daemon=True)
    proc.start()
    send.close()
    try:
        assert recv.poll(60)
        got = recv.recv()
    finally:
        proc.join(60)
        recv.close()
    assert not proc.is_alive()
    assert not isinstance(got, str), got
    _assert_same_chains(got, [run_chain(spec, data, cfg, chain_id=c) for c in (1, 2)])


_ENTRY_POINTS_SCRIPT = """
import sys

import numpy

def masked():
    return {m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")}

with_numpy, steps, new_masked = masked(), {}, {}

def record(step):
    steps[step] = "multiprocessing" in sys.modules
    new_masked[step] = sorted(masked() - with_numpy)

import pexsurv
from pexsurv import FAMILY_GAMMA_CHAIN, FAMILY_SIMPLE, cli
record("import pexsurv")
grid, data = pexsurv.TimeGrid((0.0, 100.0, 300.0)), pexsurv.load_kidney()

def fit(family, n_chains, n_iter=3):
    cfg = pexsurv.McmcConfig(n_chains=n_chains, burn_in=2, n_iter=n_iter, seed=1)
    chains = pexsurv.run_chains(pexsurv.ModelSpec(family, grid), data, cfg)
    assert len(chains) == n_chains
    return chains

chains = fit(FAMILY_SIMPLE, 2, n_iter=101)
record("a 2-chain simple fit")
assert len(pexsurv.summarize(chains)) == grid.m
record("summarize")
assert cli.main(["dist", "eval", "--grid", "0,2", "--rates", "0.5,1", "--t", "3"]) == 0
record("dist eval")
out = sys.argv[1]
assert cli.main(["fit", "--model", "frailty-gamma", "--data", "kidney", "--chains", "1", "--burnin", "2",
                 "--iters", "100", "--seed", "3", "--out", out + "/fit"]) == 0
record("fit")
assert cli.main(["simulate", "--scenario", "s1", "--n", "50", "--reps", "1", "--seed", "3", "--out", out]) == 0
record("simulate")
fit(FAMILY_GAMMA_CHAIN, 1)
record("a 1-chain frailty fit")
fit(FAMILY_GAMMA_CHAIN, 2)
record("a 2-chain frailty fit")
print(steps)
print(new_masked)
"""


@pytest.fixture(scope="module")
def fresh_interpreter_steps(tmp_path_factory):
    """Per step of the script above: is multiprocessing loaded, and which numpy.ma modules are new."""
    # A fresh interpreter: this one imported multiprocessing long ago.
    paths = [str(Path(mcmc.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    run = subprocess.run(
        [sys.executable, "-c", _ENTRY_POINTS_SCRIPT, str(tmp_path_factory.mktemp("out"))],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    *_, forks, masked = run.stdout.strip().splitlines()
    return ast.literal_eval(forks), ast.literal_eval(masked)


def test_only_a_fit_that_may_fork_loads_multiprocessing(fresh_interpreter_steps):
    forks, _ = fresh_interpreter_steps
    assert forks == {
        "import pexsurv": False,
        "a 2-chain simple fit": False,
        "summarize": False,
        "dist eval": False,
        "fit": False,
        "simulate": False,
        "a 1-chain frailty fit": False,
        "a 2-chain frailty fit": True,
    }


def test_no_entry_point_loads_numpy_ma(fresh_interpreter_steps):
    # numpy 2.x imports numpy.ma lazily, and np.median and np.unique load it;
    # numpy 1.x loads it with numpy, so only modules loaded later count.
    forks, masked = fresh_interpreter_steps
    assert masked == dict.fromkeys(forks, [])


def _pooled_mean_and_mcse(chains, name):
    pooled = np.concatenate([c.draws[name] for c in chains])
    ess = sum(max(effective_sample_size(c.draws[name]), 1.0) for c in chains)
    return pooled.mean(), pooled.std(ddof=1) / np.sqrt(ess)


def test_imputation_and_analytic_censoring_agree():
    # eta ~ Gamma(1e6, 1e4), 100 +- 0.1, holds every frailty near 1, so the
    # test compares the rates' two censoring modes; with the vague default,
    # kappa mixes too slowly for 1,500 draws to give a reliable MCSE.
    data = _partially_censored_dataset(S1, 150, 501)
    spec = ModelSpec(FAMILY_GAMMA_CHAIN, GRID4, HyperParams(phi1=1e6, phi2=1e4))
    base = dict(n_chains=2, burn_in=300, n_iter=1500, thin=1)
    a = run_chains(spec, data, McmcConfig(**base, seed=1, impute=True))
    b = run_chains(spec, data, McmcConfig(**base, seed=3, impute=False))
    for name in a[0].names:
        ma, sa = _pooled_mean_and_mcse(a, name)
        mb, sb = _pooled_mean_and_mcse(b, name)
        assert abs(ma - mb) < 3.0 * np.hypot(sa, sb), name


def test_user_inits_are_respected():
    data = _uncensored_dataset(S1, 40, 10)
    spec = ModelSpec(FAMILY_GAMMA_CHAIN, GRID4)
    init = initial_state(spec, data)
    init.rates = np.array([0.111, 0.222, 0.333, 0.444])
    cfg = McmcConfig(n_chains=1, burn_in=0, n_iter=1, seed=4)
    run_chain(spec, data, cfg, init=init)
    assert init.rates[0] == 0.111  # caller's state must not be mutated


def test_posterior_concentrates_on_true_rates():
    data = _uncensored_dataset(S1, 1000, 100)
    spec = ModelSpec(FAMILY_SIMPLE, GRID4)
    ch = run_chain(spec, data, McmcConfig(n_chains=1, burn_in=500, n_iter=1500, seed=6))
    assert abs(ch.draws["lambda[1]"].mean() - 0.3) < 0.05


# -- joint distribution of one whole sweep (Geweke 2004, "Getting it right") --------

JOINT_HYPER = HyperParams(alpha=4.0, nu=0.25, phi1=6.0, phi2=3.0, beta_var=0.25)
JOINT_GRID = TimeGrid((0.0, 0.5, 1.5))
JOINT_SUBJECT = np.repeat(np.arange(4), 2)  # 4 subjects x 2 replicates
JOINT_X = np.linspace(-1.0, 1.0, 8)
JOINT_CENSOR_AT = 1.2
JOINT_REPS = 1500


def _prior_draw(spec, rng):
    """(rates, beta, z, eta) drawn from the frailty family's prior."""
    h, m = spec.hyper, spec.grid.m
    if spec.family == FAMILY_GAMMA_CHAIN:
        rates = np.empty(m)
        prev = 1.0
        for j in range(m):
            rates[j] = prev = rng.gamma(h.alpha, prev / h.alpha)
    else:
        rates = np.exp(np.cumsum(rng.normal(0.0, np.sqrt(h.nu), m)))
    eta = rng.gamma(h.phi1, 1.0 / h.phi2)
    z = rng.gamma(eta, 1.0 / eta, 4)
    beta = rng.normal(0.0, np.sqrt(h.beta_var), 1)
    return rates, beta, z, eta


def _assert_one_sweep_invariant(family, impute, covariate, width=1.0):
    # theta ~ prior, data ~ theta, then one sweep from (theta, true latent
    # times): the swept theta is again a prior draw, which a missing Jacobian
    # or a wrong full conditional would break.  Every slice width is frozen
    # at ``width`` (1.0 is the width of a chain with no burn-in).
    spec = ModelSpec(family, JOINT_GRID, JOINT_HYPER)
    rng = np.random.default_rng(2004)
    swept = []
    for rep in range(JOINT_REPS):
        rates, beta, z, eta = _prior_draw(spec, rng)
        w = np.exp(covariate * beta[0]) * z[JOINT_SUBJECT]
        pe = PiecewiseExponential(JOINT_GRID, rates)
        times = pe.inverse_cum_hazard(rng.exponential(size=8) / w)
        data = SurvivalDataset(
            [
                SurvivalRecord(int(s) + 1, k % 2 + 1, float(t), 1, covariates=(float(x),))
                if t <= JOINT_CENSOR_AT
                else SurvivalRecord(int(s) + 1, k % 2 + 1, None, 0, JOINT_CENSOR_AT, (float(x),))
                for k, (s, t, x) in enumerate(zip(JOINT_SUBJECT, times, covariate))
            ],
            ("x",),
        )
        state = ParamState(rates=rates, beta=beta, z=z, eta=eta, times=times)
        ctx = mcmc._FitContext(spec, data, impute, state)
        ctx.slice_widths = [width] * len(ctx.slice_widths)
        ctx.sweep(state, mcmc._ChainSource(chain_rng(rep, 1)))
        swept.append(dict(zip(ctx.monitor_names, ctx.monitor_values(state)), z1=state.z[0]))
    prior = [_prior_draw(spec, rng) for _ in range(JOINT_REPS)]
    checks = {
        "lambda[1]": [p[0][0] for p in prior],
        "lambda[3]": [p[0][2] for p in prior],
        "beta_x": [p[1][0] for p in prior],
        "eta": [p[3] for p in prior],
        "z1": [p[2][0] for p in prior],  # subject 1's frailty
    }
    for name, direct in checks.items():
        res = stats.ks_2samp([s[name] for s in swept], direct)
        assert res.pvalue > 1e-3, (name, res.pvalue)


@pytest.mark.parametrize("impute", [True, False])
@pytest.mark.parametrize("family", [FAMILY_GAMMA_CHAIN, FAMILY_LOGNORMAL_RW])
def test_one_sweep_leaves_the_joint_distribution_invariant(family, impute):
    _assert_one_sweep_invariant(family, impute, JOINT_X)


@pytest.mark.parametrize("impute", [True, False])
@pytest.mark.parametrize("family", [FAMILY_GAMMA_CHAIN, FAMILY_LOGNORMAL_RW])
def test_one_sweep_is_invariant_with_an_off_centre_covariate(family, impute):
    # JOINT_X has mean 0; shifted, the centred beta move's rate-prior term
    # along (beta + delta, log lambda - delta xbar) no longer vanishes.
    _assert_one_sweep_invariant(family, impute, JOINT_X + 1.5)


@pytest.mark.parametrize("width", [0.05, 20.0])
@pytest.mark.parametrize("impute", [True, False])
@pytest.mark.parametrize("family", [FAMILY_GAMMA_CHAIN, FAMILY_LOGNORMAL_RW])
def test_one_sweep_is_invariant_with_frozen_widths(family, impute, width):
    # Tuned widths differ from 1.0 by orders of magnitude; a width applied on
    # the wrong scale, or changed within an update, breaks invariance.
    _assert_one_sweep_invariant(family, impute, JOINT_X + 1.5, width)


def test_sampler_paths_read_the_columns_not_the_records(monkeypatch):
    # the dataset rebuilds its records on each access, so no sampler path may
    # read them: every layer works from the dataset's arrays
    def no_records(_ds):
        raise AssertionError("a sampler path rebuilt the dataset's records")

    kidney = load_kidney()
    monkeypatch.setattr(SurvivalDataset, "records", property(no_records))
    for family in (FAMILY_GAMMA_CHAIN, FAMILY_LOGNORMAL_RW):
        spec = ModelSpec(family=family, grid=KIDNEY_GRID)
        state = initial_state(spec, kidney)
        for augmented in (True, False):
            sufficient_stats(state, spec, kidney, augmented=augmented)
            cfg = McmcConfig(n_chains=1, burn_in=3, n_iter=5, seed=11, impute=augmented)
            store = run_chain(spec, kidney, cfg)
            assert store.n_draws == 5
            assert all(np.isfinite(col).all() for col in store.draws.values())
    s1 = _uncensored_dataset(S1, 500, 12)
    stores = run_chains(ModelSpec(family=FAMILY_SIMPLE, grid=GRID4), s1, McmcConfig(seed=13))
    assert [store.n_draws for store in stores] == [2000, 2000]
    # an abort names its record from the columns too
    _assert_overflowing_imputation_aborts()

import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, stats

from pexsurv import mcmc
from pexsurv.data import SurvivalDataset, SurvivalRecord, load_kidney
from pexsurv.distribution import PiecewiseExponential, TimeGrid
from pexsurv.diagnostics import effective_sample_size
from pexsurv.mcmc import (
    ChainAbortError,
    InvariantViolationError,
    McmcConfig,
    chain_rng,
    impute_censored,
    run_chain,
    run_chains,
    update_frailties,
    update_rates_conjugate,
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
    data = SurvivalDataset([])
    state = initial_state(spec, data)
    rng = np.random.default_rng(17)
    draws = np.empty(50_000)
    for i in range(draws.size):
        update_rates_conjugate(state, spec, data, rng)
        draws[i] = state.rates[0]
    res = stats.kstest(draws, "gamma", args=(0.01, 0, 1 / 0.01))
    assert res.pvalue > 0.001


def test_conjugate_rates_rejected_for_frailty_family():
    spec = ModelSpec(FAMILY_GAMMA_CHAIN, GRID4)
    data = _uncensored_dataset(S1, 10, 1)
    state = initial_state(spec, data)
    with pytest.raises(ValueError):
        update_rates_conjugate(state, spec, data, np.random.default_rng(0))


def _grid_moments(xs, log_vals):
    log_vals = log_vals - log_vals.max()
    w = np.exp(log_vals)
    z = integrate.simpson(w, x=xs)
    m1 = integrate.simpson(w * xs, x=xs) / z
    m2 = integrate.simpson(w * xs * xs, x=xs) / z
    return m1, m2 - m1 * m1


def test_conjugate_rate_full_conditional_matches_numeric():
    rng = np.random.default_rng(55)
    spec = ModelSpec(FAMILY_SIMPLE, GRID4)
    data = _uncensored_dataset((0.4, 0.7, 0.9, 1.2), 80, 2)
    state = initial_state(spec, data)
    state.rates = rng.gamma(2.0, 0.5, 4)
    st = sufficient_stats(state, spec, data)
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
        vals[i] = joint_log_density(probe, spec, data)
    mean, var = _grid_moments(xs, vals)
    assert mean == pytest.approx(shape / rate, rel=1e-4)
    assert var == pytest.approx(shape / rate**2, rel=1e-4)


def test_frailty_full_conditional_matches_numeric():
    rng = np.random.default_rng(66)
    kidney = load_kidney()
    spec = ModelSpec(FAMILY_GAMMA_CHAIN, TimeGrid(tuple(562.0 * j / 10 for j in range(10))))
    state = initial_state(spec, kidney)
    state.rates = rng.gamma(2.0, 0.01, 10)
    state.beta = np.array([-1.2, 0.01])
    state.z = rng.gamma(4.0, 0.25, 38)
    state.eta = 2.5
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
    update_frailties(state, spec, data, np.random.default_rng(19), augmented=False)
    res = stats.kstest(state.z, "gamma", args=(2.0, 0, 0.5))
    assert res.pvalue > 0.001


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


# -- imputation -------------------------------------------------------------------


def test_imputed_values_exceed_censor_times():
    data = _partially_censored_dataset(S1, 200, 4)
    spec = ModelSpec(FAMILY_SIMPLE, GRID4)
    state = initial_state(spec, data)
    impute_censored(state, spec, data, np.random.default_rng(1))
    cens = ~data.event_flags
    assert np.all(state.times[cens] > data.marginal_times[cens])
    assert np.all(state.times[~cens] == data.marginal_times[~cens])


def test_imputation_memoryless_under_constant_rates():
    c = 0.7
    recs = [SurvivalRecord(i + 1, 1, None, 0, 1.5) for i in range(4000)]
    data = SurvivalDataset(recs)
    spec = ModelSpec(FAMILY_SIMPLE, GRID4)
    state = initial_state(spec, data)
    state.rates = np.full(4, c)
    impute_censored(state, spec, data, np.random.default_rng(3))
    res = stats.kstest(state.times - 1.5, "expon", args=(0, 1 / c))
    assert res.pvalue > 0.001


def test_imputation_beyond_last_cut_is_finite():
    data = SurvivalDataset([SurvivalRecord(1, 1, None, 0, 50.0)])
    spec = ModelSpec(FAMILY_SIMPLE, GRID4)
    state = initial_state(spec, data)
    impute_censored(state, spec, data, np.random.default_rng(23))
    assert np.isfinite(state.times[0]) and state.times[0] > 50.0


def test_imputation_zero_tail_aborts_chain():
    data = SurvivalDataset([SurvivalRecord(1, 1, None, 0, 50.0)])
    spec = ModelSpec(FAMILY_SIMPLE, GRID4)
    state = initial_state(spec, data)
    state.rates = np.array([1.0, 1.0, 1.0, 0.0])
    with pytest.raises(Exception, match="zero-rate tail"):
        impute_censored(state, spec, data, np.random.default_rng(2))


def test_overflowing_imputation_aborts_at_once_naming_the_record():
    # H(1e300) is ~1e300, so the subject's frailty draw underflows and the
    # residual -log1p(-u) / w overflows; the sweep that draws it must stop.
    records = [SurvivalRecord(1, 1, None, 0, 1e300)] + [
        SurvivalRecord(i, 1, 0.5 * i, 1) for i in range(2, 12)
    ]
    spec = ModelSpec(FAMILY_GAMMA_CHAIN, TimeGrid((0.0, 2.0, 4.0)))
    cfg = McmcConfig(n_chains=1, burn_in=0, n_iter=300, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ChainAbortError) as info:
            run_chain(spec, SurvivalDataset(records), cfg)
    msg = str(info.value)
    assert "imputed time of censored record 0 (subject 1, replicate 1, censored at 1e+300)" in msg
    assert "not finite" in msg


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
    for bad in (-1, 1.5, "3", None):
        with pytest.raises(ValueError, match="seed"):
            McmcConfig(seed=bad)
    for good in (0, 7, np.int64(7), np.uint32(7)):
        seed = McmcConfig(seed=good).seed
        assert seed == good and type(seed) is int  # chain metadata is written as JSON


@pytest.mark.parametrize(
    "data, impute",
    [
        (_uncensored_dataset(S1, 120, 31), True),
        (_partially_censored_dataset(S1, 120, 32), False),
    ],
    ids=["uncensored-imputing", "censored-marginal"],
)
def test_reused_statistics_give_the_per_sweep_reference_draws(data, impute):
    spec = ModelSpec(FAMILY_SIMPLE, GRID4)
    cfg = McmcConfig(n_chains=1, burn_in=5, n_iter=30, seed=19, impute=impute)
    store = run_chain(spec, data, cfg)

    # reference loop: (d, R) recomputed from the state on every sweep
    h = spec.hyper
    rng = chain_rng(19, 1)
    state = initial_state(spec, data)
    ref = []
    for _ in range(cfg.burn_in + cfg.n_iter):
        st = sufficient_stats(state, spec, data, augmented=impute)
        state.rates = rng.gamma(h.gamma_shape + st.d, 1.0 / (h.gamma_rate + st.exposure))
        ref.append(state.rates)
    got = np.column_stack([store.draws[f"lambda[{j}]"] for j in range(1, GRID4.m + 1)])
    assert np.array_equal(got, np.array(ref[cfg.burn_in:]))


@pytest.mark.parametrize(
    "family, data, once_per_chain",
    [
        (FAMILY_SIMPLE, _uncensored_dataset(S1, 60, 33), True),
        (FAMILY_SIMPLE, _partially_censored_dataset(S1, 60, 34), False),
        (FAMILY_GAMMA_CHAIN, _uncensored_dataset(S1, 60, 35), False),
    ],
    ids=["simple-fixed-times", "simple-imputing", "gamma-chain"],
)
def test_sufficient_stats_calls_per_fit(monkeypatch, family, data, once_per_chain):
    calls = []
    real = mcmc.sufficient_stats

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(mcmc, "sufficient_stats", counting)
    cfg = McmcConfig(n_chains=2, burn_in=4, n_iter=6, seed=3)
    run_chains(ModelSpec(family, GRID4), data, cfg)
    sweeps = cfg.burn_in + cfg.n_iter
    assert len(calls) == cfg.n_chains * (1 if once_per_chain else sweeps)


@pytest.mark.parametrize(
    "family", [FAMILY_SIMPLE, FAMILY_GAMMA_CHAIN], ids=["simple-imputing", "gamma-chain"]
)
def test_sweeps_build_no_distribution_object(monkeypatch, family):
    # Only initial_state builds a PiecewiseExponential (for the censored
    # records' starting times); the sweep works on trusted arrays.
    data = _partially_censored_dataset(S1, 60, 36)
    built = []
    real = PiecewiseExponential.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(PiecewiseExponential, "__init__", counting)
    cfg = McmcConfig(n_chains=2, burn_in=4, n_iter=6, seed=3)
    run_chains(ModelSpec(family, GRID4), data, cfg)
    assert len(built) <= cfg.n_chains


def test_random_and_uniform_draw_the_same_doubles():
    # The slice kernel and imputation call Generator.random, which returns
    # the doubles Generator.uniform(0, 1) returns (0 + 1 * x is exact).
    for seed in (0, 5, 2**40):
        assert np.array_equal(
            np.random.default_rng(seed).uniform(size=17), np.random.default_rng(seed).random(17)
        )
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert [a.uniform() for _ in range(50)] == [b.random() for _ in range(50)]


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
    spec = ModelSpec(FAMILY_SIMPLE, GRID4)
    cfg = McmcConfig(n_chains=1, burn_in=0, n_iter=10, seed=1)
    bad = initial_state(spec, data)
    bad.rates = np.array([1.0, 1.0, 1.0, 0.0])  # zero-rate tail: imputation cannot proceed
    with pytest.raises(ChainAbortError, match="iteration 0"):
        run_chain(spec, data, cfg, init=bad)


def _pooled_mean_and_mcse(chains, name):
    pooled = np.concatenate([c.draws[name] for c in chains])
    ess = sum(max(effective_sample_size(c.draws[name]), 1.0) for c in chains)
    return pooled.mean(), pooled.std(ddof=1) / np.sqrt(ess)


def test_imputation_and_analytic_censoring_agree():
    data = _partially_censored_dataset(S1, 150, 501)
    spec = ModelSpec(FAMILY_SIMPLE, GRID4)
    base = dict(n_chains=2, burn_in=500, n_iter=3000, thin=1)
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

JOINT_HYPER = HyperParams(
    gamma_shape=3.0, gamma_rate=3.0, alpha=4.0, nu=0.25, phi1=6.0, phi2=3.0, beta_var=0.25
)
JOINT_GRID = TimeGrid((0.0, 0.5, 1.5))
JOINT_SUBJECT = np.repeat(np.arange(4), 2)  # 4 subjects x 2 replicates
JOINT_X = np.linspace(-1.0, 1.0, 8)
JOINT_CENSOR_AT = 1.2
JOINT_REPS = 1500


def _prior_draw(spec, rng):
    """(rates, beta, z, eta) drawn from the family's prior."""
    h, m = spec.hyper, spec.grid.m
    if spec.family == FAMILY_SIMPLE:
        return rng.gamma(h.gamma_shape, 1.0 / h.gamma_rate, m), np.zeros(1), np.ones(4), 1.0
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


@pytest.mark.parametrize("impute", [True, False])
@pytest.mark.parametrize("family", [FAMILY_SIMPLE, FAMILY_GAMMA_CHAIN, FAMILY_LOGNORMAL_RW])
def test_one_sweep_leaves_the_joint_distribution_invariant(family, impute):
    # theta ~ prior, data ~ theta, then one sweep from (theta, true latent
    # times): the swept theta is again a prior draw, which a missing Jacobian
    # or a wrong full conditional would break.
    spec = ModelSpec(family, JOINT_GRID, JOINT_HYPER)
    rng = np.random.default_rng(2004)
    swept = []
    for rep in range(JOINT_REPS):
        rates, beta, z, eta = _prior_draw(spec, rng)
        w = np.exp(JOINT_X * beta[0]) * z[JOINT_SUBJECT] if spec.is_frailty else np.ones(8)
        pe = PiecewiseExponential(JOINT_GRID, rates)
        times = pe.inverse_cum_hazard(rng.exponential(size=8) / w)
        data = SurvivalDataset(
            [
                SurvivalRecord(int(s) + 1, k % 2 + 1, float(t), 1, covariates=(float(x),))
                if t <= JOINT_CENSOR_AT
                else SurvivalRecord(int(s) + 1, k % 2 + 1, None, 0, JOINT_CENSOR_AT, (float(x),))
                for k, (s, t, x) in enumerate(zip(JOINT_SUBJECT, times, JOINT_X))
            ],
            ("x",),
        )
        init = ParamState(rates=rates, beta=beta, z=z, eta=eta, times=times)
        cfg = McmcConfig(n_chains=1, burn_in=0, n_iter=1, seed=rep, impute=impute)
        store = run_chain(spec, data, cfg, init=init)
        swept.append({name: col[0] for name, col in store.draws.items()})
    prior = [_prior_draw(spec, rng) for _ in range(JOINT_REPS)]
    checks = {
        "lambda[1]": [p[0][0] for p in prior],
        "lambda[3]": [p[0][2] for p in prior],
    }
    if spec.is_frailty:
        checks["beta_x"] = [p[1][0] for p in prior]
        checks["eta"] = [p[3] for p in prior]
    for name, direct in checks.items():
        res = stats.ks_2samp([s[name] for s in swept], direct)
        assert res.pvalue > 1e-3, (name, res.pvalue)

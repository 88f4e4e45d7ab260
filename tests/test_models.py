import ast
import dataclasses
import inspect
import math

import numpy as np
import pytest
from scipy import stats

from pexsurv import models
from pexsurv.data import SurvivalDataset, SurvivalRecord, load_kidney
from pexsurv.distribution import PiecewiseExponential, TimeGrid
from pexsurv.models import (
    FAMILY_GAMMA_CHAIN,
    FAMILY_LOGNORMAL_RW,
    FAMILY_SIMPLE,
    HyperParams,
    ModelSpec,
    ParamState,
    default_grid,
    initial_state,
    joint_log_density,
    log_likelihood,
    log_prior,
    record_weights,
    sufficient_stats,
    zeros_trick_loglik,
)

GRID4 = TimeGrid((0.0, 2.0, 3.0, 5.0))


def _event(i, t, cov=(), rep=1):
    return SurvivalRecord(i, rep, t, 1, covariates=cov)


def _censored(i, t, cov=(), rep=1):
    return SurvivalRecord(i, rep, None, 0, t, covariates=cov)


@pytest.fixture(scope="module")
def kidney():
    return load_kidney()


@pytest.fixture(scope="module")
def kidney_spec():
    return ModelSpec(FAMILY_GAMMA_CHAIN, default_grid(562.0, 10))


def _random_kidney_state(spec, data, rng):
    s = initial_state(spec, data)
    s.rates = rng.gamma(2.0, 0.01, spec.grid.m)
    s.beta = np.array([rng.uniform(-2, 2), rng.uniform(-0.05, 0.05)])
    s.z = rng.gamma(4.0, 0.25, data.n_subjects)
    s.eta = rng.gamma(4.0, 0.5)
    return s


# -- default grid --------------------------------------------------------------


def test_default_grid_matches_equal_spacing():
    g = default_grid(562.0, 10)
    assert g.cut_points == (0.0, 56.2, 112.4, 168.6, 224.8, 281.0, 337.2, 393.4, 449.6, 505.8)


def test_default_grid_edge_cases():
    assert default_grid(5.0, 1).cut_points == (0.0,)
    assert default_grid(10.0, 4).cut_points == (0.0, 2.5, 5.0, 7.5)
    with pytest.raises(ValueError):
        default_grid(5.0, 0)
    with pytest.raises(ValueError):
        default_grid(-1.0, 3)


@pytest.mark.parametrize("max_time", [np.inf, -np.inf, np.nan, 0.0])
def test_default_grid_rejects_a_max_time_that_is_not_finite_and_positive(max_time):
    with pytest.raises(ValueError, match="max_time must be finite and positive"):
        default_grid(max_time, 3)


# -- sufficient statistics ------------------------------------------------------


def test_sufficient_stats_single_event():
    data = SurvivalDataset([_event(1, 1.5)])
    spec = ModelSpec(FAMILY_SIMPLE, GRID4)
    st = sufficient_stats(initial_state(spec, data), spec, data)
    assert st.d.tolist() == [1, 0, 0, 0]
    np.testing.assert_allclose(st.exposure, [1.5, 0, 0, 0], atol=1e-15)


def test_sufficient_stats_overlap_arithmetic():
    data = SurvivalDataset([_event(1, 3.483)])
    spec = ModelSpec(FAMILY_SIMPLE, GRID4)
    st = sufficient_stats(initial_state(spec, data), spec, data)
    assert st.d.tolist() == [0, 0, 1, 0]
    np.testing.assert_allclose(st.exposure, [2.0, 1.0, 3.483 - 3.0, 0.0], atol=1e-15)
    assert st.exposure.sum() == 3.483  # exposures always reassemble the time


def test_sufficient_stats_kidney_event_counts(kidney, kidney_spec):
    state = initial_state(kidney_spec, kidney)
    st = sufficient_stats(state, kidney_spec, kidney, augmented=False)
    assert st.d.tolist() == [30, 5, 9, 5, 1, 3, 0, 2, 0, 3]


def test_exposure_conservation_on_kidney_grid(kidney, kidney_spec):
    grid = kidney_spec.grid
    totals = grid.exposures(kidney.marginal_times).sum(axis=1)
    np.testing.assert_allclose(totals, kidney.marginal_times, rtol=0, atol=1e-10)


def test_exposure_conservation_exact_on_integer_grid():
    grid = TimeGrid((0.0, 2.0, 3.0, 5.0))
    t = np.array([0.25, 1.5, 2.75, 3.483, 4.9, 17.0])
    assert np.all(grid.exposures(t).sum(axis=1) == t)


def test_augmented_counts_include_imputed(kidney, kidney_spec):
    state = initial_state(kidney_spec, kidney)
    st = sufficient_stats(state, kidney_spec, kidney, augmented=True)
    assert st.d.sum() == kidney.n_records


def _reference_stats(state, spec, data, augmented):
    """(d, R) the record-major way: dense exposures, ``.T @ w``, and each
    record counted in the last interval it overlaps."""
    times = state.times if augmented else data.marginal_times
    cuts = np.array(spec.grid.cut_points)
    uppers = np.append(cuts[1:], np.inf)
    dense = np.clip(np.minimum(times[:, None], uppers) - cuts, 0.0, None)
    assert dense.flags.c_contiguous
    j = spec.grid.m - 1 - np.argmax(dense[:, ::-1] > 0.0, axis=1)
    counted = np.ones(data.n_records, dtype=bool) if augmented else data.event_flags
    d = np.bincount(j[counted], minlength=spec.grid.m).astype(float)
    return d, dense.T @ record_weights(state, spec, data)


# below, on and past the cut points of GRID4, and one far past them
_EDGE_TIMES = (0.5, 1.999, 2.0, 2.0001, 3.0, 4.2, 5.0, 5.5, 1e6, 1e300)


@pytest.mark.parametrize("augmented", [True, False], ids=["augmented", "marginal"])
@pytest.mark.parametrize("n", [0, 1, 30], ids=["empty", "one", "edges"])
def test_sufficient_stats_equal_the_record_major_reference(augmented, n):
    rng = np.random.default_rng(n)
    times = np.resize(_EDGE_TIMES, n)
    records = [
        SurvivalRecord(i + 1, 1, t, 1, covariates=(float(i % 3),))
        if i % 4
        else SurvivalRecord(i + 1, 1, None, 0, t, covariates=(float(i % 3),))
        for i, t in enumerate(times)
    ]
    data = SurvivalDataset(records, covariate_names=("x",))
    spec = ModelSpec(FAMILY_GAMMA_CHAIN, GRID4)
    state = initial_state(spec, data)
    state.beta = np.array([0.7])
    state.z = rng.gamma(2.0, 0.5, state.z.size)
    # the censored records' working times: the same edge times in reverse order
    state.times = np.where(data.event_flags, state.times, np.resize(_EDGE_TIMES[::-1], n))
    assert n == 0 or not np.all(record_weights(state, spec, data) == 1.0)

    got = sufficient_stats(state, spec, data, augmented=augmented)
    want_d, want_r = _reference_stats(state, spec, data, augmented)
    assert np.array_equal(got.d, want_d) and got.d.dtype == want_d.dtype
    np.testing.assert_allclose(got.exposure, want_r, rtol=1e-12, atol=0.0)
    assert got.exposure.shape == (GRID4.m,)


@pytest.mark.parametrize(
    "grid, n, censored_every",
    [(GRID4, 30, 4), (GRID4, 30, 1), (GRID4, 0, 4), (TimeGrid((0.0,)), 30, 4)],
    ids=["edges", "all-censored", "empty", "one-interval"],
)
def test_interval_totals_equal_the_record_major_reference(grid, n, censored_every):
    # the simple fit's (d, R): unit weights, marginal mode
    records = [
        SurvivalRecord(i + 1, 1, None, 0, t) if i % censored_every == 0 else _event(i + 1, t)
        for i, t in enumerate(np.resize(_EDGE_TIMES, n))
    ]
    data = SurvivalDataset(records)
    spec = ModelSpec(FAMILY_SIMPLE, grid)
    d, risk = grid.interval_totals(data.marginal_times, data.event_flags)
    want_d, want_r = _reference_stats(initial_state(spec, data), spec, data, augmented=False)
    assert np.array_equal(d, want_d) and d.dtype == want_d.dtype
    np.testing.assert_allclose(risk, want_r, rtol=1e-12, atol=0.0)
    assert risk.shape == (grid.m,) and risk.dtype == float


@pytest.mark.parametrize("bad", [0.0, -1.5, np.inf, np.nan])
def test_interval_totals_reject_times_outside_the_support(bad):
    with pytest.raises(ValueError, match=r"^time points must lie in the open support \(0, \+inf\)$"):
        GRID4.interval_totals([1.5, bad, 4.0], [True, False, True])


@pytest.mark.parametrize("augmented", [True, False], ids=["augmented", "marginal"])
@pytest.mark.parametrize("family", [FAMILY_SIMPLE, FAMILY_GAMMA_CHAIN])
def test_sufficient_stats_are_summed_from_the_overlap_they_return(kidney, family, augmented):
    spec = ModelSpec(family, default_grid(562.0, 10))
    state = _random_kidney_state(spec, kidney, np.random.default_rng(17))
    # the censored records' working times lie past their bounds, as after imputation
    state.times = np.where(kidney.event_flags, kidney.marginal_times, 1.5 * kidney.marginal_times)
    st = sufficient_stats(state, spec, kidney, augmented=augmented)
    times = state.times if augmented else kidney.marginal_times
    np.testing.assert_array_equal(st.overlap, spec.grid.exposures(times).T)
    assert st.overlap.shape == (spec.grid.m, kidney.n_records)
    # each record's interval is the last one it overlaps; d counts the density records
    last = spec.grid.m - 1 - np.argmax(st.overlap[::-1] > 0.0, axis=0)
    counted = np.ones(kidney.n_records, dtype=bool) if augmented else kidney.event_flags
    np.testing.assert_array_equal(st.d, np.bincount(last[counted], minlength=spec.grid.m))
    np.testing.assert_array_equal(st.exposure, st.overlap @ record_weights(state, spec, kidney))


@pytest.mark.parametrize("bad", [0.0, -1.5, np.inf, np.nan])
def test_sufficient_stats_reject_working_times_outside_the_support(bad):
    data = SurvivalDataset([_event(1, 1.5), _censored(2, 2.5), _event(3, 4.0)])
    spec = ModelSpec(FAMILY_SIMPLE, GRID4)
    state = initial_state(spec, data)
    state.times[1] = bad
    with pytest.raises(ValueError, match=r"^time points must lie in the open support \(0, \+inf\)$"):
        sufficient_stats(state, spec, data, augmented=True)


# -- likelihood -----------------------------------------------------------------


def test_simple_single_record_likelihood():
    data = SurvivalDataset([_event(1, 0.5)])
    spec = ModelSpec(FAMILY_SIMPLE, TimeGrid((0.0,)))
    state = initial_state(spec, data)
    state.rates = np.array([2.0])
    assert log_likelihood(state, spec, data) == pytest.approx(math.log(2.0) - 2.0 * 0.5, rel=1e-12)


def test_frailty_likelihood_degenerates_to_simple(kidney):
    grid = default_grid(562.0, 10)
    sp_frail = ModelSpec(FAMILY_GAMMA_CHAIN, grid)
    sp_simple = ModelSpec(FAMILY_SIMPLE, grid)
    state = initial_state(sp_frail, kidney)
    state.rates = np.full(10, 0.01)
    # z == 1 and beta == 0 collapse the frailty likelihood onto the simple one
    a = log_likelihood(state, sp_frail, kidney)
    b = log_likelihood(state, sp_simple, kidney)
    assert a == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize("augmented", [True, False], ids=["augmented", "marginal"])
def test_likelihood_reads_a_time_on_a_cut_point_in_the_interval_it_closes(augmented):
    # t = 2.0 closes I_1 (rate 1, H = 2); t = 2.5 lies in I_2 (rate 2, H = 3);
    # the censored record scores a density only when augmented
    data = SurvivalDataset([_event(1, 2.0), _event(2, 2.5), _censored(3, 3.0)])
    spec = ModelSpec(FAMILY_SIMPLE, GRID4)
    state = initial_state(spec, data)
    state.rates = np.array([1.0, 2.0, 3.0, 4.0])
    state.times = np.array([2.0, 2.5, 5.0])
    # H(3) = 4 at the censoring time; H(5) = 10 at the working time, rate 3
    want = math.log(2.0) + math.log(3.0) - 2.0 - 3.0 - 10.0 if augmented else math.log(2.0) - 9.0
    assert log_likelihood(state, spec, data, augmented=augmented) == pytest.approx(want, rel=1e-12)


def test_likelihood_factorizes_through_sufficient_stats(kidney, kidney_spec):
    # direct per-record log-likelihood == sum_j [d_j log l_j - l_j R_j]
    # plus a rate-free term sum_events log(w_e); checked at random states
    rng = np.random.default_rng(31)
    for _ in range(20):
        s = _random_kidney_state(kidney_spec, kidney, rng)
        st = sufficient_stats(s, kidney_spec, kidney, augmented=False)
        direct = log_likelihood(s, kidney_spec, kidney, augmented=False)
        factored = float(np.sum(st.d * np.log(s.rates) - s.rates * st.exposure))
        w = record_weights(s, kidney_spec, kidney)
        rate_free = float(np.sum(np.log(w[kidney.event_flags])))
        assert direct == pytest.approx(factored + rate_free, abs=1e-10)


def test_augmented_likelihood_scores_imputed_times(kidney, kidney_spec):
    state = initial_state(kidney_spec, kidney)
    state.rates = np.full(10, 0.005)
    aug = log_likelihood(state, kidney_spec, kidney, augmented=True)
    marg = log_likelihood(state, kidney_spec, kidney, augmented=False)
    assert aug != pytest.approx(marg)  # censored records enter as densities


def test_param_state_copy_equals_the_original_and_shares_no_array(kidney, kidney_spec):
    state = _random_kidney_state(kidney_spec, kidney, np.random.default_rng(5))
    dup = state.copy()
    for f in dataclasses.fields(ParamState):
        a, b = getattr(state, f.name), getattr(dup, f.name)
        if isinstance(a, np.ndarray):
            assert not np.shares_memory(a, b), f.name
            assert b.dtype == a.dtype and np.array_equal(a, b), f.name
        else:
            assert type(b) is type(a) and b == a, f.name
    dup.rates[0] += 1.0
    assert state.rates[0] != dup.rates[0]


# -- prior ------------------------------------------------------------------------


def test_simple_prior_matches_scipy():
    spec = ModelSpec(FAMILY_SIMPLE, GRID4)
    data = SurvivalDataset([_event(1, 1.0)])
    state = initial_state(spec, data)
    state.rates = np.array([0.4, 1.2, 0.9, 2.0])
    expected = stats.gamma.logpdf(state.rates, a=0.01, scale=1 / 0.01).sum()
    assert log_prior(state, spec) == pytest.approx(expected, rel=1e-12)


def test_gamma_chain_prior_matches_scipy(kidney, kidney_spec):
    rng = np.random.default_rng(5)
    state = _random_kidney_state(kidney_spec, kidney, rng)
    lam = state.rates
    prev = np.concatenate(([1.0], lam[:-1]))
    expected = stats.gamma.logpdf(lam, a=0.01, scale=prev / 0.01).sum()
    expected += stats.gamma.logpdf(state.z, a=state.eta, scale=1 / state.eta).sum()
    expected += stats.gamma.logpdf(state.eta, a=1e-3, scale=1e3)
    expected += stats.norm.logpdf(state.beta, scale=np.sqrt(1e3)).sum()
    assert log_prior(state, kidney_spec) == pytest.approx(expected, rel=1e-12)


def test_lognormal_rw_prior_matches_scipy(kidney):
    spec = ModelSpec(FAMILY_LOGNORMAL_RW, default_grid(562.0, 10))
    rng = np.random.default_rng(6)
    state = _random_kidney_state(spec, kidney, rng)
    xi = np.log(state.rates)
    prev = np.concatenate(([0.0], xi[:-1]))
    expected = stats.norm.logpdf(xi, loc=prev, scale=np.sqrt(1e4)).sum()
    expected += stats.gamma.logpdf(state.z, a=state.eta, scale=1 / state.eta).sum()
    expected += stats.gamma.logpdf(state.eta, a=1e-3, scale=1e3)
    expected += stats.norm.logpdf(state.beta, scale=np.sqrt(1e3)).sum()
    assert log_prior(state, spec) == pytest.approx(expected, rel=1e-12)


def test_joint_log_density_finite_at_vague_hyperparameters(kidney):
    # the documented hyperparameters are extreme; make sure nothing overflows
    rng = np.random.default_rng(11)
    for family in (FAMILY_GAMMA_CHAIN, FAMILY_LOGNORMAL_RW):
        spec = ModelSpec(family, default_grid(562.0, 10))
        for _ in range(10):
            s = _random_kidney_state(spec, kidney, rng)
            assert np.isfinite(joint_log_density(s, spec, kidney))
            assert np.isfinite(joint_log_density(s, spec, kidney, augmented=False))


def test_joint_log_density_rejects_invalid_state(kidney, kidney_spec):
    state = initial_state(kidney_spec, kidney)
    state.eta = -1.0
    with pytest.raises(ValueError):
        joint_log_density(state, kidney_spec, kidney)
    # a zero rate fails the frailty likelihood's check and the simple prior's
    for family, message in [
        (FAMILY_GAMMA_CHAIN, "frailty families require strictly positive rates"),
        (FAMILY_LOGNORMAL_RW, "frailty families require strictly positive rates"),
        (FAMILY_SIMPLE, "rate prior is defined on strictly positive rates"),
    ]:
        spec = ModelSpec(family, kidney_spec.grid)
        state = initial_state(spec, kidney)
        state.rates[3] = 0.0
        with pytest.raises(ValueError, match=f"^{message}$"):
            joint_log_density(state, spec, kidney)


def test_each_prior_density_is_written_once():
    # Every Gamma prior goes through one log density and every normal prior
    # through another, so each density's constants are stated once.
    tree = ast.parse(inspect.getsource(models))
    readers = {"lgamma": set(), "pi": set()}
    for top in tree.body:  # a read outside any def is filed under None
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in readers
                and isinstance(node.value, ast.Name)
                and node.value.id == "math"
            ):
                readers[node.attr].add(getattr(top, "name", None))
    assert readers == {"lgamma": {"_gamma_log_density"}, "pi": {"_normal_log_density"}}


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize(
    "name", ["gamma_shape", "gamma_rate", "alpha", "nu", "phi1", "phi2", "beta_var"]
)
def test_every_hyperparameter_must_be_finite_and_strictly_positive(name, bad):
    message = f"^hyperparameter {name} must be finite and strictly positive$"
    with pytest.raises(ValueError, match=message):
        HyperParams(**{name: bad})


def test_hyperparams_validated():
    with pytest.raises(ValueError):
        HyperParams(nu=0.0)
    with pytest.raises(ValueError):
        ModelSpec("weibull", GRID4)


def test_hyperparams_reject_non_finite_values():
    # gamma_rate = inf used to pass and freeze simple-family rates at 0.0
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="gamma_rate must be finite"):
            HyperParams(gamma_rate=bad)


# -- zeros-trick oracle ------------------------------------------------------------


def test_zeros_trick_censored_record_is_log_survival():
    data = SurvivalDataset([_censored(1, 2.5)])
    spec = ModelSpec(FAMILY_SIMPLE, GRID4)
    state = initial_state(spec, data)
    state.rates = np.array([0.3, 0.6, 0.8, 1.3])
    pe = PiecewiseExponential(GRID4, state.rates)
    assert zeros_trick_loglik(state, spec, data) == pytest.approx(-pe.cum_hazard(2.5), rel=1e-14)


def test_zeros_trick_event_offset_is_log_interval_offset():
    # for one event the two routes differ by exactly -log(t - a_J)
    data = SurvivalDataset([_event(1, 3.483)])
    spec = ModelSpec(FAMILY_SIMPLE, GRID4)
    state = initial_state(spec, data)
    rng = np.random.default_rng(21)
    for _ in range(10):
        state.rates = rng.gamma(2.0, 0.5, 4)
        diff = log_likelihood(state, spec, data) - zeros_trick_loglik(state, spec, data)
        assert diff == pytest.approx(-math.log(3.483 - 3.0), rel=1e-10)


def test_zeros_trick_difference_is_parameter_free(kidney, kidney_spec):
    rng = np.random.default_rng(77)
    diffs = []
    for _ in range(100):
        s = _random_kidney_state(kidney_spec, kidney, rng)
        diffs.append(
            log_likelihood(s, kidney_spec, kidney) - zeros_trick_loglik(s, kidney_spec, kidney)
        )
    diffs = np.asarray(diffs)
    assert diffs.max() - diffs.min() < 1e-10
    t = kidney.marginal_times[kidney.event_flags]
    cuts = np.asarray(kidney_spec.grid.cut_points)
    j = np.searchsorted(cuts, t, side="left") - 1
    assert diffs[0] == pytest.approx(-np.sum(np.log(t - cuts[j])), rel=1e-9)

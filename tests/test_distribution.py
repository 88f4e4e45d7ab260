import numpy as np
import pytest
from scipy import integrate, stats

from pexsurv.distribution import (
    InvalidParamsError,
    PiecewiseExponential,
    TimeGrid,
    UnreachableMassError,
    validate_params,
)

GRID = (0.0, 2.0, 3.0, 5.0)
RATES = (0.3, 0.6, 0.8, 1.3)


@pytest.fixture
def pe():
    return PiecewiseExponential(GRID, RATES)


# -- validation --------------------------------------------------------------


def test_validate_ok():
    assert validate_params(GRID, RATES) == []


def test_validate_origin_rule():
    out = validate_params([1.0, 2.0], [1.0, 1.0])
    assert [v.rule for v in out] == ["origin"]
    assert out[0].index == 0


def test_validate_increasing_rule_reports_first_offender():
    out = validate_params([0.0, 3.0, 2.0], [1.0, 1.0, 1.0])
    assert [v.rule for v in out] == ["increasing"]
    assert out[0].index == 2


def test_validate_negative_rate():
    out = validate_params(GRID, [0.3, -0.6, 0.8, 1.3])
    assert [(v.rule, v.index) for v in out] == [("nonnegative", 1)]


def test_validate_length_mismatch_and_empty():
    assert any(v.rule == "length" for v in validate_params([0.0, 1.0], [1.0]))
    assert any(v.rule == "length" for v in validate_params([], []))


def test_validate_collects_every_violation():
    out = validate_params([1.0, 0.5], [-1.0, 2.0])
    assert {"origin", "increasing", "nonnegative"} <= {v.rule for v in out}


def test_constructor_raises_with_violation_list():
    with pytest.raises(InvalidParamsError) as err:
        PiecewiseExponential([0.0, 2.0], [1.0, -1.0])
    assert err.value.violations


def test_zero_rates_are_legal():
    PiecewiseExponential(GRID, [0.0, 0.0, 0.0, 0.0])


# -- interval lookup ---------------------------------------------------------


@pytest.mark.parametrize(
    "t,expected",
    [(2.0, 1), (3.483, 3), (100.0, 4), (0.5, 1), (3.0, 2), (5.0, 3), (5.0001, 4)],
)
def test_interval_index(t, expected):
    assert TimeGrid(GRID).interval_index(t) == expected


def test_interval_index_rejects_nonpositive():
    g = TimeGrid(GRID)
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            g.interval_index(bad)


def test_interval_index_vectorized(pe):
    idx = pe.grid.interval_index([0.5, 2.0, 2.5, 7.0])
    assert idx.tolist() == [1, 1, 2, 4]


# -- hazard and cumulative hazard --------------------------------------------


def test_hazard_values(pe):
    assert pe.hazard(3.483) == 0.8
    assert pe.hazard(0.5) == 0.3
    assert pe.hazard(7.0) == 1.3


def test_hazard_rejects_nonpositive(pe):
    with pytest.raises(ValueError):
        pe.hazard(0.0)


def test_cum_hazard_anchor(pe):
    assert pe.cum_hazard(3.483) == pytest.approx(0.3 * 2 + 0.6 * 1 + 0.8 * 0.483, abs=1e-15)
    assert pe.cum_hazard(1.0) == pytest.approx(0.3, abs=1e-15)
    assert pe.cum_hazard(5.0) == pytest.approx(2.8, abs=1e-13)


def test_cum_hazard_matches_quadrature(pe):
    # independent route: numerically integrate the step hazard
    for t in (0.7, 2.0, 2.9, 3.483, 4.8, 6.2):
        ref, _ = integrate.quad(pe.hazard, 1e-12, t, points=[2, 3, 5], limit=200)
        assert pe.cum_hazard(t) == pytest.approx(ref, rel=1e-9)


def test_cum_hazard_segment_increments(pe):
    cuts = np.array(GRID)
    for j in range(3):
        inc = pe.cum_hazard(cuts[j + 1]) - (pe.cum_hazard(cuts[j]) if j else 0.0)
        assert inc == pytest.approx(RATES[j] * (cuts[j + 1] - cuts[j]), abs=1e-12)


def test_cum_hazard_continuous_at_cuts(pe):
    for a in (2.0, 3.0, 5.0):
        below = pe.cum_hazard(np.nextafter(a, 0))
        above = pe.cum_hazard(np.nextafter(a, np.inf))
        assert abs(above - below) < 1e-12


# -- survival / cdf / density -------------------------------------------------


def test_survival_near_origin(pe):
    assert pe.survival(1e-300) == 1.0
    assert pe.cdf(1e-300) == pytest.approx(0.0, abs=1e-299)


def test_survival_from_cum_hazard(pe):
    t = 3.483
    assert pe.survival(t) == pytest.approx(np.exp(-pe.cum_hazard(t)), rel=1e-15)
    assert pe.cdf(t) == pytest.approx(1.0 - pe.survival(t), rel=1e-12)


def test_single_interval_reduces_to_exponential():
    pe = PiecewiseExponential([0.0], [2.0])
    assert pe.density(0.5) == pytest.approx(2.0 * np.exp(-1.0), rel=1e-12)
    assert pe.log_density(0.5) == pytest.approx(np.log(2.0) - 1.0, rel=1e-12)


def test_log_density_is_minus_inf_on_zero_rate():
    pe = PiecewiseExponential([0.0, 1.0], [1.0, 0.0])
    assert pe.log_density(2.0) == -np.inf
    assert pe.density(2.0) == 0.0


def test_density_is_exp_of_log_density(pe):
    t = np.array([0.5, 2.5, 4.0, 9.0])
    np.testing.assert_allclose(pe.density(t), np.exp(pe.log_density(t)), rtol=1e-15)


def test_density_integrates_to_one(pe):
    t_big = 40.0
    area, _ = integrate.quad(pe.density, 1e-12, t_big, points=[2, 3, 5], limit=400)
    assert area + pe.survival(t_big) == pytest.approx(1.0, abs=1e-6)


def test_constant_rates_match_exponential_everywhere():
    c = 0.7
    pe = PiecewiseExponential(GRID, [c] * 4)
    t = np.array([0.2, 1.9, 2.0, 3.7, 11.0])
    np.testing.assert_allclose(pe.cum_hazard(t), c * t, rtol=1e-12)
    np.testing.assert_allclose(pe.survival(t), np.exp(-c * t), rtol=1e-12)
    np.testing.assert_allclose(pe.density(t), c * np.exp(-c * t), rtol=1e-12)
    assert pe.quantile(0.5) == pytest.approx(np.log(2) / c, rel=1e-12)


# -- quantiles ----------------------------------------------------------------


def _bisect_quantile(pe, p, hi=1e6, tol=1e-12):
    # oracle: root-find cdf(t) = p without touching the closed form
    lo = 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if pe.cdf(mid) >= p:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol * max(hi, 1.0):
            break
    return 0.5 * (lo + hi)


def test_exponential_median():
    pe = PiecewiseExponential([0.0], [2.0])
    assert pe.quantile(0.5) == pytest.approx(np.log(2) / 2, rel=1e-12)


def test_quantile_median_anchor(pe):
    q = pe.quantile(0.5)
    assert q == pytest.approx(2.1552, abs=1e-4)
    assert q == pytest.approx(_bisect_quantile(pe, 0.5), rel=1e-9)


def test_quantile_upper_tail_lands_in_last_interval(pe):
    q = pe.quantile(0.99)
    assert pe.grid.interval_index(q) == 4
    assert q == pytest.approx(_bisect_quantile(pe, 0.99), rel=1e-9)


def test_median_of_decreasing_rates_lands_in_first_interval():
    pe = PiecewiseExponential(GRID, (1.3, 0.8, 0.6, 0.3))
    q = pe.median()
    assert pe.grid.interval_index(q) == 1
    assert q == pytest.approx(_bisect_quantile(pe, 0.5), rel=1e-9)


def test_median_is_quantile_half_bit_for_bit(pe):
    assert pe.median() == pe.quantile(0.5)


def test_quantile_rejects_boundary_probabilities(pe):
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            pe.quantile(p)


def test_quantile_skips_flat_plateau():
    pe = PiecewiseExponential([0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 1.0, 0.0])
    # H climbs to 1 on (0,1], is flat on (1,2], climbs to 2 on (2,3], flat after
    p_at_plateau = 1.0 - np.exp(-1.0)
    assert pe.quantile(p_at_plateau) == pytest.approx(1.0, rel=1e-12)
    w = 1.5
    assert pe.quantile(1.0 - np.exp(-w)) == pytest.approx(2.5, rel=1e-12)
    # on the hazard scale the plateau level maps to its left endpoint exactly
    assert pe.inverse_cum_hazard(1.0) == 1.0
    np.testing.assert_allclose(pe.inverse_cum_hazard([1.0, 1.5, 2.0]), [1.0, 2.5, 3.0])


def test_quantile_unreachable_mass_in_zero_rate_tail():
    pe = PiecewiseExponential([0.0, 1.0], [1.0, 0.0])
    with pytest.raises(UnreachableMassError):
        pe.quantile(0.9)  # w = 2.3 > sup H = 1
    assert pe.inverse_cum_hazard(1.0) == 1.0  # the saturation level itself is reached
    with pytest.raises(UnreachableMassError):
        pe.inverse_cum_hazard(1.0 + 1e-9)
    with pytest.raises(UnreachableMassError):
        pe.inverse_cum_hazard([0.5, 50.0])


def test_inverse_cum_hazard_rejects_negative_levels():
    pe = PiecewiseExponential([0.0, 1.0], [1.0, 2.0])
    assert pe.inverse_cum_hazard(0.0) == 0.0
    for bad in (-1e-12, [0.5, -1.0], np.nan):
        with pytest.raises(ValueError):
            pe.inverse_cum_hazard(bad)


def _random_case(rng):
    m = int(rng.integers(1, 8))
    cuts = np.concatenate(([0.0], np.sort(rng.uniform(0.1, 12.0, m - 1))))
    rates = rng.uniform(0.05, 4.0, m)
    d = PiecewiseExponential(cuts, rates)
    # keep H(t) moderate: past H ~ 12 the probability scale saturates in
    # float64 and no inverse can recover t
    for _ in range(100):
        t = rng.uniform(0.01, cuts[-1] + 3.0)
        if d.cum_hazard(t) <= 10.0:
            return d, t
    return d, float(d.quantile(0.99))


def test_round_trip_identities(pe):
    rng = np.random.default_rng(12345)
    for _ in range(200):
        d, t = _random_case(rng)
        assert d.quantile(d.cdf(t)) == pytest.approx(t, rel=1e-9)
        p = rng.uniform(0.001, 0.999)
        assert d.cdf(d.quantile(p)) == pytest.approx(p, rel=1e-9, abs=1e-12)
        assert d.inverse_cum_hazard(d.cum_hazard(t)) == pytest.approx(t, rel=1e-9)
        # far in the tail: cdf(t) rounds to 1, the hazard scale still inverts
        t_far = float(d.cuts[-1]) + rng.uniform(50.0, 1e4) / float(d.rates[-1])
        assert d.cdf(t_far) == 1.0
        assert d.inverse_cum_hazard(d.cum_hazard(t_far)) == pytest.approx(t_far, rel=1e-9)


# -- sampling -----------------------------------------------------------------


def test_sample_interval_proportions(pe):
    rng = np.random.default_rng(7)
    draws = pe.sample(100_000, rng=rng)
    idx = pe.grid.interval_index(draws)
    props = np.bincount(idx - 1, minlength=4) / draws.size
    s = np.exp(-np.array([0.0, 0.6, 1.2, 2.8]))  # survival at the cut points
    expected = np.append(-np.diff(s), s[-1])
    np.testing.assert_allclose(props, expected, atol=0.01)


def test_sample_truncation_lower_bound(pe):
    rng = np.random.default_rng(8)
    draws = pe.sample(2000, rng=rng, lower=4.0)
    assert np.all(draws > 4.0)


def test_sample_truncated_matches_conditional_cdf(pe):
    rng = np.random.default_rng(9)
    draws = pe.sample(100_000, rng=rng, lower=1.0, upper=2.0)
    assert np.all((draws > 1.0) & (draws <= 2.0))
    f1, f2 = pe.cdf(1.0), pe.cdf(2.0)

    def cond_cdf(t):
        return (pe.cdf(t) - f1) / (f2 - f1)

    res = stats.kstest(draws, cond_cdf)
    assert res.pvalue > 0.001


def test_sample_reproducible():
    a = PiecewiseExponential(GRID, RATES).sample(50, rng=np.random.default_rng(5))
    b = PiecewiseExponential(GRID, RATES).sample(50, rng=np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)


def test_sample_scalar_mode(pe):
    x = pe.sample(rng=np.random.default_rng(1))
    assert isinstance(x, float) and x > 0


def test_sample_unreachable_tail():
    pe = PiecewiseExponential([0.0, 1.0], [1.0, 0.0])
    rng = np.random.default_rng(2)
    with pytest.raises(UnreachableMassError):
        pe.sample(10, rng=rng)  # unbounded upper with deficient mass
    with pytest.raises(UnreachableMassError):
        pe.sample(10, rng=rng, lower=1.5, upper=2.5)  # bounds inside the flat tail
    # a bounded region below the plateau still works
    draws = pe.sample(10, rng=rng, lower=0.2, upper=0.8)
    assert np.all((draws > 0.2) & (draws <= 0.8))


def test_sample_rejects_bad_bounds(pe):
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        pe.sample(5, rng=rng, lower=-1.0)
    with pytest.raises(ValueError):
        pe.sample(5, rng=rng, lower=2.0, upper=2.0)

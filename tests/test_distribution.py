import ast
import inspect
import re
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from pexsurv import distribution
from pexsurv.distribution import (
    InvalidParamsError,
    PiecewiseExponential,
    TimeGrid,
    UnreachableMassError,
    hazard_ladder,
    inverse_cum_hazard_at,
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


def test_validate_repeated_infinite_cut_points_without_a_warning():
    # neighbours are compared, not subtracted: inf - inf would warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = validate_params([0.0, np.inf, np.inf], [1.0, 1.0, 1.0])
    assert [(v.rule, v.index) for v in out] == [("finite", 1), ("increasing", 2)]


def test_validate_raises_on_arrays_that_are_not_one_dimensional():
    with pytest.raises(ValueError, match="^cut_points and rates must be one-dimensional$"):
        validate_params([[0.0]], [[1.0]])


def test_validate_collects_every_violation():
    out = validate_params([1.0, 0.5], [-1.0, 2.0])
    assert {"origin", "increasing", "nonnegative"} <= {v.rule for v in out}


INC = "cut points must be strictly increasing; cut_points[{}] breaks the order"


@pytest.mark.parametrize(
    "cuts, rates, expected",
    [
        (GRID, RATES, []),
        ([-0.0, 1.0], [0.0, 0.0], []),
        ([], [], [("length", None, "grid must contain at least one cut point")]),
        (
            [],
            [1.0],
            [
                ("length", None, "grid must contain at least one cut point"),
                ("length", None, "grid has 0 cut points but 1 rates; lengths must match"),
            ],
        ),
        (
            [0.0, 1.0, 2.0],
            [1.0, -0.5],
            [
                ("length", None, "grid has 3 cut points but 2 rates; lengths must match"),
                ("nonnegative", 1, "rates[1] is negative (-0.5)"),
            ],
        ),
        (
            [0.0, np.nan, 2.0],
            [1.0, np.inf, -np.inf],
            [
                ("finite", 1, "cut_points[1] is not finite"),
                ("finite", 1, "rates[1] is not finite"),
                ("increasing", 1, INC.format(1)),
            ],
        ),
        (
            [1.0, 0.5, 0.5],
            [-1.0, np.nan, -2.0],
            [
                ("finite", 1, "rates[1] is not finite"),
                ("origin", 0, "first cut point must be exactly 0, got 1"),
                ("increasing", 1, INC.format(1)),
                ("nonnegative", 0, "rates[0] is negative (-1)"),
            ],
        ),
        (
            [0.0, 1.0, -np.inf, np.inf],
            [np.nan, 0.0, 2.0, -1e-300],
            [
                ("finite", 2, "cut_points[2] is not finite"),
                ("finite", 0, "rates[0] is not finite"),
                ("increasing", 2, INC.format(2)),
                ("nonnegative", 3, "rates[3] is negative (-1e-300)"),
            ],
        ),
        (
            [np.nan],
            [np.inf],
            [
                ("finite", 0, "cut_points[0] is not finite"),
                ("finite", 0, "rates[0] is not finite"),
                ("origin", 0, "first cut point must be exactly 0, got nan"),
            ],
        ),
        ([0.0, 2.0, 2.0, 1.0], [0.0, 1.0, 1.0, 1.0], [("increasing", 2, INC.format(2))]),
    ],
)
def test_validate_reports_each_rule_index_and_message_in_order(cuts, rates, expected):
    out = validate_params(cuts, rates)
    assert [(v.rule, v.index, v.message) for v in out] == expected
    assert all(type(v.index) in (int, type(None)) for v in out)


def test_constructor_raises_with_violation_list():
    with pytest.raises(InvalidParamsError) as err:
        PiecewiseExponential([0.0, 2.0], [1.0, -1.0])
    assert err.value.violations


def test_raw_cut_points_and_a_time_grid_build_the_same_distribution():
    raw, grid = PiecewiseExponential(list(GRID), RATES), PiecewiseExponential(TimeGrid(GRID), RATES)
    assert raw.grid == grid.grid and repr(raw) == repr(grid)
    assert raw.m == grid.m == len(GRID)
    at_cuts = np.array(GRID[1:])
    assert np.array_equal(raw.cum_hazard(at_cuts), grid.cum_hazard(at_cuts))


def test_each_construction_validates_its_parameters_once(monkeypatch):
    calls = []

    def counted(cut_points, rates):
        calls.append(cut_points)
        return validate_params(cut_points, rates)

    grid = TimeGrid(GRID)
    monkeypatch.setattr(distribution, "validate_params", counted)
    for points in (list(GRID), grid):
        calls.clear()
        pe = PiecewiseExponential(points, RATES)
        assert len(calls) == 1, points
        assert pe.grid == grid and hash(pe.grid) == hash(grid)
        assert pe.grid.cut_points == GRID and pe.grid.interval_index(2.5) == 2


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


def test_exposures_equal_the_three_temporary_reference():
    grid = TimeGrid(GRID)

    def reference(times):
        t = np.asarray(times, dtype=float)[:, None]
        cuts = np.array(GRID)
        uppers = np.append(cuts[1:], np.inf)
        return np.clip(np.minimum(t, uppers[None, :]) - cuts[None, :], 0.0, None)

    rng = np.random.default_rng(12)
    below_on_past = [0.5, 1.999, 2.0, 2.0001, 3.0, 4.2, 5.0, 5.5, 1e6]
    for times in (below_on_past, rng.uniform(0.0, 8.0, 1000), np.array(GRID[1:]), []):
        got, want = grid.exposures(times), reference(times)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.T.flags.c_contiguous  # a view of one interval-major (m, n) array
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, np.inf, np.nan])
def test_exposures_reject_times_outside_the_support(bad):
    with pytest.raises(ValueError, match=r"^time points must lie in the open support"):
        TimeGrid(GRID).exposures([0.5, bad, 4.2])


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


def test_overflowing_cumulative_hazard_reads_its_limits_without_a_warning():
    # 1e200 * 1e200 passes the largest double, at the last cut and at 1e199
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pe = PiecewiseExponential([0.0, 1e200], [1e200, 1.0])
        assert pe.cum_hazard(1e199) == np.inf
        assert pe.survival(1e199) == 0.0
        assert pe.cdf(1e199) == 1.0
        assert pe.log_density(1e199) == -np.inf
        assert pe.density(1e199) == 0.0
        t = np.array([1.0, 1e199, 3e200])
        np.testing.assert_array_equal(pe.cum_hazard(t), [1e200, np.inf, np.inf])
        np.testing.assert_array_equal(pe.survival(t), [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(pe.cdf(t), [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(pe.log_density(t), [np.log(1e200) - 1e200, -np.inf, -np.inf])
        np.testing.assert_array_equal(pe.density(t), [0.0, 0.0, 0.0])


@pytest.mark.parametrize(
    "grid, rates, lower, finite_lower",
    [
        ([0.0, 1e200], [1e200, 1.0], 1e199, 1e100),
        ([0.0, 10.0, 20.0], [1e308, 1e-3, 1.0], 15.0, 1e-300),
    ],
)
def test_sample_refuses_a_lower_bound_where_the_cumulative_hazard_is_infinite(
    grid, rates, lower, finite_lower
):
    # S(lower) is 0.0, so the float distribution has no mass above the bound
    pe = PiecewiseExponential(grid, rates)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pe.survival(lower) == 0.0
        for upper in (None, 2 * lower):
            with pytest.raises(UnreachableMassError, match=re.escape(f"lower bound {lower:g} ")):
                pe.sample(3, rng=np.random.default_rng(1), lower=lower, upper=upper)
        # a lower bound where H is still finite samples as before
        draws = pe.sample(3, rng=np.random.default_rng(1), lower=finite_lower)
        assert np.all(draws >= finite_lower) and np.isfinite(draws).all()


def test_a_subnormal_rate_inverts_to_plus_inf_without_a_warning():
    # ln 2 / 5e-324 passes the largest double
    pe = PiecewiseExponential([0.0], [5e-324])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pe.quantile(0.5) == np.inf
        assert pe.median() == np.inf
        assert pe.inverse_cum_hazard(1.0) == np.inf
        np.testing.assert_array_equal(pe.inverse_cum_hazard([0.0, 1.0]), [0.0, np.inf])
        np.testing.assert_array_equal(pe.sample(2, rng=np.random.default_rng(1)), [np.inf, np.inf])


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


def test_level_zero_after_leading_zero_rates_is_the_origin():
    # H is 0 on (0, 2]: the smallest t with H(t) >= 0 is the plateau's left end
    pe = PiecewiseExponential([0.0, 1.0, 2.0], [0.0, 0.0, 1.0])
    assert pe.inverse_cum_hazard(0.0) == 0.0
    np.testing.assert_array_equal(pe.inverse_cum_hazard([0.0, 0.5, 0.0]), [0.0, 2.5, 0.0])
    assert PiecewiseExponential([0.0, 1.0], [0.0, 1.0]).inverse_cum_hazard(0.0) == 0.0
    # a NaN level stays NaN, not the plateau's end, so mcmc.impute's finiteness check sees it
    cuts, rates = np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.0, 1.0])
    cum = hazard_ladder(np.diff(cuts), rates)
    out = inverse_cum_hazard_at(cuts, cum, rates, np.array([np.nan, 0.0, 0.5]))
    np.testing.assert_array_equal(out, [np.nan, 0.0, 2.5])


class _ConstantUniform:
    def __init__(self, u):
        self.u = u

    def uniform(self, size=None):
        return self.u if size is None else np.full(size, self.u)


def test_truncated_sample_stays_above_the_lower_bound_on_a_zero_uniform():
    # H(lower) = 0 on the leading plateau; a zero uniform must not invert to t = 0
    pe = PiecewiseExponential([0.0, 1.0, 2.0], [0.0, 0.0, 1.0])
    for upper in (2.5, None):
        assert pe.sample(rng=_ConstantUniform(0.0), lower=0.5, upper=upper) == 2.0
        draws = pe.sample(3, rng=_ConstantUniform(0.0), lower=0.5, upper=upper)
        np.testing.assert_array_equal(draws, [2.0] * 3)


@pytest.mark.parametrize("u", [1e-17, 0.0])
def test_truncated_sample_stays_inside_the_bounds_when_the_excess_rounds_away(u):
    # The excess is below half an ulp of H(lower), so H(lower) + excess is
    # H(lower), whose inverse is lower itself or the left end of the flat
    # stretch around it; the draw must still lie in (lower, upper].
    flat = PiecewiseExponential([0.0, 1.0, 2.0], [1.0, 0.0, 1.0])  # H is 1 on [1, 2]
    np.testing.assert_array_equal(
        flat.sample(3, rng=_ConstantUniform(u), lower=1.5, upper=2.5), [2.0] * 3
    )
    climbing = PiecewiseExponential([0.0, 1.0], [1.0, 1.0])
    above = np.nextafter(0.7, np.inf)
    draws = climbing.sample(3, rng=_ConstantUniform(u), lower=0.7)
    np.testing.assert_array_equal(draws, [above] * 3)
    assert climbing.sample(rng=_ConstantUniform(u), lower=0.7, upper=0.9) == above


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


@pytest.mark.parametrize("lower", [None, 1.0])
@pytest.mark.parametrize("upper", [-np.inf, np.nan])
def test_sample_rejects_an_upper_bound_of_minus_inf_or_nan(pe, lower, upper):
    with pytest.raises(ValueError, match="upper bound must exceed the lower bound"):
        pe.sample(5, rng=np.random.default_rng(3), lower=lower, upper=upper)


def test_only_plus_inf_means_no_upper_bound(pe):
    for lower in (None, 1.0):
        a = pe.sample(20, rng=np.random.default_rng(4), lower=lower, upper=np.inf)
        b = pe.sample(20, rng=np.random.default_rng(4), lower=lower)
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
@pytest.mark.parametrize("bounds", [{}, {"upper": np.inf}, {"lower": 0.0}])
def test_unbounded_draws_invert_an_untruncated_exponential_excess(pe, seed, bounds):
    # with no upper bound the truncated excess is -log1p(-u), bit for bit
    tiny = np.nextafter(0.0, 1.0)
    for size in (None, 1000):
        u = np.random.default_rng(seed).uniform(size=size)
        want = pe.inverse_cum_hazard(np.maximum(-np.log1p(-u), tiny))
        got = pe.sample(size, rng=np.random.default_rng(seed), **bounds)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_evaluations_do_not_call_the_checking_methods(pe, monkeypatch):
    # quantile, sample and log_density check their argument once, then go
    # straight to the private evaluators with values computed inside
    rng = np.random.default_rng(6)
    want = (pe.quantile(0.5), pe.log_density(3.483), pe.sample(9, rng=rng, lower=1.0, upper=4.0))

    def refuse(self, *args, **kwargs):
        raise AssertionError("checked again inside the distribution")

    for name in ("hazard", "cum_hazard", "survival", "cdf", "inverse_cum_hazard"):
        monkeypatch.setattr(PiecewiseExponential, name, refuse)
    rng = np.random.default_rng(6)
    got = (pe.quantile(0.5), pe.log_density(3.483), pe.sample(9, rng=rng, lower=1.0, upper=4.0))
    assert got[:2] == want[:2]
    np.testing.assert_array_equal(got[2], want[2])
    assert pe.median() == want[0]
    assert pe.sample(rng=rng) > 0 and np.isfinite(pe.density(np.array([0.5, 7.0]))).all()


def test_every_method_returns_a_float_for_a_scalar_and_an_array_for_an_array(pe):
    pointwise = ("hazard", "cum_hazard", "survival", "cdf", "log_density", "density")
    methods = [(getattr(pe, name), 3.483) for name in pointwise]
    methods += [(pe.inverse_cum_hazard, 0.7), (pe.quantile, 0.3)]
    for method, x in methods:
        for scalar in (x, np.float64(x), np.array(x)):
            assert type(method(scalar)) is float, method.__name__
        for arr in ([x], np.full((2, 3), x)):
            out = method(arr)
            assert isinstance(out, np.ndarray) and out.shape == np.shape(arr), method.__name__
    rng = np.random.default_rng(5)
    assert type(pe.median()) is float
    for bounds in ({}, {"lower": 1.0}, {"lower": 1.0, "upper": 4.0}):
        assert type(pe.sample(rng=rng, **bounds)) is float
        assert pe.sample(4, rng=rng, **bounds).shape == (4,)


def test_only_the_pointwise_path_checks_times():
    # One method checks, looks up and unwraps every pointwise evaluation; no
    # other method of the distribution calls or aliases the time check.
    tree = ast.parse(inspect.getsource(distribution))
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "PiecewiseExponential"]
    users = [
        (f.name, type(parent).__name__)
        for f in cls.body
        if isinstance(f, ast.FunctionDef)
        for parent in ast.walk(f)
        for child in ast.iter_child_nodes(parent)
        if isinstance(child, ast.Name) and child.id == "_prep_times"
    ]
    assert users == [("_pointwise", "Call")]

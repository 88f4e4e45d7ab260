"""Property tests over random grids, rates and times.

They pin the identities that the sampler's sufficient statistics rest on:
exposure rows sum to the times, ``(d, R)`` account for every event and every
unit of exposure, quantiles invert the CDF, and the zeros-trick likelihood
differs from the direct one by a constant free of the parameters.  They
also pin the sampler's trusted ladder and inverse of H to the validated
``PiecewiseExponential`` methods, bit for bit, the inverse to a per-level
scan over the intervals, errors included, the parameter check to the
constructor's refusals, and every distribution method, on parameters from
the smallest subnormal to 1e300, to a result free of warnings and NaN.
"""

import re
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pexsurv.data import SurvivalDataset, SurvivalRecord
from pexsurv.distribution import (
    InvalidParamsError,
    PiecewiseExponential,
    TimeGrid,
    UnreachableMassError,
    hazard_ladder,
    inverse_cum_hazard_at,
    validate_params,
)
from pexsurv.models import (
    FAMILY_GAMMA_CHAIN,
    FAMILY_SIMPLE,
    ModelSpec,
    initial_state,
    log_likelihood,
    sufficient_stats,
    zeros_trick_loglik,
)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)

grids = st.lists(st.floats(0.01, 10.0), max_size=5).map(
    lambda widths: TimeGrid(tuple(np.concatenate(([0.0], np.cumsum(widths)))))
)
times = st.lists(st.floats(1e-3, 50.0), min_size=1, max_size=30)
rate = st.one_of(st.just(0.0), st.floats(0.01, 5.0))
positive_rate = st.floats(0.01, 5.0)


non_finite = st.sampled_from([np.inf, -np.inf, np.nan])
# positive doubles from the smallest subnormal to 1e300, the ends drawn often
extreme = st.one_of(st.sampled_from([5e-324, 2.2e-308, 1.0, 1e300]), st.floats(5e-324, 1e300))


@st.composite
def param_pairs(draw):
    """A valid (cut points, rates) pair, some of its entries made non-finite,
    perhaps one rate short; or two free lists of any entries."""
    if draw(st.booleans()):
        entry = st.one_of(st.just(0.0), st.floats(-10.0, 10.0), non_finite)
        return [draw(st.lists(entry, max_size=5)) for _ in range(2)]
    m = draw(st.integers(1, 5))
    widths = draw(st.lists(st.floats(0.01, 10.0), min_size=m - 1, max_size=m - 1))
    cuts = np.concatenate(([0.0], np.cumsum(widths)))
    rates = np.array(draw(st.lists(st.floats(0.0, 5.0), min_size=m, max_size=m)))
    for arr in (cuts, rates):
        for i in draw(st.lists(st.integers(0, m - 1), max_size=3)):
            arr[i] = draw(non_finite)
    return cuts.tolist(), rates[: m - draw(st.integers(0, 1))].tolist()


def _rates(draw, grid, elements):
    return np.array(draw(st.lists(elements, min_size=grid.m, max_size=grid.m)))


@st.composite
def datasets(draw, covariate=False):
    """Records at random times, each censored there or not."""
    ts = draw(times)
    censored = draw(st.lists(st.booleans(), min_size=len(ts), max_size=len(ts)))
    xs = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(ts), max_size=len(ts)))
    recs = []
    for i, (t, cen) in enumerate(zip(ts, censored)):
        cov = (xs[i],) if covariate else ()
        if cen:
            recs.append(SurvivalRecord(i + 1, 1, None, 0, t, covariates=cov))
        else:
            recs.append(SurvivalRecord(i + 1, 1, t, 1, covariates=cov))
    return SurvivalDataset(recs, covariate_names=("x",) if covariate else ())


@SETTINGS
@given(grid=grids, ts=times)
def test_exposure_rows_sum_to_the_times(grid, ts):
    t = np.array(ts)
    np.testing.assert_allclose(grid.exposures(t).sum(axis=1), t, rtol=1e-12, atol=1e-12)


@SETTINGS
@given(grid=grids, data=datasets(), augmented=st.booleans())
def test_simple_sufficient_stats_count_every_event_and_all_exposure(grid, data, augmented):
    spec = ModelSpec(FAMILY_SIMPLE, grid)
    state = initial_state(spec, data)
    st_ = sufficient_stats(state, spec, data, augmented=augmented)
    working = state.times if augmented else data.marginal_times
    assert st_.exposure.sum() == pytest.approx(working.sum(), rel=1e-12)
    expected_d = data.n_records if augmented else int(data.event_flags.sum())
    assert st_.d.sum() == expected_d


@SETTINGS
@given(grid=grids, draw=st.data(), frac=st.floats(1e-3, 1.0 - 1e-3))
def test_cdf_inverts_quantile(grid, draw, frac):
    rates = _rates(draw.draw, grid, rate)
    pe = PiecewiseExponential(grid, rates)
    total = np.dot(rates[:-1], np.diff(grid.cut_points)) if rates[-1] == 0 else np.inf
    if total == 0:
        return  # no mass at all
    p = frac * -np.expm1(-total)  # stay below the mass a zero-rate tail leaves
    if p < 1e-3:
        return
    assert pe.cdf(pe.quantile(p)) == pytest.approx(p, rel=1e-9)


@SETTINGS
@given(grid=grids, data=datasets(covariate=True), draw=st.data())
def test_zeros_trick_offset_is_free_of_the_parameters(grid, data, draw):
    spec = ModelSpec(FAMILY_GAMMA_CHAIN, grid)
    state = initial_state(spec, data)
    offsets = []
    for _ in range(2):
        state.rates = _rates(draw.draw, grid, positive_rate)
        state.beta = np.array([draw.draw(st.floats(-1.0, 1.0))])
        state.z = np.array(
            draw.draw(st.lists(st.floats(0.2, 5.0), min_size=data.n_subjects, max_size=data.n_subjects))
        )
        ll = log_likelihood(state, spec, data)
        offsets.append(zeros_trick_loglik(state, spec, data) - ll)
    assert offsets[0] == pytest.approx(offsets[1], rel=1e-9, abs=1e-9)


@SETTINGS
@given(grid=grids, draw=st.data(), ts=times, zero_tail=st.booleans())
def test_trusted_evaluators_equal_the_distribution_methods(grid, draw, ts, zero_tail):
    rates = _rates(draw.draw, grid, rate)  # zero interior rates included
    if zero_tail:
        rates[-1] = 0.0
    pe = PiecewiseExponential(grid, rates)
    # the arrays as the sampler builds them, from the public cut points
    cuts = np.array(grid.cut_points)
    cum = hazard_ladder(np.diff(cuts), rates)
    h = pe.cum_hazard(np.array(ts))
    levels = np.concatenate(([0.0], h, draw.draw(st.lists(st.floats(0.0, 100.0), max_size=5))))
    try:
        expected = pe.inverse_cum_hazard(levels)
    except UnreachableMassError as exc:
        with pytest.raises(UnreachableMassError, match=re.escape(str(exc))):
            inverse_cum_hazard_at(cuts, cum, rates, levels)
    else:
        assert np.array_equal(inverse_cum_hazard_at(cuts, cum, rates, levels), expected)
    if rates[-1] == 0 and rates.any():
        past = np.array([cum[-1] * 1.5 + 1.0])  # beyond saturation
        with pytest.raises(UnreachableMassError, match="saturates"):
            pe.inverse_cum_hazard(past)
        with pytest.raises(UnreachableMassError, match="saturates"):
            inverse_cum_hazard_at(cuts, cum, rates, past)


def _scan_inverse(cuts, cum, rates, levels):
    """Smallest t with H(t) >= w for levels w > 0, one level at a time: scan the
    intervals in order for the first on which H climbs and whose end reaches w."""
    if not rates.any():
        raise UnreachableMassError("all rates are zero; the distribution has no mass")
    m = len(rates)
    out = []
    for w in levels:
        for j in range(m):
            end = cum[j + 1] if j + 1 < m else np.inf
            if rates[j] > 0 and end >= w:
                break
        else:
            raise UnreachableMassError(
                f"cumulative hazard saturates at {float(cum[-1]):g}; requested level unreachable"
            )
        out.append(cuts[j] + (w - cum[j]) / rates[j])
    return np.array(out)


@SETTINGS
@given(grid=grids, draw=st.data(), zero_tail=st.booleans())
def test_inverse_equals_a_per_level_scan(grid, draw, zero_tail):
    rates = _rates(draw.draw, grid, rate)  # zero interior rates included
    if zero_tail:
        rates[-1] = 0.0
    cuts = np.array(grid.cut_points)
    cum = hazard_ladder(np.diff(cuts), rates)
    extra = draw.draw(st.lists(st.floats(0.0, 100.0), max_size=5))
    levels = np.concatenate((cum, np.nextafter(cum, np.inf), extra, [np.inf]))
    # each level alone, then all at once (one level past the supremum fails the lot)
    for w in [*levels[levels > 0, None], levels[levels > 0]]:
        try:
            expected = _scan_inverse(cuts, cum, rates, w)
        except UnreachableMassError as exc:
            with pytest.raises(UnreachableMassError, match=re.escape(str(exc))):
                inverse_cum_hazard_at(cuts, cum, rates, w)
        else:
            assert inverse_cum_hazard_at(cuts, cum, rates, w).tobytes() == expected.tobytes()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(pair=param_pairs())
def test_validation_never_warns_and_the_constructor_refuses_exactly_its_violations(pair):
    cuts, rates = pair
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        violations = validate_params(cuts, rates)
        grid_ok = not validate_params(cuts, np.zeros(len(cuts)))
        grids = [cuts] + ([TimeGrid(tuple(cuts))] if grid_ok else [])
        for grid in grids:
            if violations:
                with pytest.raises(InvalidParamsError) as err:
                    PiecewiseExponential(grid, rates)
                assert err.value.violations == violations
            else:
                PiecewiseExponential(grid, rates)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    cuts=st.sets(extreme, max_size=4),
    draw=st.data(),
    ts=st.lists(extreme, min_size=1, max_size=4),
    p=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    bounds=st.lists(extreme, min_size=2, max_size=2).map(sorted),
)
def test_extreme_valid_parameters_evaluate_without_a_warning_or_a_nan(cuts, draw, ts, p, bounds):
    m = len(cuts) + 1
    rates = draw.draw(st.lists(st.one_of(st.just(0.0), extreme), min_size=m, max_size=m))
    pe = PiecewiseExponential([0.0, *sorted(cuts)], rates)
    t = np.array(ts)
    lower, upper = bounds
    names = ("hazard", "cum_hazard", "survival", "cdf", "log_density", "density")
    calls = {name: partial(getattr(pe, name), t) for name in names}
    calls["inverse_cum_hazard"] = lambda: pe.inverse_cum_hazard(np.append(pe.cum_hazard(t), t))
    calls["quantile"] = partial(pe.quantile, p)
    calls["sample"] = lambda: pe.sample(3, rng=np.random.default_rng(0))
    calls["sample above lower"] = lambda: pe.sample(3, rng=np.random.default_rng(0), lower=lower)
    if upper > lower:
        calls["sample between bounds"] = lambda: pe.sample(
            3, rng=np.random.default_rng(0), lower=lower, upper=upper
        )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, call in calls.items():
            try:
                out = call()
            except UnreachableMassError:
                continue
            assert not np.isnan(out).any(), name

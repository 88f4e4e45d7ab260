import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pexsurv.diagnostics import (
    InsufficientDataError,
    SchemaError,
    Summary,
    effective_sample_size,
    format_summary_table,
    hpd_interval,
    summarize,
    write_summary_csv,
)
from pexsurv.mcmc import ChainStore


def _store(**draws):
    return ChainStore(draws={k: np.asarray(v, dtype=float) for k, v in draws.items()})


# -- HPD ----------------------------------------------------------------------


def test_hpd_uniform_ties_resolve_to_lowest_window():
    draws = np.arange(1, 101, dtype=float)
    assert hpd_interval(draws, 0.95) == (1.0, 95.0)


def test_hpd_gaussian_matches_analytic():
    rng = np.random.default_rng(1)
    draws = rng.standard_normal(100_000)
    low, high = hpd_interval(draws, 0.95)
    assert low == pytest.approx(-1.96, rel=0.05)
    assert high == pytest.approx(1.96, rel=0.05)


def test_hpd_constant_draws_zero_length():
    low, high = hpd_interval(np.full(50, 3.3), 0.95)
    assert low == high == 3.3


def test_hpd_requires_ten_draws():
    with pytest.raises(InsufficientDataError):
        hpd_interval(np.arange(9.0), 0.95)


def test_hpd_mass_bounds_checked():
    with pytest.raises(ValueError):
        hpd_interval(np.arange(20.0), 1.0)


def test_hpd_contains_mode_bin_for_unimodal_samples():
    rng = np.random.default_rng(2)
    draws = rng.gamma(3.0, 2.0, 50_000)
    low, high = hpd_interval(draws, 0.5)
    hist, edges = np.histogram(draws, bins=60)
    k = int(np.argmax(hist))
    mode_mid = 0.5 * (edges[k] + edges[k + 1])
    assert low <= mode_mid <= high


def test_hpd_shorter_than_central_interval_for_skewed_samples():
    rng = np.random.default_rng(3)
    draws = rng.gamma(2.0, 1.0, 50_000)
    low, high = hpd_interval(draws, 0.9)
    clow, chigh = np.quantile(draws, [0.05, 0.95])
    assert (high - low) <= (chigh - clow)


# -- ESS ----------------------------------------------------------------------


def test_ess_iid_draws():
    draws = np.random.default_rng(43).standard_normal(10_000)
    est = effective_sample_size(draws)
    assert est == pytest.approx(10_000, rel=0.10)
    assert est <= 10_000


def test_ess_ar1_matches_analytic_rate():
    rng = np.random.default_rng(42)
    n, phi = 10_000, 0.9
    x = np.empty(n)
    x[0] = 0.0
    eps = rng.standard_normal(n)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + eps[t]
    est = effective_sample_size(x)
    assert est == pytest.approx(n * (1 - phi) / (1 + phi), rel=0.15)


def test_ess_constant_sequence_flagged_zero():
    with pytest.warns(RuntimeWarning):
        assert effective_sample_size(np.full(500, 1.23)) == 0.0


def test_ess_requires_hundred_draws():
    with pytest.raises(InsufficientDataError):
        effective_sample_size(np.arange(99.0))


def test_ess_scale_and_shift_invariant():
    rng = np.random.default_rng(44)
    n, phi = 5_000, 0.6
    x = np.empty(n)
    x[0] = 0.0
    eps = rng.standard_normal(n)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + eps[t]
    base = effective_sample_size(x)
    assert effective_sample_size(4.0 * x) == pytest.approx(base, rel=1e-12)
    assert effective_sample_size(-2.5 * x + 17.0) == pytest.approx(base, rel=1e-9)


@pytest.mark.parametrize("e", [-600, 600])
def test_ess_and_sd_are_exact_at_extreme_power_of_two_scales(e):
    # at 2^-600 every square underflows and at 2^600 it overflows; both
    # statistics are computed on draws scaled by an exact power of two
    rng = np.random.default_rng(47)
    x = np.cumsum(rng.standard_normal(1_000)) + 3.0
    y = rng.standard_normal(1_000)
    assert effective_sample_size(np.ldexp(x, e)) == effective_sample_size(x)
    (unit,) = summarize([_store(a=x), _store(a=y)])
    (scaled,) = summarize([_store(a=np.ldexp(x, e)), _store(a=np.ldexp(y, e))])
    assert scaled.sd == math.ldexp(unit.sd, e)
    assert scaled.ess == unit.ess


def test_ess_never_exceeds_draw_count():
    rng = np.random.default_rng(45)
    x = rng.standard_normal(2_000)
    anti = np.empty(2 * x.size)
    anti[0::2], anti[1::2] = x, -x  # antithetic pairs: tau < 1
    assert effective_sample_size(anti) <= anti.size


# -- summarize ------------------------------------------------------------------


def test_summarize_constant_chain():
    store = _store(a=np.full(200, 2.5))
    with pytest.warns(RuntimeWarning):
        (s,) = summarize([store])
    assert (s.mean, s.median, s.sd) == (2.5, 2.5, 0.0)
    assert s.hpd_low == s.hpd_high == 2.5
    assert s.ess == 0.0


def test_summarize_two_identical_chains_match_single():
    rng = np.random.default_rng(5)
    draws = rng.standard_normal(500)
    one = summarize([_store(a=draws)])
    two = summarize([_store(a=draws), _store(a=draws)])
    assert one[0].mean == pytest.approx(two[0].mean, rel=1e-12)
    assert one[0].median == two[0].median
    assert one[0].hpd_low == two[0].hpd_low
    assert one[0].ess == two[0].ess  # first-chain convention


def test_summarize_pools_chains_but_uses_first_chain_ess():
    rng = np.random.default_rng(6)
    a = _store(x=rng.standard_normal(400) + 1.0)
    b = _store(x=rng.standard_normal(400) - 1.0)
    (s_ab,) = summarize([a, b])
    (s_ba,) = summarize([b, a])
    assert s_ab.mean == pytest.approx(s_ba.mean, rel=1e-12)
    assert s_ab.sd == pytest.approx(s_ba.sd, rel=1e-12)
    assert s_ab.ess == effective_sample_size(a.draws["x"])
    assert s_ba.ess == effective_sample_size(b.draws["x"])


@pytest.mark.parametrize("sizes", [(100, 101), (100, 100)], ids=["odd", "even"])
@pytest.mark.parametrize(
    "scale", [5e-324, 1e-320, 1.0, 0.45 * np.finfo(float).max],
    ids=["least-subnormal", "subnormal", "unit", "near-max"],
)
def test_summary_median_is_numpys_median(sizes, scale):
    # Subnormal draws are whole multiples of a subnormal, so the mean of the
    # two middle ones rounds; near the largest double their sum nearly
    # overflows, and the pooled sum does.
    rng = np.random.default_rng(48)
    units = [rng.integers(1, 2**20, n) if scale < 1e-300 else rng.uniform(0.5, 1.0, n) for n in sizes]
    chains = [_store(a=u * scale) for u in units]
    (s,) = summarize(chains)
    pooled = np.concatenate([c.draws["a"] for c in chains])
    assert np.float64(s.median).tobytes() == np.median(pooled).tobytes()


# Near the largest double a sum or a width of finite draws passes it; the
# statistics are taken from the draws scaled by a power of two, so they stay
# finite and exact.
BIG = np.finfo(float).max


def test_summary_mean_is_finite_where_the_pooled_sum_passes_the_largest_double():
    draws = np.random.default_rng(49).uniform(0.3, 0.45, 200) * BIG
    (s,) = summarize([_store(a=draws[:100]), _store(a=draws[100:])])
    reference = math.fsum(draws * 2.0**-8) / draws.size * 2.0**8
    assert math.isfinite(s.mean)
    assert abs(s.mean - reference) <= math.ulp(reference)


def test_subnormal_summary_mean_is_rounded_once():
    # Scaled to unit size, the mean would be rounded to 53 bits and again onto
    # the subnormal grid; numpy's mean of the raw draws is rounded once.
    draws = np.random.default_rng(4).normal(1.0, 0.5, 200) * 2.0**-1023
    (s,) = summarize([_store(a=draws[:100]), _store(a=draws[100:])])
    exact = sum(map(Fraction, draws.tolist())) / draws.size
    assert s.mean == np.mean(draws) == 1.1391881636055804e-308
    assert abs(Fraction(s.mean) - exact) < abs(Fraction(1.13918816360558e-308) - exact)


def test_hpd_bounds_are_draws_where_the_widths_pass_the_largest_double():
    rng = np.random.default_rng(50)
    draws = np.r_[-rng.uniform(0.6, 0.9, 100), rng.uniform(0.6, 0.9, 100)] * BIG
    low, high = hpd_interval(draws)
    assert low in draws and high in draws
    half_low, half_high = hpd_interval(draws / 2.0)
    assert (low, high) == (2.0 * half_low, 2.0 * half_high)


def test_summary_median_of_two_middle_draws_past_half_the_largest_double():
    draws = np.random.default_rng(51).uniform(0.55, 0.9, 200) * BIG
    a, b = np.sort(draws)[99:101]
    assert a > BIG / 2
    (s,) = summarize([_store(a=draws)])
    assert s.median == a / 2 + b / 2


magnitudes = st.floats(2.0**-40, 2.0**40)
draw_values = st.one_of(st.just(0.0), magnitudes, magnitudes.map(lambda v: -v))


@st.composite
def scalable_pools(draw):
    """Two chains and a k for which every draw times 2**k stays a normal, finite
    double, 64 binades clear of the subnormals and one of overflow, so that a
    cancelling mean and the sd stay normal and finite too."""
    chains = [draw(arrays(float, draw(st.integers(lo, 150)), elements=draw_values)) for lo in (100, 10)]
    assume(np.ptp(chains[0]) > 0.0)
    pool = np.abs(np.concatenate(chains))
    exponents = np.frexp(pool[pool > 0.0])[1]
    return chains, draw(st.integers(-957 - int(exponents.min()), 1023 - int(exponents.max())))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(pools=scalable_pools())
def test_scaling_the_draws_by_a_power_of_two_scales_every_statistic_exactly(pools):
    chains, k = pools
    (s,) = summarize([_store(a=c) for c in chains])
    (t,) = summarize([_store(a=np.ldexp(c, k)) for c in chains])
    for stat in ("mean", "median", "sd", "hpd_low", "hpd_high"):
        assert getattr(t, stat) == math.ldexp(getattr(s, stat), k), stat
    assert t.ess == s.ess


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_draws_are_rejected(bad):
    draws = np.r_[np.linspace(0.0, 1.0, 199), bad]
    for stat in (hpd_interval, effective_sample_size):
        with pytest.raises(ValueError, match="draws must be finite"):
            stat(draws)
    with pytest.raises(ValueError, match="draws must be finite"):
        summarize([_store(a=draws)])


def test_summarize_schema_mismatch():
    with pytest.raises(SchemaError):
        summarize([_store(a=np.arange(200.0)), _store(b=np.arange(200.0))])


def test_summarize_needs_a_chain():
    with pytest.raises(ValueError, match="^need at least one chain$"):
        summarize([])


def test_summary_writers(tmp_path):
    rng = np.random.default_rng(7)
    stores = [_store(a=rng.standard_normal(300), b=rng.gamma(2, 1, 300))]
    summaries = summarize(stores)
    out = tmp_path / "summary.csv"
    write_summary_csv(summaries, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "parameter,mean,median,sd,hpd_low,hpd_high,ess"
    assert len(lines) == 3
    table = format_summary_table(summaries)
    assert "parameter" in table and "a" in table and "b" in table


def test_summary_csv_bytes_are_pinned(tmp_path):
    # a name holding a comma is quoted; each statistic is its shortest repr
    rows = [
        Summary("beta_a,b", 0.1, -0.0, 1e-300, -1.5, 2.0, 123.456),
        Summary("eta", 1e16, 5e-324, 0.30000000000000004, 1.0, math.inf, 0.0),
    ]
    path = tmp_path / "summary.csv"
    write_summary_csv(rows, path)
    assert path.read_bytes() == (
        b"parameter,mean,median,sd,hpd_low,hpd_high,ess\r\n"
        b'"beta_a,b",0.1,-0.0,1e-300,-1.5,2.0,123.456\r\n'
        b"eta,1e+16,5e-324,0.30000000000000004,1.0,inf,0.0\r\n"
    )

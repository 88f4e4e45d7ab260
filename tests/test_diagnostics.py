import math

import numpy as np
import pytest

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
    # overflows, and the pooled mean does overflow.
    rng = np.random.default_rng(48)
    units = [rng.integers(1, 2**20, n) if scale < 1e-300 else rng.uniform(0.5, 1.0, n) for n in sizes]
    chains = [_store(a=u * scale) for u in units]
    with np.errstate(over="ignore"):
        (s,) = summarize(chains)
    pooled = np.concatenate([c.draws["a"] for c in chains])
    assert np.float64(s.median).tobytes() == np.median(pooled).tobytes()


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

"""Checks of the benchmark's own code: its ESS, its failure count, its tracing."""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for _p in (str(HERE), str(HERE.parent / "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import pexsurv  # noqa: E402
from pexsurv import (  # noqa: E402
    FAMILY_GAMMA_CHAIN,
    FAMILY_SIMPLE,
    ChainStore,
    McmcConfig,
    ModelSpec,
    SurvivalDataset,
    SurvivalRecord,
    TimeGrid,
    default_grid,
    load_kidney,
    run_chains,
)

import bench  # noqa: E402
import geyer  # noqa: E402
import tracing  # noqa: E402
from workloads import SIMULATE_S1  # noqa: E402


def _ar1(phi, n, seed):
    rng = np.random.default_rng(seed)
    e = rng.normal(size=n)
    x = np.empty(n)
    x[0] = e[0]
    for i in range(1, n):
        x[i] = phi * x[i - 1] + e[i]
    return x


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.95, -0.4])
@pytest.mark.parametrize("n", [100, 1001, 4000])
def test_chain_ess_equals_library_ess_on_one_chain(phi, n):
    x = _ar1(phi, n, seed=n)
    assert geyer.chain_ess(x) == pytest.approx(pexsurv.effective_sample_size(x), rel=1e-12)


def test_chain_ess_of_constant_chain_is_zero_and_pooled_ess_sums():
    assert geyer.chain_ess(np.full(200, 0.1)) == 0.0
    a, b = _ar1(0.7, 500, 1), _ar1(0.7, 500, 2)
    assert geyer.pooled_ess([a, b]) == pytest.approx(geyer.chain_ess(a) + geyer.chain_ess(b))


def _fit(spec, data, config, tmp_path):
    return bench.fit_and_check(SIMULATE_S1, spec, data, config, tmp_path)


def test_aborted_fit_counts_as_failed(tmp_path):
    # A censoring time of 1e300 drives imputation to inf, which aborts the chain.
    records = [SurvivalRecord(1, 1, None, 0, 1e300)] + [
        SurvivalRecord(i, 1, 0.5 * i, 1) for i in range(2, 12)
    ]
    spec = ModelSpec(FAMILY_GAMMA_CHAIN, TimeGrid((0.0, 2.0, 4.0)))
    config = McmcConfig(n_chains=1, burn_in=0, n_iter=300, seed=1)
    fit = _fit(spec, SurvivalDataset(records), config, tmp_path)
    assert fit.failed and "aborted" in fit.problems[0]
    outcome = bench.Outcome()
    outcome.add([fit])
    assert (outcome.attempted, outcome.failed) == (1, 1)


def test_nan_fit_counts_as_failed(tmp_path, monkeypatch):
    draws = {"lambda[1]": np.r_[np.ones(150), np.nan], "lambda[2]": np.ones(151)}
    monkeypatch.setattr(
        bench, "run_chains", lambda *_: [ChainStore(draws=draws, meta={"chain_id": 1})]
    )
    spec = ModelSpec(FAMILY_SIMPLE, TimeGrid((0.0, 1.0)))
    fit = _fit(spec, None, McmcConfig(), tmp_path)
    assert fit.problems == ["chain 1: lambda[1] has non-finite draws"]
    outcome = bench.Outcome()
    outcome.add([fit])
    assert (outcome.attempted, outcome.failed) == (1, 1)


def _originals():
    points = [(o, a) for o, a, _ in tracing.TRACE_POINTS] + [tracing.SLICE_POINT]
    return [(owner, attr, vars(owner)[attr]) for owner, attr in points]


def test_traced_fit_restores_every_patched_name_and_keeps_the_draws(tmp_path):
    kidney = load_kidney()
    spec = ModelSpec(FAMILY_GAMMA_CHAIN, default_grid(562.0, 10))
    config = McmcConfig(n_chains=1, burn_in=5, n_iter=100, seed=3)
    before = _originals()
    plain = run_chains(spec, kidney, config)

    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        traced = run_chains(spec, kidney, config)
        bench.report(traced, tmp_path, tracer.call)

    assert all(vars(owner)[attr] is fn for owner, attr, fn in before)
    calls, total_s, self_s = tracer.totals()
    for _, _, name in tracing.TRACE_POINTS:
        assert calls[name] > 0, name
    for block in ("rates", "eta", "beta"):
        assert calls[f"mcmc.slice.{block}"] > 0
        assert tracer.evals[block] >= calls[f"mcmc.slice.{block}"]
    assert all(0.0 <= self_s[n] <= total_s[n] + 1e-9 for n in calls)
    assert sum(calls.values()) == tracer.n_spans
    for name, v in plain[0].draws.items():
        assert np.array_equal(v, traced[0].draws[name])


def test_patches_are_restored_when_the_traced_block_raises():
    before = _originals()
    with pytest.raises(RuntimeError):
        with tracing.patched(tracing.Tracer()):
            assert pexsurv.mcmc.update_scalar_slice is not before[-1][2]
            raise RuntimeError("boom")
    assert all(vars(owner)[attr] is fn for owner, attr, fn in before)

"""Stages, metrics and result line of the pexsurv benchmark.

A run makes the workload's inputs from the seed (untimed) and then times
three stages through the public API, in one process and one thread:

* setup: data ingest, first access to the dataset's array views, then the
  grid, one ``ModelSpec`` per family and the ``McmcConfig``;
* fit: ``run_chains`` for each family;
* report: ``summarize``, ``write_summary_csv``, the text table and, per
  chain, ``ChainStore.to_csv`` and ``write_metadata``, as ``pexsurv fit``
  writes them.

Fit and report are repeated, each repetition with its own chain seed,
until ``--seconds`` have passed and at least the workload's
``mixing_reps`` repetitions are done; their medians are reported.  ESS
comes from the first ``mixing_reps`` repetitions only.  A batch of set-ups
runs before the first repetition and after each one, so that the median
set-up time samples the whole run, as the fit times do, rather than the
machine's speed in its first second.
Every fit is checked (finite draws, then the workload's posterior checks);
a fit that aborts or fails a check counts as failed.

``--trace 1`` adds one traced repetition of fit and report and reports the
per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

import pexsurv
from pexsurv import ChainAbortError, McmcConfig, ModelSpec, run_chains, summarize
from pexsurv.diagnostics import format_summary_table, write_summary_csv

import geyer
import tracing
from workloads import WORKLOADS, Workload

SETUP_BATCH_S = 0.2
SETUP_BATCH_MIN = 2
SETUP_BATCH_MAX = 20


def _direct(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


@dataclass
class Ready:
    """What set-up hands to the fit stage, with the set-up's timings."""

    data: object
    specs: list
    config: McmcConfig
    ingest_s: float
    views_s: float
    setup_s: float


def setup(w: Workload, inputs) -> Ready:
    t0 = perf_counter()
    data = w.ingest(inputs)
    t1 = perf_counter()
    for view in ("subject_positions", "event_flags", "marginal_times", "design_matrix"):
        getattr(data, view)
    t2 = perf_counter()
    grid = w.make_grid(data)
    specs = [ModelSpec(family, grid) for family in w.families]
    config = McmcConfig(n_chains=w.n_chains, burn_in=w.burn_in, n_iter=w.n_iter)
    t3 = perf_counter()
    return Ready(data, specs, config, t1 - t0, t2 - t1, t3 - t0)


def setup_batch(w: Workload, inputs, timings: list) -> Ready:
    """Set up a few times; appends (ingest, views, total) and returns the last."""
    ready, n, start = None, 0, perf_counter()
    while n < SETUP_BATCH_MIN or (
        perf_counter() - start < SETUP_BATCH_S and n < SETUP_BATCH_MAX
    ):
        ready = None  # let the previous dataset go before building the next
        ready = setup(w, inputs)
        timings.append((ready.ingest_s, ready.views_s, ready.setup_s))
        n += 1
    return ready


def rep_seed(seed: int, rep: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=(3, rep)).generate_state(1)[0])


def nonfinite_draws(chains) -> list[str]:
    return [
        f"chain {c.meta.get('chain_id', '?')}: {name} has non-finite draws"
        for c in chains
        for name, v in c.draws.items()
        if not np.all(np.isfinite(v))
    ]


def report(chains, out_dir: Path, span=_direct) -> dict:
    """Write the outputs ``pexsurv fit`` writes; returns summaries by name."""
    out_dir.mkdir(parents=True, exist_ok=True)
    summaries = span("diagnostics.summarize", summarize, chains, 0.95)
    span("diagnostics.write_summary", write_summary_csv, summaries, out_dir / "summary.csv")
    span(
        "diagnostics.write_summary",
        (out_dir / "summary.txt").write_text,
        format_summary_table(summaries),
    )
    for store in chains:
        cid = store.meta["chain_id"]
        span("mcmc.to_csv", store.to_csv, out_dir / f"chain_{cid}.csv")
        store.write_metadata(out_dir / f"chain_{cid}_meta.json")
    return {s.name: s for s in summaries}


@dataclass
class Fit:
    """One family's fit in one repetition, with its report and check."""

    family: str
    fit_s: float
    report_s: float = 0.0
    chains: list = field(default_factory=list)
    summaries: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def fit_and_check(w, spec, data, config, out_dir, span=_direct) -> Fit:
    """One fit of one family, its report, and the output check."""
    t0 = perf_counter()
    try:
        chains = run_chains(spec, data, config)
    except ChainAbortError as exc:
        return Fit(spec.family, perf_counter() - t0, problems=[f"aborted: {exc}"])
    fit = Fit(spec.family, perf_counter() - t0, chains=chains)
    fit.problems = nonfinite_draws(chains)
    if fit.failed:
        return fit
    t0 = perf_counter()
    fit.summaries = report(chains, out_dir / spec.family, span)
    fit.report_s = perf_counter() - t0
    fit.problems = w.check(spec.family, fit.summaries)
    return fit


def fit_rep(w, ready: Ready, seed, rep, out_dir, span=_direct) -> list[Fit]:
    config = replace(ready.config, seed=rep_seed(seed, rep))
    return [fit_and_check(w, spec, ready.data, config, out_dir, span) for spec in ready.specs]


class Mixing:
    """Pooled ESS per monitored scalar over the fits of the mixing repetitions."""

    def __init__(self):
        self.ess: dict[str, float] = {}
        self.draws = 0

    def add(self, fits) -> None:
        for fit in fits:
            if fit.failed:
                continue
            for name in fit.chains[0].names:
                ess = geyer.pooled_ess(c.draws[name] for c in fit.chains)
                self.ess[name] = self.ess.get(name, 0.0) + ess
            self.draws += sum(c.n_draws for c in fit.chains)

    def per_draw(self, name=None) -> float:
        if not self.draws:
            return 0.0
        if name is None:
            return min(self.ess.values()) / self.draws
        return self.ess.get(name, 0.0) / self.draws


class Outcome:
    """Counts of fits attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, fits) -> None:
        for fit in fits:
            self.attempted += 1
            if fit.failed:
                self.failures.append(f"{fit.family}: " + "; ".join(fit.problems))

    @property
    def failed(self) -> int:
        return len(self.failures)


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "pexsurv": pexsurv.__version__,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; this process runs a single benchmark run
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def run_untraced(w: Workload, inputs, seed, seconds, out_dir, outcome, log):
    start = perf_counter()
    setups: list = []
    ready = setup_batch(w, inputs, setups)
    mixing = Mixing()
    fit_times, report_times = [], []
    rep = 0
    while rep < w.mixing_reps or perf_counter() - start < seconds:
        fits = fit_rep(w, ready, seed, rep, out_dir)
        outcome.add(fits)
        fit_times.append(sum(f.fit_s for f in fits))
        report_times.append(sum(f.report_s for f in fits))
        if rep < w.mixing_reps:
            mixing.add(fits)
            for f in fits:
                if "kappa" in f.summaries:
                    log(f"rep {rep} {f.family}: kappa mean {f.summaries['kappa'].mean:.4f}")
        setup_batch(w, inputs, setups)
        rep += 1

    setup_s = median(s[2] for s in setups)
    fit_s = median(fit_times)
    report_s = median(report_times)
    draws_per_s = w.draws_per_rep / fit_s
    log(f"set-ups {len(setups)}, repetitions {rep}, mixing repetitions {w.mixing_reps}")
    log("fit_s per repetition " + " ".join(f"{t:.4f}" for t in fit_times))
    log(f"report_s {report_s:.6g} s")
    log(f"ess_per_s.min {mixing.per_draw() * draws_per_s:.6g} 1/s")
    if "kappa" in mixing.ess:
        log(f"ess_per_draw.kappa {mixing.per_draw('kappa'):.6g} ratio")
        log(f"ess_per_s.kappa {mixing.per_draw('kappa') * draws_per_s:.6g} 1/s")
    return {
        "setup_s": _metric(setup_s, "s"),
        "fit_s": _metric(fit_s, "s"),
        "total_s": _metric(setup_s + fit_s + report_s, "s"),
        "sweeps_per_s": _metric(w.sweeps_per_rep / fit_s, "1/s"),
        "ess_per_draw.min": _metric(mixing.per_draw(), "ratio"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
    }


def run_traced(w: Workload, inputs, seed, out_dir, outcome, log):
    setups: list = []
    ready = setup_batch(w, inputs, setups)
    mixing = Mixing()
    untraced_fit_times = []
    for rep in range(w.mixing_reps):
        fits = fit_rep(w, ready, seed, rep, out_dir)
        outcome.add(fits)
        mixing.add(fits)
        untraced_fit_times.append(sum(f.fit_s for f in fits))
        setup_batch(w, inputs, setups)
    draws_per_s = w.draws_per_rep / median(untraced_fit_times)

    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        fits = fit_rep(w, ready, seed, 0, out_dir / "traced", tracer.call)
    outcome.add(fits)
    traced_fit_s = sum(f.fit_s for f in fits)
    spans_path = out_dir / "spans.tsv"
    tracer.write(spans_path)
    log(f"wrote {tracer.n_spans} spans to {spans_path}")

    csv_bytes = sum(p.stat().st_size for p in (out_dir / "traced").glob("*/chain_*.csv"))
    calls, total_s, self_s = tracer.totals()
    m = {
        "data.ingest_s": _metric(median(s[0] for s in setups), "s"),
        "data.views_s": _metric(median(s[1] for s in setups), "s"),
        "distribution.pe_init.calls": _metric(calls["distribution.pe_init"], "count"),
        "distribution.pe_init.self_s": _metric(self_s["distribution.pe_init"], "s"),
        "distribution.validate_params.calls": _metric(
            calls["distribution.validate_params"], "count"
        ),
        "distribution.validate_params.s": _metric(total_s["distribution.validate_params"], "s"),
        "distribution.cum_hazard.calls": _metric(calls["distribution.cum_hazard"], "count"),
        "distribution.cum_hazard.s": _metric(total_s["distribution.cum_hazard"], "s"),
        "distribution.exposures.calls": _metric(calls["distribution.exposures"], "count"),
        "distribution.exposures.s": _metric(total_s["distribution.exposures"], "s"),
        "models.sufficient_stats.calls": _metric(calls["models.sufficient_stats"], "count"),
        "models.sufficient_stats.self_s": _metric(self_s["models.sufficient_stats"], "s"),
        "models.initial_state.s": _metric(total_s["models.initial_state"], "s"),
    }
    for block in tracing.SLICE_BLOCKS:
        name = f"mcmc.slice.{block}"
        updates, evals = calls[name], tracer.evals[block]
        m[f"{name}.calls"] = _metric(updates, "count")
        m[f"{name}.s"] = _metric(total_s[name], "s")
        m[f"{name}.evals"] = _metric(evals, "count")
        m[f"{name}.evals_per_update"] = _metric(evals / updates if updates else 0.0, "ratio")
    m.update(
        {
            "mcmc.sweep_other.self_s": _metric(self_s["mcmc.run_chain"], "s"),
            "mcmc.mixing.ess_per_draw.kappa": _metric(mixing.per_draw("kappa"), "ratio"),
            "mcmc.mixing.ess_per_s.min": _metric(mixing.per_draw() * draws_per_s, "1/s"),
            "mcmc.mixing.ess_per_s.kappa": _metric(
                mixing.per_draw("kappa") * draws_per_s, "1/s"
            ),
            "mcmc.to_csv.s": _metric(total_s["mcmc.to_csv"], "s"),
            "mcmc.to_csv.bytes": _metric(csv_bytes, "bytes"),
            "diagnostics.summarize.s": _metric(total_s["diagnostics.summarize"], "s"),
            "diagnostics.ess.s": _metric(total_s["diagnostics.ess"], "s"),
            "diagnostics.hpd.s": _metric(total_s["diagnostics.hpd"], "s"),
            "diagnostics.write_summary.s": _metric(total_s["diagnostics.write_summary"], "s"),
            "trace.fit_s": _metric(traced_fit_s, "s"),
            "trace.overhead": _metric(
                traced_fit_s / median(untraced_fit_times) - 1.0, "ratio"
            ),
        }
    )
    return m


def main(args, out_root: Path) -> int:
    w = WORKLOADS[args.workload]
    out_dir = out_root / w.name
    out_dir.mkdir(parents=True, exist_ok=True)

    def log(line):
        print(f"[{w.name}] {line}", flush=True)

    env = environment()
    log("env " + json.dumps(env, sort_keys=True))
    inputs = w.make_inputs(args.seed)
    outcome = Outcome()
    if args.trace:
        metrics = run_traced(w, inputs, args.seed, out_dir, outcome, log)
    else:
        metrics = run_untraced(w, inputs, args.seed, args.seconds, out_dir, outcome, log)

    for problem in outcome.failures:
        log(f"FAILED {problem}")
    log(
        f"failed_fraction {outcome.failed / outcome.attempted:.6g} "
        f"({outcome.failed}/{outcome.attempted} fits)"
    )
    for name, m in metrics.items():
        log(f"{name} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    record = {"workload": w.name, "seed": args.seed, "trace": args.trace, "env": env, **result}
    (out_dir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0

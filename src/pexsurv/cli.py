"""Command-line interface: distribution utilities, model fitting, simulation.

Subcommands
-----------
``dist eval|quantile|sample``
    Evaluate the distribution functions at a time point, invert the CDF at a
    probability, or draw (optionally truncated) samples.
``fit``
    Fit one of the three models to a dataset CSV and write a summary table,
    per-chain draw files with metadata sidecars, and a run manifest.
``simulate``
    The replicated simulation harness: generate datasets under a known-rates
    scenario, fit the simple model to each, and write per-replication
    estimates, effective sample sizes and coverage.

Exit codes: 0 success, 2 validation error, 3 runtime error.  All statistical
outputs are byte-identical across reruns with the same seed; wall-clock
timings live only in the manifest and metadata sidecars.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .data import DataFormatError, load_kidney, read_dataset_csv
from .data import SurvivalDataset, SurvivalRecord
from .diagnostics import format_summary_table, summarize, write_summary_csv
from .distribution import InvalidParamsError, PiecewiseExponential, TimeGrid
from .mcmc import McmcConfig, run_chains
from .models import (
    FAMILY_GAMMA_CHAIN,
    FAMILY_LOGNORMAL_RW,
    FAMILY_SIMPLE,
    ModelSpec,
    default_grid,
)

_MODEL_NAMES = {
    "simple": FAMILY_SIMPLE,
    "frailty-gamma": FAMILY_GAMMA_CHAIN,
    "frailty-lognormal": FAMILY_LOGNORMAL_RW,
}

SCENARIOS = {
    "s1": (0.3, 0.6, 0.8, 1.3),
    "s2": (0.7, 0.7, 0.7, 0.7),
    "s3": (1.3, 0.8, 0.6, 0.3),
}
_SCENARIO_GRID = (0.0, 2.0, 3.0, 5.0)


class CliError(Exception):
    """Validation problem surfaced to the user; exits with code 2."""


def _comma_floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise CliError(f"could not parse {text!r} as comma-separated reals") from None


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, command: str, args_echo: dict, seeds: dict, timings: dict):
    # statistical outputs are hashed (they are byte-reproducible under a fixed
    # seed); metadata sidecars carry wall-clock times and are only listed
    files = [p for p in sorted(out_dir.iterdir()) if p.is_file() and p.name != "manifest.json"]
    outputs = {p.name: _sha256(p) for p in files if p.suffix in (".csv", ".txt")}
    manifest = {
        "command": command,
        "args": args_echo,
        "seeds": seeds,
        "versions": {
            "pexsurv": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "timings_s": timings,
        "outputs": outputs,
        "metadata_files": [p.name for p in files if p.suffix not in (".csv", ".txt")],
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- dist ---------------------------------------------------------------------


def _cmd_dist(args) -> int:
    # the constructor raises InvalidParamsError listing every violation (exit 2)
    pe = PiecewiseExponential(_comma_floats(args.grid), _comma_floats(args.rates))
    if args.mode == "eval":
        t = args.t
        print(f"pdf {pe.density(t)!r}")
        print(f"cdf {pe.cdf(t)!r}")
        print(f"survival {pe.survival(t)!r}")
        print(f"hazard {pe.hazard(t)!r}")
        print(f"cum_hazard {pe.cum_hazard(t)!r}")
        return 0
    if args.mode == "quantile":
        print(repr(pe.quantile(args.p)))
        return 0
    if args.n < 1:
        raise CliError("--n must be at least 1")
    rng = np.random.default_rng(args.seed)
    draws = pe.sample(args.n, rng=rng, lower=args.lower, upper=args.upper)
    lines = "\n".join(repr(float(v)) for v in draws) + "\n"
    if args.out:
        Path(args.out).write_text(lines)
    else:
        sys.stdout.write(lines)
    return 0


# -- fit ----------------------------------------------------------------------


def _resolve_grid(args, data) -> TimeGrid:
    if args.grid == "equal":
        return default_grid(data.max_observed_time, args.m)
    return TimeGrid(tuple(_comma_floats(args.grid)))


def _cmd_fit(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = load_kidney() if args.data == "kidney" else read_dataset_csv(args.data)
    if not data.n_records:
        raise CliError(f"dataset {args.data} has no records")
    grid = _resolve_grid(args, data)
    spec = ModelSpec(family=_MODEL_NAMES[args.model], grid=grid)
    config = McmcConfig(
        n_chains=args.chains,
        burn_in=args.burnin,
        n_iter=args.iters,
        thin=args.thin,
        seed=args.seed,
    )
    if config.n_iter // config.thin < 100:
        raise CliError("need at least 100 retained draws per chain (iters / thin >= 100)")

    start = time.perf_counter()
    chains = run_chains(spec, data, config)
    sampling_s = time.perf_counter() - start

    summaries = summarize(chains, mass=0.95)
    write_summary_csv(summaries, out_dir / "summary.csv")
    (out_dir / "summary.txt").write_text(format_summary_table(summaries))
    for store in chains:
        cid = store.meta["chain_id"]
        store.to_csv(out_dir / f"chain_{cid}.csv")
        store.write_metadata(out_dir / f"chain_{cid}_meta.json", {"manifest": "manifest.json"})
    _write_manifest(
        out_dir,
        "fit",
        {
            "model": args.model,
            "data": str(args.data),
            "m": args.m,
            "grid": list(grid.cut_points),
            "chains": args.chains,
            "burnin": args.burnin,
            "iters": args.iters,
            "thin": args.thin,
        },
        {"seed": args.seed, "chain_ids": [c.meta["chain_id"] for c in chains]},
        {"sampling": sampling_s},
    )
    sys.stdout.write(format_summary_table(summaries))
    print(f"wrote {out_dir}/summary.csv and {len(chains)} chain file(s)")
    return 0


# -- simulate -------------------------------------------------------------------


def _scenario_dataset(rates, n, rng) -> SurvivalDataset:
    pe = PiecewiseExponential(_SCENARIO_GRID, rates)
    times = pe.sample(n, rng=rng)
    records = [
        SurvivalRecord(subject_id=i + 1, replicate_id=1, time=float(t), event=1)
        for i, t in enumerate(times)
    ]
    return SurvivalDataset(records)


def _cmd_simulate(args) -> int:
    for flag, value in (("--n", args.n), ("--reps", args.reps)):
        if value < 1:
            raise CliError(f"{flag} must be at least 1")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    true_rates = SCENARIOS[args.scenario]
    spec = ModelSpec(family=FAMILY_SIMPLE, grid=TimeGrid(_SCENARIO_GRID))
    rows = []
    timings = {}
    for rep in range(1, args.reps + 1):
        data_rng = np.random.default_rng(np.random.SeedSequence(args.seed, spawn_key=(rep, 0)))
        data = _scenario_dataset(true_rates, args.n, data_rng)
        fit_seed = int(np.random.SeedSequence(args.seed, spawn_key=(rep, 1)).generate_state(1)[0])
        config = McmcConfig(n_chains=2, burn_in=1000, n_iter=2000, thin=1, seed=fit_seed)
        start = time.perf_counter()
        chains = run_chains(spec, data, config)
        timings[f"rep_{rep}"] = time.perf_counter() - start
        for s, truth in zip(summarize(chains, mass=0.95), true_rates):
            rows.append(
                {
                    "rep": rep,
                    "scenario": args.scenario,
                    "n": args.n,
                    "parameter": s.name,
                    "true": truth,
                    "mean": s.mean,
                    "median": s.median,
                    "sd": s.sd,
                    "hpd_low": s.hpd_low,
                    "hpd_high": s.hpd_high,
                    "ess": s.ess,
                    "covered": int(s.hpd_low <= truth <= s.hpd_high),
                }
            )
    rows.sort(key=lambda r: (r["rep"], r["parameter"]))
    header = [
        "rep", "scenario", "n", "parameter", "true", "mean", "median", "sd",
        "hpd_low", "hpd_high", "ess", "covered",
    ]
    with open(out_dir / "results.csv", "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for r in rows:
            fh.write(
                ",".join(
                    repr(r[k]) if isinstance(r[k], float) else str(r[k]) for k in header
                )
                + "\n"
            )
    _write_manifest(
        out_dir,
        "simulate",
        {"scenario": args.scenario, "n": args.n, "reps": args.reps},
        {"seed": args.seed},
        timings,
    )
    print(f"wrote {out_dir}/results.csv ({len(rows)} rows)")
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pexsurv",
        description="Piecewise exponential survival models: evaluate, fit, simulate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dist = sub.add_parser("dist", help="distribution utilities")
    dist_sub = dist.add_subparsers(dest="mode", required=True)
    for mode, extra in (("eval", "--t"), ("quantile", "--p"), ("sample", "--n")):
        p = dist_sub.add_parser(mode)
        p.add_argument("--grid", required=True, help="comma-separated cut points, first 0")
        p.add_argument("--rates", required=True, help="comma-separated non-negative rates")
        if mode == "eval":
            p.add_argument("--t", type=float, required=True, help="time point")
        elif mode == "quantile":
            p.add_argument("--p", type=float, required=True, help="probability in (0,1)")
        else:
            p.add_argument("--n", type=int, required=True, help="number of draws")
            p.add_argument("--seed", type=int, required=True)
            p.add_argument("--lower", type=float, default=None)
            p.add_argument("--upper", type=float, default=None)
            p.add_argument("--out", default=None, help="write draws here instead of stdout")
        p.set_defaults(func=_cmd_dist)

    fit = sub.add_parser("fit", help="fit a model to a dataset CSV")
    fit.add_argument("--model", choices=sorted(_MODEL_NAMES), required=True)
    fit.add_argument("--data", required=True, help="dataset CSV path, or 'kidney' for the bundled data")
    fit.add_argument("--m", type=int, default=10, help="number of grid intervals (with --grid equal)")
    fit.add_argument("--grid", default="equal", help="'equal' or explicit comma-separated cut points")
    fit.add_argument("--chains", type=int, default=2)
    fit.add_argument("--burnin", type=int, default=1000)
    fit.add_argument("--iters", type=int, default=2000)
    fit.add_argument("--thin", type=int, default=1)
    fit.add_argument("--seed", type=int, required=True)
    fit.add_argument("--out", required=True, help="output directory")
    fit.set_defaults(func=_cmd_fit)

    sim = sub.add_parser("simulate", help="replicated known-rates simulation study")
    sim.add_argument("--scenario", choices=sorted(SCENARIOS), required=True)
    sim.add_argument("--n", type=int, required=True, help="sample size per replication")
    sim.add_argument("--reps", type=int, required=True)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--out", required=True, help="output directory")
    sim.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, InvalidParamsError, DataFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary; UnreachableMassError etc.
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

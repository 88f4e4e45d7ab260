import csv
import json
import math

import numpy as np
import pytest

from pexsurv.cli import SCENARIOS, build_parser, main
from pexsurv.data import load_kidney, read_dataset_csv, write_dataset_csv
from pexsurv.mcmc import McmcConfig

S1_ARGS = ["--grid", "0,2,3,5", "--rates", "0.3,0.6,0.8,1.3"]


def _toy_csv(tmp_path, n=60, seed=0, censor_frac=0.2):
    rng = np.random.default_rng(seed)
    lines = ["subject,replicate,time,status,sex"]
    for i in range(n):
        t = rng.exponential(2.0)
        status = int(rng.random() > censor_frac)
        lines.append(f"{i + 1},1,{t!r},{status},{float(rng.random() < 0.5)}")
    path = tmp_path / "toy.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


# -- dist ---------------------------------------------------------------------


def test_dist_eval_prints_all_functions(capsys):
    assert main(["dist", "eval", *S1_ARGS, "--t", "3.483"]) == 0
    out = dict(line.split() for line in capsys.readouterr().out.strip().splitlines())
    assert float(out["hazard"]) == 0.8
    assert float(out["cum_hazard"]) == pytest.approx(1.5864, abs=1e-12)
    assert float(out["survival"]) == pytest.approx(math.exp(-1.5864), rel=1e-12)
    assert float(out["cdf"]) + float(out["survival"]) == pytest.approx(1.0, rel=1e-12)
    assert float(out["pdf"]) == pytest.approx(0.8 * math.exp(-1.5864), rel=1e-12)


def test_dist_quantile_exponential_median(capsys):
    assert main(["dist", "quantile", "--grid", "0", "--rates", "2", "--p", "0.5"]) == 0
    val = float(capsys.readouterr().out.strip())
    assert val == pytest.approx(math.log(2) / 2, rel=1e-12)


def test_dist_sample_deterministic(capsys):
    args = ["dist", "sample", *S1_ARGS, "--n", "5", "--seed", "1"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    assert len(first.strip().splitlines()) == 5


def test_dist_sample_respects_bounds(capsys):
    assert main(["dist", "sample", *S1_ARGS, "--n", "50", "--seed", "2", "--lower", "1", "--upper", "2"]) == 0
    draws = [float(v) for v in capsys.readouterr().out.split()]
    assert all(1.0 < d <= 2.0 for d in draws)


def test_dist_sample_to_file(tmp_path, capsys):
    out = tmp_path / "draws.txt"
    assert main(["dist", "sample", *S1_ARGS, "--n", "3", "--seed", "3", "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 3


def test_dist_validation_failure_lists_violations(capsys):
    rc = main(["dist", "eval", "--grid=1,0.5", "--rates=-1,2", "--t", "1.0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "first cut point" in err
    assert "strictly increasing" in err
    assert "negative" in err


def test_dist_bad_probability_is_validation_error(capsys):
    assert main(["dist", "quantile", "--grid", "0", "--rates", "2", "--p", "1.5"]) == 2


@pytest.mark.parametrize("upper", ["-inf", "nan"])
def test_dist_sample_upper_bound_of_minus_inf_or_nan_is_validation_error(capsys, upper):
    rc = main(["dist", "sample", *S1_ARGS, "--n", "5", "--seed", "1", f"--upper={upper}"])
    assert rc == 2
    assert "upper bound must exceed the lower bound" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, message",
    [
        (
            ["eval", "--grid", "0,x", "--rates", "1,2", "--t", "1"],
            "could not parse '0,x' as comma-separated reals",
        ),
        (["sample", *S1_ARGS, "--n", "0", "--seed", "1"], "--n must be at least 1"),
    ],
)
def test_dist_unreadable_input_is_validation_error(capsys, args, message):
    assert main(["dist", *args]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_dist_unreachable_mass_is_runtime_error(capsys):
    rc = main(["dist", "sample", "--grid", "0,1", "--rates", "1,0", "--n", "5", "--seed", "1"])
    assert rc == 3
    assert "runtime error" in capsys.readouterr().err


def test_dist_sample_above_an_infinite_cumulative_hazard_is_runtime_error(capsys):
    # H(1e199) = 1e200 * 1e199 passes the largest double: no mass lies above it
    args = ["--grid", "0,1e200", "--rates", "1e200,1", "--lower", "1e199"]
    assert main(["dist", "sample", *args, "--n", "3", "--seed", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("runtime error: ") and "lower bound 1e+199" in err


# -- fit ----------------------------------------------------------------------


def test_fit_writes_all_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(
        ["fit", "--model", "simple", "--data", "kidney", "--m", "4", "--chains", "2",
         "--burnin", "50", "--iters", "150", "--seed", "5", "--out", str(out)]
    )
    assert rc == 0
    for name in ("summary.csv", "summary.txt", "chain_1.csv", "chain_2.csv",
                 "chain_1_meta.json", "chain_2_meta.json", "manifest.json"):
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "fit"
    assert set(manifest["outputs"]) == {
        "summary.csv", "summary.txt", "chain_1.csv", "chain_2.csv",
    }
    assert set(manifest["metadata_files"]) == {"chain_1_meta.json", "chain_2_meta.json"}
    # summary.txt is the table printed on stdout
    table = (out / "summary.txt").read_text()
    assert capsys.readouterr().out == table + f"wrote {out}/summary.csv and 2 chain file(s)\n"
    meta = json.loads((out / "chain_1_meta.json").read_text())
    assert meta["manifest"] == "manifest.json"
    assert "wall_time_s" in meta
    assert meta["config"]["impute"] is True
    header = (out / "chain_1.csv").read_text().splitlines()[0]
    assert header.split(",")[:4] == ["lambda[1]", "lambda[2]", "lambda[3]", "lambda[4]"]


def test_fit_layout_defaults_are_the_mcmc_config_defaults():
    args = build_parser().parse_args(
        ["fit", "--model", "simple", "--data", "kidney", "--seed", "0", "--out", "run"]
    )
    default = McmcConfig()
    assert (args.chains, args.burnin, args.iters, args.thin) == (
        default.n_chains, default.burn_in, default.n_iter, default.thin,
    )


def test_fit_statistical_outputs_reproducible(tmp_path):
    args = ["fit", "--model", "frailty-gamma", "--data", "kidney", "--m", "5",
            "--chains", "2", "--burnin", "50", "--iters", "120", "--seed", "9"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    for name in ("summary.csv", "summary.txt", "chain_1.csv", "chain_2.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    # metadata matches except wall-clock fields
    for name in ("chain_1_meta.json", "chain_2_meta.json"):
        ma = json.loads((a / name).read_text())
        mb = json.loads((b / name).read_text())
        ma.pop("wall_time_s"), mb.pop("wall_time_s")
        assert ma == mb
        # one tuned step width per slice coordinate, by parameter name
        assert set(ma["slice_widths"]) == {
            "lambda[1]", "lambda[2]", "lambda[3]", "lambda[4]", "lambda[5]",
            "beta_sex", "beta_age", "eta", "frailty_scale",
        }
        assert all(w > 0.0 for w in ma["slice_widths"].values())
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    ma.pop("timings_s"), mb.pop("timings_s")
    assert ma == mb


def test_manifest_lists_only_the_files_this_run_wrote(tmp_path):
    # a 3-chain fit left chain_3 files in the directory a 2-chain fit reuses
    out = tmp_path / "run"
    args = ["fit", "--model", "simple", "--data", "kidney", "--m", "3", "--burnin", "10",
            "--iters", "100", "--seed", "1", "--out", str(out)]
    assert main(args + ["--chains", "3"]) == 0
    (out / "notes.txt").write_text("kept by hand\n")
    assert main(args + ["--chains", "2"]) == 0
    assert (out / "chain_3.csv").exists() and (out / "chain_3_meta.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"summary.csv", "summary.txt", "chain_1.csv", "chain_2.csv"}
    assert manifest["metadata_files"] == ["chain_1_meta.json", "chain_2_meta.json"]


def test_fit_explicit_grid_and_csv_data(tmp_path):
    data = _toy_csv(tmp_path)
    out = tmp_path / "run"
    rc = main(["fit", "--model", "simple", "--data", str(data), "--grid", "0,1,2,4",
               "--chains", "1", "--burnin", "20", "--iters", "100", "--seed", "1",
               "--out", str(out)])
    assert rc == 0
    rows = (out / "summary.csv").read_text().strip().splitlines()
    assert len(rows) == 5  # header + four rates


def test_fit_malformed_csv_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("subject,replicate,time,status\n1,1,5.0,1\n2,1,,1\n")
    rc = main(["fit", "--model", "simple", "--data", str(path), "--m", "3",
               "--chains", "1", "--burnin", "10", "--iters", "100", "--seed", "1",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert ":3:" in capsys.readouterr().err


def test_fit_repeated_covariate_name_is_validation_error(tmp_path, capsys):
    # both columns would enter the fit, but only one beta_x would be written
    path = tmp_path / "twin.csv"
    path.write_text("subject,replicate,time,status,x,x\n1,1,5.0,1,0.0,1.0\n2,1,3.0,0,1.0,0.0\n")
    rc = main(["fit", "--model", "frailty-gamma", "--data", str(path), "--m", "2",
               "--chains", "1", "--burnin", "10", "--iters", "100", "--seed", "1",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "covariate name 'x' is repeated" in capsys.readouterr().err


def test_fit_requires_enough_retained_draws(tmp_path, capsys):
    rc = main(["fit", "--model", "simple", "--data", "kidney", "--m", "3",
               "--chains", "1", "--burnin", "10", "--iters", "50", "--seed", "1",
               "--out", str(tmp_path / "x")])
    assert rc == 2


def test_fit_negative_seed_is_validation_error(tmp_path, capsys):
    rc = main(["fit", "--model", "simple", "--data", "kidney", "--m", "3",
               "--chains", "1", "--burnin", "10", "--iters", "100", "--seed", "-1",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [("--seed", "-1"), ("--iters", "50"), ("--grid", "0,2,1"), ("--data", "no-such-dir/data.csv")],
)
def test_rejected_fit_creates_no_out_directory(tmp_path, flag, value):
    args = {"--seed": "1", "--iters": "100", "--grid": "equal", flag: value}
    out = tmp_path / "x"
    rc = main(["fit", "--model", "simple", "--data", "kidney", "--m", "3", "--chains", "1",
               "--burnin", "10", "--out", str(out), *[v for item in args.items() for v in item]])
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--chains", "0", "n_chains must be at least 1, got 0"),
        ("--thin", "0", "thin must be at least 1, got 0"),
        ("--burnin", "-1", "burn_in must be at least 0, got -1"),
    ],
)
def test_fit_out_of_range_layout_names_its_field(tmp_path, capsys, flag, value, message):
    args = {"--chains": "1", "--burnin": "10", "--iters": "100", flag: value}
    rc = main(["fit", "--model", "simple", "--data", "kidney", "--m", "3", "--seed", "1",
               "--out", str(tmp_path / "x"), *[v for item in args.items() for v in item]])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_fit_unreadable_data_path_is_validation_error(tmp_path, capsys):
    for path in (tmp_path / "missing.csv", tmp_path):
        rc = main(["fit", "--model", "simple", "--data", str(path), "--seed", "1",
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert f"cannot read dataset {path}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_fit_with_a_huge_censoring_time_gives_finite_sd_and_ess(tmp_path):
    # exposures near 1e300 put the rates near 1e-300, whose squares underflow
    path = tmp_path / "huge.csv"
    path.write_text("subject,replicate,time,status\n1,1,1e300,0\n2,1,1.0,1\n")
    out = tmp_path / "run"
    assert main(["fit", "--model", "simple", "--data", str(path), "--seed", "1",
                 "--out", str(out)]) == 0
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    for row in rows:
        sd, ess = float(row["sd"]), float(row["ess"])
        assert 0.0 < sd < math.inf and 0.0 < ess <= 2000.0, row


def test_fit_dataset_without_records_is_validation_error(tmp_path, capsys):
    # would fail inside the grid with numpy's "zero-size array to reduction"
    path = tmp_path / "empty.csv"
    path.write_text("subject,replicate,time,status\n")
    rc = main(["fit", "--model", "simple", "--data", str(path), "--m", "3",
               "--chains", "1", "--burnin", "10", "--iters", "100", "--seed", "1",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert f"dataset {path} has no records" in capsys.readouterr().err


# -- simulate -------------------------------------------------------------------


def test_simulate_deterministic_and_well_formed(tmp_path):
    args = ["simulate", "--scenario", "s1", "--n", "60", "--reps", "2", "--seed", "4"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    raw = (a / "results.csv").read_bytes()
    assert raw == (b / "results.csv").read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")  # LF line endings
    header, *rows = raw.decode().splitlines()
    assert header == "rep,scenario,n,parameter,true,mean,median,sd,hpd_low,hpd_high,ess,covered"
    assert len(rows) == 2 * 4  # two replications, four rates each
    for i, line in enumerate(rows):
        rep, scenario, n, parameter, true, *stats, covered = line.split(",")
        # rows by replication, then in the monitor order lambda[1..4]
        assert (rep, scenario, n) == (str(1 + i // 4), "s1", "60")
        assert parameter == f"lambda[{1 + i % 4}]"
        assert true == repr(SCENARIOS["s1"][i % 4])
        assert all(v == repr(float(v)) for v in stats)  # shortest round-trip repr
        assert covered in {"0", "1"}
    manifest = json.loads((a / "manifest.json").read_text())
    assert set(manifest["timings_s"]) == {"rep_1", "rep_2"}


def test_simulate_covered_flags_are_binary(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", "s3", "--n", "50", "--reps", "1",
                 "--seed", "11", "--out", str(out)]) == 0
    rows = (out / "results.csv").read_text().strip().splitlines()[1:]
    assert {r.rsplit(",", 1)[1] for r in rows} <= {"0", "1"}


@pytest.mark.parametrize(
    "flag, value, least",
    [("--n", "-1", 1), ("--n", "0", 1), ("--reps", "0", 1), ("--seed", "-1", 0)],
    ids=["--n--1", "--n-0", "--reps-0", "--seed--1"],
)
def test_simulate_sizes_below_one_are_validation_errors(tmp_path, capsys, flag, value, least):
    # --n -1 failed in numpy ("negative dimensions are not allowed"); --reps 0
    # wrote an empty results.csv and exited 0; --seed -1 failed in numpy
    # ("expected non-negative integer") after --out was made
    args = {"--n": "50", "--reps": "1", "--seed": "1", flag: value}
    out = tmp_path / "sim"
    rc = main(["simulate", "--scenario", "s1", "--out", str(out),
               *[v for item in args.items() for v in item]])
    assert rc == 2
    assert f"{flag} must be at least {least}" in capsys.readouterr().err
    assert not out.exists()


# -- round trip through the CLI's data path ---------------------------------------


def test_dataset_round_trip_matches_bundled(tmp_path):
    k = load_kidney()
    path = tmp_path / "kidney_copy.csv"
    write_dataset_csv(k, path)
    assert read_dataset_csv(path) == k


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_simulate_s1_calibration(tmp_path):
    # 95% HPD coverage of the true rates should hold in most replications
    out = tmp_path / "cal"
    assert main(["simulate", "--scenario", "s1", "--n", "1000", "--reps", "5",
                 "--seed", "77", "--out", str(out)]) == 0
    import csv

    rows = list(csv.DictReader(open(out / "results.csv")))
    covered = {}
    for r in rows:
        covered.setdefault(r["parameter"], []).append(int(r["covered"]))
    assert all(sum(v) >= 4 for v in covered.values())


def test_fit_single_event_shrinks_between_prior_and_mle(tmp_path, capsys):
    # one event at t: the conjugate posterior mean (a+1)/(b+t) sits between
    # the prior mean a/b and the maximum-likelihood rate 1/t
    t = 3.0
    path = tmp_path / "one.csv"
    path.write_text(f"subject,replicate,time,status\n1,1,{t!r},1\n")
    out = tmp_path / "run"
    assert main(["fit", "--model", "simple", "--data", str(path), "--grid", "0",
                 "--chains", "1", "--burnin", "100", "--iters", "4000", "--seed", "2",
                 "--out", str(out)]) == 0
    row = (out / "summary.csv").read_text().strip().splitlines()[1].split(",")
    post_mean = float(row[1])
    exact = (0.01 + 1.0) / (0.01 + t)
    prior_mean, mle = 1.0, 1.0 / t
    assert min(prior_mean, mle) < exact < max(prior_mean, mle)
    assert post_mean == pytest.approx(exact, abs=0.03)

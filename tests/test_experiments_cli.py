"""Experiment runner determinism, report formats, and the CLI surface."""

import csv
import dataclasses
import json
import pickle
import re
import subprocess
import sys

import numpy as np
import pytest

from rbfbench import approx, cli, experiments, geometry, spectral
from rbfbench.cli import main
from rbfbench.experiments import (
    ExperimentConfig,
    config_hash,
    report_to_csv,
    report_to_json,
    run_rate_experiment,
)
from rbfbench.kernels import SobolevSpline, sobolev_spline_construct, wendland_construct

from helpers import proportionality_factor, tabulated_poly

SMALL = dict(family="sobolev", d=1, gamma=2, p_list=(2.0,), levels=4,
             h0=1 / 8, jitter=0.25, seed=7)


@pytest.fixture(scope="module")
def small_reports():
    return run_rate_experiment(ExperimentConfig(**SMALL))


def test_reports_deterministic(tmp_path, small_reports):
    again = run_rate_experiment(ExperimentConfig(**SMALL))
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    report_to_json(small_reports, p1)
    report_to_json(again, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_report_schema(small_reports):
    rep = small_reports["error_p2"]
    payload = rep.to_dict()
    assert set(payload) == {"kernel", "p", "levels", "fitted_rate",
                            "fit_residual", "theory_rate", "seed", "config_hash"}
    assert payload["kernel"] == {"family": "sobolev", "d": 1, "k_or_gamma": 2}
    hs = [lv["h"] for lv in payload["levels"]]
    assert hs == sorted(hs, reverse=True)
    for lv in payload["levels"]:
        assert set(lv) == {"h", "q", "rho", "n_points", "error", "witness"}
    assert payload["config_hash"] == config_hash(ExperimentConfig(**SMALL))


@pytest.mark.parametrize("cfg", [ExperimentConfig(**SMALL),
                                 ExperimentConfig(family="wendland", d=2, k=1, levels=2)],
                         ids=["sobolev", "wendland"])
def test_config_survives_a_pickle_round_trip(cfg):
    again = pickle.loads(pickle.dumps(cfg))
    assert again == cfg and again.fam == cfg.fam
    xs = np.linspace(0.0, 1.0, 7 * cfg.d).reshape(7, cfg.d)
    assert np.array_equal(again.problem[0](xs), cfg.problem[0](xs))


def test_fitted_rate_needs_four_levels():
    cfg = ExperimentConfig(**{**SMALL, "levels": 3})
    rep = run_rate_experiment(cfg)["error_p2"]
    assert rep.fitted_rate is None
    assert rep.passed == (rep.levels[-1]["error"] < rep.levels[0]["error"])
    # A repeated p counts each level once.
    cfg = ExperimentConfig(**{**SMALL, "levels": 3, "p_list": (2.0, 2.0)})
    assert run_rate_experiment(cfg)["error_p2"].fitted_rate is None


def test_csv_mirror(tmp_path, small_reports):
    path = tmp_path / "report.csv"
    report_to_csv(small_reports, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["p", "h", "q", "rho", "n_points", "error", "witness",
                       "fitted_rate", "theory_rate", "config_hash"]
    assert len(rows) == 1 + 4


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(family="gauss", d=1, gamma=2)
    with pytest.raises(ValueError):
        ExperimentConfig(family="wendland", d=1)        # k missing
    with pytest.raises(ValueError):
        ExperimentConfig(family="sobolev", d=1)         # gamma missing
    with pytest.raises(ValueError, match="take k, not gamma"):
        ExperimentConfig(family="wendland", d=1, k=1, gamma=4)
    with pytest.raises(ValueError, match="take gamma, not k"):
        ExperimentConfig(family="sobolev", d=1, gamma=2, k=3)
    with pytest.raises(ValueError):
        ExperimentConfig(family="sobolev", d=1, gamma=2, ratio=1.5)
    with pytest.raises(ValueError, match="constructive witness"):
        ExperimentConfig(family="wendland", d=1, k=1, witness="quasi")
    with pytest.raises(ValueError, match="d = 1 only"):
        ExperimentConfig(family="sobolev", d=2, gamma=4)
    for p_list in ((2.0, 0.0), (-2.0,), (0.5,), (np.nan,), (-np.inf,), ()):
        with pytest.raises(ValueError, match=r"each in \[1, inf\]"):
            ExperimentConfig(family="sobolev", d=1, gamma=2, p_list=p_list)
    for h0 in (0.0, -0.125, np.nan, 1.0, 2.0, np.inf):
        with pytest.raises(ValueError, match="h0 must be positive and below 1"):
            ExperimentConfig(family="sobolev", d=1, gamma=2, h0=h0)
    ExperimentConfig(family="sobolev", d=1, gamma=2, h0=0.5)
    for name in ("bump_width", "grid_factor"):
        for bad in (-0.2, 0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match=f"{name} must be positive"):
                ExperimentConfig(family="sobolev", d=1, gamma=2, **{name: bad})
    for levels in (2.5, 0, 1, -1, True, "3"):
        with pytest.raises(ValueError, match="levels must be an integer"):
            ExperimentConfig(family="sobolev", d=1, gamma=2, levels=levels)
    for levels in (0, 1):
        with pytest.raises(ValueError, match=f"levels must be an integer >= 2, got {levels}"):
            ExperimentConfig(family="wendland", d=1, k=1, levels=levels)
    for seed in (None, -1, 1.5, True, "7"):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            ExperimentConfig(family="wendland", d=1, k=1, seed=seed)
    for pad in (-1.0, -1e-9, np.nan, np.inf):
        with pytest.raises(ValueError, match="pad must be non-negative and finite"):
            ExperimentConfig(family="wendland", d=1, k=1, pad=pad)
    for center in (5.0, -0.1, 1.5, np.nan):
        with pytest.raises(ValueError, match=r"bump_center must lie in .*\[0, 1\]"):
            ExperimentConfig(family="sobolev", d=1, gamma=2, bump_center=center)
    for jitter in (0.6, -1.0, 0.4 + 1e-12, np.nan):
        with pytest.raises(ValueError, match=r"jitter must lie in \[0, 0.4\]"):
            ExperimentConfig(family="sobolev", d=1, gamma=2, jitter=jitter)
    ExperimentConfig(family="sobolev", d=1, gamma=2, p_list=(1.0, np.inf))
    for pad, center in ((None, 0.0), (0.0, 1.0), (1.5, 0.5)):
        ExperimentConfig(family="wendland", d=1, k=1, pad=pad, bump_center=center)
    for jitter in (0.0, geometry.MAX_JITTER):
        ExperimentConfig(family="wendland", d=1, k=1, jitter=jitter)
    for name in ("h0", "ratio", "jitter", "pad", "bump_center", "bump_width",
                 "grid_factor"):
        for flag in (False, True):
            with pytest.raises(ValueError, match=f"{name} must hold numbers, got {flag}"):
                ExperimentConfig(family="sobolev", d=1, gamma=2, **{name: flag})
    for p_list in ((True,), (2.0, False)):
        with pytest.raises(ValueError, match="p_list must hold numbers, got "):
            ExperimentConfig(family="sobolev", d=1, gamma=2, p_list=p_list)


@pytest.mark.parametrize("fields", [
    dict(family="wendland", d=1, k=2),
    dict(family="sobolev", d=1, gamma=2, witness="quasi"),
], ids=["wendland_ls", "sobolev_quasi"])
def test_folding_the_levels_by_hand_reproduces_every_error(fields):
    # The levels carry every input of a report's errors: evaluating each
    # witness and taking its L^p norms again gives the same bits.
    cfg = ExperimentConfig(**fields, p_list=(1.0, 2.0, np.inf), levels=4, h0=1 / 8,
                           seed=7)
    reports = run_rate_experiment(cfg)
    fam = experiments.family_kernel(cfg.family, cfg.d, cfg.k, cfg.gamma)
    levels = list(experiments.rate_levels(cfg))
    assert len(levels) == cfg.levels
    for i, lv in enumerate(levels):
        s_vals = approx.evaluate_combination(lv.coeffs, lv.X, fam.kernel, lv.grid)
        for p in cfg.p_list:
            row = reports[f"error_p{p:g}"].levels[i]
            assert (row["h"], row["n_points"]) == (lv.X.h, lv.X.n)
            weights = None if np.isinf(p) else lv.weights
            assert approx.lp_error(lv.f_vals, s_vals, p, weights) == row["error"]
        if cfg.witness == "ls":
            assert type(lv.rank) is int
            assert 1 <= lv.rank <= min(len(lv.grid), lv.X.n)
        else:
            assert lv.rank is None
        assert lv.grid.tobytes() == geometry.tensor_grid(lv.X.domain.candidate_axes(
            lv.X.q / cfg.grid_factor)).tobytes()
    with pytest.raises(dataclasses.FrozenInstanceError):
        levels[0].coeffs = None


def test_config_is_frozen():
    # A field set after __post_init__ would skip every refusal and change
    # what config_hash describes.
    cfg = ExperimentConfig(**SMALL)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.jitter = 0.9
    assert cfg.jitter == 0.25


def test_family_kernel_builds_and_refuses():
    family_kernel = experiments.family_kernel
    assert family_kernel("wendland", 3, 2, None) == experiments.FamilyKernel(
        wendland_construct(3, 2), order=2, theory_rate=4.0, kappa=4.0, ell=4, degree=3,
        c3=32.0)
    assert family_kernel("sobolev", 1, None, 4) == experiments.FamilyKernel(
        sobolev_spline_construct(4, 1), order=4, theory_rate=4.0, kappa=3.0, ell=2,
        degree=4, c3=40.0)
    assert family_kernel("sobolev", 2, None, 4).theory_rate == 3.0
    assert family_kernel("wendland", 1, 1, None).degree == 1
    for args, message in [
        (("gauss", 1, None, 2), "unknown kernel family 'gauss'"),
        (("wendland", 1, None, None), "wendland kernels need k"),
        (("sobolev", 1, None, None), "sobolev kernels need gamma"),
        (("wendland", 1, 1, 4), "wendland kernels take k, not gamma"),
        (("sobolev", 1, 3, 2), "sobolev kernels take gamma, not k"),
        (("wendland", 1.5, 1, None), "d must be an integer, got 1.5"),
        (("wendland", True, 1, None), "d must be an integer, got True"),
        (("wendland", 1, 1.0, None), "k must be an integer, got 1.0"),
        (("wendland", 1, True, None), "k must be an integer, got True"),
        (("sobolev", 1, None, 2.0), "gamma must be an integer, got 2.0"),
        (("sobolev", 1, None, "2"), "gamma must be an integer, got '2'"),
        (("wendland", 1, 0, None), "wendland kernels need k >= 1 (theory rate 2k), got 0"),
        (("wendland", 3, -1, None), "wendland kernels need k >= 1 (theory rate 2k), got -1"),
    ]:
        with pytest.raises(ValueError) as exc:
            family_kernel(*args)
        assert str(exc.value) == message
    assert family_kernel("wendland", np.int64(1), np.int64(1), None).order == 1


def test_quasi_witness_is_evaluated_with_the_runs_own_kernel(monkeypatch):
    # The constructive coefficients are coefficients of the run's kernel
    # G(. - xi), so the witness is evaluated with G itself, as for "ls".
    kernels = []

    def recording(coeffs, X, Phi, pts):
        kernels.append(Phi)
        return approx.evaluate_combination(coeffs, X, Phi, pts)

    monkeypatch.setattr(experiments, "evaluate_combination", recording)
    run_rate_experiment(ExperimentConfig(**{**SMALL, "levels": 2, "witness": "quasi"}))
    G = sobolev_spline_construct(SMALL["gamma"], SMALL["d"])
    assert len(kernels) == 2
    assert all(type(K) is SobolevSpline and K == G for K in kernels)


def test_config_infinity_roundtrip():
    cfg = ExperimentConfig(family="wendland", d=1, k=1, p_list=(2.0, np.inf))
    back = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert back.p_list == (2.0, np.inf)
    assert config_hash(back) == config_hash(cfg)


def test_cli_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("kernels", "spectral", "measure", "property2", "rates",
                 "ratio-diag"):
        assert name in out


def test_cli_kernels_table(tmp_path):
    out = tmp_path / "table.json"
    assert main(["kernels", "table", "--d", "3", "--k", "1",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["d"] == 3 and data["k"] == 1
    from fractions import Fraction
    built = tuple(Fraction(int(n), int(dn)) for n, dn in data["coeffs"])
    lam = proportionality_factor(built, tabulated_poly(3, 1))
    assert lam is not None and lam > 0


def test_cli_rejects_unknown_and_missing_flags():
    proc = subprocess.run(
        [sys.executable, "-m", "rbfbench.cli", "kernels", "table",
         "--d", "1", "--k", "0", "--bogus"],
        capture_output=True)
    assert proc.returncode == 2
    proc = subprocess.run(
        [sys.executable, "-m", "rbfbench.cli", "kernels", "table", "--d", "1"],
        capture_output=True)
    assert proc.returncode == 2          # physical parameter k must be explicit


def test_cli_spectral_check_odd_d5(tmp_path):
    out = tmp_path / "check.json"
    assert main(["spectral", "check", "--d", "5", "--k", "1",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["m"] == 3
    assert max(data["validation_residuals"]) < 1e-5


def test_cli_spectral_check_exits_1_on_failed_validation(capsys, monkeypatch):
    oracle = spectral.hankel_oracle
    monkeypatch.setattr(spectral, "hankel_oracle", lambda K, r: 2.0 * oracle(K, r))
    spectral.wendland_transform.cache_clear()
    try:
        assert main(["spectral", "check", "--d", "3", "--k", "1"]) == 1
    finally:
        spectral.wendland_transform.cache_clear()
    assert ("amplitude validation failed for (d=3, k=1): max relative residual "
            "5.000e-01") in capsys.readouterr().err


def test_cli_measure_check(tmp_path):
    out = tmp_path / "measure.json"
    assert main(["measure", "check", "--k", "1", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["max_factorization_residual"] < 1e-4
    assert data["discrete_ft_min"] >= data["discrete_ft_bound"] * (1 - 1e-12)


def test_cli_property2(tmp_path):
    out = tmp_path / "p2.json"
    csv_path = tmp_path / "p2.csv"
    assert main(["property2", "--kernel", "wendland", "--d", "1", "--k", "1",
                 "--h", "0.0625", "--budget", "300", "--out", str(out),
                 "--csv", str(csv_path)]) == 0
    data = json.loads(out.read_text())
    assert data["kappa"] == 2.0 and data["l"] == 2
    assert np.isfinite(data["C_emp"])
    with open(csv_path) as fh:
        header = fh.readline().strip().split(",")
    assert header == ["x0", "t0", "dist_over_h", "abs_E", "bound", "ratio"]


@pytest.mark.parametrize("argv,kernel,kappa,ell", [
    (["--kernel", "wendland", "--d", "2", "--k", "1", "--h", "0.125"],
     "wendland_d2_k1", 2.0, 3),
    (["--kernel", "sobolev", "--d", "1", "--gamma", "4", "--h", "0.0625"],
     "sobolev_gamma4_d1", 3.0, 2),
], ids=["wendland_d2_k1", "sobolev_gamma4_d1"])
def test_cli_property2_names_the_scanned_kernel_and_envelope(argv, kernel, kappa, ell,
                                                             tmp_path):
    # The command writes the kernel, the measured fill distance of the
    # scanned set and the envelope of the family's record.
    out = tmp_path / "p2.json"
    assert main(["property2", *argv, "--budget", "200", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    d, h = int(argv[3]), float(argv[-1])
    X = geometry.make_quasi_uniform(geometry.Box((0.0,) * d, (1.0,) * d), h,
                                    jitter=experiments.DEFAULT_JITTER, seed=7,
                                    pad=experiments.DEFAULT_PAD)
    assert [data[key] for key in ("kernel", "h", "kappa", "l")] == [kernel, X.h, kappa, ell]
    assert type(data["kappa"]) is float and type(data["l"]) is int


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_cli_property2_refuses_budget_below_8_per_stratum(budget, capsys):
    assert main(["property2", "--kernel", "wendland", "--d", "1", "--k", "1",
                 "--budget", budget]) == 2
    assert f"sample budget {budget} is below 8 samples" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["--kernel", "wendland", "--d", "1", "--k", "1", "--gamma", "7"],
     "wendland kernels take k, not gamma"),
    (["--kernel", "sobolev", "--d", "1", "--gamma", "4", "--k", "3"],
     "sobolev kernels take gamma, not k"),
], ids=["wendland_with_gamma", "sobolev_with_k"])
def test_cli_property2_refuses_other_familys_order(argv, message, capsys, monkeypatch):
    def no_points(*args, **kwargs):
        raise AssertionError("a point set was built for a refused config")

    monkeypatch.setattr(experiments, "make_quasi_uniform", no_points)
    assert main(["property2", *argv]) == 2
    assert capsys.readouterr().err == f"rbfbench: {message}\n"


@pytest.mark.parametrize("argv", [
    ["property2", "--kernel", "wendland", "--d", "2", "--k", "1", "--h", "0.0005"],
    ["rates", "--kernel", "wendland", "--d", "2", "--k", "1", "--h0", "0.0005",
     "--levels", "2"],
], ids=["property2", "rates"])
def test_cli_refuses_oversize_point_set_before_building_it(argv, capsys, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built for a refused point set")

    monkeypatch.setattr(geometry, "tensor_grid", no_grid)
    assert main(argv) == 2
    assert ("point lattice would need 100020001 nodes, above the cap of 4000000"
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv", [
    ["property2", "--kernel", "wendland", "--d", "1", "--k", "1", "--kappa", "2"],
    ["property2", "--kernel", "wendland", "--d", "1", "--k", "1", "--l", "2"],
    ["ratio-diag", "--d", "3", "--k", "1", "--gamma-target", "6"],
    ["property2", "--kernel", "wendland", "--d", "1", "--k", "1", "--jitter", "0.1"],
    ["rates", "--kernel", "wendland", "--d", "1", "--k", "1", "--jitter", "0.1"],
], ids=["property2_kappa", "property2_l", "ratio_diag_gamma_target", "property2_jitter",
        "rates_jitter"])
def test_cli_has_no_envelope_or_target_overrides(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_ratio_diag(tmp_path):
    out = tmp_path / "diag.json"
    assert main(["ratio-diag", "--d", "3", "--k", "1", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["gamma"] == 6
    assert data["min"] > 0


def test_cli_property2_and_ratio_diag_emit_the_library_reports(tmp_path):
    # Each handler writes what one library call returns, and nothing else.
    out, csv_path = tmp_path / "p2.json", tmp_path / "p2.csv"
    assert main(["property2", "--kernel", "sobolev", "--d", "1", "--gamma", "4",
                 "--h", "0.0625", "--seed", "3", "--budget", "200",
                 "--out", str(out), "--csv", str(csv_path)]) == 0
    report, _ = experiments.property2_run("sobolev", 1, None, 4, 0.0625, 3, 200)
    assert json.loads(out.read_text()) == report
    with open(csv_path, newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + report["samples"]
    assert main(["ratio-diag", "--d", "3", "--k", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == spectral.ratio_diagnostic(3, 2)


def test_cli_rates_with_config_file(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"family": "sobolev", "d": 1, "gamma": 2,
                                    "levels": 4, "jitter": 0.25}))
    out = tmp_path / "rates.json"
    code = main(["rates", "--config", str(cfg_file), "--seed", "7",
                 "--out", str(out), "--csv", str(tmp_path / "rates.csv")])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["fitted_rate"] >= 1.6
    assert data["seed"] == 7             # flag overrode the file default


def test_cli_rates_bad_config():
    assert main(["rates", "--kernel", "wendland", "--d", "1"]) == 2


@pytest.mark.parametrize("command,prefix", [("rates", "rates: bad configuration: "),
                                            ("property2", "rbfbench: ")])
def test_cli_refuses_wendland_k0_before_any_point_set(command, prefix, capsys, monkeypatch):
    # Theory rate 2k = 0 gives a rate gate that no fitted slope can miss.
    def no_points(*args, **kwargs):
        raise AssertionError("a point set was built for a refused config")

    monkeypatch.setattr(experiments, "make_quasi_uniform", no_points)
    monkeypatch.setattr(geometry, "make_quasi_uniform", no_points)
    assert main([command, "--kernel", "wendland", "--d", "1", "--k", "0"]) == 2
    assert capsys.readouterr().err == (
        f"{prefix}wendland kernels need k >= 1 (theory rate 2k), got 0\n")


def test_wendland_k0_kernel_and_transform_commands_still_run(tmp_path):
    assert main(["kernels", "table", "--d", "1", "--k", "0",
                 "--out", str(tmp_path / "k.json")]) == 0
    assert main(["spectral", "check", "--d", "1", "--k", "0",
                 "--out", str(tmp_path / "s.json")]) == 0


def test_cli_rates_refuses_quasi_wendland_before_any_level(capsys, monkeypatch):
    def no_points(*args, **kwargs):
        raise AssertionError("a point set was built for a refused config")

    monkeypatch.setattr(experiments, "make_quasi_uniform", no_points)
    assert main(["rates", "--kernel", "wendland", "--d", "2", "--k", "1",
                 "--witness", "quasi", "--levels", "2", "--h0", "0.03125"]) == 2
    assert "rates: bad configuration:" in capsys.readouterr().err


def test_cli_rates_refuses_one_level_before_building_it(capsys, monkeypatch):
    # One level shows no decrease of the error and can never pass.
    def no_points(*args, **kwargs):
        raise AssertionError("a point set was built for a refused config")

    monkeypatch.setattr(experiments, "make_quasi_uniform", no_points)
    assert main(["rates", "--kernel", "wendland", "--d", "1", "--k", "1", "--levels", "1"]) == 2
    assert capsys.readouterr().err.startswith(
        "rates: bad configuration: levels must be an integer >= 2")


@pytest.mark.parametrize("argv", [
    ["rates", "--kernel", "sobolev", "--gamma", "2", "--d", "1", "--p", "0"],
    ["rates", "--kernel", "sobolev", "--gamma", "2", "--d", "1", "--p", "-2"],
    ["rates", "--kernel", "sobolev", "--gamma", "2", "--d", "1", "--p", "nan"],
    ["rates", "--kernel", "sobolev", "--gamma", "2", "--d", "1", "--h0", "0"],
    ["rates", "--kernel", "sobolev", "--gamma", "2", "--d", "1", "--h0", "1"],
    ["property2", "--kernel", "wendland", "--d", "1", "--k", "1", "--h", "0"],
], ids=["rates_p0", "rates_p_negative", "rates_p_nan", "rates_h0_zero", "rates_h0_one",
        "property2_h0"])
def test_cli_refuses_out_of_scope_spacing_and_p(argv, capsys, monkeypatch):
    def no_points(*args, **kwargs):
        raise AssertionError("a point set was built for a refused config")

    if argv[0] == "rates":
        monkeypatch.setattr(experiments, "make_quasi_uniform", no_points)
    # property2 builds its lattice through make_quasi_uniform, which refuses
    # h = 0 before it builds any grid.
    monkeypatch.setattr(geometry, "tensor_grid", no_points)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "each in [1, inf]" in err or "must be positive" in err


@pytest.mark.parametrize("field,value", [
    ("bump_width", -0.2), ("bump_width", 0), ("grid_factor", 0), ("levels", 2.5),
    ("pad", -1), ("bump_center", 5), ("bump_center", -0.5), ("k", 3),
    ("c3", 16), ("c2_cap", 1.5), ("rho_max", 4), ("seed", None),
    ("d", 1.5), ("gamma", 2.0), ("gamma", True), ("p_list", "12"), ("p_list", "inf"),
    ("jitter", 0.6), ("jitter", -1), ("jitter", float("nan")),
    ("jitter", False), ("bump_width", True), ("pad", True), ("grid_factor", True),
    ("bump_center", True), ("p_list", [True]), ("h0", True),
])
def test_cli_rates_config_file_refused_before_any_level(field, value, tmp_path, capsys,
                                                         monkeypatch):
    def no_points(*args, **kwargs):
        raise AssertionError("a point set was built for a refused config")

    monkeypatch.setattr(experiments, "make_quasi_uniform", no_points)
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"family": "sobolev", "d": 1, "gamma": 2, field: value}))
    assert main(["rates", "--config", str(cfg_file)]) == 2
    assert "rates: bad configuration:" in capsys.readouterr().err


@pytest.mark.parametrize("name,text,message", [
    ("missing.json", None, "No such file or directory"),
    ("a_directory", None, "Is a directory"),
    ("list.json", "[1, 2]", "must hold a JSON object, got list"),
    ("broken.json", "{", "Expecting property name"),
])
def test_cli_rates_unreadable_config_exits_2(name, text, message, tmp_path, capsys):
    path = tmp_path / name
    if name == "a_directory":
        path.mkdir()
    elif text is not None:
        path.write_text(text)
    assert main(["rates", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rates: bad configuration: ") and message in err


@pytest.mark.parametrize("argv,target", [
    (["kernels", "table", "--d", "3", "--k", "1", "--out"], "missing"),
    (["rates", "--kernel", "sobolev", "--gamma", "2", "--d", "1", "--levels", "1",
      "--csv"], "missing"),
    (["rates", "--kernel", "wendland", "--k", "1", "--d", "1", "--levels", "1",
      "--out"], "missing"),
    (["property2", "--kernel", "wendland", "--d", "1", "--k", "1", "--csv"], "missing"),
    (["measure", "check", "--k", "1", "--out"], "directory"),
    (["rates", "--kernel", "wendland", "--k", "1", "--d", "1", "--levels", "1",
      "--out"], "directory"),
], ids=["kernels_table_out", "rates_csv", "rates_out", "property2_csv",
        "measure_check_out_is_a_directory", "rates_out_is_a_directory"])
def test_cli_unwritable_output_exits_2(argv, target, tmp_path, capsys, monkeypatch):
    # Every output path is checked before any work: no point set is built.
    # A read-only directory is not covered: a superuser may write to it.
    def no_points(*args, **kwargs):
        raise AssertionError("a point set was built before the output was checked")

    monkeypatch.setattr(experiments, "make_quasi_uniform", no_points)
    monkeypatch.setattr(geometry, "make_quasi_uniform", no_points)
    path = tmp_path / "missing" / "report" if target == "missing" else tmp_path
    assert main([*argv, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"rbfbench: cannot write {path}: ")


@pytest.mark.parametrize("exists,code", [(True, 0), (False, 2)],
                         ids=["existing_writable_file", "new_file"])
def test_cli_output_in_a_read_only_directory(exists, code, tmp_path, capsys, monkeypatch):
    # A superuser may write anywhere, so the read-only directory is simulated:
    # an existing writable file in it can be written, a new file cannot.
    access = cli.os.access
    monkeypatch.setattr(cli.os, "access",
                        lambda p, mode, **kw: p != tmp_path and access(p, mode, **kw))
    path = tmp_path / "k.json"
    if exists:
        path.write_text("")
    assert main(["kernels", "table", "--d", "3", "--k", "1", "--out", str(path)]) == code
    if exists:
        assert json.loads(path.read_text())["d"] == 3
    else:
        assert capsys.readouterr().err.startswith(f"rbfbench: cannot write {path}: ")
        assert not path.exists()


def test_one_rate_run_builds_its_family_kernel_once(monkeypatch):
    calls = []
    family_kernel = experiments.family_kernel
    monkeypatch.setattr(experiments, "family_kernel",
                        lambda *args: calls.append(args) or family_kernel(*args))
    run_rate_experiment(ExperimentConfig(**{**SMALL, "levels": 2}))
    assert calls == [("sobolev", 1, None, 2)]


def test_cli_measure_check_exits_1_on_a_failed_factorization(tmp_path, monkeypatch):
    measure_ft = spectral.measure_ft
    monkeypatch.setattr(spectral, "measure_ft", lambda mu, w: 2.0 * measure_ft(mu, w))
    out = tmp_path / "measure.json"
    assert main(["measure", "check", "--k", "1", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["max_factorization_residual"] >= 1e-4


@pytest.mark.parametrize("command,flags", [
    (["kernels", "table"], "--d --k --out"),
    (["spectral", "check"], "--d --k --out"),
    (["measure", "check"], "--k --out"),
    (["property2"], "--kernel --d --k --gamma --h --seed --budget --csv --out"),
    (["rates"], "--kernel --d --k --gamma --p --levels --h0 --seed --witness --config "
                "--csv --out"),
    (["ratio-diag"], "--d --k --out"),
], ids=["kernels_table", "spectral_check", "measure_check", "property2", "rates",
        "ratio_diag"])
def test_cli_subcommand_flags(command, flags, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", capsys.readouterr().out))
    assert listed - {"--help"} == set(flags.split())


@pytest.mark.parametrize("field,value", [("d", 1.5), ("k", 1.5), ("k", True)])
def test_cli_rates_refuses_non_integer_wendland_order(field, value, tmp_path, capsys,
                                                      monkeypatch):
    def no_points(*args, **kwargs):
        raise AssertionError("a point set was built for a refused config")

    monkeypatch.setattr(experiments, "make_quasi_uniform", no_points)
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"family": "wendland", "d": 1, "k": 1, field: value}))
    assert main(["rates", "--config", str(cfg_file)]) == 2
    assert (capsys.readouterr().err ==
            f"rates: bad configuration: {field} must be an integer, got {value!r}\n")


def test_cli_byte_identical_across_processes(tmp_path):
    args = ["rates", "--kernel", "sobolev", "--gamma", "2", "--d", "1",
            "--p", "2", "--levels", "4", "--seed", "7"]
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "rbfbench.cli", *args, "--out", str(out)],
            capture_output=True)
        assert proc.returncode == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

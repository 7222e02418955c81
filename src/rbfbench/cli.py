"""Command-line front end.

Subcommands are thin wrappers over the library: `kernels table`,
`spectral check`, `measure check`, `property2`, `rates`, `ratio-diag`.
Exit codes: 0 all asserted invariants pass, 1 invariant failure,
2 configuration error.  Physical parameters (d, k, gamma) are always
explicit; reports carry the config hash and no timestamps, so identical
invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import factorial
from pathlib import Path

import numpy as np

from .experiments import (
    ExperimentConfig,
    report_to_csv,
    report_to_json,
    reproduction_defaults,
    run_rate_experiment,
)
from .geometry import Box, make_quasi_uniform
from .kernels import sobolev_spline_construct, wendland_coeff_json, wendland_construct
from .polyrep import property2_scan
from .spectral import (
    build_measure_1d,
    measure_ft,
    ratio_diagnostic,
    spectral_check,
    wend1d_decompose,
    wendland_hat,
)

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2


def _emit(payload: dict | list, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out is None:
        print(text)
    else:
        Path(out).write_text(text + "\n")


def _cmd_kernels_table(args) -> int:
    kernel = wendland_construct(args.d, args.k)
    _emit(wendland_coeff_json(kernel), args.out)
    return EXIT_OK


def _cmd_spectral_check(args) -> int:
    report = spectral_check(args.d, args.k)
    _emit(report, args.out)
    worst = max(report["validation_residuals"])
    return EXIT_OK if worst < 1e-5 else EXIT_INVARIANT


def _cmd_measure_check(args) -> int:
    k = args.k
    decomp = wend1d_decompose(k)
    mu = build_measure_1d(k, decomp)
    omegas = np.linspace(0.0, 50.0, args.grid)
    muhat = np.asarray(measure_ft(mu, omegas))
    target = np.asarray(wendland_hat(1, k, omegas))
    residual = np.abs(muhat / (1.0 + np.abs(omegas) ** (2 * k + 2)) - target)
    disc = np.abs(np.asarray(mu.discrete_ft(omegas)))
    disc_bound = decomp.amplitude / (2.0 * factorial(k))
    payload = {
        "k": k,
        "tv_norm": mu.tv_norm,
        "atoms": [list(a) for a in mu.atoms],
        "max_factorization_residual": float(residual.max()),
        "discrete_ft_min": float(disc.min()),
        "discrete_ft_bound": disc_bound,
        "table": [{"omega": float(w), "residual": float(r)}
                  for w, r in zip(omegas, residual)],
    }
    _emit(payload, args.out)
    ok = residual.max() < 1e-4 and disc.min() >= disc_bound * (1 - 1e-12)
    return EXIT_OK if ok else EXIT_INVARIANT


def _cmd_property2(args) -> int:
    d = args.d
    if args.kernel == "wendland":
        if args.k is None:
            print("property2: wendland needs --k", file=sys.stderr)
            return EXIT_CONFIG
        Phi = wendland_construct(d, args.k)
        kappa = args.kappa if args.kappa is not None else 2.0 * args.k
        order = args.k
    else:
        if args.gamma is None:
            print("property2: sobolev needs --gamma", file=sys.stderr)
            return EXIT_CONFIG
        Phi = sobolev_spline_construct(args.gamma, d)
        kappa = args.kappa if args.kappa is not None else float(args.gamma - d)
        order = args.gamma
    degree, c3 = reproduction_defaults(args.kernel, order)
    c3 = args.c3 if args.c3 is not None else c3
    ell = args.l if args.l is not None else d + 1
    X = make_quasi_uniform(Box((0.0,) * d, (1.0,) * d), args.h, jitter=args.jitter,
                           seed=args.seed, pad=2.0)
    scan = property2_scan(Phi, X, kappa, ell, args.budget, degree=degree,
                          c3=c3, seed=args.seed)
    if args.csv:
        import csv as _csv
        with open(args.csv, "w", newline="") as fh:
            writer = _csv.writer(fh)
            xcols = [f"x{i}" for i in range(d)] + [f"t{i}" for i in range(d)]
            writer.writerow(xcols + ["dist_over_h", "abs_E", "bound", "ratio"])
            for row in zip(scan.x, scan.t, scan.dist_over_h, scan.abs_e,
                           scan.bound, scan.ratio):
                writer.writerow([*row[0], *row[1], row[2], row[3], row[4], row[5]])
    _emit({"kernel": scan.kernel_id, "h": scan.h, "kappa": scan.kappa,
           "l": scan.ell, "C_emp": scan.c_emp, "samples": int(len(scan.ratio))},
          args.out)
    return EXIT_OK


def _cmd_rates(args) -> int:
    base = {}
    if args.config:
        base = json.loads(Path(args.config).read_text())
    overrides = {
        "family": args.kernel, "d": args.d, "k": args.k, "gamma": args.gamma,
        "levels": args.levels, "h0": args.h0, "jitter": args.jitter,
        "seed": args.seed, "witness": args.witness,
    }
    if args.p:
        overrides["p_list"] = [np.inf if p.lower() == "inf" else float(p)
                               for p in args.p]
    for key, val in overrides.items():
        if val is not None:
            base[key] = val
    try:
        cfg = ExperimentConfig.from_dict(base)
    except (TypeError, ValueError) as exc:
        print(f"rates: bad configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    reports = run_rate_experiment(cfg)
    text = report_to_json(reports, args.out)
    if args.out is None:
        print(text)
    if args.csv:
        report_to_csv(reports, args.csv)
    return EXIT_OK if all(r.passed for r in reports.values()) else EXIT_INVARIANT


def _cmd_ratio_diag(args) -> int:
    diag = ratio_diagnostic(args.d, args.k, args.gamma_target)
    payload = {
        "d": diag["d"], "k": diag["k"], "gamma": diag["gamma"],
        "min": diag["min"], "max": diag["max"],
        "table": [{"omega": float(w), "ratio": float(r)}
                  for w, r in zip(diag["omega"], diag["ratio"])],
    }
    _emit(payload, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbfbench",
        description="Wendland/Sobolev-spline kernels, explicit transforms, "
                    "and convergence-rate experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    kernels = sub.add_parser("kernels", help="kernel construction utilities")
    ksub = kernels.add_subparsers(dest="subcommand", required=True)
    ktable = ksub.add_parser("table", help="emit exact Wendland coefficients as JSON")
    ktable.add_argument("--d", type=int, required=True)
    ktable.add_argument("--k", type=int, required=True)
    ktable.add_argument("--out", default=None)
    ktable.set_defaults(func=_cmd_kernels_table)

    spectral = sub.add_parser("spectral", help="transform machinery checks")
    ssub = spectral.add_subparsers(dest="subcommand", required=True)
    scheck = ssub.add_parser("check", help="coefficients, amplitude, residuals, decay")
    scheck.add_argument("--d", type=int, required=True)
    scheck.add_argument("--k", type=int, required=True)
    scheck.add_argument("--out", default=None)
    scheck.set_defaults(func=_cmd_spectral_check)

    measure = sub.add_parser("measure", help="finite Borel measure checks")
    msub = measure.add_subparsers(dest="subcommand", required=True)
    mcheck = msub.add_parser("check", help="transform factorization residuals")
    mcheck.add_argument("--k", type=int, required=True)
    mcheck.add_argument("--grid", type=int, default=101)
    mcheck.add_argument("--out", default=None)
    mcheck.set_defaults(func=_cmd_measure_check)

    prop2 = sub.add_parser("property2", help="error-kernel envelope scan")
    prop2.add_argument("--kernel", choices=["wendland", "sobolev"], required=True)
    prop2.add_argument("--d", type=int, required=True)
    prop2.add_argument("--k", type=int, default=None)
    prop2.add_argument("--gamma", type=int, default=None)
    prop2.add_argument("--h", type=float, default=1.0 / 32.0,
                       help="lattice spacing of the sampled point set")
    prop2.add_argument("--kappa", type=float, default=None)
    prop2.add_argument("--l", type=float, default=None)
    prop2.add_argument("--c3", type=float, default=None)
    prop2.add_argument("--jitter", type=float, default=0.25)
    prop2.add_argument("--seed", type=int, default=7)
    prop2.add_argument("--budget", type=int, default=1200)
    prop2.add_argument("--csv", default=None)
    prop2.add_argument("--out", default=None)
    prop2.set_defaults(func=_cmd_property2)

    rates = sub.add_parser("rates", help="convergence-rate experiment")
    rates.add_argument("--kernel", choices=["wendland", "sobolev"], default=None)
    rates.add_argument("--d", type=int, default=None)
    rates.add_argument("--k", type=int, default=None)
    rates.add_argument("--gamma", type=int, default=None)
    rates.add_argument("--p", nargs="+", default=None,
                       help="one or more of: 1 2 inf ...")
    rates.add_argument("--levels", type=int, default=None)
    rates.add_argument("--h0", type=float, default=None)
    rates.add_argument("--jitter", type=float, default=None)
    rates.add_argument("--seed", type=int, default=None)
    rates.add_argument("--witness", choices=["ls", "quasi"], default=None)
    rates.add_argument("--config", default=None, help="JSON config file; flags override")
    rates.add_argument("--csv", default=None)
    rates.add_argument("--out", default=None)
    rates.set_defaults(func=_cmd_rates)

    rdiag = sub.add_parser("ratio-diag", help="transform ratio diagnostic table")
    rdiag.add_argument("--d", type=int, required=True)
    rdiag.add_argument("--k", type=int, required=True)
    rdiag.add_argument("--gamma-target", type=int, default=None)
    rdiag.add_argument("--out", default=None)
    rdiag.set_defaults(func=_cmd_ratio_diag)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(f"rbfbench: {exc}", file=sys.stderr)
        return EXIT_INVARIANT if isinstance(exc, RuntimeError) else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

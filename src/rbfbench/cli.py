"""Command-line front end.

Every subcommand is a thin wrapper over the library: the library computes
every number and every pass, and the handler only emits them and maps the
pass to an exit code.  The subcommands are `kernels table`, `spectral
check`, `measure check`, `property2`, `rates`, `ratio-diag`.
Exit codes: 0 all asserted invariants pass, 1 invariant failure,
2 configuration error or an unwritable output.  Physical parameters (d, k,
gamma) are always explicit; reports carry the config hash and no
timestamps, so identical invocations produce byte-identical files.

The front end (`--help`, argparse errors, and the refusal of an unwritable
`--out` or `--csv` path) loads the standard library and the lazy package
root only, no numpy.  Each handler imports the library modules it calls,
so a command loads only what it runs: `kernels table`, `spectral check`,
`measure check` and `ratio-diag` need only numpy, except that the transform
validation of `spectral check` and `ratio-diag` in odd d >= 5 loads
scipy.special for the Bessel oracle.  `property2` and `rates --witness
quasi` need only numpy as well, except for the Bessel profile of Sobolev
splines in even d, and `rates --witness ls` adds scipy's LAPACK extension
module, scipy.linalg._flapack, for its solves, without the scipy.linalg
package.  The library itself depends on numpy and scipy only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

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
    from .kernels import wendland_coeff_json, wendland_construct

    kernel = wendland_construct(args.d, args.k)
    _emit(wendland_coeff_json(kernel), args.out)
    return EXIT_OK


def _cmd_spectral_check(args) -> int:
    from .spectral import spectral_check

    _emit(spectral_check(args.d, args.k), args.out)
    return EXIT_OK


def _cmd_measure_check(args) -> int:
    from .spectral import measure_check

    report, passed = measure_check(args.k)
    _emit(report, args.out)
    return EXIT_OK if passed else EXIT_INVARIANT


def _cmd_property2(args) -> int:
    from .experiments import DEFAULT_JITTER, DEFAULT_PAD, family_kernel
    from .geometry import Box, make_quasi_uniform
    from .polyrep import property2_scan

    d = args.d
    fam = family_kernel(args.kernel, d, args.k, args.gamma)
    X = make_quasi_uniform(Box((0.0,) * d, (1.0,) * d), args.h, jitter=DEFAULT_JITTER,
                           seed=args.seed, pad=DEFAULT_PAD)
    scan = property2_scan(fam.kernel, X, fam.kappa, fam.ell, args.budget,
                          degree=fam.degree, c3=fam.c3, seed=args.seed)
    if args.csv:
        import csv as _csv
        with open(args.csv, "w", newline="") as fh:
            writer = _csv.writer(fh)
            xcols = [f"x{i}" for i in range(d)] + [f"t{i}" for i in range(d)]
            writer.writerow(xcols + ["dist_over_h", "abs_E", "bound", "ratio"])
            for row in zip(scan.x, scan.t, scan.dist_over_h, scan.abs_e,
                           scan.bound, scan.ratio):
                writer.writerow([*row[0], *row[1], row[2], row[3], row[4], row[5]])
    kernel = (f"wendland_d{d}_k{fam.order}" if args.kernel == "wendland"
              else f"sobolev_gamma{fam.order}_d{d}")
    _emit({"kernel": kernel, "h": X.h, "kappa": fam.kappa, "l": fam.ell,
           "C_emp": scan.c_emp, "samples": len(scan.abs_e)}, args.out)
    return EXIT_OK


def _cmd_rates(args) -> int:
    from .experiments import (ExperimentConfig, report_to_csv, report_to_json,
                              run_rate_experiment)

    overrides = {
        "family": args.kernel, "d": args.d, "k": args.k, "gamma": args.gamma,
        "levels": args.levels, "h0": args.h0, "seed": args.seed,
        "witness": args.witness, "p_list": args.p,
    }
    try:
        base = json.loads(Path(args.config).read_text()) if args.config else {}
        if not isinstance(base, dict):
            raise ValueError(f"{args.config} must hold a JSON object, "
                             f"got {type(base).__name__}")
        base.update((key, val) for key, val in overrides.items() if val is not None)
        cfg = ExperimentConfig.from_dict(base)
    except (OSError, TypeError, ValueError) as exc:
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
    from .spectral import ratio_diagnostic

    diag = ratio_diagnostic(args.d, args.k)
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
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)
    d_k = argparse.ArgumentParser(add_help=False)
    d_k.add_argument("--d", type=int, required=True)
    d_k.add_argument("--k", type=int, required=True)

    kernels = sub.add_parser("kernels", help="kernel construction utilities")
    ksub = kernels.add_subparsers(dest="subcommand", required=True)
    ktable = ksub.add_parser("table", parents=[d_k, out],
                             help="emit exact Wendland coefficients as JSON")
    ktable.set_defaults(func=_cmd_kernels_table)

    spectral = sub.add_parser("spectral", help="transform machinery checks")
    ssub = spectral.add_subparsers(dest="subcommand", required=True)
    scheck = ssub.add_parser("check", parents=[d_k, out],
                             help="coefficients, amplitude, residuals, decay")
    scheck.set_defaults(func=_cmd_spectral_check)

    measure = sub.add_parser("measure", help="finite Borel measure checks")
    msub = measure.add_subparsers(dest="subcommand", required=True)
    mcheck = msub.add_parser("check", parents=[out], help="transform factorization residuals")
    mcheck.add_argument("--k", type=int, required=True)
    mcheck.set_defaults(func=_cmd_measure_check)

    prop2 = sub.add_parser("property2", parents=[out], help="error-kernel envelope scan")
    prop2.add_argument("--kernel", choices=["wendland", "sobolev"], required=True)
    prop2.add_argument("--d", type=int, required=True)
    prop2.add_argument("--k", type=int, default=None)
    prop2.add_argument("--gamma", type=int, default=None)
    prop2.add_argument("--h", type=float, default=1.0 / 32.0,
                       help="lattice spacing of the sampled point set")
    prop2.add_argument("--seed", type=int, default=7)
    prop2.add_argument("--budget", type=int, default=1200)
    prop2.add_argument("--csv", default=None)
    prop2.set_defaults(func=_cmd_property2)

    rates = sub.add_parser("rates", parents=[out], help="convergence-rate experiment")
    rates.add_argument("--kernel", choices=["wendland", "sobolev"], default=None)
    rates.add_argument("--d", type=int, default=None)
    rates.add_argument("--k", type=int, default=None)
    rates.add_argument("--gamma", type=int, default=None)
    rates.add_argument("--p", nargs="+", default=None,
                       help="one or more of: 1 2 inf ...")
    rates.add_argument("--levels", type=int, default=None)
    rates.add_argument("--h0", type=float, default=None)
    rates.add_argument("--seed", type=int, default=None)
    rates.add_argument("--witness", choices=["ls", "quasi"], default=None)
    rates.add_argument("--config", default=None, help="JSON config file; flags override")
    rates.add_argument("--csv", default=None)
    rates.set_defaults(func=_cmd_rates)

    rdiag = sub.add_parser("ratio-diag", parents=[d_k, out],
                           help="transform ratio diagnostic table")
    rdiag.set_defaults(func=_cmd_ratio_diag)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for target in map(Path, filter(None, (args.out, vars(args).get("csv")))):
        if target.is_dir() or not os.access(target if target.exists() else target.parent, os.W_OK):
            print(f"rbfbench: cannot write {target}: not a writable file", file=sys.stderr)
            return EXIT_CONFIG
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"rbfbench: {exc}", file=sys.stderr)
        return EXIT_INVARIANT if isinstance(exc, RuntimeError) else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

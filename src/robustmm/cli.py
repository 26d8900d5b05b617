"""Command-line front end: fit models from CSV, run simulation scenarios,
and verify loss-function shape conditions.

Exit codes: 0 success, 1 verification or simulation claims failed,
2 fit/convergence error, 3 input error. Every error prints one
machine-parseable line on stderr: ``error: <category>: <message>``.
Reports contain no timestamps unless ``--meta`` is given, so fixed-seed
runs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .estimators import FitConfig, fit
from .exceptions import (ConvergenceError, DomainError, FitError,
                         ScenarioError, SingularityError)
from .inference import asymptotic_cov
from .model import check_identifiability, exp_model, linear_model, load_csv
from .montecarlo import load_scenario, run_scenario
from .rho import (DEFAULT_DELTA, DEFAULT_K0, DEFAULT_K1, rho_from_config,
                  verify_r1, bisquare)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_FIT_ERROR = 2
EXIT_INPUT_ERROR = 3

SCHEMA_VERSION = 1


def _fail(category: str, message: str, code: int) -> int:
    print(f"error: {category}: {message}", file=sys.stderr)
    return code


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _emit_json(payload: dict, out_path) -> None:
    text = json.dumps(_jsonify(payload), indent=2, sort_keys=True) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _maybe_meta(payload: dict, want_meta: bool) -> dict:
    if want_meta:
        import datetime
        payload["meta"] = {
            "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        }
    return payload


# ---------------------------------------------------------------------------
# fit

def _parse_cols(raw):
    if raw is None:
        return None
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


def cmd_fit(args) -> int:
    try:
        data = load_csv(args.input, y_col=args.y_col, x_cols=_parse_cols(args.x_cols))
    except (OSError, ValueError, DomainError) as exc:
        return _fail("input", str(exc), EXIT_INPUT_ERROR)

    if args.model == "linear":
        if data.p < 1:
            return _fail("input", "linear model needs at least one predictor column",
                         EXIT_INPUT_ERROR)
        model = linear_model(data.p)
        ident = check_identifiability(data).to_dict()
    else:
        if data.p != 1:
            return _fail("input", "the exp model takes exactly one predictor column",
                         EXIT_INPUT_ERROR)
        model = exp_model()
        ident = None

    try:
        cfg = FitConfig(delta=args.delta, rho0=bisquare(args.k0),
                        rho1=bisquare(args.k1), n_subsamples=args.n_subsamples,
                        seed=args.seed)
        result = fit(data, model, cfg)
    except (FitError, ConvergenceError) as exc:
        return _fail("fit", str(exc), EXIT_FIT_ERROR)
    except (ValueError, DomainError) as exc:
        return _fail("input", str(exc), EXIT_INPUT_ERROR)

    report = {
        "schema_version": SCHEMA_VERSION,
        "model": args.model,
        "n": data.n,
        "p": data.p,
        "beta_s": result.xi_s.beta,
        "alpha_s": result.xi_s.alpha,
        "beta_mm": result.xi_mm.beta,
        "alpha_mm": result.xi_mm.alpha,
        "sigma": result.sigma,
        "objective_s": result.objective_s,
        "objective_mm": result.objective_mm,
        "converged": {"s": result.converged_s, "mm": result.converged_mm},
        "iterations": {"s": result.iterations_s, "mm": result.iterations_mm},
        "candidates_evaluated": result.candidates_evaluated,
        "exact_fit": result.exact_fit,
        "certified": result.certified,
        "equation_residuals": list(result.equation_residuals),
        "identifiability": ident,
        "warnings": [],
    }
    if ident is not None and ident["at_risk"]:
        report["warnings"].extend(ident["messages"])

    inf = None
    if result.exact_fit:
        report["warnings"].append("exact fit: scale is zero, no covariance available")
    else:
        try:
            inf = asymptotic_cov(data, model, result, cfg, symmetric=args.symmetric)
        except SingularityError as exc:
            # the point estimate is still valid; report it with a warning
            report["warnings"].append(
                f"inference unavailable: singular factor {exc.factor}")
    if inf is None:
        report.update(std_errors=None, V=None, constants=None)
    else:
        report.update(std_errors=inf.std_errors, V=inf.V,
                      constants=inf.constants.to_dict())
        if args.symmetric:
            report.update(V_symmetric=inf.V_symmetric,
                          symmetric_discrepancy=inf.symmetric_discrepancy)

    _emit_json(_maybe_meta(report, args.meta), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args) -> int:
    try:
        report = run_scenario(load_scenario(args.scenario))
    except OSError as exc:
        return _fail("input", str(exc), EXIT_INPUT_ERROR)
    except ScenarioError as exc:
        where = f" (key: {exc.key})" if exc.key else ""
        return _fail("input", f"{exc}{where}", EXIT_INPUT_ERROR)
    payload = _maybe_meta(report.to_json_dict(), args.meta)
    _emit_json(payload, args.out)

    if args.csv:
        header, rows = report.csv_rows()
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)

    return EXIT_OK if report.passed is True else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# check-rho

def _table_rho(path, k):
    """Loss interpolated from a two-column (t, value) table; saturates at
    1 outside the tabulated range."""
    from .rho import custom_rho
    try:
        pts = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read loss table {path}: {exc}") from exc
    if pts.shape[1] != 2:
        raise ValueError("loss table needs exactly two columns: t, value")
    order = np.argsort(pts[:, 0])
    t_tab, r_tab = pts[order, 0], pts[order, 1]

    def rho_fn(t):
        return np.interp(t, t_tab, r_tab, left=1.0, right=1.0)

    def fd(fn, t, h=1e-6):
        return (fn(np.asarray(t) + h) - fn(np.asarray(t) - h)) / (2 * h)

    return custom_rho(k, rho_fn, lambda t: fd(rho_fn, t),
                      lambda t: fd(lambda s: fd(rho_fn, s), t))


def cmd_check_rho(args) -> int:
    try:
        if args.table:
            f = _table_rho(args.table, float(args.k))
        else:
            f = rho_from_config(args.family, args.k)
        ok = verify_r1(f, args.grid)
    except ValueError as exc:
        return _fail("input", str(exc), EXIT_INPUT_ERROR)
    status = "pass" if ok else "FAIL"
    print(f"family={f.kind} k={f.k:g} grid={args.grid}")
    print(f"log-concavity of 1 - loss inside (-k, k): {status}")
    print(f"saturation at 1 outside [-k, k]: {status}")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors, which ``main`` reports in one line
    with exit code 3; ``--help`` still exits 0."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="robustmm",
        description="Robust S/MM regression fitting, inference and "
                    "simulation verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model to a CSV dataset")
    p_fit.add_argument("--input", required=True, help="CSV file path")
    p_fit.add_argument("--y-col", required=True,
                       help="response column (name or 0-based index)")
    p_fit.add_argument("--x-cols", default=None,
                       help="comma-separated predictor columns; default: all others")
    p_fit.add_argument("--model", choices=("linear", "exp"), default="linear")
    p_fit.add_argument("--k0", type=float, default=DEFAULT_K0,
                       help="coarse-loss tuning constant")
    p_fit.add_argument("--k1", type=float, default=DEFAULT_K1,
                       help="fine-loss tuning constant")
    p_fit.add_argument("--delta", type=float, default=DEFAULT_DELTA,
                       help="M-scale level")
    p_fit.add_argument("--n-subsamples", type=int, default=500)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--symmetric", action="store_true",
                       help="also report the symmetric-error covariance shortcut")
    p_fit.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p_fit.add_argument("--meta", action="store_true",
                       help="include a timestamped metadata block")
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="run a simulation scenario file")
    p_sim.add_argument("--scenario", required=True, help="scenario config path")
    p_sim.add_argument("--out", default=None, help="write the JSON report here")
    p_sim.add_argument("--csv", default=None,
                       help="also write per-replication estimates as CSV")
    p_sim.add_argument("--meta", action="store_true")
    p_sim.set_defaults(func=cmd_simulate)

    p_rho = sub.add_parser("check-rho", help="verify loss shape conditions")
    p_rho.add_argument("--family", default="bisquare")
    p_rho.add_argument("--k", required=True, help="tuning constant (decimal string)")
    p_rho.add_argument("--grid", type=int, default=1001)
    p_rho.add_argument("--table", default=None,
                       help="verify a user loss tabulated as CSV rows t,value")
    p_rho.set_defaults(func=cmd_check_rho)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except argparse.ArgumentError as exc:
        return _fail("input", str(exc), EXIT_INPUT_ERROR)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Eight subcommands expose the solver, the phase-structure tools and the
simulators as machine-readable tables (CSV, RFC-4180 line endings, 17
significant digits) or JSON records (top-level "schema_version").
Outputs are deterministic: re-running a command with the same flags and
seed produces byte-identical bytes, and the moment estimator's result
does not depend on --threads, which defaults to one worker per CPU.

Exit codes: 0 success, 2 usage or validation error, 3 resource budget
exceeded, 4 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .errors import BudgetError, DomainError, NumericsError, _check_rho
from .meanfield import MF_CURVE_RHO_MAX, mf_gap, mf_lambda, mf_phase_curve
from .phase import (
    appendix_b_checks,
    clausius_clapeyron_check,
    critical_exponent_fit,
    critical_jump_constants,
    jump_coefficients_near_critical,
    locate_critical_point,
    mf_critical_point,
    mf_trace,
    near_critical_rho_grid,
    trace_phase_curve,
)
from .simulate import (
    NoiseSpec,
    SimSpec,
    clt_check,
    estimate_moment,
    exact_moment,
    lln_check,
)
from .variational import ModelParams, _solve_row, big_F_scan

__all__ = ["RunConfig", "main", "main_entry"]

SCHEMA_VERSION = "1"
THREADS_ENV_VAR = "LYAPREC_THREADS"

# these commands emit a single JSON record; csv has no sensible layout
_JSON_ONLY = frozenset({"simulate", "critical", "exponent", "appendixb"})


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: subcommand, output contract, and the
    per-command options after flag > config file > default merging."""

    command: str
    format: str
    out: str | None
    seed: int
    threads: int | None
    options: dict


def _floats(text):
    parts = [p.strip() for p in str(text).split(",")]
    parts = [p for p in parts if p]
    if not parts:
        raise ValueError("expected a comma-separated list of numbers")
    return [float(p) for p in parts]


def _boolean(text):
    low = str(text).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected a boolean, got %r" % text)


def _choice(*allowed):
    def convert(text):
        value = str(text).strip()
        if value not in allowed:
            raise ValueError("expected one of %s, got %r" % (allowed, text))
        return value

    return convert


# (dest, converter, default, flag?, help)
_COMMAND_OPTIONS = {
    "lyapunov": [
        ("rho", _floats, [0.025, 0.05, 0.125, 0.2], False, "amplitude grid"),
        ("beta", _floats, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], False,
         "inverse-temperature grid"),
        ("q", int, 1, False, "moment order"),
    ],
    "bigf": [
        ("rho", _floats, [0.01, 0.05, 0.123, 0.2, 0.5], False, "amplitude list"),
        ("a_min", float, None, False,
         "left edge of the boundary-logit grid (default: log rho + 1e-3)"),
        ("a_max", float, None, False,
         "right edge of the boundary-logit grid (default: log rho + 8)"),
        ("points", int, 200, False, "grid size"),
    ],
    "phase": [
        ("rho", _floats, None, False,
         "explicit amplitude list (overrides the range flags)"),
        ("rho_min", float, 0.02, False, "range start"),
        ("rho_max", float, 0.11, False, "range end"),
        ("points", int, 8, False, "number of traced amplitudes"),
        ("meanfield", None, False, True, "append flat-profile overlay columns"),
    ],
    "critical": [
        ("model", _choice("exact", "meanfield"), "exact", False,
         "which beta-level function the finder runs on"),
        ("rho_lo", float, 0.05, False, "bracket start"),
        ("rho_hi", float, 0.3, False, "bracket end"),
    ],
    "meanfield": [
        ("rho", _floats, [0.05, 0.1, 0.135, 0.2], False, "amplitude grid"),
        ("beta", _floats, [0.0, 2.0, 4.0, 6.0, 8.0], False,
         "inverse-temperature grid"),
    ],
    "simulate": [
        ("n", int, 10, False, "chain length"),
        ("rho", float, 0.2, False, "amplitude"),
        ("beta", float, 1.0, False, "fixed-beta scaling parameter"),
        ("x0", float, 1.0, False, "initial state"),
        ("paths", int, 10000, False, "Monte Carlo sample size"),
        ("q", int, 1, False, "moment order"),
        ("noise", _choice("none", "constant", "exponential", "uniform"),
         "none", False, "additive-noise law"),
        ("noise_value", float, 0.0, False, "noise level/scale"),
        ("exact", None, False, True, "exact recursion instead of sampling"),
        ("lln", None, False, True, "attach the growth-concentration report"),
        ("clt", None, False, True, "attach the fluctuation report"),
        ("ladder", int, 4, False, "doublings used by --lln"),
    ],
    "exponent": [
        ("model", _choice("exact", "meanfield"), "exact", False,
         "fit the exact solver or the flat-profile approximation"),
        ("window", _floats, [1e-4, 1e-2], False,
         "relative |beta-beta_c| window lo,hi"),
        ("points", int, 12, False, "curve points inside the window"),
    ],
    "appendixb": [
        ("rho", float, 0.05, False, "amplitude"),
        ("a", _floats, [5.0, 10.0, 50.0, 200.0], False,
         "argument ladder for the correction integral"),
        ("cubic_d", float, 0.6, False, "occupation held fixed in the cubic sweep"),
        ("cubic_beta", _floats, [20.0, 40.0, 80.0, 160.0, 320.0, 640.0], False,
         "beta ladder for the cubic sweep"),
    ],
}


@functools.cache
def _build_parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every main call can share it."""
    parser = argparse.ArgumentParser(
        prog="lyaprec",
        description="Growth-rate solver for the fixed-beta moment recursion",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, options in _COMMAND_OPTIONS.items():
        p = sub.add_parser(name)
        for dest, conv, _default, is_flag, help_text in options:
            flag = "--" + dest.replace("_", "-")
            if is_flag:
                p.add_argument(flag, dest=dest, action="store_true",
                               default=None, help=help_text)
            else:
                p.add_argument(flag, dest=dest, type=conv, default=None,
                               help=help_text)
        p.add_argument("--out", dest="out", default=None,
                       help="write output to PATH instead of stdout")
        p.add_argument("--format", dest="format",
                       type=_choice("csv", "json"), default=None,
                       help="output format (default csv for tables, json for records)")
        p.add_argument("--seed", dest="seed", type=int, default=None,
                       help="random seed (simulation commands)")
        p.add_argument("--threads", dest="threads", type=int, default=None,
                       help="Monte Carlo worker threads; same output for any "
                            "count (default %s, else one per CPU, at most one "
                            "per chunk of paths)" % THREADS_ENV_VAR)
        p.add_argument("--config", dest="config", default=None,
                       help="key=value file supplying defaults for any flag")
    return parser


def _load_config_file(path):
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise DomainError(
                        "%s:%d: expected key=value" % (path, lineno)
                    )
                key, _, value = line.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise DomainError("cannot read config file: %s" % exc)
    return values


def _resolve(args):
    """Merge flag > config file > environment > built-in default."""
    command = args.command
    config = _load_config_file(args.config) if args.config else {}

    def pick(dest, converter, default):
        value = getattr(args, dest, None)
        if value is not None:
            return value
        if dest in config:
            try:
                return converter(config[dest])
            except ValueError as exc:
                raise DomainError("config key %r: %s" % (dest, exc))
        return default

    options = {}
    for dest, conv, default, is_flag, _help in _COMMAND_OPTIONS[command]:
        converter = _boolean if is_flag else conv
        options[dest] = pick(dest, converter, default)

    default_format = "json" if command in _JSON_ONLY else "csv"
    fmt = pick("format", _choice("csv", "json"), default_format)
    if command in _JSON_ONLY and fmt != "json":
        raise DomainError("the %s command emits JSON only" % command)
    out = pick("out", str, None)
    seed = pick("seed", int, 0)
    # None leaves the count to estimate_moment: one worker per CPU
    threads = pick("threads", int, None)
    if threads is None and os.environ.get(THREADS_ENV_VAR):
        try:
            threads = int(os.environ[THREADS_ENV_VAR])
        except ValueError as exc:
            raise DomainError("%s: %s" % (THREADS_ENV_VAR, exc))
    if threads is not None and threads < 1:
        raise DomainError("threads must be >= 1")
    return RunConfig(command=command, format=fmt, out=out, seed=seed,
                     threads=threads, options=options)


def _real(x):
    return format(float(x), ".17g")


def _emit_table(rc, columns, rows, **extra):
    """CSV, or a JSON record whose keys in extra come before the table."""
    if rc.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                ["" if v is None else v if isinstance(v, (int, str)) else _real(v)
                 for v in row]
            )
        return buf.getvalue()
    return _emit_record(
        rc, {**extra, "columns": list(columns), "rows": [list(r) for r in rows]}
    )


def _emit_record(rc, record):
    payload = {"schema_version": SCHEMA_VERSION, "command": rc.command, **record}
    return json.dumps(payload, indent=2) + "\n"


def _endpoint(crit):
    return {key: getattr(crit, key) for key in ("rho_c", "beta_c", "a_c", "d_c")}


def _require_grid(values, name):
    if not values:
        raise DomainError("%s grid must be non-empty" % name)
    return values


def _run_lyapunov(rc):
    rhos = _require_grid(rc.options["rho"], "rho")
    betas = _require_grid(rc.options["beta"], "beta")
    q = rc.options["q"]
    if q < 1:
        raise DomainError("q must be >= 1")
    columns = ("rho", "beta", "q", "lambda", "d_selected", "n_branches",
               "dlambda_drho", "dlambda_dbeta", "lower_bound", "upper_bound",
               "meanfield_lambda")
    rows = []
    for rho in rhos:
        # one fold scan and one Newton solve serve the whole beta row
        params = [ModelParams(rho, q * beta) for beta in betas]
        for beta, p, res in zip(betas, params, _solve_row(rho, betas, q)):
            mf = mf_lambda(p)
            rows.append((
                rho, beta, q,
                q * res.lambda_,
                res.selected.d,
                len(res.all_branches),
                q * res.dlambda_drho,
                q * q * res.dlambda_dbeta,
                q * (q * beta / 3.0 + math.log(rho)),
                q * (q * beta / 3.0 + math.log1p(rho)),
                q * mf.lambda_bar,
            ))
    return _emit_table(rc, columns, rows)


def _run_bigf(rc):
    rhos = _require_grid(rc.options["rho"], "rho")
    points = rc.options["points"]
    if points < 2:
        raise DomainError("points must be >= 2")
    a_min = rc.options["a_min"]
    a_max = rc.options["a_max"]
    if (a_min is None) != (a_max is None):
        raise DomainError("give both of --a-min/--a-max or neither")
    rows = []
    for rho in rhos:
        _check_rho(rho)
        lr = math.log(rho)
        lo = a_min if a_min is not None else lr + 1e-3
        hi = a_max if a_max is not None else lr + 8.0
        if not lo < hi:
            raise DomainError("need a_min < a_max")
        if lo < lr:
            raise DomainError(
                "a grid must start at or above log(rho) = %.6g for rho=%g"
                % (lr, rho)
            )
        grid = np.linspace(lo, hi, points)
        f_vals = big_F_scan(grid, rho)
        rows.extend((rho, float(a), float(f)) for a, f in zip(grid, f_vals))
    return _emit_table(rc, ("rho", "a", "F"), rows)


def _mf_overlay(rho):
    if not 0 < rho < MF_CURVE_RHO_MAX:
        return None, None, None
    beta_bar = mf_phase_curve(rho)
    if beta_bar <= 6.0:
        return beta_bar, None, None
    (point,) = mf_trace([beta_bar])
    return beta_bar, point.d1, point.d2


def _run_phase(rc):
    rhos = rc.options["rho"]
    if rhos is None:
        lo, hi, n = rc.options["rho_min"], rc.options["rho_max"], rc.options["points"]
        if not (0 < lo < hi):
            raise DomainError("need 0 < rho_min < rho_max")
        if n < 1:
            raise DomainError("points must be >= 1")
        rhos = [float(r) for r in np.linspace(lo, hi, n)]
    _require_grid(rhos, "rho")
    points = trace_phase_curve(rhos)
    if len(points) >= 3:
        slopes = [(None, None)] + clausius_clapeyron_check(points) + [(None, None)]
    else:
        slopes = [(None, None)] * len(points)
    overlay = rc.options["meanfield"]
    columns = ["rho", "beta_cr", "d1", "d2", "slope_numeric", "slope_formula"]
    if overlay:
        columns += ["mf_beta_cr", "mf_d1", "mf_d2"]
    rows = []
    for p, (s_num, s_for) in zip(points, slopes):
        row = [p.rho, p.beta_cr, p.d1, p.d2, s_num, s_for]
        if overlay:
            row += list(_mf_overlay(p.rho))
        rows.append(tuple(row))
    if rc.format == "json":
        return _emit_table(rc, columns, rows, critical=_endpoint(locate_critical_point()))
    return _emit_table(rc, columns, rows)


def _run_critical(rc):
    model = rc.options["model"]
    bracket = (rc.options["rho_lo"], rc.options["rho_hi"])
    if not (0 < bracket[0] < bracket[1]):
        raise DomainError("need 0 < rho_lo < rho_hi")
    find = mf_critical_point if model == "meanfield" else locate_critical_point
    return _emit_record(rc, {"model": model, **asdict(find(rho_bracket=bracket))})


def _run_meanfield(rc):
    rhos = _require_grid(rc.options["rho"], "rho")
    betas = _require_grid(rc.options["beta"], "beta")
    rows = []
    for rho in rhos:
        curve = mf_phase_curve(rho) if 0 < rho < MF_CURVE_RHO_MAX else None
        for beta in betas:
            res = mf_lambda(ModelParams(rho, beta))
            gap = mf_gap(beta) if beta > 6.0 else None
            rows.append((rho, beta, res.a_star, res.lambda_bar, curve, gap))
    return _emit_table(
        rc, ("rho", "beta", "a_star", "lambda_bar", "curve_beta", "gap"), rows
    )


def _run_simulate(rc):
    opts = rc.options
    noise = NoiseSpec(kind=opts["noise"], value=opts["noise_value"])
    spec = SimSpec.from_beta(
        n=opts["n"], rho=opts["rho"], beta=opts["beta"], x0=opts["x0"],
        paths=opts["paths"], seed=rc.seed, noise=noise, q=opts["q"],
    )
    if opts["exact"]:
        est = exact_moment(spec)
    else:
        est = estimate_moment(spec, threads=rc.threads)
    record = {
        "spec": {
            "n": spec.n, "rho": spec.rho, "sigma": spec.sigma, "tau": spec.tau,
            "x0": spec.x0, "paths": spec.paths, "seed": spec.seed, "q": spec.q,
            "noise": {"kind": noise.kind, "value": noise.value},
        },
        "beta": spec.beta,
        "estimate": asdict(est),
        "rate_per_step": est.log_moment / spec.n,
    }
    if opts["lln"]:
        rep = lln_check(spec, ladder=opts["ladder"])
        record["lln"] = {
            "target": rep.target,
            "gaps_shrink": rep.gaps_shrink,
            "final_within": rep.final_within,
            "rows": [
                {"n": r[0], "mean": r[1], "stderr": r[2], "gap": r[3]}
                for r in rep.rows
            ],
        }
    if opts["clt"]:
        rep = clt_check(spec)
        record["clt"] = {
            "variance_empirical": rep.variance_empirical,
            "variance_target": rep.variance_target,
            "ratio": rep.ratio,
            "qq_max_deviation": rep.qq_max_deviation,
            "n": rep.n,
            "paths": rep.paths,
            "noise": rep.noise_kind,
        }
    return _emit_record(rc, record)


def _run_exponent(rc):
    window = rc.options["window"]
    if len(window) != 2 or not (0 < window[0] < window[1]):
        raise DomainError("window must be lo,hi with 0 < lo < hi")
    window = (window[0], window[1])
    n_points = rc.options["points"]
    if n_points < 3:
        raise DomainError("need at least 3 points for a fit")
    model = rc.options["model"]
    if model == "meanfield":
        crit = mf_critical_point()
        ts = np.geomspace(window[0] * 1.2, window[1] * 0.8, n_points)
        pts = mf_trace(crit.beta_c * (1.0 + ts))
        fit = critical_exponent_fit(pts, crit, window,
                                    boundary_gap=lambda p: p.d2 - p.d1)
        consts = {"D_c": None, "c1": None, "c2": None,
                  "gap_prefactor": None, "third_derivative": None}
        c1_fit = c2_fit = None
    else:
        crit = locate_critical_point()
        rhos = near_critical_rho_grid(crit, n=n_points, window=window)
        pts = trace_phase_curve(rhos)
        fit = critical_exponent_fit(pts, crit, window)
        closed = critical_jump_constants(crit)
        consts = {
            "D_c": closed["curvature_constant"],
            "c1": closed["c1"],
            "c2": closed["c2"],
            "gap_prefactor": closed["gap_prefactor"],
            "third_derivative": closed["third_derivative"],
        }
        c1_fit, c2_fit = jump_coefficients_near_critical(pts, crit, window)
    record = {
        "model": model,
        "alpha": fit.alpha,
        "gamma": fit.gamma,
        "r_squared": fit.r_squared,
        "n_points": fit.n_points,
        "window": [window[0], window[1]],
        "c1_fit": c1_fit,
        "c2_fit": c2_fit,
        "critical": _endpoint(crit),
    }
    record.update(consts)
    return _emit_record(rc, record)


def _run_appendixb(rc):
    rep = appendix_b_checks(
        rc.options["a"], rc.options["rho"],
        cubic_d=rc.options["cubic_d"], cubic_betas=rc.options["cubic_beta"],
    )
    return _emit_record(rc, {"rho": rc.options["rho"], **asdict(rep)})


_DISPATCH = {
    "lyapunov": _run_lyapunov,
    "bigf": _run_bigf,
    "phase": _run_phase,
    "critical": _run_critical,
    "meanfield": _run_meanfield,
    "simulate": _run_simulate,
    "exponent": _run_exponent,
    "appendixb": _run_appendixb,
}


def _write_output(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    # newline="" so csv's \r\n endings survive on every platform
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError("cannot write output: %s" % exc)


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        rc = _resolve(args)
        text = _DISPATCH[rc.command](rc)
        _write_output(text, rc.out)
    except DomainError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BudgetError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except NumericsError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4
    return 0


def main_entry():
    raise SystemExit(main(argv=None))

"""Seeded workloads for the lyaprec benchmark.

A workload is a stream of passes; a pass is a short list of operations
built from the workload's random generator. Each operation calls lyaprec
only through its public functions, looked up on the package at call
time (so the tracer's wrappers apply), and carries a correctness check
that the runner calls after the timed interval. Checks may read the
results of the other operations of the same pass.

All workloads are closed loop with one client: an operation starts when
the previous one has returned.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.stats import qmc

import lyaprec
import lyaprec.cli

L = lyaprec

# critical point quoted in the README, and the flat-profile one in closed form
README_CRITICAL = (0.123282, 5.12009, 0.372175)
README_CRITICAL_TOL = (1e-6, 1e-5, 1e-6)
MF_CRITICAL = (math.exp(-2.0), 6.0, 0.5)


class CheckMiss(Exception):
    """An operation returned, but failed its check: it is a failed operation."""


class WrongValue(CheckMiss):
    """A deterministic check found a wrong number: the run is not correct."""


@dataclass
class Op:
    kind: str
    fn: object
    check: object  # check(result, pass_results, stats), raises CheckMiss


@dataclass
class Stats:
    """Values measured by the checks that the traced run reports."""

    route_gap_max: float = 0.0
    slope_dev_max: float = 0.0
    output_bytes: int = 0


def _require(cond, message, *args, miss=WrongValue):
    if not cond:
        raise miss(message % args if args else message)


# ---------------------------------------------------------------- grid

GRID_RHO = (1e-3, 0.5)
GRID_BETA = (0.0, 20.0)
GRID_Q_SHARE = 0.2
GRID_PASS = 10  # one of every GRID_PASS draws sits at a domain edge
GRID_EDGE_KINDS = ("tiny_rho", "tiny_beta", "window_edge")


def three_branch_window(rho):
    """(beta_lo, beta_hi) of the three-branch window at rho, or None.

    The benchmark's own oracle: a dense scan of the boundary function for
    its hump and dip, each polished with the adaptive big_F.
    """
    lr = math.log(rho)
    hi = lr + 12.0
    for _ in range(40):
        a = np.linspace(lr, hi, 4096)
        desc = np.diff(L.big_F_scan(a, rho)) < 0
        if not desc.any():
            return None
        if not desc[-1]:
            break
        hi += 10.0
    else:
        return None
    i = int(np.argmax(desc))
    j = int(len(desc) - 1 - np.argmax(desc[::-1]))
    hump = minimize_scalar(lambda x: -L.big_F(x, rho),
                           bounds=(a[max(i - 1, 0)], a[i + 1]),
                           method="bounded", options={"xatol": 1e-11})
    dip = minimize_scalar(lambda x: L.big_F(x, rho),
                          bounds=(a[j], a[min(j + 2, len(a) - 1)]),
                          method="bounded", options={"xatol": 1e-11})
    return 0.25 * dip.fun ** 2, 0.25 * hump.fun ** 2


def _grid_row(rho, beta, q):
    """One row of the lyapunov subcommand: growth rate plus mean-field bound."""
    if q == 1:
        params = L.ModelParams(rho, beta)
        res = L.lyapunov(params)
        return res.lambda_, res, L.mf_lambda(params).lambda_bar
    lam_q = L.lyapunov_q(L.ModelParams(rho, beta, q))
    return lam_q, None, q * L.mf_lambda(L.ModelParams(rho, q * beta)).lambda_bar


def _grid_check(rho, beta, q, window):
    def check(result, _pass_results, stats):
        lam, res, mf_bar = result
        tol = 1e-9 * max(1.0, abs(lam))
        lower = q * (q * beta / 3.0 + math.log(rho))
        upper = q * (q * beta / 3.0 + math.log1p(rho))
        _require(lower - tol <= lam <= upper + tol,
                 "lambda %r outside the sandwich [%r, %r]", lam, lower, upper)
        _require(mf_bar <= lam + tol,
                 "mean-field value %r above lambda %r", mf_bar, lam)
        if res is None:
            return
        sel = res.selected
        if beta > 0 and 0.0 < sel.d < 1.0:
            lam_d = L.lambda_of_d(sel.d, L.ModelParams(rho, beta))
            gap = abs(lam_d - sel.lambda_value)
            stats.route_gap_max = max(stats.route_gap_max, gap)
            _require(gap <= tol, "lambda_of_h1 and lambda_of_d differ by %r", gap)
        if window is not None:
            _require(len(res.all_branches) == 3,
                     "%d branches inside the three-branch window",
                     len(res.all_branches), miss=CheckMiss)
    return check


def grid_passes(rng):
    """Pass maker for `grid`. Draws come from scrambled Halton sequences,
    so every run covers the input box evenly and a run's mix of slow and
    fast rows varies little from seed to seed."""
    main = qmc.Halton(3, rng=rng)
    edges = {kind: qmc.Halton(3, rng=rng) for kind in GRID_EDGE_KINDS}

    def between(u, lo, hi):
        return lo + u * (hi - lo)

    def log_between(u, lo, hi):
        return math.exp(between(u, math.log(lo), math.log(hi)))

    def row(kind, rho, beta, q=1, window=None):
        return Op(
            kind="grid_" + kind if q == 1 else "grid_q",
            fn=lambda: _grid_row(rho, beta, q),
            check=_grid_check(rho, beta, q, window),
        )

    def make_pass(index):
        ops = []
        for u_rho, u_beta, u_q in main.random(GRID_PASS - 1):
            q = 1 if u_q >= GRID_Q_SHARE else 2 + int(2 * u_q / GRID_Q_SHARE)
            ops.append(row("main", log_between(u_rho, *GRID_RHO),
                           between(u_beta, *GRID_BETA), q))
        kind = GRID_EDGE_KINDS[index % len(GRID_EDGE_KINDS)]
        ((u_rho, u_beta, u_side),) = edges[kind].random(1)
        if kind == "tiny_rho":
            ops.append(row(kind, log_between(u_rho, 1e-8, 1e-5),
                           between(u_beta, *GRID_BETA)))
        elif kind == "tiny_beta":
            ops.append(row(kind, log_between(u_rho, 1e-6, GRID_RHO[1]),
                           log_between(u_beta, 1e-13, 1e-3)))
        else:
            rho = between(u_rho, 0.02, 0.12)
            window = three_branch_window(rho)
            u = between(u_beta, 0.05, 1.0) * 1e-7
            beta = window[0] * (1.0 + u) if u_side < 0.5 else window[1] * (1.0 - u)
            ops.append(row(kind, rho, beta, window=window))
        return ops

    return make_pass


# ---------------------------------------------------------------- phase

PHASE_TRIPLES = 4
EXPONENT_POINTS = 5


def _mf_critical():
    # the flat-profile finder configuration of the test suite
    return L.locate_critical_point(
        beta_level=L.mf_beta_level,
        d_map=lambda a, rho, beta: a,
        a_domain=lambda rho: (0.02, 0.98),
        fd_step=0.005,
    )


def _check_point(result, _pass_results, _stats):
    (p,) = result
    _require(0.0 < p.d1 < p.d2 < 1.0, "coexisting gaps out of order: %r", p)
    _require(p.beta_cr > README_CRITICAL[1] - README_CRITICAL_TOL[1],
             "curve point beta %r below the endpoint", p.beta_cr)


def _check_centre(lo_index, hi_index):
    def check(result, pass_results, stats):
        _check_point(result, pass_results, stats)
        below, above = pass_results[lo_index], pass_results[hi_index]
        _require(below is not None and above is not None,
                 "neighbouring curve points failed", miss=CheckMiss)
        ((numeric, formula),) = L.clausius_clapeyron_check(
            [below[0], result[0], above[0]])
        dev = abs(numeric / formula - 1.0)
        stats.slope_dev_max = max(stats.slope_dev_max, dev)
        _require(dev <= 0.01, "slope identity off by %.3g", dev)
    return check


def _check_critical(result, _pass_results, _stats):
    got = (result.rho_c, result.beta_c, result.d_c)
    for name, x, ref, tol in zip(("rho_c", "beta_c", "d_c"), got,
                                 README_CRITICAL, README_CRITICAL_TOL):
        _require(abs(x - ref) <= tol, "%s = %r, expected %r", name, x, ref)


def _check_mf_critical(result, _pass_results, _stats):
    got = (result.rho_c, result.beta_c, result.d_c)
    for name, x, ref in zip(("rho_c", "beta_c", "d_c"), got, MF_CRITICAL):
        _require(abs(x - ref) <= 1e-6, "mean-field %s = %r, expected %r",
                 name, x, ref)


def _check_exponent(result, _pass_results, _stats):
    _require(result.n_points == EXPONENT_POINTS,
             "%d of %d points in the fit window", result.n_points, EXPONENT_POINTS)
    _require(abs(result.alpha - 0.5) <= 0.05, "exponent %r", result.alpha)


def phase_pass(centres):
    rho_c = README_CRITICAL[0]
    ops = []
    for (u,) in centres.random(PHASE_TRIPLES):
        # more centres near the endpoint: log-uniform distance below rho_c
        rho = rho_c * (1.0 - math.exp(
            math.log(2e-3) + u * (math.log(0.85) - math.log(2e-3))))
        h = min(0.01 * rho, 0.25 * (rho_c - rho))
        base = len(ops)
        for k, r in enumerate((rho - h, rho, rho + h)):
            check = _check_centre(base, base + 2) if k == 1 else _check_point
            ops.append(Op("trace_point", lambda r=r: L.trace_phase_curve([r]),
                          check))
    state = {}

    def locate():
        state["crit"] = L.locate_critical_point()
        return state["crit"]

    def exponent():
        crit = state["crit"]
        points = L.trace_phase_curve(
            L.near_critical_rho_grid(crit, n=EXPONENT_POINTS))
        return L.critical_exponent_fit(points, crit)

    ops.append(Op("locate_exact", locate, _check_critical))
    ops.append(Op("locate_meanfield", _mf_critical, _check_mf_critical))
    ops.append(Op("exponent_fit", exponent, _check_exponent))
    return ops


# ------------------------------------------------------------- simulate

SIM_N = 12
SIM_PATHS = 200_000
EXACT_N = 20  # 2^20 configurations: the enumeration budget
EXACT_CHECK_PATHS = 100_000
NOISY_PER_PASS = 3
EXACT_PER_PASS = 2


def _sim_spec(rng, n, paths, **kwargs):
    return L.SimSpec.from_beta(
        n, float(rng.uniform(0.05, 0.3)), float(rng.uniform(0.5, 2.0)),
        paths=paths, seed=int(rng.integers(2 ** 31)), **kwargs)


def _within_stderr(mc, log_ref, what):
    # statistical: a miss fails the operation but does not mark the run wrong
    z = abs(mc.log_moment - log_ref) / mc.stderr_log
    _require(z <= 4.0, "%s: Monte Carlo %r vs exact %r is %.2f stderr",
             what, mc.log_moment, log_ref, z, miss=CheckMiss)


def _check_mc(spec, pair_index):
    def check(result, pass_results, _stats):
        if pair_index is not None:
            first = pass_results[pair_index]
            _require(first is not None, "threads=1 run of the pair failed",
                     miss=CheckMiss)
            _require(result == first, "threads=2 result %r differs from "
                     "threads=1 result %r", result, first)
        _within_stderr(result, L.exact_moment(spec).log_moment,
                       "noise-free")
    return check


def _check_noisy(spec):
    def check(result, _pass_results, _stats):
        # x0 * prod(a) <= x_n <= (x0 + sum b) * prod(a), with b independent of a
        free = L.exact_moment(replace(spec, noise=L.NoiseSpec()))
        slack = 4.0 * result.stderr_log
        lower = free.log_moment
        upper = free.log_moment + math.log(spec.x0 + spec.n * spec.noise.value)
        _require(lower - slack <= result.log_moment <= upper + slack,
                 "noisy moment %r outside [%r, %r]", result.log_moment,
                 lower, upper, miss=CheckMiss)
    return check


def _check_exact(spec):
    def check(result, _pass_results, _stats):
        mc = L.estimate_moment(replace(spec, paths=EXACT_CHECK_PATHS))
        _within_stderr(mc, result.log_moment, "enumeration")
    return check


def simulate_pass(rng):
    pair = _sim_spec(rng, SIM_N, SIM_PATHS)
    ops = [
        Op("mc_t1", lambda: L.estimate_moment(pair, threads=1),
           _check_mc(pair, None)),
        Op("mc_t2", lambda: L.estimate_moment(pair, threads=2),
           _check_mc(pair, 0)),
    ]
    for _ in range(NOISY_PER_PASS):
        noise = L.NoiseSpec("exponential", float(rng.uniform(0.5, 2.0)))
        spec = _sim_spec(rng, SIM_N, SIM_PATHS, noise=noise)
        ops.append(Op("mc_noisy", lambda spec=spec: L.estimate_moment(spec),
                      _check_noisy(spec)))
    for _ in range(EXACT_PER_PASS):
        spec = _sim_spec(rng, EXACT_N, 1)
        ops.append(Op("exact", lambda spec=spec: L.exact_moment(spec),
                      _check_exact(spec)))
    return ops


# ------------------------------------------------------------------ cli

CLI_COMMANDS = (
    ("lyapunov",), ("bigf",), ("phase",), ("critical",), ("meanfield",),
    ("simulate",), ("exponent",), ("appendixb",),
    ("critical", "--model", "meanfield"), ("exponent", "--model", "meanfield"),
)
# Extra runs per pass, so that the median and the tail each fall inside the
# latencies of one command instead of on the edge between two. Per pass, six
# commands are faster than `lyapunov` and `critical` is the fastest of the
# three slow ones: five `lyapunov` runs hold the median of each pass, and
# with four passes the eight `phase` and `exponent` runs sit above the tail
# and three `critical` runs per pass hold the 11th-slowest op.
CLI_EXTRA = (("lyapunov",),) * 4 + (("critical",),) * 2
_JSON_COMMANDS = {"simulate", "critical", "exponent", "appendixb"}
REFERENCE_PATH = Path(__file__).resolve().parent / "cli_reference.json"
CLI_RTOL = 1e-6
CLI_ATOL = 1e-10
# finite-difference constants of the endpoint curvature: a change of
# differentiation scheme moves them well past the last digits
CLI_LOOSE_KEYS = ("gap_prefactor", "curvature_constant", "third_derivative",
                  "D_c", "c1", "c2")
CLI_LOOSE_RTOL = 1e-2


def command_key(args):
    return " ".join(args)


def parse_cli_output(args, text):
    """Flatten a subcommand's output to {path: value}; numbers as floats."""
    flat = {}

    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k, v in obj.items():
                walk("%s.%s" % (prefix, k) if prefix else k, v)
        elif isinstance(obj, list):
            for i, v in enumerate(obj):
                walk("%s[%d]" % (prefix, i), v)
        elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
            flat[prefix] = float(obj)
        else:
            flat[prefix] = obj

    if args[0] in _JSON_COMMANDS:
        walk("", json.loads(text))
    else:
        rows = list(csv.reader(io.StringIO(text, newline="")))
        header = rows[0]
        flat["columns"] = ",".join(header)
        for i, row in enumerate(rows[1:]):
            for col, cell in zip(header, row):
                flat["[%d].%s" % (i, col)] = float(cell) if cell else None
    return flat


def compare_cli_output(got, ref):
    _require(set(got) == set(ref), "output fields differ from the reference: %r",
             sorted(set(got) ^ set(ref))[:5])
    for key, want in ref.items():
        have = got[key]
        if isinstance(want, float) and isinstance(have, float):
            leaf = key.rsplit(".", 1)[-1].removesuffix("_fit")
            rtol = CLI_LOOSE_RTOL if leaf in CLI_LOOSE_KEYS else CLI_RTOL
            _require(abs(have - want) <= CLI_ATOL + rtol * abs(want),
                     "%s = %r, reference %r", key, have, want)
        else:
            _require(have == want, "%s = %r, reference %r", key, have, want)


def load_cli_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def run_cli(args, out_path):
    return lyaprec.cli.main(list(args) + ["--out", str(out_path)])


def make_cli_pass(out_dir, reference, rng):
    def cli_pass(_index):
        ops = []
        commands = CLI_COMMANDS + CLI_EXTRA
        for slot, i in enumerate(rng.permutation(len(commands))):
            args = commands[int(i)]
            path = out_dir / ("%d.out" % slot)

            def check(code, _pass_results, stats, args=args, path=path):
                _require(code == 0, "exit code %r", code, miss=CheckMiss)
                raw = path.read_bytes()
                stats.output_bytes += len(raw)
                text = raw.decode("utf-8")
                compare_cli_output(parse_cli_output(args, text),
                                   reference[command_key(args)])

            ops.append(Op("cli_" + "_".join(a.lstrip("-") for a in args),
                          lambda args=args, path=path: run_cli(args, path),
                          check))
        return ops
    return cli_pass


WORKLOADS = ("grid", "phase", "simulate", "cli")
# Passes in a plain run of REFERENCE_SECONDS; other lengths scale this.
# On a 2-vCPU Intel Xeon, each workload then measures about 20 s. A fixed
# op list per seed keeps two versions of the code on exactly the same
# inputs. phase, simulate and cli have few slow operations per pass; their
# pass counts put each pass median and the run's tail inside one kind of
# operation (see the notes at CLI_EXTRA and in README.md). Warm-up passes
# come first in the stream and are not reported: grid's operations are
# short enough for first-call costs to show.
REFERENCE_SECONDS = 20.0
RUN_PASSES = {"grid": 560, "phase": 5, "simulate": 8, "cli": 4}
WARMUP_PASSES = {"grid": 5, "phase": 0, "simulate": 0, "cli": 0}
# passes in the fixed op list of a traced run
TRACE_PASSES = {"grid": 60, "phase": 1, "simulate": 2, "cli": 1}


def pass_maker(name, rng, out_dir):
    """make_pass(index) -> the ops of pass `index`; all inputs come from rng."""
    if name == "grid":
        return grid_passes(rng)
    if name == "phase":
        centres = qmc.Halton(1, rng=rng)  # stratified, as for grid
        return lambda _index: phase_pass(centres)
    if name == "simulate":
        return lambda _index: simulate_pass(rng)
    if name == "cli":
        out_dir.mkdir(parents=True, exist_ok=True)
        return make_cli_pass(out_dir, load_cli_reference(), rng)
    raise ValueError("unknown workload %r" % name)

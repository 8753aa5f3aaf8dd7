"""End-to-end acceptance battery.

Every test times itself, prints exactly one PASS/FAIL line with its
headline numbers, and then asserts both the tolerance and the runtime
ceiling. Run with -s to see the lines for passing tests too.
"""

import math
import time
from dataclasses import replace

import numpy as np
from scipy.special import expit

from lyaprec.numerics import softplus
from lyaprec.phase import (
    CriticalPoint,
    appendix_b_checks,
    clausius_clapeyron_check,
    critical_exponent_fit,
    locate_critical_point,
    mf_critical_point,
    mf_trace,
    near_critical_rho_grid,
    trace_phase_curve,
)
from lyaprec.simulate import NoiseSpec, SimSpec, clt_check, estimate_moment, exact_moment
from lyaprec.variational import (
    ModelParams,
    d_of_h1,
    lambda_of_d,
    lyapunov,
    lyapunov_q,
    reconstruct_profile,
    solve_h1,
)


def _report(num, label, ok, detail, elapsed, limit):
    print(
        "criterion %02d %-30s %s (%s; %.2fs of %.0fs)"
        % (num, label, "PASS" if ok else "FAIL", detail, elapsed, limit)
    )


def test_criterion_01_beta_zero_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for rho in (0.01, 0.1, 0.5, 1.0, 5.0):
        res = lyapunov(ModelParams(rho, 0.0))
        worst = max(worst, abs(res.lambda_ - math.log1p(rho)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    _report(1, "beta=0 closed form", ok, "max err %.1e" % worst, elapsed, 1)
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_02_envelope_bounds_grid():
    t0 = time.perf_counter()
    worst = -math.inf
    for rho in np.geomspace(0.01, 1.0, 20):
        for beta in np.linspace(0.1, 20.0, 20):
            rho_f, beta_f = float(rho), float(beta)
            lam = lyapunov(ModelParams(rho_f, beta_f)).lambda_
            lo = beta_f / 3.0 + math.log(rho_f)
            hi = beta_f / 3.0 + math.log1p(rho_f)
            worst = max(worst, lo - lam, lam - hi)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 60.0
    _report(2, "sandwich bounds 20x20", ok, "max violation %.1e" % worst, elapsed, 60)
    assert worst <= 1e-9
    assert elapsed < 60.0


def test_criterion_03_critical_point():
    t0 = time.perf_counter()
    crit = locate_critical_point()
    elapsed = time.perf_counter() - t0
    errs = (
        abs(crit.rho_c - 0.1233),
        abs(crit.beta_c - 5.120),
        abs(crit.d_c - 0.372),
    )
    ok = errs[0] <= 1e-3 and errs[1] <= 1e-2 and errs[2] <= 5e-3 and elapsed < 120.0
    _report(
        3,
        "critical point location",
        ok,
        "rho_c %.6f beta_c %.5f d_c %.5f" % (crit.rho_c, crit.beta_c, crit.d_c),
        elapsed,
        120,
    )
    assert errs[0] <= 1e-3
    assert errs[1] <= 1e-2
    assert errs[2] <= 5e-3
    assert elapsed < 120.0


def test_criterion_04_meanfield_critical_point():
    t0 = time.perf_counter()
    crit = mf_critical_point()
    elapsed = time.perf_counter() - t0
    errs = (
        abs(crit.rho_c - math.exp(-2.0)),
        abs(crit.beta_c - 6.0),
        abs(crit.a_c - 0.5),
    )
    ok = max(errs) <= 1e-6 and elapsed < 10.0
    _report(
        4,
        "flat-profile critical point",
        ok,
        "errs %.1e %.1e %.1e" % errs,
        elapsed,
        10,
    )
    assert max(errs) <= 1e-6
    assert elapsed < 10.0


def test_criterion_05_curve_slope_identity():
    t0 = time.perf_counter()
    points = trace_phase_curve(np.linspace(0.02, 0.11, 30))
    worst = 0.0
    for numeric, formula in clausius_clapeyron_check(points):
        worst = max(worst, abs(numeric / formula - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.01 and elapsed < 300.0
    _report(5, "transition-curve slope", ok, "max rel dev %.4f" % worst, elapsed, 300)
    assert worst <= 0.01
    assert elapsed < 300.0


def test_criterion_06_exponent_one_half(crit):
    t0 = time.perf_counter()
    points = trace_phase_curve(near_critical_rho_grid(crit))
    fit = critical_exponent_fit(points, crit)

    mf_critical = CriticalPoint(rho_c=math.exp(-2.0), beta_c=6.0, a_c=0.5, d_c=0.5)
    mf_points = mf_trace(6.0 * (1.0 + np.geomspace(1e-4 * 1.2, 1e-2 * 0.8, 12)))
    mf_fit = critical_exponent_fit(
        mf_points, mf_critical, boundary_gap=lambda p: p.d2 - p.d1
    )
    elapsed = time.perf_counter() - t0
    ok = (
        abs(fit.alpha - 0.5) <= 0.05
        and abs(mf_fit.alpha - 0.5) <= 0.05
        and elapsed < 300.0
    )
    _report(
        6,
        "critical exponent 1/2",
        ok,
        "alpha %.4f meanfield %.4f" % (fit.alpha, mf_fit.alpha),
        elapsed,
        300,
    )
    assert abs(fit.alpha - 0.5) <= 0.05
    assert abs(mf_fit.alpha - 0.5) <= 0.05
    assert elapsed < 300.0


def test_criterion_07_asymptotic_regimes():
    t0 = time.perf_counter()
    rate = lyapunov(ModelParams(0.2, 200.0)).lambda_ / 200.0
    lo = 1.0 / 3.0 + math.log(0.2) / 200.0
    hi = 1.0 / 3.0 + math.log(1.2) / 200.0
    part1 = lo <= rate <= hi

    point = trace_phase_curve([0.005])[0]
    reference = -(8.0 / 3.0) * math.log(0.005 / 1.005)
    dev = abs(point.beta_cr / reference - 1.0)
    part2 = dev <= 0.05
    part3 = abs(point.d1) <= 0.05 and abs(point.d2 - 0.75) <= 0.05
    elapsed = time.perf_counter() - t0
    ok = part1 and part2 and part3 and elapsed < 120.0
    _report(
        7,
        "deep-phase asymptotics",
        ok,
        "rate %.6f curve dev %.4f d1 %.4f d2 %.4f"
        % (rate, dev, point.d1, point.d2),
        elapsed,
        120,
    )
    assert part1
    assert part2
    assert part3
    assert elapsed < 120.0


def test_criterion_08_moment_order_scaling():
    t0 = time.perf_counter()
    worst = 0.0
    for rho in (0.05, 0.2, 0.5):
        for beta in (0.5, 2.0, 8.0):
            for q in (2, 3, 5):
                got = lyapunov_q(ModelParams(rho, beta, q=q))
                inner = ModelParams(rho, q * beta)
                best = max(
                    lambda_of_d(d_of_h1(r, inner), inner)
                    for r in solve_h1(inner).roots
                )
                worst = max(worst, abs(got - q * best))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    _report(8, "moment-order identity", ok, "max gap %.1e" % worst, elapsed, 60)
    assert worst <= 1e-6
    assert elapsed < 60.0


def test_criterion_09_euler_lagrange_residual():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    worst_resid = worst_energy = 0.0
    for _ in range(5):
        rho = float(rng.uniform(0.05, 0.8))
        beta = float(rng.uniform(0.5, 8.0))
        params = ModelParams(rho, beta)
        res = lyapunov(params)
        prof = reconstruct_profile(res.selected, params, nodes=2000)
        h = prof.h_values
        dy = prof.grid[1] - prof.grid[0]
        second = (h[2:] - 2.0 * h[1:-1] + h[:-2]) / dy ** 2
        rhs = -2.0 * beta * expit(h[1:-1])
        worst_resid = max(
            worst_resid, float(np.max(np.abs(second - rhs)) / np.max(np.abs(rhs)))
        )
        slope = (h[2:] - h[:-2]) / (2.0 * dy)
        energy = 0.5 * slope ** 2 + 2.0 * beta * softplus(h[1:-1])
        worst_energy = max(
            worst_energy,
            float(np.max(np.abs(energy - prof.energy)) / prof.energy),
        )
    elapsed = time.perf_counter() - t0
    ok = worst_resid <= 1e-4 and worst_energy <= 1e-6 and elapsed < 60.0
    _report(
        9,
        "optimality equation residual",
        ok,
        "EL %.1e energy %.1e" % (worst_resid, worst_energy),
        elapsed,
        60,
    )
    assert worst_resid <= 1e-4
    assert worst_energy <= 1e-6
    assert elapsed < 60.0


def test_criterion_10_monte_carlo_vs_enumeration():
    t0 = time.perf_counter()
    worst = 0.0
    for n, q in ((8, 1), (12, 1), (14, 1), (8, 2)):
        spec = SimSpec.from_beta(n, 0.2, 1.0, paths=1_000_000, seed=2026, q=q)
        mc = estimate_moment(spec, threads=2)
        ex = exact_moment(spec)
        worst = max(worst, abs(mc.log_moment - ex.log_moment) / mc.stderr_log)
    elapsed = time.perf_counter() - t0
    ok = worst <= 4.0 and elapsed < 300.0
    _report(10, "sampler vs enumeration", ok, "max z %.2f" % worst, elapsed, 300)
    assert worst <= 4.0
    assert elapsed < 300.0


def test_criterion_11_gaussian_fluctuations():
    t0 = time.perf_counter()
    base = SimSpec.from_beta(2000, 0.2, 3.0, paths=10000, seed=2026)
    ratios = []
    for noise in (NoiseSpec(), NoiseSpec(kind="exponential", value=1.0)):
        ratios.append(clt_check(replace(base, noise=noise)).ratio)
    elapsed = time.perf_counter() - t0
    ok = all(abs(r - 1.0) <= 0.05 for r in ratios) and elapsed < 120.0
    _report(
        11,
        "fluctuation variance",
        ok,
        "ratios %.4f %.4f" % tuple(ratios),
        elapsed,
        120,
    )
    assert all(abs(r - 1.0) <= 0.05 for r in ratios)
    assert elapsed < 120.0


def test_criterion_12_correction_integral_sandwich():
    t0 = time.perf_counter()
    all_ok = True
    gap_max = 0.0
    for rho in (0.01, 0.05, 0.2):
        rep = appendix_b_checks([5.0, 10.0, 50.0, 200.0], rho)
        all_ok = all_ok and rep.sandwich_ok and rep.scaled_gap_bounded and rep.cubic_bounded
        gap_max = max(gap_max, rep.scaled_gap_max)
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed < 30.0
    _report(
        12,
        "large-argument sandwich",
        ok,
        "scaled gap max %.3f" % gap_max,
        elapsed,
        30,
    )
    assert all_ok
    assert elapsed < 30.0

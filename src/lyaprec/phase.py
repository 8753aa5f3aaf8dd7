"""Phase structure of the exact growth rate.

Below a critical amplitude rho_c the boundary equation has a window of
beta values with three stationary branches; the two outer branch values
cross along a curve beta_cr(rho), where the selected mean occupation
jumps from d1 to d2 and the derivatives of the growth rate jump with
it. The window closes at (rho_c, beta_c), a second-order endpoint where
the coexistence gap vanishes like a square root. This module traces the
curve, pins the endpoint, checks the slope identity relating the curve
to the derivative jumps, fits the closing exponent, and verifies the
large-argument asymptotics of the correction integral.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import expit

from .errors import DomainError, NumericsError, _stage
from .numerics import inverse_softplus, polylog, softplus_diff
from .variational import (
    ModelParams,
    _folds,
    _level,
    _level_roots,
    _polish_folds,
    big_F_scan,
    correction_integral,
    lambda_of_d,
)

__all__ = [
    "PhaseCurvePoint",
    "CriticalPoint",
    "ExponentFit",
    "AsymptoticsReport",
    "trace_phase_curve",
    "locate_critical_point",
    "clausius_clapeyron_check",
    "near_critical_rho_grid",
    "critical_exponent_fit",
    "jump_coefficients_near_critical",
    "critical_jump_constants",
    "appendix_b_checks",
]


@dataclass(frozen=True)
class PhaseCurvePoint:
    """One point of the first-order curve: coexisting mean occupations
    d1 < d2 at (rho, beta_cr), plus the implied derivative jumps
    (d2-d1)/rho and (d2^2-d1^2)/2."""

    rho: float
    beta_cr: float
    d1: float
    d2: float
    jump_drho: float
    jump_dbeta: float


@dataclass(frozen=True)
class CriticalPoint:
    """Endpoint of the first-order curve.

    candidates lists every boundary logit where the slope of the
    beta-level function touches zero at rho_c; uniqueness is observed
    numerically, not assumed, so the full list is kept (a_c is its
    first entry in all observed runs).
    """

    rho_c: float
    beta_c: float
    a_c: float
    d_c: float
    candidates: tuple = ()


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares fit of log(gap) against log|beta - beta_c|."""

    alpha: float
    gamma: float
    r_squared: float
    n_points: int
    window: tuple
    gap_prefactor: float | None = None
    curvature_constant: float | None = None
    third_derivative: float | None = None


@dataclass(frozen=True)
class AsymptoticsReport:
    rows: list
    sandwich_ok: bool
    scaled_gap_max: float
    scaled_gap_bounded: bool
    cubic_rows: list
    cubic_product_max: float
    cubic_bounded: bool


def _beta_level(a_values, rho):
    """beta at which the boundary logit a is stationary: (big_F/2)^2."""
    F = big_F_scan(np.atleast_1d(a_values), rho)
    return 0.25 * F * F


def _slope_stencil(blevel, a, rho, h):
    """Fourth-order (Richardson-refined central) slope of the beta level."""
    xs = a + h * np.array([-2.0, -1.0, 1.0, 2.0])
    v = blevel(xs, rho)
    return (8.0 * (v[2] - v[1]) - (v[3] - v[0])) / (12.0 * h)


def _min_slope(blevel, rho, a_lo, a_hi, h, grid_n=1024):
    """Minimum of the beta-level slope over [a_lo, a_hi] and its location."""
    grid = np.linspace(a_lo + 2 * h, a_hi - 2 * h, grid_n)
    shifted = grid[None, :] + h * np.array([-2.0, -1.0, 1.0, 2.0])[:, None]
    v = blevel(shifted.ravel(), rho).reshape(4, grid_n)
    slopes = (8.0 * (v[2] - v[1]) - (v[3] - v[0])) / (12.0 * h)
    i = int(np.argmin(slopes))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid_n - 1)]
    res = minimize_scalar(
        lambda x: _slope_stencil(blevel, x, rho, h),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return float(res.fun), float(res.x)


def _default_a_domain(rho):
    return math.log(rho) + 1e-6, math.log(rho) + 10.0


def _default_d_map(a, rho, beta):
    return math.sqrt(max(float(softplus_diff(a, math.log(rho))), 0.0) / beta)


# relative band around rho_c inside which the fold scan leaves a bisection
# step to the finite differences, whose crossing lies 9.1e-9 from rho_c
# at the default fd_step
_FOLD_BAND = 1e-7


def _no_side(rho):
    return None


def _fold_side(rho_bracket):
    """Side of rho_c from the fold scan, which finds a window exactly
    below it: bisects in rho on that to a bracket of relative width
    _FOLD_BAND, and returns a function giving True where rho lies below
    the bracket by the band, False where it lies above it by the band,
    and None in between. Where the scan sees no crossing in rho_bracket,
    every answer is None."""
    x_lo, x_hi = rho_bracket
    if _folds(x_lo)[3] is None or _folds(x_hi)[3] is not None:
        return _no_side
    while x_hi - x_lo > _FOLD_BAND * x_lo:
        mid = 0.5 * (x_lo + x_hi)
        if _folds(mid)[3] is None:
            x_hi = mid
        else:
            x_lo = mid

    def side(rho):
        if rho * (1.0 + _FOLD_BAND) <= x_lo:
            return True
        if rho * (1.0 - _FOLD_BAND) >= x_hi:
            return False
        return None

    return side


def _bisect_rho(min_slope, rho_bracket, side):
    """Bisection in rho on the sign of the minimum beta-level slope.

    side(rho) may decide a step without the slope scan (True below the
    crossing, False above, None to leave it to the scan). Returns the
    final bracket, the slope-minimum location at its last midpoint, and
    whether both ends of that bracket were decided by the scan with
    s_lo < 0 < s_hi, which places the scan's crossing inside every
    bracket and so makes each step the one the scan alone would take.
    """
    rho_lo, rho_hi = rho_bracket
    s_lo = s_hi = None
    if not (side(rho_lo) is True and side(rho_hi) is False):
        s_lo, _ = min_slope(rho_lo)
        s_hi, _ = min_slope(rho_hi)
        if not (s_lo < 0 < s_hi):
            raise DomainError(
                "rho bracket does not straddle the critical amplitude: "
                "slope minima %r and %r" % (s_lo, s_hi)
            )
    a_at = None
    while rho_hi - rho_lo > 1e-8 * rho_lo:
        mid = 0.5 * (rho_lo + rho_hi)
        below, s_mid = side(mid), None
        if below is None:
            s_mid, a_at = min_slope(mid)
            below = s_mid < 0
        if below:
            rho_lo, s_lo = mid, s_mid
        else:
            rho_hi, s_hi = mid, s_mid
    decided = s_lo is not None and s_hi is not None and s_lo < 0 < s_hi
    return rho_lo, rho_hi, a_at, decided


def locate_critical_point(
    beta_level=None,
    d_map=None,
    rho_bracket=(0.05, 0.3),
    a_domain=None,
    fd_step=0.02,
):
    """Endpoint of the coexistence window.

    Bisects in rho on "does the beta-level function have a
    negative-slope interval" (slopes from Richardson-refined central
    differences), then polishes (a, rho) with a 2-D Newton iteration on
    the slope and curvature both vanishing. The default model is the
    exact one; passing the flat-profile level function (with
    d_map=lambda a, rho, beta: a and a_domain over (0,1)) runs the same
    finder on the approximation.

    For the exact model the fold scan (variational._folds), which finds
    a window exactly below rho_c, decides each bisection step and
    bracket end that lies more than _FOLD_BAND (relative) from its own
    crossing; the slope scan decides the rest. Where both ends of the
    final bracket come from the slope scan with opposite signs, its
    crossing lies in every bracket, so each step is the one the slope
    scan alone takes and the result is the same bit for bit; else (a
    large fd_step can move that crossing out of the band) the plain
    bisection runs again. On the default bracket this takes 6 slope
    scans where the plain bisection takes 30.
    """
    if not all(r > 0 for r in rho_bracket):
        raise DomainError("rho bracket must be positive")
    blevel = beta_level if beta_level is not None else _beta_level
    dmap = d_map if d_map is not None else _default_d_map
    adom = a_domain if a_domain is not None else _default_a_domain
    h = fd_step

    def min_slope(rho):
        lo, hi = adom(rho)
        return _min_slope(blevel, rho, lo, hi, h)

    # the fold scan decides the far steps for the exact model; where the
    # slope scan's crossing turns out to lie outside the band, the plain
    # bisection runs again
    decided = False
    if beta_level is None:
        rho_lo, rho_hi, a_at, decided = _bisect_rho(
            min_slope, rho_bracket, _fold_side(rho_bracket))
    if not decided:
        rho_lo, rho_hi, a_at, _ = _bisect_rho(min_slope, rho_bracket, _no_side)
    rho_c = 0.5 * (rho_lo + rho_hi)
    a_c = a_at if a_at is not None else min_slope(rho_c)[1]

    def stencil(a, rho):
        xs = a + h * np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        v = blevel(xs, rho)
        slope = (8.0 * (v[3] - v[1]) - (v[4] - v[0])) / (12.0 * h)
        curv = (-v[4] + 16.0 * v[3] - 30.0 * v[2] + 16.0 * v[1] - v[0]) / (
            12.0 * h * h
        )
        third = (v[4] - 2.0 * v[3] + 2.0 * v[1] - v[0]) / (2.0 * h ** 3)
        return slope, curv, third

    steps = []
    for _ in range(25):
        g1, g2, g3 = stencil(a_c, rho_c)
        dr = 1e-5 * rho_c
        g1p, g2p, _ = stencil(a_c, rho_c + dr)
        g1m, g2m, _ = stencil(a_c, rho_c - dr)
        j11, j12 = g2, (g1p - g1m) / (2 * dr)
        j21, j22 = g3, (g2p - g2m) / (2 * dr)
        det = j11 * j22 - j12 * j21
        if det == 0:
            raise NumericsError("singular Jacobian while polishing the endpoint")
        da = (-g1 * j22 + g2 * j12) / det
        drho = (-j11 * g2 + j21 * g1) / det
        a_c += da
        rho_c += drho
        steps.append(abs(da) + abs(drho))
        if steps[-1] < 1e-12:
            break
    # the finite-difference stencils leave the Newton steps at a noise
    # floor of about 1e-11, which the 1e-12 stop meets only by chance;
    # five last steps all at that floor also mean the iterate has converged
    if steps[-1] >= 1e-12 and max(steps[-5:]) >= 1e-9:
        raise NumericsError("endpoint polish did not converge")

    # collect every slope minimum that touches zero, not just the one found
    lo, hi = adom(rho_c)
    grid = np.linspace(lo + 2 * h, hi - 2 * h, 2048)
    shifted = grid[None, :] + h * np.array([-2.0, -1.0, 1.0, 2.0])[:, None]
    v = blevel(shifted.ravel(), rho_c).reshape(4, grid.size)
    slopes = (8.0 * (v[2] - v[1]) - (v[3] - v[0])) / (12.0 * h)
    candidates = []
    interior = np.flatnonzero(
        (slopes[1:-1] <= slopes[:-2]) & (slopes[1:-1] <= slopes[2:])
    )
    for i in interior + 1:
        if abs(slopes[i]) < 1e-4:
            res = minimize_scalar(
                lambda x: _slope_stencil(blevel, x, rho_c, h),
                bounds=(grid[i - 1], grid[i + 1]),
                method="bounded",
                options={"xatol": 1e-10},
            )
            if abs(res.fun) < 1e-6 and all(
                abs(res.x - c) > 1e-6 for c in candidates
            ):
                candidates.append(float(res.x))
    if all(abs(a_c - c) > 1e-6 for c in candidates):
        candidates.append(float(a_c))
    candidates.sort()

    if beta_level is None:
        beta_c = float(_level(softplus_diff(a_c, math.log(rho_c)), rho_c)[0][0])
    else:
        beta_c = float(np.atleast_1d(blevel(np.array([a_c]), rho_c))[0])
    d_c = dmap(a_c, rho_c, beta_c)
    return CriticalPoint(
        rho_c=float(rho_c),
        beta_c=float(beta_c),
        a_c=float(a_c),
        d_c=float(d_c),
        candidates=tuple(candidates),
    )


def _trace_one(rho):
    with _stage("fold window", rho):
        b, _, phi, cells = _folds(rho)
        if cells is None:
            raise DomainError("no coexistence window at rho=%r; the amplitude is "
                              "at or above the critical value" % rho)
        (b_hump, b_dip), (hi, lo) = _polish_folds(rho, b[cells], phi[cells])
    beta = 0.5 * (lo + hi)
    d = np.array([0.0, 1.0])  # each root starts at the outer end of its piece
    for _ in range(60):
        with _stage("coexistence Newton", rho, beta):
            # the low piece [beta*(rho/(1+rho))^2, b_hump], the high one
            # [b_dip, beta], as d = sqrt(b/beta)
            d, K1, phi, _, _ = _level_roots(
                rho, beta, np.array([rho / (1.0 + rho), math.sqrt(b_dip / beta)]),
                np.array([math.sqrt(b_hump / beta), 1.0]), d)
        b = beta * d * d
        d1, d2 = float(d[0]), float(d[1])
        # branch values beta*d^2 + log(1+rho) - 2*beta*(1+rho)*d^3*K1
        lam1, lam2 = b + math.log1p(rho) - 2.0 * (1.0 + rho) * b * d * K1
        gap = float(lam2 - lam1)
        lo, hi = (beta, hi) if gap < 0 else (lo, beta)
        # each branch has dlambda/dbeta = (beta*d^2 + log(1+rho) - lambda)/(2*beta)
        step = -2.0 * beta * gap / (beta * (d2 * d2 - d1 * d1) - gap)
        # only a Newton step may stop the loop: bisecting toward a window
        # edge that the gap never crosses must not pass for convergence
        if abs(step) <= 1e-13 * beta:
            break
        new = beta + step if lo < beta + step < hi else 0.5 * (lo + hi)
        # warm start on the tangent of each root: d(log b)/d(log beta) = 1/phi,
        # so d(log d)/d(log beta) = (1/phi - 1)/2
        d, beta = d * (new / beta) ** (0.5 / phi - 0.5), new
    else:
        with _stage("coexistence Newton", rho, beta):
            raise NumericsError("the branch-value gap did not converge to zero")
    return PhaseCurvePoint(rho=rho, beta_cr=beta + step, d1=d1, d2=d2,
                           jump_drho=(d2 - d1) / rho,
                           jump_dbeta=0.5 * (d2 * d2 - d1 * d1))


def trace_phase_curve(rho_values):
    """First-order curve points for each amplitude (all must be < rho_c).

    Per amplitude, in b = beta*d^2: the three-branch window comes from the
    zeros of the log slope of the beta level, which do not depend on beta;
    then safeguarded Newton in beta solves for the crossing of the outer
    branch values, each outer root found by Newton in b on its own
    monotone piece, warm-started from the previous iterate. An amplitude
    without a window raises DomainError, the at-or-above-critical signal;
    a NumericsError names the stage ("fold window" or "coexistence
    Newton") and the (rho, beta) at which it arose.
    """
    return [_trace_one(float(rho)) for rho in rho_values]


def clausius_clapeyron_check(points):
    """Numeric curve slope vs the jump identity -2/(rho*(d1+d2)).

    Centered differences on the traced (rho, beta_cr) sequence; one
    (slope_numeric, slope_formula) pair per interior point.
    """
    if len(points) < 3:
        raise DomainError("need at least 3 traced points for slope checks")
    out = []
    for prev, mid, nxt in zip(points, points[1:], points[2:]):
        numeric = (nxt.beta_cr - prev.beta_cr) / (nxt.rho - prev.rho)
        formula = -2.0 / (mid.rho * (mid.d1 + mid.d2))
        out.append((numeric, formula))
    return out


def near_critical_rho_grid(critical, n=12, window=(1e-4, 1e-2)):
    """Amplitudes whose curve points land inside the fit window.

    Uses the endpoint slope -1/(rho_c*d_c) to convert the targeted
    |beta - beta_c| values into rho offsets, with margins so the traced
    points stay strictly inside the window.
    """
    slope = 1.0 / (critical.rho_c * critical.d_c)
    ts = np.geomspace(window[0] * 1.35, window[1] * 0.75, n)
    rhos = critical.rho_c - ts * critical.beta_c / slope
    return sorted(float(r) for r in rhos)


def _fit_window_points(points, critical, window):
    lo, hi = window
    if not (0 < lo < hi):
        raise DomainError("fit window must satisfy 0 < lo < hi")
    rows = []
    for p in points:
        t = abs(p.beta_cr - critical.beta_c) / critical.beta_c
        if lo <= t <= hi:
            rows.append(p)
    if len(rows) < 3:
        raise DomainError(
            "only %d traced points fall in the fit window" % len(rows)
        )
    return rows


def _curvature_pieces(critical):
    """Finite-difference curvature data of the beta level at the endpoint.

    Third a-derivative (Richardson-refined), the rho-derivative, and
    the mixed derivative combine into the closed-form prefactor for the
    gap opening: gap_a = sqrt(-24*B_ar/(B3*B_r)) * sqrt(beta - beta_c).
    """
    a0, r0 = critical.a_c, critical.rho_c

    def B(a_arr, rho):
        return _beta_level(np.asarray(a_arr, dtype=float), rho)

    def third(h):
        xs = a0 + h * np.array([-2.0, -1.0, 1.0, 2.0])
        v = B(xs, r0)
        return (v[3] - 2.0 * v[2] + 2.0 * v[1] - v[0]) / (2.0 * h ** 3)

    h = 0.05
    B3 = (4.0 * third(h / 2) - third(h)) / 3.0
    k = 1e-4
    B_r = float((B([a0], r0 + k) - B([a0], r0 - k))[0] / (2.0 * k))
    ha = 0.02
    B_ar = float(
        (
            B([a0 + ha], r0 + k)
            - B([a0 - ha], r0 + k)
            - B([a0 + ha], r0 - k)
            + B([a0 - ha], r0 - k)
        )[0]
        / (4.0 * ha * k)
    )
    ratio = -24.0 * B_ar / (B3 * B_r)
    gap_prefactor = math.sqrt(max(ratio, 0.0))
    third_derivative = B3 / math.sqrt(critical.beta_c)
    curvature_constant = gap_prefactor / (
        2.0 * math.sqrt(critical.rho_c * critical.d_c)
    )
    return gap_prefactor, curvature_constant, third_derivative


def critical_exponent_fit(points, critical, window=(1e-4, 1e-2), boundary_gap=None):
    """Power-law fit of the coexistence gap in the boundary logit.

    log(a2 - a1) is regressed on log|beta - beta_c| over the points
    whose relative beta offset lies in the window; alpha is the slope
    (1/2 at a square-root opening) and gamma the prefactor. For the
    default model the closed-form prefactor constants are evaluated
    alongside from the endpoint curvature. boundary_gap overrides how
    the gap is read off a point (the flat-profile model passes
    lambda p: p.d2 - p.d1 since occupation and logit coincide there).
    """
    rows = _fit_window_points(points, critical, window)
    gaps = []
    offsets = []
    for p in rows:
        if boundary_gap is not None:
            gap = boundary_gap(p)
        else:
            a1 = float(
                inverse_softplus(p.beta_cr * p.d1 ** 2 + math.log1p(p.rho))
            )
            a2 = float(
                inverse_softplus(p.beta_cr * p.d2 ** 2 + math.log1p(p.rho))
            )
            gap = a2 - a1
        if gap <= 0:
            raise NumericsError("nonpositive gap at rho=%r" % p.rho)
        gaps.append(math.log(gap))
        offsets.append(math.log(abs(p.beta_cr - critical.beta_c)))
    x = np.asarray(offsets)
    y = np.asarray(gaps)
    alpha, logc = np.polyfit(x, y, 1)
    resid = y - (alpha * x + logc)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 - float((resid ** 2).sum()) / ss_tot if ss_tot > 0 else 1.0
    gap_prefactor = curvature_constant = third_derivative = None
    if boundary_gap is None:
        gap_prefactor, curvature_constant, third_derivative = _curvature_pieces(
            critical
        )
    return ExponentFit(
        alpha=float(alpha),
        gamma=float(math.exp(logc)),
        r_squared=r_squared,
        n_points=len(rows),
        window=tuple(window),
        gap_prefactor=gap_prefactor,
        curvature_constant=curvature_constant,
        third_derivative=third_derivative,
    )


def jump_coefficients_near_critical(points, critical, window=(1e-4, 1e-2)):
    """Fitted square-root coefficients of the derivative jumps.

    Regresses the beta-derivative jump (d2^2-d1^2)/2 and the
    rho-derivative jump (d2-d1)/rho through the origin against
    sqrt(beta_cr - beta_c); returns (c1, c2). Compare against
    critical_jump_constants for the closed forms.
    """
    rows = _fit_window_points(points, critical, window)
    x = np.array([math.sqrt(abs(p.beta_cr - critical.beta_c)) for p in rows])
    y1 = np.array([p.jump_dbeta for p in rows])
    y2 = np.array([p.jump_drho for p in rows])
    xx = float((x * x).sum())
    return float((x * y1).sum() / xx), float((x * y2).sum() / xx)


def critical_jump_constants(critical):
    """Closed-form square-root coefficients implied by the endpoint
    curvature: both jumps share D_c*f_c/beta_c with f_c = expit(a_c),
    split by sqrt(rho_c*d_c) between the beta- and rho-jumps."""
    gap_prefactor, curvature_constant, third_derivative = _curvature_pieces(
        critical
    )
    f_c = float(expit(critical.a_c))
    scale = math.sqrt(critical.rho_c * critical.d_c)
    common = curvature_constant * f_c / critical.beta_c
    return {
        "c1": common * scale,
        "c2": common / scale,
        "gap_prefactor": gap_prefactor,
        "curvature_constant": curvature_constant,
        "third_derivative": third_derivative,
    }


# Empirical ceilings for the asymptotics flags, with generous headroom:
# the scaled expansion gap tends to Li2(1/(1+rho))/(2(1+rho)) <= pi^2/12,
# and the scaled cubic defect to a comparable constant.
_SCALED_GAP_CEILING = 1.0
_CUBIC_PRODUCT_CEILING = 2.0


def appendix_b_checks(a_values, rho, cubic_d=0.6, cubic_betas=None):
    """Large-argument checks on the correction integral and branch value.

    For each argument the integral is pinned between its closed polylog
    lower bound and elementary upper bound, and the defect against the
    two-term expansion (1/(1+rho)) * (1/3 - log(rho/(1+rho))/(2*arg))
    is multiplied by arg^2 and must stay below a fixed ceiling. A
    second sweep checks that the branch value minus its cubic
    approximation, scaled by beta*d^2, stays bounded as beta grows at
    fixed d.
    """
    if not rho > 0:
        raise DomainError("rho must be positive")
    a_values = [float(a) for a in a_values]
    if any(a < 1 for a in a_values):
        raise DomainError("asymptotics checks need arguments >= 1")
    z = 1.0 / (1.0 + rho)
    li2 = polylog(2, z)
    li3 = polylog(3, z)
    log_ratio = math.log(rho / (1.0 + rho))
    rows = []
    for a in sorted(a_values):
        J = correction_integral(a, rho)
        lower = (
            a ** 3
            - 1.5 * a * a * log_ratio
            - 1.5 * a * li2
            + 0.75 * li3
            - 0.75 * polylog(3, math.exp(-2.0 * a) * z)
        ) / (3.0 * a ** 3 * (1.0 + rho))
        upper = z * (
            1.0 / 3.0
            - math.log(rho / (1.0 + rho - math.exp(-a))) / (2.0 * a)
        )
        expansion = z * (1.0 / 3.0 - log_ratio / (2.0 * a))
        rows.append(
            {
                "a": a,
                "rho": rho,
                "value": J,
                "lower": lower,
                "upper": upper,
                "expansion": expansion,
                "scaled_gap": a * a * abs(J - expansion),
            }
        )
    slack = 1e-12
    sandwich_ok = all(
        r["lower"] - slack <= r["value"] <= r["upper"] + slack for r in rows
    )
    scaled_gap_max = max(r["scaled_gap"] for r in rows)

    if cubic_betas is None:
        cubic_betas = [20.0, 40.0, 80.0, 160.0, 320.0, 640.0]
    d = float(cubic_d)
    if not 0 < d < 1:
        raise DomainError("cubic_d must lie in (0, 1)")
    cubic_rows = []
    for beta in cubic_betas:
        params = ModelParams(rho, float(beta))
        lam = lambda_of_d(d, params)
        cubic = (
            beta * d * d
            - (2.0 / 3.0) * beta * d ** 3
            + d * log_ratio
            + math.log1p(rho)
        )
        cubic_rows.append(
            {
                "beta": float(beta),
                "d": d,
                "value": lam,
                "cubic": cubic,
                "scaled_defect": abs(lam - cubic) * beta * d * d,
            }
        )
    cubic_product_max = max(r["scaled_defect"] for r in cubic_rows)
    return AsymptoticsReport(
        rows=rows,
        sandwich_ok=sandwich_ok,
        scaled_gap_max=scaled_gap_max,
        scaled_gap_bounded=scaled_gap_max <= _SCALED_GAP_CEILING,
        cubic_rows=cubic_rows,
        cubic_product_max=cubic_product_max,
        cubic_bounded=cubic_product_max <= _CUBIC_PRODUCT_CEILING,
    )

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

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericsError, _check_rho, _stage
from .meanfield import mf_beta_level, mf_gap
from .numerics import (
    _NODES7,
    _WEIGHTS7,
    _bisect,
    _k1_difference,
    expit,
    inverse_softplus,
    polylog,
)
from .variational import (
    ModelParams,
    _folds,
    _hermite,
    _level_at,
    _level_roots,
    _moved_roots,
    _polish_folds,
    _residual_target,
    big_F_scan,
    correction_integral,
    d_of_h1,
    lambda_of_d,
)

__all__ = [
    "PhaseCurvePoint",
    "CriticalPoint",
    "ExponentFit",
    "AsymptoticsReport",
    "trace_phase_curve",
    "locate_critical_point",
    "mf_critical_point",
    "mf_trace",
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
    numerically, not assumed, so the full list is kept. Its entries come
    from a Brent search on a separate slope scan at rho_c, not from the
    Newton polish that gives a_c, so an entry can differ from a_c by
    about 1e-7; a_c joins the list only where it lies more than 1e-6
    from every entry.
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
    """beta at which the boundary logit a is stationary: (big_F/2)^2, the
    beta level B(b) = b*(1+rho)^2*K0(b)^2 of the fold scan at b = L(a),
    on the same kernel rule (through big_F_scan, which asks it for K0
    alone)."""
    F = big_F_scan(np.atleast_1d(a_values), rho)
    return 0.25 * F * F


# the four off-centre points of the finite-difference stencils, in steps h
_STENCIL = np.array([-2.0, -1.0, 1.0, 2.0])


def _slope(v, h):
    """Fourth-order (Richardson-refined central) slope from the values v at
    a + h*_STENCIL, stacked along the first axis."""
    return (8.0 * (v[2] - v[1]) - (v[3] - v[0])) / (12.0 * h)


def _third(v, h):
    """Central third derivative from the values v at a + h*_STENCIL."""
    return (v[3] - 2.0 * v[2] + 2.0 * v[1] - v[0]) / (2.0 * h ** 3)


def _slope_scan(blevel, rho, a_lo, a_hi, h, n):
    """Beta-level slopes on n points spanning [a_lo + 2h, a_hi - 2h]."""
    grid = np.linspace(a_lo + 2 * h, a_hi - 2 * h, n)
    v = blevel((grid[None, :] + h * _STENCIL[:, None]).ravel(), rho).reshape(4, n)
    return grid, _slope(v, h)


def _slope_brent(blevel, rho, a_lo, a_hi, h, xatol):
    """Bounded-Brent minimum of the beta-level slope over [a_lo, a_hi]."""
    # the package's only use of scipy.optimize, imported here so that
    # import lyaprec does not load it
    from scipy.optimize import minimize_scalar

    return minimize_scalar(
        lambda x: _slope(blevel(x + h * _STENCIL, rho), h),
        bounds=(a_lo, a_hi),
        method="bounded",
        options={"xatol": xatol},
    )


def _min_slope(blevel, rho, a_lo, a_hi, h, grid_n=1024):
    """Minimum of the beta-level slope over [a_lo, a_hi] and its location."""
    grid, slopes = _slope_scan(blevel, rho, a_lo, a_hi, h, grid_n)
    i = int(np.argmin(slopes))
    res = _slope_brent(blevel, rho, grid[max(i - 1, 0)],
                       grid[min(i + 1, grid_n - 1)], h, 1e-12)
    return float(res.fun), float(res.x)


# relative width of the fold-scan bracket, which the finite-difference
# crossing (9.1e-9 from rho_c at the default fd_step) then narrows
_FOLD_BAND = 1e-7


def _fold_bracket(rho_bracket, below):
    """A bracket on the path of the slope-scan bisection, from the fold
    scan (variational._folds), which finds a window exactly below rho_c.

    Bisects on the fold scan to relative width _FOLD_BAND. Both
    bisections halve the same brackets, so where below (the slope scan)
    confirms both ends of the final one, the slope-scan bisection passes
    through it. None where the fold scan sees no crossing in rho_bracket
    or below disputes an end.
    """
    def window(rho):
        with _stage("fold search", rho):
            return _folds(rho)[3] is not None

    lo, hi = rho_bracket
    if not window(lo) or window(hi):
        return None
    lo, hi = _bisect(window, lo, hi, _FOLD_BAND)
    return (lo, hi) if below(lo) and not below(hi) else None


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
    exact one; mf_critical_point passes the flat-profile hooks to run the
    same finder on the approximation.

    For the exact model the slope-scan bisection starts from a bracket
    that the fold scan (variational._folds) narrows to _FOLD_BAND and the
    slope scan checks (see _fold_bracket); where there is none, it starts
    from rho_bracket once that straddles the crossing. Both starts lie on
    the path of the plain slope-scan bisection, so the result is the same
    bit for bit. On the default bracket this takes 5 slope scans where
    the plain bisection takes 30.
    """
    if not all(r > 0 for r in rho_bracket):
        raise DomainError("rho bracket must be positive")
    for rho in rho_bracket:
        _check_rho(rho)
    blevel = beta_level if beta_level is not None else _beta_level
    h = fd_step

    def domain(rho):
        lr = math.log(rho)
        return a_domain(rho) if a_domain is not None else (lr + 1e-6, lr + 10.0)

    def min_slope(rho):
        return _min_slope(blevel, rho, *domain(rho), h)

    def below(rho):
        # the slope minimum is negative: rho lies below the crossing
        nonlocal a_at
        s, a_at = min_slope(rho)
        return s < 0

    bracket = _fold_bracket(rho_bracket, below) if beta_level is None else None
    if bracket is None:
        bracket = rho_bracket
        s_lo, s_hi = (min_slope(rho)[0] for rho in bracket)
        if not (s_lo < 0 < s_hi):
            raise DomainError(
                "rho bracket does not straddle the critical amplitude: "
                "slope minima %r and %r" % (s_lo, s_hi)
            )
    a_at = None  # the slope-minimum location at the last midpoint, not at an end
    rho_lo, rho_hi = _bisect(below, *bracket, 1e-8)
    rho_c = 0.5 * (rho_lo + rho_hi)
    a_c = a_at if a_at is not None else min_slope(rho_c)[1]

    def stencil(a, rho):
        v = blevel(a + h * np.array([-2.0, -1.0, 0.0, 1.0, 2.0]), rho)
        off = v[[0, 1, 3, 4]]
        curv = (-v[4] + 16.0 * v[3] - 30.0 * v[2] + 16.0 * v[1] - v[0]) / (
            12.0 * h * h
        )
        return _slope(off, h), curv, _third(off, h)

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
    grid, slopes = _slope_scan(blevel, rho_c, *domain(rho_c), h, 2048)
    candidates = []
    interior = np.flatnonzero(
        (slopes[1:-1] <= slopes[:-2]) & (slopes[1:-1] <= slopes[2:])
    )
    for i in interior + 1:
        if abs(slopes[i]) < 1e-4:
            res = _slope_brent(blevel, rho_c, grid[i - 1], grid[i + 1], h, 1e-10)
            if abs(res.fun) < 1e-6 and all(
                abs(res.x - c) > 1e-6 for c in candidates
            ):
                candidates.append(float(res.x))
    if all(abs(a_c - c) > 1e-6 for c in candidates):
        candidates.append(float(a_c))
    candidates.sort()

    beta_c = float(np.atleast_1d(blevel(np.array([a_c]), rho_c))[0])
    d_c = (d_map(a_c, rho_c, beta_c) if d_map is not None
           else d_of_h1(a_c, ModelParams(rho_c, beta_c)))
    return CriticalPoint(
        rho_c=float(rho_c),
        beta_c=float(beta_c),
        a_c=float(a_c),
        d_c=float(d_c),
        candidates=tuple(candidates),
    )


def mf_critical_point(rho_bracket=(0.05, 0.3)):
    """locate_critical_point on the flat-profile beta level mf_beta_level,
    whose endpoint is (e^-2, 6, 1/2) exactly. Occupation and logit
    coincide there, so d_map is the identity; the level diverges at
    a -> 0+ and a -> 1-, so the search and its stencil stay inside
    (0.02, 0.98)."""
    return locate_critical_point(
        beta_level=mf_beta_level,
        d_map=lambda a, rho, beta: a,
        rho_bracket=rho_bracket,
        a_domain=lambda rho: (0.02, 0.98),
        fd_step=0.005,
    )


def mf_trace(betas):
    """Flat-profile first-order curve points at each beta > 6: amplitude
    e^(-beta/3), occupations (1 -+ delta)/2 with delta = mf_gap(beta),
    and the jumps delta/rho and delta/3 of mf_derivative_jumps."""
    points = []
    for beta in betas:
        beta = float(beta)
        delta = mf_gap(beta)
        rho = math.exp(-beta / 3.0)
        points.append(PhaseCurvePoint(
            rho=rho, beta_cr=beta, d1=0.5 * (1.0 - delta), d2=0.5 * (1.0 + delta),
            jump_drho=delta / rho, jump_dbeta=delta / 3.0))
    return points


def _equal_area_start(rho, b, B, phi, b_f, B_f):
    """A first beta_cr by Maxwell's equal-area rule on the fold scan, with
    no kernel call, and the two outer roots there as occupations
    d = sqrt(b/beta); the window's midpoint and its roots where the rule
    finds no crossing in the window.

    At one beta, the outer branch values differ by
    lam2 - lam1 = beta^(-1/2) * (integral over s in [b1, b2] of
    sqrt(beta) - sqrt(B(s))), with b1 and b2 the low and high roots of
    B(b) = beta, as d/db (2*b^(3/2)*K1(b)) = sqrt(b)*K0(b). Here log B is
    the cubic Hermite in log b through the scan nodes (b, B) and the
    polished folds (b_f, B_f), with slope phi (0 at a fold). Beyond the
    scan, sqrt(B/b) = (1+rho)*K0 follows its limits, (1+rho)/rho as b -> 0
    and 1 as b -> inf, as S + p*x + q*x^2 in x = b/b_0 below the first node
    and x = b_n/b above the last, with S the limit and p and q matching B
    and phi at the end node: its area is closed-form and its root takes a
    few Newton steps in log b. b1 and b2 invert B on the outer monotone
    pieces, below the hump and above the dip. The area G(beta) rises with
    beta at the rate (b2 - b1)/(2*sqrt(beta)); from the chord of G over the
    window (B_f[1], B_f[0]), safeguarded Newton finds its zero. Returns the
    beta of the last evaluation of G and the roots there, which follow the
    scan's curvature near a fold, where a tangent at one node overshoots."""
    # the folds join the nodes (a fold on a node leaves a cell of width 0,
    # which no root or area uses)
    k = np.searchsorted(b, b_f).tolist()
    t, y, m = np.log(b).tolist(), np.log(B).tolist(), phi.tolist()
    for j in (1, 0):
        t.insert(k[j], math.log(b_f[j]))
        y.insert(k[j], math.log(B_f[j]))
        m.insert(k[j], 0.0)
    hump, dip, last = k[0], k[1] + 1, len(t) - 1
    # per cell, log B = y0 + u*(s0 + u*(c2 + u*c3)) at log b = t0 + h*u
    t, y, m = np.array(t), np.array(y), np.array(m)
    h, s0, c2, c3 = _hermite(t, y, m)
    # area[i]: the integral of sqrt(B) db = e^(t + log B/2) dt up to node i,
    # by 7-point Gauss-Legendre on each cell
    u = 0.5 + 0.5 * _NODES7
    cubic = y[:-1, None] + u * (s0[:, None] + u * (c2[:, None] + u * c3[:, None]))
    cells = 0.5 * h * (np.exp(t[:-1, None] + h[:, None] * u + 0.5 * cubic) @ _WEIGHTS7)
    area = np.concatenate(([0.0], np.cumsum(cells))).tolist()
    t, y, m, h, s0, c2, c3 = (a.tolist() for a in (t, y, m, h, s0, c2, c3))
    gauss = list(zip(u.tolist(), _WEIGHTS7.tolist()))

    def asymptote(node, sign, limit):
        # sqrt(B/b) = limit + p*x + q*x^2 past the node, x = (b/b_node)^sign,
        # as coefficients over its value there: its value and log slope
        # (phi - 1)/2 match the node's
        S = math.exp(0.5 * (y[node] - t[node]))
        q = 0.5 * sign * (m[node] - 1.0) - (1.0 - limit / S)
        return node, sign, (limit / S, 1.0 - limit / S - q, q)

    ends = asymptote(0, 1.0, (1.0 + rho) / rho), asymptote(last, -1.0, 1.0)

    def beyond(Y, node, sign, c):
        # log b where B is e^Y past the scan end node, and the area up to
        # there: the integral of sqrt(B) = sqrt(B_node*b_node)*sum over j of
        # c_j*x^(j*sign) from b_node, in closed form. phi rises toward 1
        # away from the scan, so the node's tangent overshoots the root and
        # Newton in log b returns to it from that side, with x <= 1
        t0 = t[node]
        x = t0 + (Y - y[node]) / m[node]
        for _ in range(30):
            z = math.exp(sign * (x - t0))
            S = c[0] + z * (c[1] + z * c[2])
            step = (x + 2.0 * math.log(S) + y[node] - t0 - Y) / (
                1.0 + 2.0 * sign * z * (c[1] + 2.0 * z * c[2]) / S)
            x -= step
            if abs(step) <= 1e-12:
                break
        powers = (1.5 + j * sign for j in range(3))
        return x, area[node] + math.exp(t0 + 0.5 * y[node]) * sum(
            c_j * math.expm1(e * (x - t0)) / e for c_j, e in zip(c, powers))

    def root(Y, first, end):
        # log b where the Hermite is Y on the rising nodes first..end, and
        # the area up to there; the integrand of G vanishes at its ends,
        # so an error in a root moves G only at second order
        if Y < y[first] and first == 0:
            return beyond(Y, *ends[0])
        if Y > y[end] and end == last:
            return beyond(Y, *ends[1])
        i = min(max(bisect.bisect_right(y, Y, first, end + 1) - 1, first), end - 1)
        t0, y0, p1, p2, p3 = t[i], y[i], s0[i], c2[i], c3[i]
        a, c, v = 0.0, 1.0, (Y - y0) / (y[i + 1] - y0) if y[i + 1] > y0 else 0.5
        while c - a > 1e-9:
            f = y0 + v * (p1 + v * (p2 + v * p3)) - Y
            a, c = (v, c) if f < 0 else (a, v)
            df = p1 + v * (2.0 * p2 + 3.0 * v * p3)
            step = f / df if df > 0 else math.inf
            if abs(step) <= 1e-9:
                v -= step
                break
            v = v - step if a < v - step < c else 0.5 * (a + c)
        hv = h[i] * v
        part = 0.0
        for node, weight in gauss:
            w = v * node
            part += weight * math.exp(t0 + hv * node + 0.5 * (y0 + w * (p1 + w * (p2 + w * p3))))
        return t0 + hv, area[i] + 0.5 * hv * part

    def gap(beta):
        # G(beta), its slope in beta, and the outer roots as d
        Y = math.log(beta)
        x1, a1 = root(Y, 0, hump)
        x2, a2 = root(Y, dip, last)
        b1, b2 = math.exp(x1), math.exp(x2)
        d = [math.exp(0.5 * (x - Y)) for x in (x1, x2)]
        return math.sqrt(beta) * (b2 - b1) - (a2 - a1), 0.5 * (b2 - b1) / math.sqrt(beta), d

    lo, hi = float(B_f[1]), float(B_f[0])
    g_lo, g_hi = gap(lo)[0], gap(hi)[0]
    if not g_lo < 0.0 < g_hi:
        beta = 0.5 * (lo + hi)
        return beta, gap(beta)[2]
    beta = lo + (hi - lo) * g_lo / (g_lo - g_hi)
    for _ in range(60):
        g, slope, d = gap(beta)
        lo, hi = (beta, hi) if g < 0 else (lo, beta)
        new = beta - g / slope
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        elif abs(new - beta) <= 1e-7 * beta:
            # the next step would be below 1e-13 relative
            break
        beta = new
    return beta, d


def _trace_one(rho):
    """The curve point at rho: the fold scan and its polished folds give
    the window and the equal-area start, then one safeguarded Newton
    iteration on (d1, d2, beta), one kernel call (_level_at) per step.

    Each step takes the closed-form Newton step in beta on the gap of the
    outer branch values, with K1(b2) - K1(b1) summed node by node
    (_k1_difference), inside the window bracket that the gap's signs
    narrow, and moves both roots to the new beta by their Newton steps
    (_moved_roots), the joint update for d: the Jacobian is
    block-triangular, as each branch value is stationary in its own d. A
    step that leaves the bracket bisects it; one that moves a root past
    its fold, off its piece, bisects beta too and solves the roots there
    (_level_roots), which is also the start where a start root lies past
    its fold."""
    _check_rho(rho)
    with _stage("fold window", rho):
        b, B, phi, cells = _folds(rho)
        if cells is None:
            raise DomainError("no coexistence window at rho=%r; the amplitude is "
                              "at or above the critical value" % rho)
        b_f, B_f = _polish_folds(rho, b[cells], B[cells], phi[cells])
    (b_hump, b_dip), (hi, lo) = b_f.tolist(), B_f.tolist()
    # the low root's piece is [beta*(rho/(1+rho))^2, b_hump], the high
    # one's [b_dip, beta], as d = sqrt(b/beta) from d_min to 1
    d_min, c = rho / (1.0 + rho), 2.0 * (1.0 + rho)

    def on_pieces(d, beta):
        # the roots clipped to the outer ends of their pieces, which bound
        # every root (there the low root can sit within rounding), or None
        # where a root lies past its fold, on another branch, or is NaN
        d1, d2 = d
        if d1 <= math.sqrt(b_hump / beta) and d2 >= math.sqrt(b_dip / beta):
            return [max(d1, d_min), min(d2, 1.0)]
        return None

    beta, d = _equal_area_start(rho, b, B, phi, b_f, B_f)
    clipped = on_pieces(d, beta)
    solve, d = clipped is None, clipped or d
    # the last Newton step and the residuals before it, 0 where there is none
    last, r_last = 0.0, (0.0, 0.0)
    for _ in range(60):
        with _stage("coexistence Newton", rho, beta):
            if solve:
                # each piece's ends where r <= 0 and > 0
                d, K1, phi, r, _, _ = _level_roots(
                    rho, [beta, beta], [d_min, math.sqrt(b_dip / beta)],
                    [math.sqrt(b_hump / beta), 1.0], d)
            else:
                r, phi, K1 = _level_at(rho, [beta, beta], d)
        d1, d2 = d
        # the branch-value gap over beta, lam/beta = d^2 + log(1+rho)/beta -
        # c*d^3*K1 on each branch: log(1+rho)/beta cancels, and d2 - d1
        # factors out of the rest but for c*d1^3*(K1(b2) - K1(b1)). That
        # difference is summed node by node: near rho_c, where b2 - b1 is
        # small, two rounded K1 would put their rounding over b2 - b1 into
        # it, and from there into beta_cr
        rise = (d2 - d1) * (d2 + d1)
        dK1 = _k1_difference(rho, beta * d1 * d1, beta * d2 * d2, beta * rise)
        g = ((d2 - d1) * (d2 + d1 - c * (d2 * d2 + d2 * d1 + d1 * d1) * K1[1])
             - c * d1 * d1 * d1 * dK1)
        # a root with residual r lowers its branch value by about
        # beta*d^2*r^2/phi (it is stationary in d): a gap within twice
        # that of each branch leaves its sign open, and the bracket as is
        if all(2.0 * x * x * q * q < abs(g * p) for x, q, p in zip(d, r, phi)):
            lo, hi = (beta, hi) if g < 0 else (lo, beta)
        # each branch has dlambda/dbeta = (beta*d^2 + log(1+rho) - lambda)/(2*beta)
        step = -2.0 * beta * g / (rise - g)
        # only a Newton step may stop the loop: bisecting toward a window
        # edge that the gap never crosses must not pass for convergence.
        # Newton's error squares at each step, so after two Newton steps
        # the next would be about |step|^3/last^2; it stops once that is
        # below a tenth of the 1e-13 target, and each root's residual, or
        # its next one by the same rule, |r|^3/r_last^2, meets the root's
        # target: the last move, to beta_cr, takes the roots there
        new = beta + step
        if abs(step) <= 1e-13 * beta or abs(step * step * step) <= 1e-14 * beta * last * last:
            tol = _residual_target(beta)
            if all(abs(q) <= tol or abs(q * q * q) <= 0.1 * tol * p * p
                   for q, p in zip(r, r_last)):
                break
        last, r_last = abs(step), r
        if not lo < new < hi:
            new, last, r_last = 0.5 * (lo + hi), 0.0, (0.0, 0.0)
        # a root moved past its fold bisects beta, and the roots are solved there
        moved = on_pieces(_moved_roots(d, beta, phi, r, new), new)
        solve = moved is None
        if solve:
            new, last, r_last = 0.5 * (lo + hi), 0.0, (0.0, 0.0)
        else:
            d = moved
        beta = new
    else:
        with _stage("coexistence Newton", rho, beta):
            raise NumericsError("the branch-value gap did not converge to zero")
    # the branch values are stationary in d, so beta_cr is good to rounding;
    # d1 and d2 take the same Newton step to beta_cr, which removes their
    # first-order error r/phi (large where phi is small, near rho_c)
    d1, d2 = _moved_roots(d, beta, phi, r, new)
    return PhaseCurvePoint(rho=rho, beta_cr=new, d1=d1, d2=d2,
                           jump_drho=(d2 - d1) / rho,
                           jump_dbeta=0.5 * (d2 * d2 - d1 * d1))


def trace_phase_curve(rho_values):
    """First-order curve points for each amplitude (all must be < rho_c).

    Per amplitude, in b = beta*d^2: the three-branch window comes from the
    zeros of the log slope phi of the beta level, which do not depend on
    beta; one fold scan finds them and one vectorized Newton polishes both.
    Maxwell's equal-area rule on the scan (_equal_area_start, no kernel
    call) gives a first beta and first outer roots, and one safeguarded
    Newton iteration on both roots and beta then solves for the crossing
    of the outer branch values, one kernel call per step: the step in beta
    is the gap's, and each outer root moves by its own Newton step in b to
    the next beta, on its own monotone piece; the reported d1 and d2 take
    that step once more, to beta_cr. The iteration stops once a Newton step
    in beta is below 1e-13 relative, or once quadratic convergence puts the
    next one there, and each root's residual, or its next one by the same
    rule, meets its target. An amplitude that is not a positive finite
    real raises DomainError, as does one without a window, the
    at-or-above-critical signal; a NumericsError names the stage ("fold
    window" or "coexistence Newton") and the (rho, beta) at which it arose.
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
    B = _beta_level

    def third(h):
        return _third(B(a0 + h * _STENCIL, r0), h)

    h = 0.05
    B3 = (4.0 * third(h / 2) - third(h)) / 3.0
    k = 1e-4
    B_r = float((B(a0, r0 + k) - B(a0, r0 - k))[0] / (2.0 * k))
    ha = 0.02
    B_ar = float(
        (
            B(a0 + ha, r0 + k)
            - B(a0 - ha, r0 + k)
            - B(a0 + ha, r0 - k)
            + B(a0 - ha, r0 - k)
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
    (1/2 at a square-root opening) and gamma the prefactor; the
    closed-form constants come from critical_jump_constants. boundary_gap
    overrides how the gap is read off a point (the flat-profile model
    passes lambda p: p.d2 - p.d1 since occupation and logit coincide
    there).
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
    return ExponentFit(
        alpha=float(alpha),
        gamma=float(math.exp(logc)),
        r_squared=r_squared,
        n_points=len(rows),
        window=tuple(window),
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
    _check_rho(rho)
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

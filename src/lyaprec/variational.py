"""Exact growth-rate solver for the random linear recursion.

The model: x_{i+1} = a_i x_i with multipliers a_i = 1 + rho * exp(Z_i),
where Z_i is a Brownian motion with variance-compensating drift sampled
at times i*tau, and the variance budget is held fixed through
beta = sigma^2 * tau * n^2 / 2. The large-n growth rate of E[x_n^q]
admits an exact variational characterization over occupation profiles
f: [0,1] -> [0,1]; its stationary points are indexed by the boundary
logit h(1), written a below. Stationarity reduces to the scalar
equation big_F(a; rho) = 2*sqrt(beta), each solution is one branch, and
the growth rate is the largest branch value.

The solver works in the branch's mean occupation d instead, with
L = log((1+e^a)/(1+rho)) = beta*d^2. With the kernel family
K_m(b; rho) = integral over u in [0, 1] of u^(2m) / (rho - expm1(b*(u^2-1))),
big_F = 2*sqrt(L)*(1+rho)*K0(L), so the boundary equation reads
g(d) = d*(1+rho)*K0(beta*d^2) - 1 = 0, every root lies in
[rho/(1+rho), 1], and the branch value is
beta*d^2 + log(1+rho) - 2*beta*(1+rho)*d^3*K1(beta*d^2). One fixed-rule
kernel call gives K0, K1 and dK0/db at a whole array of b. For each rho,
big_F has at most one hump and one dip, so g has at most three monotone
pieces in d, each holding at most one root. The route through the
boundary logit, lambda_of_h1, stays as an independent check.

Everything downstream (phase structure, jump fits, simulators) builds
on the operations here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import expit, xlogy

from .errors import DomainError, _stage
from .numerics import (
    ACCURATE_QUADRATURE,
    _NODES15,
    _WEIGHTS15,
    _boundary_kernels,
    _refine_bracket,
    integrate_adaptive,
    integrate_inverse_sqrt_singularity,
    inverse_softplus,
    softplus,
    softplus_diff,
)

__all__ = [
    "ModelParams",
    "Branch",
    "LyapunovResult",
    "OptimizerProfile",
    "RootSet",
    "entropy_I",
    "big_F",
    "big_F_scan",
    "solve_h1",
    "lambda_of_h1",
    "d_of_h1",
    "lambda_of_d",
    "correction_integral",
    "lyapunov",
    "lyapunov_q",
    "reconstruct_profile",
]


@dataclass(frozen=True)
class ModelParams:
    """Phase-plane coordinates: amplitude rho > 0, scaled variance beta >= 0,
    and the moment order q (a positive integer, 1 for the plain growth rate)."""

    rho: float
    beta: float
    q: int = 1

    def __post_init__(self):
        if not (self.rho > 0 and math.isfinite(self.rho)):
            raise DomainError("rho must be a positive finite real")
        if not (self.beta >= 0 and math.isfinite(self.beta)):
            raise DomainError("beta must be a nonnegative finite real")
        if int(self.q) != self.q or self.q < 1:
            raise DomainError("q must be a positive integer")


@dataclass(frozen=True)
class Branch:
    """One stationary point: boundary logit h1, its mean occupation d,
    and the value of the variational functional there.

    d and h1 are linked by d = sqrt(log((1+e^h1)/(1+rho)) / beta); the
    zero-variance case beta = 0 stores the limiting d instead.
    """

    h1: float
    d: float
    lambda_value: float


@dataclass(frozen=True)
class LyapunovResult:
    lambda_: float
    selected: Branch
    all_branches: list
    dlambda_drho: float
    dlambda_dbeta: float
    # two branch values agreeing to solver precision; the larger-d branch
    # is then reported, and this flag is the only trace of the coincidence
    tie: bool = False


@dataclass(frozen=True)
class OptimizerProfile:
    """Maximizing profile on a grid: logits h(y), occupations f(y) = expit(h),
    and the conserved quantity E = h'(y)^2/2 + 2*beta*log(1+e^h)."""

    grid: np.ndarray
    h_values: np.ndarray
    f_values: np.ndarray
    energy: float


@dataclass(frozen=True)
class RootSet:
    """Stationary boundary logits in increasing order, each with the
    bracket it was refined from (as logits), and the mean occupations d
    of the same roots, which the solve works in."""

    roots: list
    brackets: list
    d: list


def entropy_I(x):
    """Binary entropy-type cost x log x + (1-x) log(1-x), zero at both ends."""
    arr = np.asarray(x, dtype=float)
    if np.any((arr < 0) | (arr > 1)):
        raise DomainError("entropy_I argument must lie in [0, 1]")
    out = xlogy(arr, arr) + xlogy(1.0 - arr, 1.0 - arr)
    return float(out) if out.ndim == 0 else out


def big_F(a, rho):
    """Boundary equation integrand total: the roots of
    big_F(a; rho) = 2*sqrt(beta) in a are the stationary branches.

    Defined as the integral over y in (0, L] of
    (1+e^a) / ((1+e^a-e^y) * sqrt(y)) with L = log((1+e^a)/(1+rho)), and
    computed as 2*s*(1+rho)*K0(s^2; rho) with s = sqrt(L), through the
    fixed-rule kernel family. The integrand exceeds 1/sqrt(y)
    pointwise, so big_F(a) >= 2*sqrt(L) always.
    """
    if not rho > 0:
        raise DomainError("rho must be positive")
    lr = math.log(rho)
    if a < lr:
        raise DomainError("big_F needs a >= log(rho)")
    L = float(softplus_diff(a, lr))
    if L <= 0:
        return 0.0
    return 2.0 * math.sqrt(L) * (1.0 + rho) * float(_boundary_kernels(L, rho)[0][0])


# Fixed graded panels for the vectorized scan: after rescaling to u in
# [0,1] the integrand develops a boundary layer of width ~1/L at u=1,
# so the panels shrink geometrically toward that end.
_SCAN_BREAKS = np.concatenate(([0.0], 1.0 - 0.5 ** np.arange(1, 15), [1.0]))
_SCAN_MID = 0.5 * (_SCAN_BREAKS[1:] + _SCAN_BREAKS[:-1])
_SCAN_HALF = 0.5 * (_SCAN_BREAKS[1:] - _SCAN_BREAKS[:-1])
_SCAN_U = (_SCAN_MID[:, None] + _SCAN_HALF[:, None] * _NODES15).ravel()
_SCAN_W = (_SCAN_HALF[:, None] * _WEIGHTS15).ravel()
_SCAN_U2M1 = _SCAN_U ** 2 - 1.0
# rows per block: one (block, 225) buffer stays in cache, where a whole
# scan would build several (n, 225) temporaries
_SCAN_BLOCK = 128


def big_F_scan(a_values, rho):
    """Vectorized big_F over an array of a values.

    Fixed graded quadrature (about 1e-9 absolute accuracy), two to
    three orders of magnitude faster per point than the adaptive path.
    Meant for dense scans, bracketing and plots; use big_F when the
    last digits matter. Being a fixed rule it is also smooth in a,
    which the finite-difference machinery downstream relies on.
    The points are evaluated in blocks of 128 rows in one reused
    buffer; each value is the same, bit for bit, as from one pass
    over the whole array, as every row goes through the same
    elementwise operations and the same row sum.
    """
    if not rho > 0:
        raise DomainError("rho must be positive")
    a = np.atleast_1d(np.asarray(a_values, dtype=float))
    lr = math.log(rho)
    if np.any(a < lr - 1e-12):
        raise DomainError("big_F_scan needs a >= log(rho)")
    L = softplus(a) - math.log1p(rho)
    L = np.maximum(L, 0.0)
    # 1/den = 1/(1 - e^(L*(u^2-1))/(1+rho)), weighted and summed per row
    sums = np.empty(L.shape)
    buf = np.empty((min(L.size, _SCAN_BLOCK), _SCAN_U.size))
    for start in range(0, L.size, _SCAN_BLOCK):
        rows = L[start:start + _SCAN_BLOCK]
        den = buf[:rows.size]
        np.multiply(rows[:, None], _SCAN_U2M1, out=den)
        np.exp(den, out=den)
        np.divide(den, 1.0 + rho, out=den)
        np.subtract(1.0, den, out=den)
        np.divide(_SCAN_W, den, out=den)
        den.sum(axis=1, out=sums[start:start + _SCAN_BLOCK])
    return 2.0 * np.sqrt(L) * sums


_SCAN_POINTS = 64


def _gap_and_slope(d, rho, beta):
    """Boundary residual g(d) = d*(1+rho)*K0(beta*d^2) - 1 and its log
    slope 1 + 2b*K0'(b)/K0(b), which has the sign of g'(d), at an array of d."""
    b = beta * d * d
    K0, _, dK0 = _boundary_kernels(b, rho)
    return d * (1.0 + rho) * K0 - 1.0, 1.0 + 2.0 * b * dK0 / K0


def _residual_target(beta):
    """Target for |g| in a root solve: the 1e-10 residual on big_F, which
    is 1e-10/(2*sqrt(beta)) on g, and at most 1e-13. The tighter bound
    costs about one more secant step; it matters where g is flat, as
    the error left in d is |g|/g'(d)."""
    return min(0.5e-10 / math.sqrt(beta), 1e-13)


def _branch_values(d, rho, beta):
    """Branch values beta*d^2 + log(1+rho) - 2*beta*(1+rho)*d^3*K1(beta*d^2)
    at an array of stationary occupations d."""
    b = beta * d * d
    return b + math.log1p(rho) - 2.0 * beta * (1.0 + rho) * d ** 3 * _boundary_kernels(b, rho)[1]


def solve_h1(params):
    """All stationary boundary logits at (rho, beta), beta > 0.

    The boundary equation big_F(a) = 2*sqrt(beta) is solved in the mean
    occupation d, as g(d) = d*(1+rho)*K0(beta*d^2) - 1 = 0. Because
    1/(1+rho) <= K0 <= 1/rho, every root lies in [rho/(1+rho), 1], where
    g starts <= 0 and ends > 0. One kernel call on a 64-point scan gives
    g and the sign of g'; each sign change of g' is a fold. Between folds
    g is monotone, so each piece whose end values straddle zero holds
    one root, bracketed by the scan nodes inside it and refined to
    |g| <= min(1e-10/(2*sqrt(beta)), 1e-13); the first bound is the
    1e-10 residual on big_F. A fold is polished on g' only where the
    scan leaves open whether g crosses zero there; where a node next to
    it already lies past zero, that node ends the piece instead, as each
    side of it still holds one crossing at most. Just under rho_c a hump
    and a dip can both fall between two nodes, where g' keeps its sign;
    a local minimum of the log slope close enough to zero is then
    minimized by bounded Brent, and a negative minimum splits the cell
    pair into the two folds. Logits follow from
    a = inverse_softplus(beta*d^2 + log(1+rho)).
    """
    if not params.beta > 0:
        raise DomainError("solve_h1 needs beta > 0")
    rho, beta = params.rho, params.beta
    d = np.linspace(rho / (1.0 + rho), 1.0, _SCAN_POINTS)
    with _stage("scan", rho, beta):
        g, slope = _gap_and_slope(d, rho, beta)

    def gap(x):
        return float(_gap_and_slope(np.array([x]), rho, beta)[0][0])

    def log_slope(x):
        return float(_gap_and_slope(np.array([x]), rho, beta)[1][0])

    rising = slope > 0
    # each fold lies in a cell (lo, hi, slope and g at both ends) whose
    # ends straddle a sign change of the log slope
    cells = [(d[i], d[i + 1], slope[i], slope[i + 1], g[i], g[i + 1])
             for i in np.flatnonzero(rising[:-1] != rising[1:])]
    # g <= 0 at d = rho/(1+rho) and g > 0 at d = 1 hold exactly; where b is
    # tiny, g sits within rounding of zero at the left end and may land
    # on the wrong side of it
    ends, g_ends = [d[0]], [min(g[0], 0.0)]
    with _stage("fold polish", rho, beta):
        # near rho_c a hump and a dip closer than the scan step hide between
        # nodes where the log slope stays positive; a parabola through three
        # nodes dips at most an eighth of their second difference below the
        # middle one, the rest covers the cubic term
        mid = slope[1:-1]
        for i in 1 + np.flatnonzero(
            (mid > 0) & (mid <= slope[:-2]) & (mid <= slope[2:])
            & (mid <= slope[:-2] - 2.0 * mid + slope[2:])
        ):
            res = minimize_scalar(log_slope, bounds=(d[i - 1], d[i + 1]),
                                  method="bounded", options={"xatol": 1e-12 * d[i]})
            if res.fun < 0:
                x, s_x = float(res.x), float(res.fun)
                g_x = gap(x)
                cells += [(d[i - 1], x, slope[i - 1], s_x, g[i - 1], g_x),
                          (x, d[i + 1], s_x, slope[i + 1], g_x, g[i + 1])]
        for lo, hi, s_lo, s_hi, g_lo, g_hi in sorted(cells):
            # +1 at a hump, -1 at a dip
            sign = 1.0 if s_lo > 0 else -1.0
            x, g_x = (lo, g_lo) if sign * g_lo >= sign * g_hi else (hi, g_hi)
            if sign * g_x <= 0:
                x = _refine_bracket(log_slope, lo, hi, s_lo, s_hi, 1e-12)
                g_x = gap(x)
            # else g is already past zero at that end, so each side of it
            # holds one crossing at most: it serves as the piece end
            ends.append(x)
            g_ends.append(g_x)
    ends.append(d[-1])
    g_ends.append(max(g[-1], 0.0))

    tol = _residual_target(beta)
    roots, brackets = [], []
    with _stage("root refinement", rho, beta):
        for lo, hi, g_lo, g_hi in zip(ends, ends[1:], g_ends, g_ends[1:]):
            if g_lo * g_hi > 0:
                continue
            inner = (d > lo) & (d < hi)
            xs = np.concatenate(([lo], d[inner], [hi]))
            gs = np.concatenate(([g_lo], g[inner], [g_hi]))
            # the first node at or past the root on this monotone piece
            k = max(int(np.argmax(gs * (g_hi - g_lo) >= 0)), 1)
            roots.append(_refine_bracket(gap, xs[k - 1], xs[k], gs[k - 1], gs[k], tol))
            brackets.append((float(xs[k - 1]), float(xs[k])))

    def logit(x):
        return float(inverse_softplus(beta * x * x + math.log1p(rho)))

    return RootSet(
        roots=[logit(x) for x in roots],
        brackets=[(logit(lo), logit(hi)) for lo, hi in brackets],
        d=[float(x) for x in roots],
    )


def lambda_of_h1(h1, params, spec=None):
    """Branch value as a function of the boundary logit:
    log(1+e^{h1}) - beta^{-1/2} * integral over x in [log rho, h1] of
    sqrt(log((1+e^{h1})/(1+e^x))).

    The integrand has a square-root zero at x = h1; flipping to
    w = h1 - x puts that at the origin where the quadrature
    substitution flattens it. For h1 > 40 the integrand is sqrt(w) to
    machine precision wherever x > 40, and the 7/15-point check, exact
    there, can pass a panel that hides the softplus knee at x = 0; the
    point x = 40, w = h1 - 40, is then a breakpoint.
    """
    if not params.beta > 0:
        raise DomainError("lambda_of_h1 needs beta > 0")
    lr = math.log(params.rho)
    if h1 < lr:
        raise DomainError("lambda_of_h1 needs h1 >= log(rho)")
    top = float(softplus(h1))
    W = h1 - lr
    if W == 0.0:
        return top

    def g(w):
        return np.sqrt(softplus_diff(h1, h1 - w))

    spec = spec or ACCURATE_QUADRATURE
    cut = h1 - 40.0
    if cut > 0.0:
        integral = (integrate_inverse_sqrt_singularity(g, cut, spec)
                    + integrate_adaptive(g, cut, W, spec))
    else:
        integral = integrate_inverse_sqrt_singularity(g, W, spec)
    return top - integral / math.sqrt(params.beta)


def d_of_h1(h1, params):
    """Mean occupation of the branch with boundary logit h1:
    sqrt(log((1+e^{h1})/(1+rho)) / beta)."""
    if not params.beta > 0:
        raise DomainError("d_of_h1 needs beta > 0")
    lr = math.log(params.rho)
    if h1 < lr:
        raise DomainError("d_of_h1 needs h1 >= log(rho)")
    L = float(softplus_diff(h1, lr))
    return math.sqrt(max(L, 0.0) / params.beta)


def correction_integral(arg, rho):
    """Smooth kernel integral over y in [0, 1] of
    y^2 / (1 + rho - exp(arg*(y^2 - 1))), the K1 of the kernel family.

    This is the cubic-order correction in the mean-parameterized branch
    value; its denominator stays >= rho on the whole interval. The
    large-arg behavior is pinned between closed polylog bounds (see the
    asymptotics checks in the phase module).
    """
    if not rho > 0:
        raise DomainError("rho must be positive")
    if arg < 0:
        raise DomainError("correction_integral needs arg >= 0")
    return float(_boundary_kernels(arg, rho)[1][0])


def lambda_of_d(d, params):
    """Branch value as a function of the mean occupation d in (0, 1):
    beta*d^2 + log(1+rho) - 2*beta*(1+rho)*d^3 * correction_integral(beta*d^2).

    Mathematically identical to lambda_of_h1 composed with the d <-> h1
    map, but computed through an unrelated integral; the two routes
    agreeing is a strong mutual consistency check.
    """
    if not (0.0 < d < 1.0):
        raise DomainError("lambda_of_d needs d in (0, 1)")
    return float(_branch_values(np.array([d]), params.rho, params.beta)[0])


_TIE_RTOL = 5e-11


def lyapunov(params):
    """Growth rate at (rho, beta) with every stationary branch retained.

    beta = 0 short-circuits to the exact value log(1+rho) with the
    limiting mean occupation rho/(1+rho). For beta > 0 each root of the
    boundary equation is evaluated and the best branch selected; if two
    branch values agree to solver precision the larger-d branch wins
    and the tie flag is set. Partial derivatives ride along: d/drho of
    the growth rate equals d/rho on the selected branch, and d/dbeta
    equals (beta*d^2 + log(1+rho) - lambda) / (2*beta). Branch values
    come from the K1 kernel at the roots in d. A NumericsError names the
    stage ("scan", "fold polish", "root refinement" or "branch values")
    and the (rho, beta) at which it arose.
    """
    rho, beta = params.rho, params.beta
    if beta == 0.0:
        d0 = rho / (1.0 + rho)
        lam = math.log1p(rho)
        branch = Branch(h1=math.log(rho), d=d0, lambda_value=lam)
        return LyapunovResult(
            lambda_=lam,
            selected=branch,
            all_branches=[branch],
            dlambda_drho=d0 / rho,
            dlambda_dbeta=d0 * d0 / 3.0,  # small-beta limit of the formula
        )
    roots = solve_h1(params)
    with _stage("branch values", rho, beta):
        values = _branch_values(np.array(roots.d), rho, beta)
    branches = [
        Branch(h1=a, d=d, lambda_value=float(v))
        for a, d, v in zip(roots.roots, roots.d, values)
    ]
    best_value = max(b.lambda_value for b in branches)
    tie_tol = _TIE_RTOL * max(1.0, abs(best_value))
    contenders = [b for b in branches if best_value - b.lambda_value <= tie_tol]
    tie = len(contenders) > 1
    selected = max(contenders, key=lambda b: b.d)
    lam = selected.lambda_value
    return LyapunovResult(
        lambda_=lam,
        selected=selected,
        all_branches=branches,
        dlambda_drho=selected.d / rho,
        dlambda_dbeta=(beta * selected.d ** 2 + math.log1p(rho) - lam) / (2.0 * beta),
        tie=tie,
    )


def lyapunov_q(params):
    """Growth rate of the q-th moment: q times the q=1 rate at (rho, q*beta)."""
    q = int(params.q)
    inner = lyapunov(ModelParams(params.rho, q * params.beta))
    return q * inner.lambda_


def reconstruct_profile(branch, params, nodes=2000):
    """Rebuild the maximizing profile h(y) on a uniform y-grid.

    The stationary profile satisfies
    h'(y) = 2*sqrt(beta) * sqrt(log((1+e^{h1})/(1+e^h))), h(0) = log rho,
    so y is recovered from h by integrating 1/h'. With the tail
    substitution h = h1 - w^2 the cumulative map
    S(w) = integral of psi, psi(v) = 2v / sqrt(log((1+e^{h1})/(1+e^{h1-v^2}))),
    is smooth (psi(0) = 2/sqrt(f1)), and each grid node solves
    S(w) = 2*sqrt(beta)*(1 - y) by a vectorized Newton step off a
    precomputed anchor table. Endpoints are pinned exactly.
    """
    if nodes < 2:
        raise DomainError("profile needs at least 2 nodes")
    rho, beta = params.rho, params.beta
    if not beta > 0:
        raise DomainError("profile reconstruction needs beta > 0")
    h1 = branch.h1
    lr = math.log(rho)
    if not h1 > lr:
        raise DomainError("branch boundary logit must exceed log(rho)")
    f1 = float(expit(h1))
    W = math.sqrt(h1 - lr)

    def psi(v):
        v = np.asarray(v, dtype=float)
        vv = np.maximum(v, 1e-150)
        D = softplus_diff(h1, h1 - vv * vv)
        # at v=0 the ratio limits to 2/sqrt(f1); D underflows to 0 there
        with np.errstate(divide="ignore", invalid="ignore"):
            out = 2.0 * vv / np.sqrt(D)
        return np.where(D > 0.0, out, 2.0 / math.sqrt(f1))

    # anchor table for S on [0, W]
    M = 512
    aw = np.linspace(0.0, W, M + 1)
    seg_mid = 0.5 * (aw[1:] + aw[:-1])
    seg_half = 0.5 * (aw[1:] - aw[:-1])
    seg_nodes = seg_mid[:, None] + seg_half[:, None] * _NODES15
    seg_int = seg_half * (psi(seg_nodes) * _WEIGHTS15).sum(axis=1)
    S = np.concatenate(([0.0], np.cumsum(seg_int)))

    y = np.linspace(0.0, 1.0, nodes)
    # target the table's own total rather than 2*sqrt(beta): the two agree
    # to quadrature accuracy, but using S[-1] keeps the pinned endpoints
    # consistent with their neighbours (an O(1e-11) coherent offset would
    # otherwise be amplified by 1/dy^2 in second differences at the ends)
    targets = S[-1] * (1.0 - y)
    w = np.interp(targets, S, aw)
    seg_width = W / M
    for _ in range(6):
        j = np.clip((w / seg_width).astype(int), 0, M - 1)
        base = aw[j]
        half = 0.5 * (w - base)
        mid = base + half
        local_nodes = mid[:, None] + half[:, None] * _NODES15
        Sw = S[j] + half * (psi(local_nodes) * _WEIGHTS15).sum(axis=1)
        w = np.clip(w - (Sw - targets) / psi(w), 0.0, W)

    h = h1 - w * w
    h[0] = lr
    h[-1] = h1
    return OptimizerProfile(
        grid=y,
        h_values=h,
        f_values=expit(h),
        energy=float(2.0 * beta * softplus(h1)),
    )

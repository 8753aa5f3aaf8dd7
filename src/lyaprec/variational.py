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

The solver works in b = beta*d^2 = L = log((1+e^a)/(1+rho)) instead,
with d the branch's mean occupation. With the kernel family
K_m(b; rho) = integral over u in [0, 1] of u^(2m) / (rho - expm1(b*(u^2-1))),
big_F = 2*sqrt(b)*(1+rho)*K0(b), so the boundary equation reads
B(b) = beta for the beta level B(b) = b*(1+rho)^2*K0(b)^2, every root
lies in [beta*(rho/(1+rho))^2, beta], and the branch value is
beta*d^2 + log(1+rho) - 2*beta*(1+rho)*d^3*K1(beta*d^2). One fixed-rule
kernel call gives K0, K1 and dK0/db at a whole array of b. For each rho,
B has at most one hump and one dip, the zeros of phi = 1 + 2b*K0'/K0,
which do not depend on beta: one fold scan (_folds) splits the root
interval into at most three monotone pieces, each holding at most one
root, and one Newton solver in log b (_level_roots) refines them all; the
phase module traces the first-order curve on the same two operations. The
route through the boundary logit, lambda_of_h1, stays as a check.

Everything downstream (phase structure, jump fits, simulators) builds
on the operations here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import expit, xlogy

from .errors import DomainError, NumericsError, _stage
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
    """Stationary boundary logits in increasing order, each with the last
    Newton bracket in b = beta*d^2 around it, mapped to logits, and the
    mean occupations d of the same roots."""

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


# positions of the fold scan's 32 nodes on its log range
_FOLD_GRID = np.linspace(0.0, 1.0, 32)


def _level(b, rho):
    """Beta level B(b) = b*(1+rho)^2*K0(b)^2 = (big_F/2)^2, K1, and
    phi = 1 + 2b*K0'/K0 = d(log B)/d(log b) at an array of b = beta*d^2.
    The roots at beta solve B(b) = beta; phi has the sign of g'(d)."""
    K0, K1, dK0 = _boundary_kernels(b, rho)
    return (np.sqrt(b) * (1.0 + rho) * K0) ** 2, K1, 1.0 + 2.0 * b * dK0 / K0


class _NegativeNode(Exception):
    """Ends the hidden-pair search of _folds at its first node with phi < 0,
    carrying that node as (b, B, phi)."""

    def __init__(self, *node):
        super().__init__()
        self.node = node


def _folds(rho):
    """Fold scan of the beta level B(b): b, B and phi at the scan nodes,
    and the node indices of the scan cells of the hump and the dip as a
    (2, 2) array (row 0 the hump, row 1 the dip), None where B has no fold.

    The folds do not depend on beta: they are the zeros of phi, which
    tends to 1 at both ends and is negative exactly between them. One
    kernel call scans phi at 32 log-spaced b on [rho/16, 16], the top
    pushed out while phi <= 0 there. Just under rho_c a hump and a dip
    can both hide between two nodes; a parabola through three nodes dips
    at most an eighth of their second difference below the middle one,
    so a lowest node within a quarter of it (the higher terms took the
    dip to 0.11 at most over rho in [0.10, 0.14]) is searched by bounded
    Brent in log b. Only the sign matters, and any negative node splits
    the hump and the dip cells, so the search stops at its first node
    with phi < 0 and that node joins the scan. A search that finds none
    ends at 1e-8 in log b, where phi is off its minimum by about 1e-16."""
    top = 16.0
    while True:
        b = rho / 16.0 * (16.0 * top / rho) ** _FOLD_GRID
        B, _, phi = _level(b, rho)
        if not phi[-1] <= 0:
            break
        top *= 16.0
    i = int(np.argmin(phi))
    if 0 < i < b.size - 1 and 0 <= 4.0 * phi[i] <= phi[i - 1] - 2.0 * phi[i] + phi[i + 1]:
        def phi_at(t):
            x = math.exp(t)
            B_x, _, phi_x = _level(x, rho)
            if phi_x[0] < 0:
                raise _NegativeNode(x, B_x, phi_x)
            return phi_x[0]

        try:
            minimize_scalar(phi_at, method="bounded", bounds=(math.log(b[i - 1]), math.log(b[i + 1])),
                            options={"xatol": 1e-8})
        except _NegativeNode as found:
            x, B_x, phi_x = found.node
            j = i + int(x > b[i])
            b, B, phi = np.insert(b, j, x), np.insert(B, j, B_x), np.insert(phi, j, phi_x)
    neg = np.flatnonzero(phi < 0)
    cells = np.array([[neg[0] - 1, neg[0]], [neg[-1], neg[-1] + 1]]) if neg.size else None
    return b, B, phi, cells


def _polish_folds(rho, b, phi):
    """The zeros of phi in the given fold cells (rows of b and phi), each
    refined to |phi| <= 1e-12, and B there."""
    def slope(x):
        return float(_level(x, rho)[2][0])

    x = np.array([_refine_bracket(slope, *b_k, *phi_k, 1e-12) for b_k, phi_k in zip(b, phi)])
    return x, _level(x, rho)[0]


def _residual_target(beta):
    """Target for |g| in a root solve: the 1e-10 residual on big_F, which
    is 1e-10/(2*sqrt(beta)) on g, and at most 1e-13. The tighter bound
    costs about one more Newton step; it matters where g is flat, as
    the error left in d is |g|/g'(d). Past beta = 3e9 the first bound is
    below the rounding of g, and 4 ulp of 1 is the floor."""
    return max(min(0.5e-10 / math.sqrt(beta), 1e-13), 4.0 * np.finfo(float).eps)


def _level_roots(rho, beta, neg, pos, d):
    """Roots of B(b) = beta, one per monotone piece of B, by safeguarded
    Newton in log b from d, all pieces in one kernel call per step. The
    iterate is carried as d = sqrt(b/beta), exact where b underflows, and
    a piece as its ends neg and pos in d, where
    r = sqrt(B/beta) - 1 = d*(1+rho)*K0(b) - 1 is <= 0 and > 0. As
    log(1+r) has slope phi in log d, the step is d/(1+r)^(1/phi); one
    that leaves the bracket bisects it in log d instead. Stops at
    |r| <= _residual_target(beta); returns d, K1, phi, neg and pos."""
    tol = _residual_target(beta)
    d = np.clip(d, np.minimum(neg, pos), np.maximum(neg, pos))
    for _ in range(60):
        b = beta * d * d
        K0, K1, dK0 = _boundary_kernels(b, rho)
        r = d * (1.0 + rho) * K0 - 1.0
        phi = 1.0 + 2.0 * b * dK0 / K0
        done = np.abs(r) <= tol
        neg, pos = np.where(r <= 0, d, neg), np.where(r <= 0, pos, d)
        if done.all():
            return d, K1, phi, neg, pos
        step = d / (1.0 + r) ** (1.0 / phi)
        inside = (step - neg) * (step - pos) < 0
        d = np.where(done, d, np.where(inside, step, np.sqrt(neg * pos)))
    raise NumericsError("the roots did not reach the residual target")


def _branch_values(d, rho, beta):
    """Branch values beta*d^2 + log(1+rho) - 2*beta*(1+rho)*d^3*K1(beta*d^2)
    at an array of stationary occupations d."""
    b = beta * d * d
    return b + math.log1p(rho) - 2.0 * beta * (1.0 + rho) * d ** 3 * _boundary_kernels(b, rho)[1]


def solve_h1(params):
    """All stationary boundary logits at (rho, beta), beta > 0.

    The boundary equation big_F(a) = 2*sqrt(beta) is solved in
    b = beta*d^2, with d the mean occupation, as B(b) = beta. Because
    1/(1+rho) <= K0 <= 1/rho, every root lies in
    [beta*(rho/(1+rho))^2, beta], where r = sqrt(B/beta) - 1 starts <= 0
    and ends >= 0. The folds of B (_folds) split that interval into at
    most three monotone pieces, each holding one root where r changes
    sign across it. A fold is polished only where beta reaches the B
    values at the nodes of its scan cell; elsewhere the cell holds no
    root, and its nodes end the pieces on either side. The roots of all
    pieces are refined together by Newton in log b (_level_roots), each
    started on the tangent at its nearest scan node, to |r| <=
    _residual_target(beta), the 1e-10 residual on big_F where double
    precision holds it. Logits follow from a = inverse_softplus(b + log(1+rho)).
    """
    if not params.beta > 0:
        raise DomainError("solve_h1 needs beta > 0")
    rho, beta = params.rho, params.beta
    b_min = beta * (rho / (1.0 + rho)) ** 2
    ends, B_ends = np.array([b_min, beta]), np.array([0.0, math.inf])
    with _stage("fold search", rho, beta):
        b, B, phi, cells = _folds(rho)
        if cells is not None:
            b_c, B_c = b[cells], B[cells]
            # r keeps one sign on a fold's cell where beta lies below the
            # node values of the hump or above those of the dip: the two
            # nodes then end the pieces on either side; else the polished
            # fold ends both. A cell outside [b_min, beta] ends no piece.
            polish = (b_c[:, 0] < beta) & (b_c[:, 1] > b_min) & np.array(
                [beta >= B_c[0].min(), beta <= B_c[1].max()])
            if polish.any():
                x, B_x = _polish_folds(rho, b_c[polish], phi[cells[polish]])
                b_c[polish], B_c[polish] = x[:, None], B_x[:, None]
            ends = np.concatenate(([b_min], b_c.ravel(), [beta]))
            B_ends = np.concatenate(([0.0], B_c.ravel(), [math.inf]))
    # r <= 0 at b_min and r >= 0 at beta hold exactly (B_ends pins them),
    # though where b is tiny r sits within rounding of zero at b_min; a
    # piece whose ends lie on both sides of beta holds one root
    keep = (ends >= b_min) & (ends <= beta)
    ends, above = ends[keep], B_ends[keep] > beta
    d_ends = np.sqrt(ends / beta)
    d_ends[0], d_ends[-1] = rho / (1.0 + rho), 1.0
    i = np.flatnonzero(above[:-1] != above[1:])
    lo, hi = d_ends[i], d_ends[i + 1]
    neg, pos = np.where(above[i], hi, lo), np.where(above[i], lo, hi)
    # each piece starts on the tangent at its scan node with B nearest
    # beta, where that lands inside the piece; else at its outer end,
    # where Newton does not overshoot. At a subnormal beta, b/beta and
    # B/beta overflow to inf at the nodes, which then lie in no piece
    with np.errstate(over="ignore"):
        d_scan = np.sqrt(b / beta)
        inside = (d_scan > lo[:, None]) & (d_scan < hi[:, None])
        k = np.argmin(np.where(inside, np.abs(np.log(B / beta)), np.inf), axis=1)
    start = d_scan[k] * (beta / B[k]) ** (0.5 / phi[k])
    start = np.where(inside[np.arange(k.size), k] & (lo < start) & (start < hi), start,
                     np.where(i == 0, lo, np.where(hi == 1.0, hi, np.sqrt(lo * hi))))
    with _stage("root refinement", rho, beta):
        d, _, _, neg, pos = _level_roots(rho, beta, neg, pos, start)

    a, a_lo, a_hi = inverse_softplus(
        beta * np.array([d, np.minimum(neg, pos), np.maximum(neg, pos)]) ** 2 + math.log1p(rho))
    return RootSet(roots=a.tolist(), brackets=list(zip(a_lo.tolist(), a_hi.tolist())),
                   d=d.tolist())


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
    stage ("fold search", "root refinement" or "branch values") and the
    (rho, beta) at which it arose.
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

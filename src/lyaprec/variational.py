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
kernel call gives K0, K1 and dK0/db at a whole array of b, and
d^2K0/db^2 where asked. For each rho, B has at most one hump and one dip,
the zeros of phi = 1 + 2b*K0'/K0, which do not depend on beta: one fold
scan (_folds) splits the root interval into at most three monotone
pieces, each holding at most one root, one Newton solve in log b on phi
(_polish_folds) polishes the folds that a solve needs, all in one kernel
call per step, and one Newton solver in log b (_level_roots) refines the
roots. A row of many beta at one rho (_solve_row) shares the scan and the
polish and solves the roots of every beta in the same Newton iteration;
the phase module traces the first-order curve on the same operations.
The route through the boundary logit, lambda_of_h1, stays as a check.

Everything downstream (phase structure, jump fits, simulators) builds
on the operations here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvaluationError, NumericsError, _check_q1, _check_rho, _stage
from .numerics import (
    ACCURATE_QUADRATURE,
    _NODES15,
    _WEIGHTS15,
    _boundary_kernels,
    expit,
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
    and the moment order q (a positive integer, 1 for the plain growth rate).
    Only lyapunov_q solves q > 1; the q = 1 solvers raise DomainError for it."""

    rho: float
    beta: float
    q: int = 1

    def __post_init__(self):
        _check_rho(self.rho)
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
    # t*log(t) with its limit 0 at t = 0, as SciPy's special.xlogy(t, t); libm's
    # log for a scalar, numpy's (within 1 ulp of it) for an array
    if arr.ndim == 0:
        x = float(arr)
        return sum((t * math.log(t) for t in (x, 1.0 - x) if t > 0.0), 0.0)
    t = np.stack((arr, 1.0 - arr))
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(t > 0.0, t * np.log(t), 0.0)
    return terms[0] + terms[1]


def big_F(a, rho):
    """Boundary equation integrand total: the roots of
    big_F(a; rho) = 2*sqrt(beta) in a are the stationary branches.

    Defined as the integral over y in (0, L] of
    (1+e^a) / ((1+e^a-e^y) * sqrt(y)) with L = log((1+e^a)/(1+rho)), and
    computed as the one-point big_F_scan, so the two agree at every rho.
    The integrand exceeds 1/sqrt(y) pointwise, so big_F(a) >= 2*sqrt(L)
    always. An a below log(rho) raises DomainError.
    """
    _check_rho(rho)
    if a < math.log(rho):
        raise DomainError("big_F needs a >= log(rho)")
    return float(big_F_scan(a, rho)[0])


# points per kernel call of big_F_scan: in one call, the 8192-point slope
# scans of locate_critical_point raise its peak RSS from 78 to 108 MB
_BLOCK_ROWS = 128


def big_F_scan(a_values, rho):
    """big_F over an array of a values, as 2*s*(1+rho)*K0(s^2; rho) with
    s = sqrt(L) and L = log((1+e^a)/(1+rho)) = softplus_diff(a, log rho),
    clipped at 0, on the fixed-rule kernel K0 of the solvers.

    Against 30-digit mpmath the relative error is about 1e-15 for rho
    from 1e-12 to 0.5, and 7e-15 at rho = 1e-300, where 1 + rho rounds to
    1 but the kernel keeps rho; where a is close to log(rho), the rounding
    of log(rho) in L sets the error instead. a may lie up to 1e-12 below
    log(rho), where L is 0; further below raises DomainError. The points
    go to the kernel 128 at a time, so no call holds more than 128 rows of
    nodes; each call has its own panel rule and matrix product, so a value
    can differ in its last bits with its block mates, and from the
    one-point call of big_F.
    """
    _check_rho(rho)
    a = np.atleast_1d(np.asarray(a_values, dtype=float))
    lr = math.log(rho)
    if np.any(a < lr - 1e-12):
        raise DomainError("big_F_scan needs a >= log(rho)")
    L = np.maximum(softplus_diff(a, lr), 0.0)
    K0 = np.empty(L.shape)
    for start in range(0, L.size, _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        K0[block] = _boundary_kernels(L[block], rho, rows=1)[0]
    return 2.0 * np.sqrt(L) * (1.0 + rho) * K0


# positions of the fold scan's 32 nodes on its log range
_FOLD_GRID = np.linspace(0.0, 1.0, 32)


def _level(b, rho):
    """Beta level B(b) = b*(1+rho)^2*K0(b)^2 = (big_F/2)^2, K1, and
    phi = 1 + 2b*K0'/K0 = d(log B)/d(log b) at an array of b = beta*d^2.
    The roots at beta solve B(b) = beta; phi has the sign of g'(d)."""
    K0, K1, dK0 = _boundary_kernels(b, rho)
    return (np.sqrt(b) * (1.0 + rho) * K0) ** 2, K1, 1.0 + b * (2.0 * dK0) / K0


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
    so while the lowest node is within a quarter of it (the higher terms
    took the dip to 0.11 at most over rho in [0.10, 0.14]) the scan zooms
    in: its two cells are scanned again at the same 32 positions. Only
    the sign matters, so the zoom stops at the first scan with a node
    where phi < 0, and its nodes from the one before the first negative
    node to the one after the last join the scan; a zoom that finds none
    ends once its two cells are narrower than 1e-8 in log b, where phi
    is off its minimum by about 1e-16."""
    top = 16.0
    while True:
        b = rho / 16.0 * (16.0 * top / rho) ** _FOLD_GRID
        B, _, phi = _level(b, rho)
        if not phi[-1] <= 0:
            break
        top *= 16.0
    x, phi_x = b, phi
    while True:
        i = int(np.argmin(phi_x))
        if not (0 < i < x.size - 1 and math.log(x[i + 1] / x[i - 1]) >= 1e-8
                and 0 <= 4.0 * phi_x[i] <= phi_x[i - 1] - 2.0 * phi_x[i] + phi_x[i + 1]):
            break
        x = x[i - 1] * (x[i + 1] / x[i - 1]) ** _FOLD_GRID
        B_x, _, phi_x = _level(x, rho)
        neg = np.flatnonzero(phi_x < 0)
        if neg.size:
            # merged in order; a rescanned cell end may repeat a node,
            # which then keeps its first value
            keep = slice(neg[0] - 1, neg[-1] + 2)
            b, k = np.unique(np.concatenate((b, x[keep])), return_index=True)
            B, phi = np.concatenate((B, B_x[keep]))[k], np.concatenate((phi, phi_x[keep]))[k]
            break
    neg = np.flatnonzero(phi < 0)
    cells = np.array([[neg[0] - 1, neg[0]], [neg[-1], neg[-1] + 1]]) if neg.size else None
    return b, B, phi, cells


_FOLD_TOL = 1e-12
# 4 ulp of 1: the floor of a residual target, and of a bracket's width
_RESIDUAL_FLOOR = 4.0 * float(np.finfo(float).eps)


def _polish_folds(rho, b, phi):
    """The zeros of phi in the given fold cells (rows of b and phi, each
    with a sign change of phi), and B there: every fold refined at once by
    safeguarded Newton in log b, one kernel call per step for all of them
    (a fold or two, so the step itself is scalar arithmetic). The slope
    dphi/d(log b) = 2b*K0'/K0 + 2b^2*(K0''/K0 - (K0'/K0)^2) comes from the
    kernel's row of b^2*K0''. Each fold starts where the linear
    interpolation of phi in log b over its cell is zero (at the cell's
    middle in log b where phi is not finite at an end), and a step that
    leaves the fold's bracket (its cell, narrowed by the signs of phi at
    the iterates) bisects it in log b instead. A fold stays where it is
    once |phi| <= 1e-12, or once its bracket is 4 ulp wide, where the
    zero lies in it to rounding; B is taken from the call at which every
    fold is done. A non-finite phi raises EvaluationError at its b, and a
    fold still short after 100 steps NumericsError with its row as index."""
    x, neg, pos = [], [], []
    for (lo, hi), (phi_lo, phi_hi) in zip(b.tolist(), phi.tolist()):
        start = lo * (hi / lo) ** (phi_lo / (phi_lo - phi_hi))
        x.append(start if math.isfinite(start) else math.sqrt(lo * hi))
        neg.append(lo if phi_lo < 0 else hi)
        pos.append(hi if phi_lo < 0 else lo)
    for _ in range(100):
        K0, _, dK0, ddK0 = _boundary_kernels(x, rho, rows=4)
        done = []
        for i, (x_i, k0, k1, k2) in enumerate(zip(x, K0.tolist(), dK0.tolist(), ddK0.tolist())):
            g = x_i * k1 / k0
            phi_i = 1.0 + 2.0 * g
            if not math.isfinite(phi_i):
                raise EvaluationError("non-finite phi in the fold polish at b=%r" % x_i,
                                      abscissa=x_i)
            if phi_i < 0:
                neg[i] = x_i
            else:
                pos[i] = x_i
            lo, hi = min(neg[i], pos[i]), max(neg[i], pos[i])
            done.append(abs(phi_i) <= _FOLD_TOL or hi - lo <= _RESIDUAL_FLOOR * hi)
            if not done[-1]:
                slope = 2.0 * g * (1.0 - g) + 2.0 * k2 / k0
                # a step that under- or overflows, or divides by zero, bisects
                step = x_i * math.exp(max(min(-phi_i / slope, 700.0), -700.0)) if slope else lo
                x[i] = step if lo < step < hi else math.sqrt(lo * hi)
        if all(done):
            x = np.array(x)
            return x, (np.sqrt(x) * (1.0 + rho) * K0) ** 2
    exc = NumericsError("the folds did not reach |phi| <= %g" % _FOLD_TOL)
    exc.index = done.index(False)
    raise exc


def _residual_target(beta):
    """Target for |g| in a root solve: the 1e-10 residual on big_F, which
    is 1e-10/(2*sqrt(beta)) on g, and at most 1e-13. The tighter bound
    costs about one more Newton step; it matters where g is flat, as
    the error left in d is |g|/g'(d). Past beta = 3e9 the first bound is
    below the rounding of g, and 4 ulp of 1 is the floor. Elementwise in
    beta."""
    return np.maximum(np.minimum(0.5e-10 / np.sqrt(beta), 1e-13), _RESIDUAL_FLOOR)


def _level_roots(rho, beta, neg, pos, d):
    """Roots of B(b) = beta, one per monotone piece of B, by safeguarded
    Newton in log b from d, all pieces in one kernel call per step; beta
    is one value, or one per piece where the pieces of several beta at
    one rho share the solve. The iterate is carried as d = sqrt(b/beta),
    exact where b underflows, and a piece as its ends neg and pos in d,
    where r = sqrt(B/beta) - 1 = d*(1+rho)*K0(b) - 1 is <= 0 and > 0. As
    log(1+r) has slope phi in log d, the step is d/(1+r)^(1/phi); one
    that leaves the bracket bisects it in log d instead, as does one where
    (1+r)^(1/phi) under- or overflows far from a root (the step is then
    inf or 0). A piece stays where it is while |r| <= _residual_target(beta),
    its own target, and the solve stops when all pieces meet theirs;
    returns d, K1, phi, r, neg and pos. A piece still short of its target
    after 60 steps raises NumericsError with the piece's position as
    index."""
    tol = _residual_target(beta)
    d = np.clip(d, np.minimum(neg, pos), np.maximum(neg, pos))
    for _ in range(60):
        b = beta * d * d
        K0, K1, dK0 = _boundary_kernels(b, rho)
        r = d * (1.0 + rho) * K0 - 1.0
        phi = 1.0 + b * (2.0 * dK0) / K0
        done = np.abs(r) <= tol
        below = r <= 0
        neg, pos = np.where(below, d, neg), np.where(below, pos, d)
        if done.all():
            return d, K1, phi, r, neg, pos
        with np.errstate(divide="ignore", over="ignore"):
            step = d / (1.0 + r) ** (1.0 / phi)
        inside = (step - neg) * (step - pos) < 0
        d = np.where(done, d, np.where(inside, step, np.sqrt(neg * pos)))
    exc = NumericsError("the roots did not reach the residual target")
    exc.index = int(np.flatnonzero(~done)[0])
    raise exc


def _branch_values(d, rho, beta, K1):
    """Branch values beta*d^2 + log(1+rho) - 2*beta*(1+rho)*d^3*K1(beta*d^2)
    at an array of stationary occupations d, given K1 there; beta is one
    value or one per d. Where 2*beta*(1+rho) would overflow, the product
    is taken on beta/2^64 and scaled back, both steps exact, so each
    value is the same, bit for bit, as from the plain product."""
    k = np.where(beta > 2.0 ** 1000 / (1.0 + rho), 64, 0)
    cubic = np.ldexp(2.0 * np.ldexp(beta, -k) * (1.0 + rho) * d ** 3 * K1, k)
    return beta * d * d + math.log1p(rho) - cubic


def _pieces(rho, beta, b, B, phi, b_f, B_f):
    """The monotone pieces of B on [beta*(rho/(1+rho))^2, beta] that hold
    a root of B(b) = beta, for an array of beta at one rho, from the fold
    scan (b, B and phi at its nodes) and each beta's fold ends b_f with
    their B values B_f, rows of four: each fold's cell nodes, or the
    polished fold twice (None without folds). Returns each piece's
    position in beta, its ends neg (r <= 0) and pos (r > 0) in d, and a
    Newton start inside it, the pieces of each beta in increasing order.
    """
    col = beta[:, None]
    b_min = col * (rho / (1.0 + rho)) ** 2
    if b_f is None:
        ends, B_ends = np.concatenate((b_min, col), axis=1), np.array([0.0, math.inf])
    else:
        ends = np.concatenate((b_min, b_f, col), axis=1)
        B_ends = np.concatenate((np.zeros_like(col), B_f, np.full_like(col, math.inf)), axis=1)
    # r <= 0 at b_min and r >= 0 at beta hold exactly (B_ends pins them),
    # though where b is tiny r sits within rounding of zero at b_min; a
    # piece whose ends lie on both sides of beta holds one root. A fold end
    # outside [b_min, beta] ends no piece: it takes the side and the d of
    # b_min or of beta, whichever it lies beyond
    low, high = ends < b_min, ends > col
    above = (B_ends > col) & ~low | high
    d_ends = np.where(low, rho / (1.0 + rho), np.sqrt(np.minimum(ends, col) / col))
    d_ends[:, 0], d_ends[high] = rho / (1.0 + rho), 1.0
    row, i = np.nonzero(above[:, :-1] != above[:, 1:])
    lo, hi, up = d_ends[row, i], d_ends[row, i + 1], above[row, i]
    neg, pos = np.where(up, hi, lo), np.where(up, lo, hi)
    # each piece starts on the tangent at its scan node with B nearest
    # beta, where that lands inside the piece; else at its outer end,
    # where Newton does not overshoot. At a subnormal beta, b/beta and
    # B/beta overflow to inf at the nodes, and at a huge beta, beta/B
    # does; the nodes then lie in no piece, and their tangent starts
    # (inf, nan or 0) are not taken
    beta_p = col[row]
    with np.errstate(over="ignore", invalid="ignore"):
        d_scan = np.sqrt(b / beta_p)
        inside = (d_scan > lo[:, None]) & (d_scan < hi[:, None])
        k = np.argmin(np.where(inside, np.abs(np.log(B / beta_p)), np.inf), axis=1)
        piece = np.arange(k.size)
        start = d_scan[piece, k] * (beta[row] / B[k]) ** (0.5 / phi[k])
    start = np.where(inside[piece, k] & (lo < start) & (start < hi), start,
                     np.where(lo == rho / (1.0 + rho), lo,
                              np.where(hi == 1.0, hi, np.sqrt(lo * hi))))
    return row, neg, pos, start


def _row_roots(rho, betas, q=1):
    """The roots in d of B(b) = q*beta for every beta > 0 of a row at one
    rho: arrays of each root's owner (its position in betas), d, its last
    Newton bracket in d (neg, pos) and K1 there, each beta's roots in
    increasing order. The folds do not depend on beta, so the row makes
    one fold scan, polishes each fold at most once (only if some beta
    reaches the B values at the nodes of its scan cell), and refines the
    roots of all beta in one Newton solve (_level_roots). A NumericsError
    names its stage, rho, the beta at which it arose (the first beta of
    the row for the scan, the first that needs it for the polish) and q."""
    betas = np.asarray(betas, dtype=float)
    live = (betas > 0).nonzero()[0]
    if not live.size:
        return (live,) + (np.zeros(0),) * 4
    beta_q = q * betas[live]
    with _stage("fold search", rho, betas[live[0]], q):
        b, B, phi, cells = _folds(rho)
    b_f = B_f = None
    if cells is not None:
        b_c, B_c = b[cells], B[cells]
        # r keeps one sign on a fold's cell where beta lies below the
        # node values of the hump or above those of the dip: the two
        # nodes then end the pieces on either side; else the polished
        # fold ends both. A cell outside [b_min, beta] ends no piece
        col = beta_q[:, None]
        polish = (b_c[:, 0] < col) & (b_c[:, 1] > col * (rho / (1.0 + rho)) ** 2) & np.array(
            [beta_q >= B_c[0].min(), beta_q <= B_c[1].max()]).T
        folds = polish.any(axis=0)
        b_p, B_p = b_c.copy(), B_c.copy()
        if folds.any():
            first = live[polish.any(axis=1).nonzero()[0][0]]
            with _stage("fold search", rho, betas[first], q):
                x, B_x = _polish_folds(rho, b_c[folds], phi[cells[folds]])
            b_p[folds], B_p[folds] = x[:, None], B_x[:, None]
        own = polish[:, :, None]
        b_f = np.where(own, b_p, b_c).reshape(-1, 4)
        B_f = np.where(own, B_p, B_c).reshape(-1, 4)
    row, neg, pos, start = _pieces(rho, beta_q, b, B, phi, b_f, B_f)
    owner = live[row]
    with _stage("root refinement", rho, betas[owner], q):
        d, K1, _, _, neg, pos = _level_roots(rho, beta_q[row], neg, pos, start)
    return owner, d, neg, pos, K1


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
    precision holds it. This is the one-element row of _row_roots, the
    solve that lyapunov and the CLI share. Logits follow from
    a = inverse_softplus(b + log(1+rho)).
    """
    _check_q1(params)
    if not params.beta > 0:
        raise DomainError("solve_h1 needs beta > 0")
    rho, beta = params.rho, params.beta
    _, d, neg, pos, _ = _row_roots(rho, [beta])
    a, a_lo, a_hi = inverse_softplus(
        beta * np.array([d, np.minimum(neg, pos), np.maximum(neg, pos)]) ** 2 + math.log1p(rho))
    return RootSet(roots=a.tolist(), brackets=list(zip(a_lo.tolist(), a_hi.tolist())),
                   d=d.tolist())


def lambda_of_h1(h1, params):
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
    _check_q1(params)
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

    cut = h1 - 40.0
    if cut > 0.0:
        integral = (integrate_inverse_sqrt_singularity(g, cut, ACCURATE_QUADRATURE)
                    + integrate_adaptive(g, cut, W, ACCURATE_QUADRATURE))
    else:
        integral = integrate_inverse_sqrt_singularity(g, W, ACCURATE_QUADRATURE)
    return top - integral / math.sqrt(params.beta)


def d_of_h1(h1, params):
    """Mean occupation of the branch with boundary logit h1:
    sqrt(log((1+e^{h1})/(1+rho)) / beta)."""
    _check_q1(params)
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
    _check_rho(rho)
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
    _check_q1(params)
    if not (0.0 < d < 1.0):
        raise DomainError("lambda_of_d needs d in (0, 1)")
    rho, beta = params.rho, params.beta
    d = np.array([d])
    return float(_branch_values(d, rho, beta, _boundary_kernels(beta * d * d, rho)[1])[0])


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
    come from the K1 kernel at the roots in d. This is the one-element
    row of _solve_row, which solves many beta at one rho with one fold
    scan and one Newton solve. A NumericsError names the stage ("fold
    search", "root refinement" or "branch values") and the (rho, beta)
    at which it arose.
    """
    _check_q1(params)
    return _solve_row(params.rho, [params.beta])[0]


def _solve_row(rho, betas, q=1):
    """lyapunov at (rho, q*beta) for every beta of a row at one rho, as a
    list of LyapunovResult in the order of betas. The roots of all beta
    come from one _row_roots solve, and their branch values from the K1
    of its last Newton step, which is the kernel at the roots. A
    NumericsError names the stage, rho, the beta of the element at which
    it arose, and q (in the message where q > 1)."""
    betas = np.asarray(betas, dtype=float)
    owner, d, _, _, K1 = _row_roots(rho, betas, q)
    found = [[] for _ in betas]
    if d.size:
        beta_q = q * betas[owner]
        with _stage("branch values", rho, betas[owner], q):
            values = _branch_values(d, rho, beta_q, K1)
        h1 = inverse_softplus(beta_q * d ** 2 + math.log1p(rho))
        for j, a, x, v in zip(owner.tolist(), h1.tolist(), d.tolist(), values.tolist()):
            found[j].append(Branch(h1=a, d=x, lambda_value=v))
    return [_select(rho, beta, branches) if beta > 0 else _beta_zero(rho)
            for beta, branches in zip((q * betas).tolist(), found)]


def _select(rho, beta, branches):
    """The result at (rho, beta) from its branches: the best value, the
    larger-d branch where two values tie to _TIE_RTOL."""
    best_value = max(b.lambda_value for b in branches)
    tie_tol = _TIE_RTOL * max(1.0, abs(best_value))
    contenders = [b for b in branches if best_value - b.lambda_value <= tie_tol]
    selected = max(contenders, key=lambda b: b.d)
    lam = selected.lambda_value
    return LyapunovResult(
        lambda_=lam,
        selected=selected,
        all_branches=branches,
        dlambda_drho=selected.d / rho,
        dlambda_dbeta=0.5 * (beta * selected.d ** 2 + math.log1p(rho) - lam) / beta,
        tie=len(contenders) > 1,
    )


def _beta_zero(rho):
    """The exact result at beta = 0: value log(1+rho), mean occupation
    rho/(1+rho)."""
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


def lyapunov_q(params):
    """Growth rate of the q-th moment: q times the q=1 rate at (rho, q*beta).
    A NumericsError names (rho, beta, q), with q in its message where q > 1."""
    q = int(params.q)
    ModelParams(params.rho, q * params.beta)  # DomainError where q*beta overflows
    return q * _solve_row(params.rho, [params.beta], q)[0].lambda_


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
    _check_q1(params)
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

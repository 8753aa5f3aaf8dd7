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
kernel call gives K0 and dK0/db at a whole array of b, K1 where a root
solve needs it, and d^2K0/db^2 where the fold polish does. For each rho,
B has at most one hump and one dip, the zeros of phi = 1 + 2b*K0'/K0,
which do not depend on beta: one fold scan (_folds, on K0 and dK0/db
alone) splits the root interval into at most three monotone pieces, each
holding at most one root, one Newton solve in log b on phi
(_polish_folds), started where the cubic Hermite of log B across each
fold's scan cell is flat, polishes the folds that a solve needs, all in
one kernel call per step, and one Newton solver in log b (_level_roots)
refines the roots, each step one evaluation of r, phi and K1 at all the
roots (_level_at) and one Newton move of each root (_moved_root), the
move that also starts the roots from the scan nodes and that they leave
the solve after. A row of many beta at one rho (_solve_row) shares the
scan and the polish and solves the roots of every beta in the same
Newton iteration; the phase module traces the first-order curve on the
same operations. The masks, pieces and Newton steps of a solve run on
Python floats, as a beta has at most three pieces, so a one-beta row
costs little beyond its kernel calls. lambda_of_h1 and lambda_of_d give
the branch value of a boundary logit or of a mean occupation on the same
K1 kernel.

Everything downstream (phase structure, jump fits, simulators) builds
on the operations here.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import (AccuracyError, DomainError, EvaluationError, NumericsError, _check_q1,
                     _check_rho, _stage)
from .numerics import (
    _KERNEL_FIRST,
    _KERNEL_WEIGHTS,
    _boundary_kernels,
    _kernel_doublings,
    expit,
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
    always. An a below log(rho), or not finite, raises DomainError.
    """
    _check_rho(rho)
    if not math.log(rho) <= a < math.inf:
        raise DomainError("big_F needs a finite a >= log(rho)")
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
    log(rho), where L is 0; further below, or a that is not finite, raises
    DomainError, as in big_F. The points go to the kernel 128 at a time,
    so no call holds more than 128 rows of nodes; each call has its own
    panel rule and matrix product, so a value can differ in its last bits
    with its block mates, and from the one-point call of big_F.
    """
    _check_rho(rho)
    a = np.atleast_1d(np.asarray(a_values, dtype=float))
    lr = math.log(rho)
    # one reduction: NaN fails the comparison, +inf the finiteness
    if not np.all((a >= lr - 1e-12) & np.isfinite(a)):
        raise DomainError("big_F_scan needs a finite a >= log(rho)")
    L = np.maximum(softplus_diff(a, lr), 0.0)
    K0 = np.empty(L.shape)
    for start in range(0, L.size, _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        K0[block] = _boundary_kernels(L[block], rho, rows=1)[0]
    return 2.0 * np.sqrt(L) * (1.0 + rho) * K0


# positions of the fold scan's 32 nodes on its log range
_FOLD_GRID = np.linspace(0.0, 1.0, 32)


def _level(b, rho):
    """Beta level B(b) = b*(1+rho)^2*K0(b)^2 = (big_F/2)^2 and
    phi = 1 + 2b*K0'/K0 = d(log B)/d(log b) at an array of b = beta*d^2,
    from the kernel's K0 and dK0/db rows alone. The roots at beta solve
    B(b) = beta; phi has the sign of g'(d)."""
    K0, dK0 = _boundary_kernels(b, rho, rows=2)
    return (np.sqrt(b) * (1.0 + rho) * K0) ** 2, 1.0 + b * (2.0 * dK0) / K0


def _folds(rho):
    """Fold scan of the beta level B(b): b, B and phi at the scan nodes,
    and the node indices of the scan cells of the hump and the dip as a
    (2, 2) array (row 0 the hump, row 1 the dip), None where B has no fold.

    The folds do not depend on beta: they are the zeros of phi, which
    tends to 1 at both ends and is negative exactly between them. One
    kernel call for K0 and dK0/db alone (_level) scans phi at 32
    log-spaced b on [rho/16, 16], the top pushed out while phi <= 0
    there. Just under rho_c a hump and a dip can both hide between two
    nodes; a parabola through three nodes dips at most an eighth of their
    second difference below the middle one, so while the lowest node is
    within a quarter of it (the higher terms took the dip to 0.11 at most
    over rho in [0.10, 0.14]) the scan zooms in: its two cells are
    scanned again at the same 32 positions. Only the sign matters, so the
    zoom stops at the first scan with a node where phi < 0, and its nodes
    from the one before the first negative node to the one after the last
    join the scan; a zoom that finds none ends once its two cells are
    narrower than 1e-8 in log b, where phi is off its minimum by about
    1e-16."""
    top = 16.0
    while True:
        b = rho / 16.0 * (16.0 * top / rho) ** _FOLD_GRID
        B, phi = _level(b, rho)
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
        B_x, phi_x = _level(x, rho)
        neg = np.flatnonzero(phi_x < 0)
        if neg.size:
            # merged in order; a rescanned cell end may repeat a node,
            # which then keeps its first value
            keep = slice(neg[0] - 1, neg[-1] + 2)
            b, k = np.unique(np.concatenate((b, x[keep])), return_index=True)
            B, phi = np.concatenate((B, B_x[keep]))[k], np.concatenate((phi, phi_x[keep]))[k]
            break
    neg = np.flatnonzero(phi < 0).tolist()
    cells = np.array([[neg[0] - 1, neg[0]], [neg[-1], neg[-1] + 1]]) if neg else None
    return b, B, phi, cells


def _hermite(t, y, m):
    """The cubic Hermite of y with slope m in t on each cell between
    neighbouring nodes (the last axis): y = y0 + u*(s0 + u*(c2 + u*c3))
    at t = t0 + h*u for u in [0, 1]. Returns h, s0, c2 and c3; the slope
    in u is s0 + 2*c2*u + 3*c3*u^2, which is m*h at both ends."""
    h = np.diff(t)
    s0, s1, dy = m[..., :-1] * h, m[..., 1:] * h, np.diff(y)
    return h, s0, 3.0 * dy - 2.0 * s0 - s1, s0 + s1 - 2.0 * dy


_FOLD_TOL = 1e-12
# 4 ulp of 1: the floor of a residual target, and of a bracket's width
_RESIDUAL_FLOOR = 4.0 * float(np.finfo(float).eps)


def _polish_folds(rho, b, B, phi):
    """The zeros of phi in the given fold cells (rows of b, B and phi,
    each with a sign change of phi), and B there: every fold refined at
    once by safeguarded Newton in log b, one kernel call per step for all
    of them (a fold or two, so the step itself is scalar arithmetic). The
    slope dphi/d(log b) = 2b*K0'/K0 + 2b^2*(K0''/K0 - (K0'/K0)^2) comes
    from the kernel's row of b^2*K0''. Each fold starts where the cubic
    Hermite of log B in log b across its cell (_hermite, slope phi at the
    nodes) is flat, the zero of its quadratic slope; near rho_c, where phi
    is near its minimum across the cell, this follows the curvature that
    a linear interpolation of phi misses. Where that start is not finite
    (phi not finite at an end) the fold starts at the cell's middle in
    log b, and a step that leaves the fold's bracket (its cell, narrowed
    by the signs of phi at the iterates) bisects it in log b instead. A
    fold stays where it is once |phi| <= 1e-12, or once its bracket is 4
    ulp wide, where the zero lies in it to rounding; B is taken from the
    call at which every fold is done. A non-finite phi raises
    EvaluationError at its b, and a fold still short after 100 steps
    NumericsError with its row as index."""
    x, neg, pos = [], [], []
    cubic = zip(*(a[:, 0].tolist() for a in _hermite(np.log(b), np.log(B), phi)))
    for (lo, hi), (phi_lo, _), (h, s0, c2, c3) in zip(b.tolist(), phi.tolist(), cubic):
        # the root in [0, 1] of the slope s0 + 2*c2*u + 3*c3*u^2, which
        # changes sign there: s0/q and q/(3*c3), neither of which cancels
        q = -(c2 + math.copysign(math.sqrt(max(c2 * c2 - 3.0 * c3 * s0, 0.0)), c2))
        u = next((u for u in (s0 / q if q else math.nan, q / (3.0 * c3) if c3 else math.nan)
                  if 0.0 <= u <= 1.0), math.nan)
        start = lo * math.exp(h * u)
        x.append(start if lo <= start <= hi else math.sqrt(lo * hi))
        neg.append(lo if phi_lo < 0 else hi)
        pos.append(hi if phi_lo < 0 else lo)
    for _ in range(100):
        K0, dK0, _, ddK0 = _boundary_kernels(x, rho, rows=4)
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


def _level_at(rho, beta, d):
    """r = d*(1+rho)*K0(b) - 1 = sqrt(B/beta) - 1, phi = 1 + 2b*K0'/K0 and
    K1 at b = beta*d^2, for lists of beta and d, as lists, from one kernel
    call: one Newton step of a root solve, on Python floats."""
    b = [x * y * y for x, y in zip(beta, d)]
    K0, dK0, K1 = (k.tolist() for k in _boundary_kernels(b, rho))
    scale = 1.0 + rho
    r = [x * scale * k - 1.0 for x, k in zip(d, K0)]
    phi = [1.0 + x * (2.0 * k1) / k0 for x, k0, k1 in zip(b, K0, dK0)]
    return r, phi, K1


def _moved_root(d, beta, phi, r, new):
    """The root d of B(b) = beta, with residual r and log slope phi at its
    evaluation, moved by its Newton step to B(b) = new: log d moves by
    ((1 - phi)/2*log(new/beta) - log1p(r))/phi, as log(1+r) has slope
    phi/2 in log b and d = sqrt(b/beta). The step is d*expm1 of that,
    added to d, with log(new/beta) as log1p(new/beta - 1) for new/beta in
    (1/2, 2) and a log difference elsewhere: so the rounding of 1 + r and
    of new/beta, which a power 1/phi would raise by that factor, does not
    reach d. A step that overflows, or a phi of 0, gives NaN."""
    x = (new - beta) / beta
    try:
        log_ratio = math.log1p(x) if -0.5 < x < 1.0 else math.log(new) - math.log(beta)
        return d + d * math.expm1(((0.5 - 0.5 * phi) * log_ratio - math.log1p(r)) / phi)
    except (OverflowError, ZeroDivisionError, ValueError):
        return math.nan


def _moved_roots(d, beta, phi, r, new):
    """The roots d at one beta, each moved to B(b) = new (_moved_root)."""
    return [_moved_root(x, beta, p, q, new) for x, p, q in zip(d, phi, r)]


def _level_roots(rho, beta, neg, pos, d):
    """Roots of B(b) = beta, one per monotone piece of B, by safeguarded
    Newton in log b from d, all pieces in one kernel call per step; beta,
    neg, pos and d hold one value per piece, as the pieces of several
    beta at one rho share the solve. The iterate is carried as
    d = sqrt(b/beta), exact where b underflows, and a piece as its ends
    neg and pos in d, where r = sqrt(B/beta) - 1 = d*(1+rho)*K0(b) - 1 is
    <= 0 and > 0; each step reads r, phi and K1 from one _level_at call,
    the evaluation that the phase tracer's joint Newton steps make too.
    The step is the root's move to its own level (_moved_root); one that
    leaves the bracket, or is NaN, bisects it in log d instead. A piece
    stays where it is while |r| <= _residual_target(beta), its own
    target, and the solve stops when all pieces meet theirs; returns d,
    K1, phi, r, neg and pos as lists. The steps run on Python floats, as
    numpy's cost per call outweighs the arithmetic on the few pieces of a
    solve (at most three per beta). A piece still short of its target
    after 60 steps raises NumericsError with the piece's position as
    index."""
    tol = _residual_target(np.asarray(beta, dtype=float))
    beta, neg, pos, d, tol = (np.asarray(x, dtype=float).tolist()
                              for x in (beta, neg, pos, d, tol))
    d = [min(max(x, min(lo, hi)), max(lo, hi)) for x, lo, hi in zip(d, neg, pos)]
    for _ in range(60):
        r, phi, K1 = _level_at(rho, beta, d)
        todo = []
        for i, r_i in enumerate(r):
            if r_i <= 0:
                neg[i] = d[i]
            else:
                pos[i] = d[i]
            if not abs(r_i) <= tol[i]:
                todo.append(i)
        if not todo:
            return d, K1, phi, r, neg, pos
        for i in todo:
            x = _moved_root(d[i], beta[i], phi[i], r[i], beta[i])
            d[i] = x if (x - neg[i]) * (x - pos[i]) < 0 else math.sqrt(neg[i] * pos[i])
    exc = NumericsError("the roots did not reach the residual target")
    exc.index = todo[0]
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
    a root of B(b) = beta, for a list of beta at one rho, from the fold
    scan (b, B and phi at its nodes) and each beta's fold ends b_f with
    their B values B_f, lists of four: each fold's cell nodes, or the
    polished fold twice (None without folds). Returns lists of each
    piece's position in beta, its ends neg (r <= 0) and pos (r > 0) in d,
    and a Newton start inside it, the pieces of each beta in increasing
    order.

    r <= 0 at b_min and r >= 0 at beta hold exactly (B_ends pins them),
    though where b is tiny r sits within rounding of zero at b_min; a
    piece whose ends lie on both sides of beta holds one root. A fold end
    outside [b_min, beta] ends no piece: it takes the side and the d of
    b_min or of beta, whichever it lies beyond. Each piece starts at its
    scan node with B nearest beta, a root at its own level B with r = 0,
    moved to beta (_moved_root), where that lands inside the piece; else
    at its outer end, where Newton does not overshoot. d = sqrt(b/beta)
    rises along the scan, so the nodes inside a piece are a run, found by
    bisection. At a subnormal beta, b/beta and B/beta overflow to inf at
    the nodes, which then lie in no piece."""
    d_min = rho / (1.0 + rho)
    shrink = (rho / (1.0 + rho)) ** 2
    col = np.array(beta)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        d_scan = np.sqrt(b / col).tolist()
        far = np.abs(np.log(B / col)).tolist()
    nodes = list(zip(np.sqrt(b / B).tolist(), B.tolist(), phi.tolist()))
    row, neg, pos, start = [], [], [], []
    for j, x in enumerate(beta):
        b_min = x * shrink
        ends, B_ends = [b_min, x], [0.0, math.inf]
        if b_f is not None:
            ends[1:1], B_ends[1:1] = b_f[j], B_f[j]
        above = [B_e > x and e >= b_min or e > x for e, B_e in zip(ends, B_ends)]
        d_ends = [d_min] + [d_min if e < b_min else math.sqrt(min(e, x) / x) for e in ends[1:]]
        for i in range(len(ends) - 1):
            if above[i] != above[i + 1]:
                lo, hi = d_ends[i], d_ends[i + 1]
                row.append(j)
                neg.append(hi if above[i] else lo)
                pos.append(lo if above[i] else hi)
                first = bisect.bisect_right(d_scan[j], lo)
                near = far[j][first:bisect.bisect_left(d_scan[j], hi)]
                k = first + near.index(min(near)) if near else None
                moved = math.nan if k is None else _moved_root(*nodes[k], 0.0, x)
                start.append(moved if lo < moved < hi else
                             lo if lo == d_min else hi if hi == 1.0 else math.sqrt(lo * hi))
    return row, neg, pos, start


def _row_roots(rho, betas, q=1):
    """The roots in d of B(b) = q*beta for every beta > 0 of a row at one
    rho: arrays of each root's owner (its position in betas), d, its last
    Newton bracket in d (neg, pos), and the last evaluated root with K1
    there, each beta's roots in increasing order. The folds do not depend
    on beta, so the row makes one fold scan, polishes each fold at most
    once (only if some beta reaches the B values at the nodes of its scan
    cell), and refines the roots of all beta in one Newton solve
    (_level_roots); the polish masks and the pieces are built on Python
    floats. Each root d is the evaluated one moved once more to its level
    (_moved_root), with no kernel call, where that stays inside its last
    bracket: this removes the error r/phi of the evaluation, large where
    phi is small, near rho_c. A NumericsError names
    its stage, rho, the beta at which it arose (the first beta of the row
    for the scan, the first that needs it for the polish) and q."""
    betas = np.asarray(betas, dtype=float)
    live = (betas > 0).nonzero()[0]
    if not live.size:
        return (live,) + (np.zeros(0),) * 5
    beta_q = q * betas[live]
    with _stage("fold search", rho, betas[live[0]], q):
        b, B, phi, cells = _folds(rho)
    b_f = B_f = None
    if cells is not None:
        # r keeps one sign on a fold's cell where beta lies below the
        # node values of the hump or above those of the dip: the two
        # nodes then end the pieces on either side; else the polished
        # fold ends both. A cell outside [b_min, beta] ends no piece
        shrink = (rho / (1.0 + rho)) ** 2
        (hump, dip), (B_hump, B_dip) = b[cells].tolist(), B[cells].tolist()
        polish = [(hump[0] < x and hump[1] > x * shrink and x >= min(B_hump),
                   dip[0] < x and dip[1] > x * shrink and x <= max(B_dip))
                  for x in beta_q.tolist()]
        folds = [any(own[f] for own in polish) for f in (0, 1)]
        # per fold, the (b, B) ends of its cell, then those of the
        # polished fold, picked by each beta's flag
        ends = [[(hump, B_hump)] * 2, [(dip, B_dip)] * 2]
        if any(folds):
            # the folds that some beta reaches, polished once for the row
            first = next(j for j, own in enumerate(polish) if any(own))
            with _stage("fold search", rho, betas[live[first]], q):
                x, B_x = _polish_folds(rho, b[cells[folds]], B[cells[folds]], phi[cells[folds]])
            for f, x_f, B_xf in zip(np.flatnonzero(folds).tolist(), x.tolist(), B_x.tolist()):
                ends[f][1] = [x_f, x_f], [B_xf, B_xf]
        b_f = [ends[0][own[0]][0] + ends[1][own[1]][0] for own in polish]
        B_f = [ends[0][own[0]][1] + ends[1][own[1]][1] for own in polish]
    row, neg, pos, start = _pieces(rho, beta_q.tolist(), b, B, phi, b_f, B_f)
    owner, beta_q = live[row], beta_q[row].tolist()
    with _stage("root refinement", rho, betas[owner], q):
        at, K1, phi, r, neg, pos = _level_roots(rho, beta_q, neg, pos, start)
    d = [x if (x - lo) * (x - hi) <= 0 else y for y, x, lo, hi
         in zip(at, map(_moved_root, at, beta_q, phi, r, beta_q), neg, pos)]
    return owner, *map(np.asarray, (d, neg, pos, at, K1))


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
    pieces are refined together by Newton in log b (_level_roots) to
    |r| <= _residual_target(beta), the 1e-10 residual on big_F where
    double precision holds it, and leave the solve after one more Newton
    move. This is the one-element row of _row_roots, the
    solve that lyapunov and the CLI share. Logits follow from
    a = inverse_softplus(b + log(1+rho)).
    """
    _check_q1(params)
    if not params.beta > 0:
        raise DomainError("solve_h1 needs beta > 0")
    rho, beta = params.rho, params.beta
    _, d, neg, pos, _, _ = _row_roots(rho, [beta])
    a, a_lo, a_hi = inverse_softplus(
        beta * np.array([d, np.minimum(neg, pos), np.maximum(neg, pos)]) ** 2 + math.log1p(rho))
    return RootSet(roots=a.tolist(), brackets=list(zip(a_lo.tolist(), a_hi.tolist())),
                   d=d.tolist())


def lambda_of_h1(h1, params):
    """Branch value as a function of the boundary logit:
    log(1+e^{h1}) - beta^{-1/2} * integral over x in [log rho, h1] of
    sqrt(log((1+e^{h1})/(1+e^x))).

    The substitution log((1+e^{h1})/(1+e^x)) = b*(1 - u^2), with
    b = log((1+e^{h1})/(1+rho)), turns the integral into
    2*b^(3/2)*(1+rho)*K1(b), so the value is
    softplus(h1) - 2*(1+rho)*b*sqrt(b/beta)*correction_integral(b, rho),
    the K1 kernel of lambda_of_d at b = beta*d^2. h1 must be finite and
    at least log(rho).
    """
    _check_q1(params)
    if not params.beta > 0:
        raise DomainError("lambda_of_h1 needs beta > 0")
    rho, lr = params.rho, math.log(params.rho)
    if not lr <= h1 < math.inf:
        raise DomainError("lambda_of_h1 needs a finite h1 >= log(rho)")
    top = float(softplus(h1))
    b = float(softplus_diff(h1, lr))
    if b == 0.0:
        return top
    # sqrt(b)/sqrt(beta), not sqrt(b/beta), which overflows at a subnormal beta
    scale = b * math.sqrt(b) / math.sqrt(params.beta)
    return top - 2.0 * (1.0 + rho) * scale * correction_integral(b, rho)


def d_of_h1(h1, params):
    """Mean occupation of the branch with boundary logit h1:
    sqrt(log((1+e^{h1})/(1+rho)) / beta), for a finite h1 >= log(rho)."""
    _check_q1(params)
    if not params.beta > 0:
        raise DomainError("d_of_h1 needs beta > 0")
    lr = math.log(params.rho)
    if not lr <= h1 < math.inf:
        raise DomainError("d_of_h1 needs a finite h1 >= log(rho)")
    L = float(softplus_diff(h1, lr))
    return math.sqrt(max(L, 0.0) / params.beta)


def correction_integral(arg, rho):
    """Smooth kernel integral over y in [0, 1] of
    y^2 / (1 + rho - exp(arg*(y^2 - 1))), the K1 of the kernel family.

    This is the cubic-order correction in the mean-parameterized branch
    value; its denominator stays >= rho on the whole interval. The
    large-arg behavior is pinned between closed polylog bounds (see the
    asymptotics checks in the phase module). arg must be finite and
    nonnegative.
    """
    _check_rho(rho)
    if not 0 <= arg < math.inf:
        raise DomainError("correction_integral needs a finite arg >= 0")
    return float(_boundary_kernels(arg, rho)[2][0])


def lambda_of_d(d, params):
    """Branch value as a function of the mean occupation d in (0, 1):
    beta*d^2 + log(1+rho) - 2*beta*(1+rho)*d^3 * correction_integral(beta*d^2).

    lambda_of_h1 composed with the d <-> h1 map, on the same K1 kernel;
    the two differ by rounding only.
    """
    _check_q1(params)
    if not (0.0 < d < 1.0):
        raise DomainError("lambda_of_d needs d in (0, 1)")
    rho, beta = params.rho, params.beta
    d = np.array([d])
    return float(_branch_values(d, rho, beta, _boundary_kernels(beta * d * d, rho)[2])[0])


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
    come from the K1 kernel at the last evaluated roots. This is the
    one-element row of _solve_row, which solves many beta at one rho with
    one fold scan and one Newton solve. A NumericsError names the stage ("fold
    search", "root refinement" or "branch values") and the (rho, beta)
    at which it arose; a value outside its rigorous bounds raises
    AccuracyError under the stage "bounds" (_select).
    """
    _check_q1(params)
    return _solve_row(params.rho, [params.beta])[0]


def _solve_row(rho, betas, q=1):
    """lyapunov at (rho, q*beta) for every beta of a row at one rho, as a
    list of LyapunovResult in the order of betas. The roots of all beta
    come from one _row_roots solve, and their branch values from the K1
    of its last Newton step, at the evaluated roots: the values are
    stationary in d, so the last move of d does not reach them. A
    NumericsError names the stage, rho, the beta of the element at which
    it arose, and q (in the message where q > 1)."""
    betas = np.asarray(betas, dtype=float)
    owner, d, _, _, at, K1 = _row_roots(rho, betas, q)
    found = [[] for _ in betas]
    if d.size:
        beta_q = q * betas[owner]
        with _stage("branch values", rho, betas[owner], q):
            values = _branch_values(at, rho, beta_q, K1)
        h1 = inverse_softplus(beta_q * d ** 2 + math.log1p(rho))
        for j, a, x, v in zip(owner.tolist(), h1.tolist(), d.tolist(), values.tolist()):
            found[j].append(Branch(h1=a, d=x, lambda_value=v))
    return [_select(rho, beta, branches, q) if beta > 0 else _beta_zero(rho)
            for beta, branches in zip(betas.tolist(), found)]


# allowance of the bound guard, relative to the largest term of the bounds
_BOUNDS_RTOL = 8.0 * float(np.finfo(float).eps)


def _select(rho, beta, branches, q=1):
    """The result at (rho, q*beta) from its branches: the best value, the
    larger-d branch where two values tie to _TIE_RTOL. The value must lie
    within its rigorous bounds, max(log(1+rho), q*beta/3 + log(rho)) below
    (the constant profile, and the sandwich) and q*beta/3 + log(1+rho)
    above, to tol = 8 eps times the largest of q*beta, |log(rho)| and the
    value; else AccuracyError, with the value as best_estimate and tol as
    error_bound, names the stage "bounds" and (rho, beta, q)."""
    beta_q = q * beta
    best_value = max(b.lambda_value for b in branches)
    tie_tol = _TIE_RTOL * max(1.0, abs(best_value))
    contenders = [b for b in branches if best_value - b.lambda_value <= tie_tol]
    selected = max(contenders, key=lambda b: b.d)
    lam = selected.lambda_value
    lr, l1 = math.log(rho), math.log1p(rho)
    tol = _BOUNDS_RTOL * max(beta_q, abs(lr), abs(lam))
    lower, upper = max(l1, beta_q / 3.0 + lr), beta_q / 3.0 + l1
    if not lower - tol <= lam <= upper + tol:
        with _stage("bounds", rho, beta, q):
            raise AccuracyError("lambda=%r lies outside its bounds [%r, %r]" % (lam, lower, upper),
                                best_estimate=lam, error_bound=tol)
    return LyapunovResult(
        lambda_=lam,
        selected=selected,
        all_branches=branches,
        dlambda_drho=selected.d / rho,
        dlambda_dbeta=0.5 * (beta_q * selected.d ** 2 + l1 - lam) / beta_q,
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
    h'(y) = 2*sqrt(beta) * sqrt(log((1+e^{h1})/(1+e^h))), h(0) = log rho.
    In the boundary kernel's variable v = 1 - u, with
    b = log((1+e^{h1})/(1+rho)) and D = rho - expm1(-b*v*(2-v)), it is
    h = inverse_softplus(log1p(rho) + b*v*(2-v)) at y = d*(1+rho) times
    the integral of 1/D over [0, v]: the running K0, which is 1 at v = 1.
    1/D is summed on the kernel's own panels 0, w, 2w, ..., 1/2, 1, graded
    into its layer at v = 0, and y is the running sum over its total, so
    the pinned endpoints agree with their neighbours. Each node's v takes
    6 Newton steps inside its panel from linear interpolation there, with
    the partial integral on the panel's 15 Gauss-Kronrod nodes, each step
    clipped to the panel. b = 0 (h1 = log(rho), where d = rho, or b
    underflows) gives the flat profile. At a subnormal rho the layer is
    subnormal in v, and h keeps fewer digits near y = 0. The energy is inf
    where it overflows.
    """
    _check_q1(params)
    if nodes < 2:
        raise DomainError("profile needs at least 2 nodes")
    rho, beta = params.rho, params.beta
    if not beta > 0:
        raise DomainError("profile reconstruction needs beta > 0")
    h1 = branch.h1
    lr = math.log(rho)
    if h1 < lr:
        raise DomainError("branch boundary logit must be at least log(rho)")
    y = np.linspace(0.0, 1.0, nodes)
    # a product of Python floats, which overflows to inf with no warning
    energy = 2.0 * beta * float(softplus(h1))
    b = float(softplus_diff(h1, lr))
    if b == 0.0:
        h = np.full(nodes, lr)
    else:
        doublings = _kernel_doublings(b, rho)
        edges = np.concatenate(([0.0], np.ldexp(1.0, np.arange(-doublings, 1))))
        # 1/D reaches 1/rho, past the float range at a subnormal rho; y is
        # a ratio, so the integrand carries a factor that keeps it in range
        scale = min(1.0, rho * 2.0 ** 1000)

        def inv_D(v):
            return scale / (rho - np.expm1(-b * v * (2.0 - v)))

        def partial(lo, v):
            width = v - lo
            return width * (inv_D(lo[:, None] + width[:, None] * _KERNEL_FIRST)
                            @ _KERNEL_WEIGHTS[:, 0])

        cum = np.concatenate(([0.0], np.cumsum(partial(edges[:-1], edges[1:]))))
        targets = cum[-1] * y
        j = np.minimum(np.searchsorted(cum, targets, side="right") - 1, doublings)
        lo, hi = edges[j], edges[j + 1]
        v = lo + (targets - cum[j]) / (cum[j + 1] - cum[j]) * (hi - lo)
        for _ in range(6):
            v = np.clip(v - (cum[j] + partial(lo, v) - targets) / inv_D(v), lo, hi)
        h = inverse_softplus(math.log1p(rho) + b * v * (2.0 - v))
    h[0], h[-1] = lr, h1
    return OptimizerProfile(y, h, expit(h), energy)

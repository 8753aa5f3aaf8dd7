"""Shared numerical kernels.

Five families of tools live here: adaptive panel quadrature with an
exact substitution for integrands that blow up like 1/sqrt(y) at the
left endpoint, a fixed graded rule for the kernel family of the
boundary equation (the one rule behind big_F, big_F_scan and every
solver, which ask it for K0 alone, for K0, K1 and dK0/db, or for those
and b^2*d^2K0/db^2), real polylogarithms of order 2 and 3, a
bisection on a predicate down to a relative width, and the logistic
family: softplus, its inverse and differences, expit, and a log-sum-exp.
The package needs no SciPy for any of them. The Gauss-Legendre tables
are SciPy's special.roots_legendre(7) and (15) written out as float
literals, each the same bit for bit (numpy's leggauss differs at 2 of
7 and 4 of 15 nodes, and at every weight). expit has two contracts: a
scalar goes through math.exp, the libm call SciPy's expit makes, and
matches it bit for bit; an array goes through np.exp, whose vector loop
can be 1 ulp off libm, which leaves each entry within 3 eps relative of
SciPy's. The log-sum-exp is SciPy's reduction from 1.15 on, bit for bit.
Everything is a pure function. The only shared state is a bounded
cache of boundary-kernel panel rules, one per panel count; its arrays
are built whole before they are published and are read-only, and the
cache itself is thread-safe, so concurrent use is safe. A race can only
build the same rule twice.

Integrands passed to the quadrature routines must accept numpy arrays
and return an array of the same shape.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError, EvaluationError, NumericsError

__all__ = [
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "ACCURATE_QUADRATURE",
    "integrate_adaptive",
    "integrate_inverse_sqrt_singularity",
    "polylog",
    "softplus",
    "inverse_softplus",
    "softplus_diff",
]

# Gauss-Legendre nodes and weights on [-1, 1]: SciPy's
# special.roots_legendre(7) and (15), each literal's repr the same as
# SciPy's value
_NODES7 = np.array([
    -0.9491079123427584, -0.7415311855993945, -0.4058451513773972, 0.0,
    0.4058451513773972, 0.7415311855993945, 0.9491079123427584])
_WEIGHTS7 = np.array([
    0.12948496616886992, 0.2797053914892766, 0.38183005050511876, 0.4179591836734691,
    0.38183005050511876, 0.2797053914892766, 0.12948496616886992])
_NODES15 = np.array([
    -0.9879925180204854, -0.937273392400706, -0.8482065834104272, -0.7244177313601701,
    -0.5709721726085388, -0.3941513470775634, -0.20119409399743454, 0.0,
    0.20119409399743454, 0.3941513470775634, 0.5709721726085388, 0.7244177313601701,
    0.8482065834104272, 0.937273392400706, 0.9879925180204854])
_WEIGHTS15 = np.array([
    0.030753241996118154, 0.07036604748810715, 0.10715922046717176, 0.13957067792615432,
    0.16626920581699411, 0.18616100001556224, 0.19843148532711163, 0.20257824192556137,
    0.19843148532711163, 0.18616100001556224, 0.16626920581699411, 0.13957067792615432,
    0.10715922046717176, 0.07036604748810715, 0.030753241996118154])

_ZETA3 = 1.2020569031595942854
_PI2_6 = math.pi ** 2 / 6.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance budget for the adaptive integrators."""

    relative_tolerance: float = 1e-9
    absolute_tolerance: float = 1e-12
    max_subdivisions: int = 50

    def __post_init__(self):
        if not (self.relative_tolerance > 0 and self.absolute_tolerance > 0):
            raise DomainError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")


DEFAULT_QUADRATURE = QuadratureSpec()
# tighter budget used internally where root residuals at 1e-10 are needed
ACCURATE_QUADRATURE = QuadratureSpec(1e-12, 1e-14, 60)


def integrate_adaptive(f, lo, hi, spec=None):
    """Integrate a smooth vectorized integrand over [lo, hi].

    Each panel is estimated with 7- and 15-point Gauss-Legendre rules;
    the discrepancy serves as the local error. Panels whose error
    exceeds their width-proportional share of the global tolerance are
    halved, up to spec.max_subdivisions rounds of splitting. Nodes are
    strictly interior, so endpoint values of f are never requested.
    """
    spec = spec or DEFAULT_QUADRATURE
    if hi == lo:
        return 0.0
    if hi < lo:
        raise DomainError("integrate_adaptive needs lo <= hi")
    width = hi - lo
    los = np.array([lo], dtype=float)
    his = np.array([hi], dtype=float)
    done_sum = 0.0
    done_err = 0.0
    for _ in range(spec.max_subdivisions):
        mid = 0.5 * (los + his)
        half = 0.5 * (his - los)
        x7 = mid[:, None] + half[:, None] * _NODES7
        x15 = mid[:, None] + half[:, None] * _NODES15
        y7 = np.asarray(f(x7), dtype=float)
        y15 = np.asarray(f(x15), dtype=float)
        if not np.isfinite(y15).all():
            bad = np.argwhere(~np.isfinite(y15))[0]
            raise EvaluationError(
                "integrand returned a non-finite value at x=%r"
                % float(x15[tuple(bad)]),
                abscissa=float(x15[tuple(bad)]),
            )
        i7 = half * (y7 * _WEIGHTS7).sum(axis=1)
        i15 = half * (y15 * _WEIGHTS15).sum(axis=1)
        err = np.abs(i15 - i7)
        total = done_sum + i15.sum()
        tol = max(spec.absolute_tolerance, spec.relative_tolerance * abs(total))
        # global stopping rule: without it, panels near a steep feature
        # stall at the abscissa-rounding noise floor while their
        # width-proportional share keeps shrinking, and the bad set
        # doubles every round
        if done_err + err.sum() <= tol:
            return float(total)
        ok = err <= tol * (2.0 * half) / width
        done_sum += i15[ok].sum()
        done_err += err[ok].sum()
        if ok.all():
            return done_sum
        rem_sum = i15[~ok].sum()
        rem_err = err[~ok].sum()
        mid_bad = mid[~ok]
        lo_bad = los[~ok]
        hi_bad = his[~ok]
        los = np.concatenate([lo_bad, mid_bad])
        his = np.concatenate([mid_bad, hi_bad])
        if los.size > 32768:
            raise AccuracyError(
                "adaptive quadrature exceeded the panel budget",
                best_estimate=done_sum + rem_sum,
                error_bound=done_err + rem_err,
            )
    raise AccuracyError(
        "adaptive quadrature did not converge within %d subdivision rounds"
        % spec.max_subdivisions,
        best_estimate=done_sum + rem_sum,
        error_bound=done_err + rem_err,
    )


def integrate_inverse_sqrt_singularity(f, U, spec=None):
    """Integral of f over (0, U] where f(y)*sqrt(y) stays bounded.

    The substitution u = sqrt(y) turns the 1/sqrt(y) endpoint blowup
    into a smooth integrand 2*u*f(u^2), which then goes through the
    adaptive panel scheme. U = 0 gives 0.
    """
    if U < 0:
        raise DomainError("upper limit must be nonnegative")
    if U == 0:
        return 0.0

    def transformed(u):
        return 2.0 * u * f(u * u)

    return integrate_adaptive(transformed, 0.0, math.sqrt(U), spec)


# One panel of the boundary-kernel rule: the 15-point nodes, then the
# 7-point ones, on [0, 1] (the first panel) and on [1, 2] (the others,
# which double in width); weight column 0 is the 15-point rule, column 1
# the 7-point rule, each for a panel of half-width 1/2.
_KERNEL_NODES = np.concatenate((_NODES15, _NODES7))
_KERNEL_FIRST = 0.5 + 0.5 * _KERNEL_NODES
_KERNEL_DOUBLING = 1.5 + 0.5 * _KERNEL_NODES
_KERNEL_WEIGHTS = 0.5 * np.array(
    [np.append(_WEIGHTS15, np.zeros(7)), np.append(np.zeros(15), _WEIGHTS7)]
).T


_SUBNORMAL = float(np.finfo(float).smallest_subnormal)


@functools.lru_cache(maxsize=64)
def _kernel_rule(doublings):
    """Nodes and weights of the boundary-kernel rule with `doublings`
    doubling panels: v*(2-v) and (1-v)^2 at the nodes v, and the weight
    matrix (15-point column, then 7-point column). The arrays are
    read-only, as every caller shares them."""
    # panel p spans [0, w] for p = 0 and [scale, 2*scale] after it
    scale = np.ldexp(1.0, np.arange(-doublings - 1, 0))
    scale[0] = scale[1]
    v = np.multiply.outer(scale, _KERNEL_DOUBLING)
    v[0] = scale[0] * _KERNEL_FIRST
    v = v.ravel()
    rule = (v * (2.0 - v), (1.0 - v) ** 2,
            np.multiply.outer(scale, _KERNEL_WEIGHTS).reshape(-1, 2))
    for arr in rule:
        arr.flags.writeable = False
    return rule


def _boundary_kernels(b, rho, rows=3):
    """The leading `rows` of K0, K1, dK0/db and b^2*d^2K0/db^2 of the
    boundary-equation family at an array of b, as a tuple of arrays:
    rows=1 gives K0 alone, 3 adds K1 and dK0/db, 4 the scaled second
    derivative.

    K_m(b; rho) = integral over u in [0, 1] of u^(2m) / (rho - expm1(b*(u^2 - 1))).
    In v = 1 - u, with w = v*(2-v), E = e^(-b*w) and the denominator
    D = rho - expm1(-b*w), dK0/db = -integral of w*E/D^2 and
    d^2K0/db^2 = integral of w^2*E*(D + 2E)/D^3. Near b = rho the second
    derivative is of order 1/rho^3, past the float range for rho below
    about 1e-103; b^2 times it stays within range wherever dK0/db does
    (rho above about 1e-154), and it is what Newton on phi needs. K0 alone
    stays within range for every positive rho. The exponent -b*w keeps
    its digits where D falls to rho at v = 0; there the integrand has a
    layer of height 1/rho and width about rho/(2b). A 15-point
    Gauss-Legendre rule on panels 0, w, 2w, 4w, ..., 1 resolves it, with w
    the largest power of two at most min(min(rho, 1)/(2*b_max), 1/2). One
    rule serves the whole call, so the values are smooth in b; a rule
    from a larger b_max moves them by rounding only (at most 4.4e-16
    relative in K0, for rho from 1e-12 to 0.5). The 7-point rule on the
    same panels is the embedded check of every row returned:
    AccuracyError if the two differ by more than 1e-6 relative and by more
    than subnormal rounding, with the position of the first such b as its
    index. Each row is computed only where asked. The rows of all b share
    one matrix product (BLAS gemm), whose sums can round differently with
    its row count, so a value may differ in the last bits with the number
    of rows asked and with the other b of the call.
    """
    b = np.asarray(b, dtype=float).reshape(-1)
    b_max = float(b.max())
    doublings = 1
    # the fold scan's nodes overflow to inf for rho below about 1e-307
    if b_max == math.inf:
        exc = NumericsError("kernel argument b overflowed to inf")
        exc.index = int(np.argmax(b))
        raise exc
    if b_max > 0.0:
        # a difference of logs, as b_max/rho can overflow, and 2*b_max too
        doublings = max(1, math.ceil(math.log2(b_max) + 1.0 - math.log2(min(rho, 1.0))))
    layer, u2, weights = _kernel_rule(doublings)
    # 1/D, u^2/D, w*E/D^2 (the integrand of -dK0/db) and b^2 times the
    # integrand of the second derivative, each a row block of one buffer
    n = layer.size
    buf = np.empty((b.size, rows, n))
    inv = buf[:, 0]
    np.multiply.outer(b, -layer, out=inv)
    np.expm1(inv, out=inv)
    if rows > 2:
        slope = buf[:, 2]
        np.add(inv, 1.0, out=slope)
    np.subtract(rho, inv, out=inv)
    np.reciprocal(inv, out=inv)
    if rows > 1:
        np.multiply(inv, u2, out=buf[:, 1])
    if rows > 3:
        # b*w*(1 + 2E/D), at most about 5 where b is near rho, times
        # b*w*E/D^2 below
        curv = buf[:, 3]
        np.multiply(slope, inv, out=curv)
        curv *= 2.0
        curv += 1.0
        curv *= np.multiply.outer(b, layer)
    if rows > 2:
        slope *= layer
        slope *= inv
        slope *= inv
    if rows > 3:
        curv *= slope
        curv *= b[:, None]
    vals = (buf.reshape(-1, n) @ weights).reshape(b.size, rows, 2)
    if rows > 2:
        vals[:, 2] *= -1.0
    fine = vals[:, :, 0]
    err = np.abs(fine - vals[:, :, 1])
    bad = err > 1e-6 * np.abs(fine)
    if bad.any():
        # dK0 falls to about -1/(2b^2), subnormal for b from about 1e154
        # on; each node's term then rounds to a multiple of the smallest
        # subnormal, and the two rules may differ by one such step per
        # node without any layer being unresolved
        bad &= err > layer.size * _SUBNORMAL
        if bad.any():
            i = tuple(np.argwhere(bad)[0])
            exc = AccuracyError(
                "boundary kernel rules disagree at b=%r" % float(b[i[0]]),
                best_estimate=float(fine[i]),
                error_bound=float(err[i]),
            )
            exc.index = int(i[0])
            raise exc
    return tuple(fine.T)


def _power_series(z, p):
    # sum z^k / k^p, |z| < 1 and comfortably away from 1
    total = 0.0
    zk = z
    for k in range(1, 600):
        term = zk / k ** p
        total += term
        if abs(term) < 1e-18 * max(abs(total), 1e-30):
            break
        zk *= z
    return total


def polylog(order, z):
    """Real polylogarithm Li_order(z) for order in {2, 3}, z in [0, 1].

    Direct series away from 1; the standard reflection (order 2) and
    Landen-type (order 3) identities close the gap near z = 1. Good to
    well past 10 significant digits everywhere on the domain.
    """
    if order not in (2, 3):
        raise DomainError("polylog order must be 2 or 3")
    if not (0.0 <= z <= 1.0):
        raise DomainError("polylog argument must lie in [0, 1]")
    if order == 2:
        if z == 1.0:
            return _PI2_6
        if z <= 0.5:
            return _power_series(z, 2)
        w = 1.0 - z
        return _PI2_6 - math.log(z) * math.log(w) - _power_series(w, 2)
    if z == 1.0:
        return _ZETA3
    if z <= 0.8:
        return _power_series(z, 3)
    w = 1.0 - z
    v = 1.0 - 1.0 / z  # in (-0.25, 0) for z in (0.8, 1)
    lz = math.log(z)
    return (
        _ZETA3
        + lz ** 3 / 6.0
        + _PI2_6 * lz
        - 0.5 * lz * lz * math.log(w)
        - _power_series(w, 3)
        - _power_series(v, 3)
    )


def _bisect(below, lo, hi, rel):
    """Halve [lo, hi] on below(mid) until hi - lo <= rel*lo."""
    while hi - lo > rel * lo:
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def expit(x):
    """Logistic function 1/(1 + e^-x), in the form of SciPy's special.expit.

    A 0-d input gives a Python float through math.exp, the libm call
    SciPy makes, so the value is SciPy's bit for bit; where e^-x
    overflows (x below about -709.78) it is 0.0, as in SciPy. An array
    goes through np.exp, whose vector loop can differ from libm by 1 ulp;
    through the sum and the division that leaves each entry within 3 eps
    relative of SciPy's. Its overflow gives 0.0 with no warning."""
    if isinstance(x, float) or np.ndim(x) == 0:
        try:
            return 1.0 / (1.0 + math.exp(-float(x)))
        except OverflowError:
            return 0.0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def _logsumexp(a):
    """log(sum(exp(a))) over a 1-d array whose maximum is not -inf or nan,
    as SciPy's special.logsumexp computes it from SciPy 1.15 on, bit for
    bit: the k entries equal to the maximum m leave the sum s of
    exp(a - m), and the value is log1p(s/k) + log(k) + m."""
    a = np.asarray(a, dtype=float)
    top = a.max()
    at_top = a == top
    k = np.float64(np.count_nonzero(at_top))
    s = np.exp(np.where(at_top, -np.inf, a) - top).sum()
    return float(np.log1p(s / k) + np.log(k) + top)


def softplus(x):
    """log(1 + e^x), overflow-safe for large |x|."""
    return np.logaddexp(0.0, x)


def inverse_softplus(y):
    """Solve log(1 + e^x) = y for x; needs y > 0.

    x = log(expm1(y)) = y + log(-expm1(-y)): expm1 keeps every digit of
    1 - e^-y at small y, where x tends to log(y)."""
    if np.any(np.asarray(y) <= 0):
        raise DomainError("inverse_softplus needs y > 0")
    return y + np.log(-np.expm1(-np.asarray(y, dtype=float)))


def softplus_diff(x_hi, x_lo):
    """log((1 + e^{x_hi}) / (1 + e^{x_lo})) without cancellation.

    Accurate when x_hi is close to x_lo (where the naive softplus
    difference loses digits) and overflow-safe when either argument is
    large. Broadcasts like a numpy ufunc.
    """
    x_hi = np.asarray(x_hi, dtype=float)
    x_lo = np.asarray(x_lo, dtype=float)
    gap = x_hi - x_lo
    stable = np.log1p(expit(x_lo) * np.expm1(np.minimum(gap, 30.0)))
    direct = softplus(x_hi) - softplus(x_lo)
    return np.where(gap < 30.0, stable, direct)

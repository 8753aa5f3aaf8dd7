"""Shared numerical kernels.

Four families of tools live here: a fixed graded rule for the kernel
family of the boundary equation (the one rule behind big_F, big_F_scan,
correction_integral and every solver, which ask it for K0 alone, for K0
and dK0/db, for those and K1, or for all three and b^2*d^2K0/db^2, and
which gives K1(b2) - K1(b1) node by node), real polylogarithms of order
2 and 3, a bisection on a predicate down to a relative width, and the
logistic family: softplus, its inverse and differences, expit, and a
log-sum-exp.
The package needs no SciPy for any of them. Every quadrature, the
profile rebuild on the kernel's panels included, runs on one 15-point
Gauss-Kronrod table, whose 7 Gauss nodes and weights are
SciPy's special.roots_legendre(7) bit for bit (numpy's leggauss differs
at 2 of the 7 nodes, and at every weight). expit has two contracts: a
scalar goes through math.exp, the libm call SciPy's expit makes, and
matches it bit for bit; an array goes through np.exp, whose vector loop
can be 1 ulp off libm, which leaves each entry within 3 eps relative of
SciPy's. The log-sum-exp is SciPy's reduction from 1.15 on, bit for bit.
Everything is a pure function. The only shared state is a bounded
cache of boundary-kernel panel rules, one per panel count; its arrays
are built whole before they are published and are read-only, and the
cache itself is thread-safe, so concurrent use is safe. A race can only
build the same rule twice.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .errors import AccuracyError, DomainError, NumericsError

__all__ = [
    "polylog",
    "softplus",
    "inverse_softplus",
    "softplus_diff",
]

# Gauss-Legendre nodes and weights on [-1, 1]: SciPy's
# special.roots_legendre(7), each literal's repr the same as SciPy's value
_NODES7 = np.array([
    -0.9491079123427584, -0.7415311855993945, -0.4058451513773972, 0.0,
    0.4058451513773972, 0.7415311855993945, 0.9491079123427584])
_WEIGHTS7 = np.array([
    0.12948496616886992, 0.2797053914892766, 0.38183005050511876, 0.4179591836734691,
    0.38183005050511876, 0.2797053914892766, 0.12948496616886992])
# The 15-point Gauss-Kronrod rule (QUADPACK's qk15): its odd nodes are
# _NODES7 bit for bit, every other entry is the double nearest its 33-digit
# value, and _G7_WEIGHTS, _WEIGHTS7 at the odd nodes, is its embedded check
_K15_NODES = np.array([
    -0.9914553711208126, -0.9491079123427584, -0.8648644233597691, -0.7415311855993945,
    -0.5860872354676911, -0.4058451513773972, -0.20778495500789848, 0.0,
    0.20778495500789848, 0.4058451513773972, 0.5860872354676911, 0.7415311855993945,
    0.8648644233597691, 0.9491079123427584, 0.9914553711208126])
_K15_WEIGHTS = np.array([
    0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
    0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782,
    0.20443294007529889, 0.19035057806478542, 0.1690047266392679, 0.14065325971552592,
    0.10479001032225019, 0.06309209262997856, 0.022935322010529224])
_G7_WEIGHTS = np.zeros(15)
_G7_WEIGHTS[1::2] = _WEIGHTS7

_ZETA3 = 1.2020569031595942854
_PI2_6 = math.pi ** 2 / 6.0


# One panel of the boundary-kernel rule: the K15 nodes on [0, 1] (the first
# panel) and on [1, 2] (the others, which double in width); weight column 0
# is the K15 rule, column 1 its G7 check, each for half-width 1/2.
_KERNEL_FIRST = 0.5 + 0.5 * _K15_NODES
_KERNEL_DOUBLING = 1.5 + 0.5 * _K15_NODES
_KERNEL_WEIGHTS = 0.5 * np.array([_K15_WEIGHTS, _G7_WEIGHTS]).T


_SUBNORMAL = float(np.finfo(float).smallest_subnormal)


@functools.lru_cache(maxsize=64)
def _kernel_rule(doublings):
    """Nodes and weights of the boundary-kernel rule with `doublings`
    doubling panels: -v*(2-v) and (1-v)^2 at the nodes v, and the weight
    matrix (K15 column, then G7 column). The arrays are
    read-only, as every caller shares them."""
    # panel p spans [0, w] for p = 0 and [scale, 2*scale] after it
    scale = np.ldexp(1.0, np.arange(-doublings - 1, 0))
    scale[0] = scale[1]
    v = np.multiply.outer(scale, _KERNEL_DOUBLING)
    v[0] = scale[0] * _KERNEL_FIRST
    v = v.ravel()
    rule = (-(v * (2.0 - v)), (1.0 - v) ** 2,
            np.multiply.outer(scale, _KERNEL_WEIGHTS).reshape(-1, 2))
    for arr in rule:
        arr.flags.writeable = False
    return rule


def _kernel_doublings(b_max, rho):
    """Doubling panels of the boundary-kernel rule for every b <= b_max, so
    that w = 2^-doublings (see _boundary_kernels); 1 where b_max <= 0."""
    if not b_max > 0.0:
        return 1
    # a difference of logs, as b_max/rho can overflow, and 2*b_max too
    return max(1, math.ceil(math.log2(b_max) + 1.0 - math.log2(min(rho, 1.0))))


def _boundary_kernels(b, rho, rows=3):
    """The leading `rows` of K0, dK0/db, K1 and b^2*d^2K0/db^2 of the
    boundary-equation family at an array of b, as a tuple of arrays in
    that order: rows=1 gives K0 alone, 2 adds dK0/db (all the fold scan
    needs), 3 adds K1 (all a root solve needs), 4 the scaled second
    derivative (the fold polish).

    K_m(b; rho) = integral over u in [0, 1] of u^(2m) / (rho - expm1(b*(u^2 - 1))).
    In v = 1 - u, with w = v*(2-v), E = e^(-b*w) and the denominator
    D = rho - expm1(-b*w), dK0/db = -integral of w*E/D^2 and
    d^2K0/db^2 = integral of w^2*E*(D + 2E)/D^3. Near b = rho the second
    derivative is of order 1/rho^3, past the float range for rho below
    about 1e-103; b^2 times it stays within range wherever dK0/db does
    (rho above about 1e-154), and it is what Newton on phi needs. K0 alone
    stays within range for every positive rho. The exponent -b*w keeps
    its digits where D falls to rho at v = 0; there the integrand has a
    layer of height 1/rho and width about rho/(2b). The 15-point
    Gauss-Kronrod rule on panels 0, w, 2w, 4w, ..., 1 resolves it, with w
    the largest power of two at most min(min(rho, 1)/(2*b_max), 1/2). One
    rule serves the whole call, so the values are smooth in b; a rule
    from a larger b_max moves them by rounding only (at most 7.2e-16
    relative in K0, for rho from 1e-12 to 0.5). The 7-point Gauss rule on
    the odd nodes is the embedded check of every row returned:
    AccuracyError if the two differ by more than 1e-6 relative and by more
    than subnormal rounding, with the position of the first such b as its
    index. Each row is computed only where asked. The rows of all b share
    one matrix product (BLAS gemm), whose sums can round differently with
    its row count, so a value may differ in the last bits with the number
    of rows asked and with the other b of the call.
    """
    b = np.asarray(b, dtype=float).reshape(-1)
    b_max = float(b.max())
    # the fold scan's nodes overflow to inf for rho below about 1e-307
    if b_max == math.inf:
        exc = NumericsError("kernel argument b overflowed to inf")
        exc.index = int(np.argmax(b))
        raise exc
    neg_w, u2, weights = _kernel_rule(_kernel_doublings(b_max, rho))
    # 1/D, u^2/D, -w*E/D^2 (the integrand of dK0/db) and b^2 times the
    # integrand of the second derivative, each a row of the gemm's matrix;
    # rows=2 leaves out u^2/D. The gemm's sum for a row can change with its
    # place in the matrix where the row count is not a multiple of the BLAS
    # block, so rows 3 and 4 (the solvers' calls at a few b) interleave the
    # rows of each b, in this order. rows=1 and 2 lay each row out whole,
    # so the steps below run on contiguous blocks: the fold scan's 32
    # points take half the time, and their K0 and dK0/db keep the bits of
    # a three-row call (checked for rho down to 1e-100; further down, past
    # about 5000 nodes, the blocking can round them differently)
    n = neg_w.size
    if rows < 3:
        raw = np.empty((rows, b.size, n))
        buf = raw.transpose(1, 0, 2)
    else:
        raw = buf = np.empty((b.size, rows, n))
    at = (0, 2, 1, 3) if rows > 2 else (0, 1)
    inv = buf[:, 0]
    np.multiply.outer(b, neg_w, out=inv)
    np.expm1(inv, out=inv)
    if rows > 1:
        slope = buf[:, at[1]]
        np.add(inv, 1.0, out=slope)
    np.subtract(rho, inv, out=inv)
    np.reciprocal(inv, out=inv)
    if rows > 2:
        np.multiply(inv, u2, out=buf[:, 1])
    if rows > 3:
        # -b*w*(1 + 2E/D), at most about 5 in size where b is near rho,
        # times -b*w*E/D^2 below
        curv = buf[:, 3]
        np.multiply(slope, inv, out=curv)
        curv *= 2.0
        curv += 1.0
        curv *= np.multiply.outer(b, neg_w)
    if rows > 1:
        slope *= neg_w
        slope *= inv
        slope *= inv
    if rows > 3:
        curv *= slope
        curv *= b[:, None]
    vals = (raw.reshape(-1, n) @ weights).reshape(raw.shape[:2] + (2,))
    if rows < 3:
        vals = vals.transpose(1, 0, 2)
    fine = vals[:, :, 0]
    err = np.abs(fine - vals[:, :, 1])
    bad = err > 1e-6 * np.abs(fine)
    if np.count_nonzero(bad):
        # dK0 falls to about -1/(2b^2), subnormal for b from about 1e154
        # on; each node's term then rounds to a multiple of the smallest
        # subnormal, and the two rules may differ by one such step per
        # node without any layer being unresolved
        bad &= err > n * _SUBNORMAL
        if bad.any():
            i = tuple(np.argwhere(bad)[0])
            exc = AccuracyError(
                "boundary kernel rules disagree at b=%r" % float(b[i[0]]),
                best_estimate=float(fine[i]),
                error_bound=float(err[i]),
            )
            exc.index = int(i[0])
            raise exc
    return tuple(fine[:, i] for i in at[:rows])


def _k1_difference(rho, b1, b2, step):
    """K1(b2) - K1(b1) for b1 < b2 on the rule of a _boundary_kernels call
    at (b1, b2), with step the exact b2 - b1 (b1 and b2 may carry their
    own rounding): node by node, D1 - D2 = E1*expm1(-step*w) and
    1/D2 - 1/D1 = (D1 - D2)/(D1*D2), a sum of terms of one sign, so the
    difference keeps its digits where b2 - b1 is small against b, as near
    the critical point, instead of the rounding of K1 itself."""
    neg_w, u2, weights = _kernel_rule(_kernel_doublings(b2, rho))
    e1 = np.expm1(b1 * neg_w)
    drop = np.expm1(step * neg_w)
    drop *= e1 + 1.0
    d1 = rho - e1
    d2 = d1 - drop
    drop *= u2
    drop /= d1
    drop /= d2
    return float((drop @ weights)[0])


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
    y = np.asarray(y, dtype=float)
    if (y <= 0).any():
        raise DomainError("inverse_softplus needs y > 0")
    return y + np.log(-np.expm1(-y))


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

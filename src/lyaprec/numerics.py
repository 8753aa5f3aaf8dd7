"""Shared numerical kernels.

Four families of tools live here: adaptive panel quadrature with an
exact substitution for integrands that blow up like 1/sqrt(y) at the
left endpoint, a fixed graded rule for the kernel family of the
boundary equation, real polylogarithms of order 2 and 3, and a refiner
for a root bracketed on a monotone piece, which each caller names
itself.
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
from scipy.special import expit, roots_legendre

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

_NODES7, _WEIGHTS7 = roots_legendre(7)
_NODES15, _WEIGHTS15 = roots_legendre(15)

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


def _boundary_kernels(b, rho):
    """K0, K1 and dK0/db of the boundary-equation family at an array of b.

    K_m(b; rho) = integral over u in [0, 1] of u^(2m) / (rho - expm1(b*(u^2 - 1))),
    dK0/db = -integral of (1-u^2)*e^(b(u^2-1)) / D^2, with D the
    denominator. In v = 1 - u the exponent is -b*v*(2-v), which keeps its
    digits where D falls to rho at v = 0; there the integrand has a layer
    of height 1/rho and width about rho/(2b). A 15-point Gauss-Legendre
    rule on panels 0, w, 2w, 4w, ..., 1 resolves it, with w the largest
    power of two at most min(min(rho, 1)/(2*b_max), 1/2). One rule serves
    the whole call, so the values are smooth in b. The 7-point rule on
    the same panels is the embedded check: AccuracyError if the two
    differ by more than 1e-6 relative.
    """
    b = np.atleast_1d(np.asarray(b, dtype=float))
    b_max = float(b.max())
    doublings = 1
    if b_max > 0.0:
        # a difference of logs, as b_max/rho can overflow
        doublings = max(1, math.ceil(math.log2(2.0 * b_max) - math.log2(min(rho, 1.0))))
    layer, u2, weights = _kernel_rule(doublings)
    # 1/D, u^2/D and v*(2-v)*e^(-b*v*(2-v))/D^2, the integrand of -dK0/db,
    # each a row block of one buffer
    n = layer.size
    buf = np.empty((b.size, 3, n))
    inv, inv_u2, slope = buf[:, 0], buf[:, 1], buf[:, 2]
    np.multiply.outer(b, -layer, out=slope)
    np.expm1(slope, out=slope)
    np.subtract(rho, slope, out=inv)
    np.reciprocal(inv, out=inv)
    np.multiply(inv, u2, out=inv_u2)
    slope += 1.0
    slope *= layer
    slope *= inv
    slope *= inv
    vals = (buf.reshape(-1, n) @ weights).reshape(b.size, 3, 2)
    vals[:, 2] *= -1.0
    fine = vals[:, :, 0]
    err = np.abs(fine - vals[:, :, 1])
    bad = err > 1e-6 * np.abs(fine)
    if bad.any():
        i = tuple(np.argwhere(bad)[0])
        raise AccuracyError(
            "boundary kernel rules disagree at b=%r" % float(b[i[0]]),
            best_estimate=float(fine[i]),
            error_bound=float(err[i]),
        )
    return fine[:, 0], fine[:, 1], fine[:, 2]


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


def _refine_bracket(f, a, b, fa, fb, tol, max_iter=120):
    """Shrink a sign-change bracket until |f| <= tol at the returned point.

    Secant steps while they stay inside the bracket, with a bisection
    fallback, and a forced bisection whenever four consecutive steps
    fail to halve the bracket. Convergence is therefore guaranteed even
    where f is nearly flat.
    """
    if abs(fa) <= tol:
        return a
    if abs(fb) <= tol:
        return b
    x0, f0, x1, f1 = a, fa, b, fb
    xp, fp = x0, f0
    xc, fc = x1, f1
    checkpoint_width = x1 - x0
    since_check = 0
    for _ in range(max_iter):
        force_bisect = False
        since_check += 1
        if since_check >= 4:
            if (x1 - x0) > 0.5 * checkpoint_width:
                force_bisect = True
            checkpoint_width = x1 - x0
            since_check = 0
        if not force_bisect and fc != fp:
            cand = xc - fc * (xc - xp) / (fc - fp)
        else:
            cand = 0.5 * (x0 + x1)
        if not (x0 < cand < x1):
            cand = 0.5 * (x0 + x1)
        fcand = float(f(cand))
        if not math.isfinite(fcand):
            raise EvaluationError(
                "non-finite value during root refinement at x=%r" % cand,
                abscissa=cand,
            )
        if abs(fcand) <= tol:
            return cand
        if (f0 < 0) == (fcand < 0):
            x0, f0 = cand, fcand
        else:
            x1, f1 = cand, fcand
        xp, fp = xc, fc
        xc, fc = cand, fcand
        if (x1 - x0) <= 4 * np.finfo(float).eps * max(abs(x0), abs(x1)):
            best, fbest = (x0, f0) if abs(f0) <= abs(f1) else (x1, f1)
            if abs(fbest) <= tol:
                return best
            raise NumericsError(
                "bracket collapsed at x=%r with residual %r > tol" % (best, fbest)
            )
    raise NumericsError("root refinement did not reach |f| <= tol")


def softplus(x):
    """log(1 + e^x), overflow-safe for large |x|."""
    return np.logaddexp(0.0, x)


def inverse_softplus(y):
    """Solve log(1 + e^x) = y for x; needs y > 0."""
    if np.any(np.asarray(y) <= 0):
        raise DomainError("inverse_softplus needs y > 0")
    return y + np.log1p(-np.exp(-np.asarray(y, dtype=float)))


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

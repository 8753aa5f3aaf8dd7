"""Shared numerical kernels.

Three families of tools live here: adaptive panel quadrature with an
exact substitution for integrands that blow up like 1/sqrt(y) at the
left endpoint, real polylogarithms of order 2 and 3, and a refiner for
a root bracketed on a monotone piece, which each caller names itself.
Everything is a pure function; there is no shared mutable state, so
concurrent use is safe.

Integrands passed to the quadrature routines must accept numpy arrays
and return an array of the same shape.
"""
from __future__ import annotations

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
        if (x1 - x0) <= 4 * np.finfo(float).eps * max(abs(x0), abs(x1), 1.0):
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

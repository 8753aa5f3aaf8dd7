"""Constant-profile (Curie-Weiss style) approximation of the growth rate.

Restricting the variational problem to flat occupation profiles
f(y) = a gives a closed lower bound on the growth rate:
lambda_bar = max over a in (0,1) of beta*a^2/3 ... concretely
-(1/3)*beta*a^2 - log(1-a) evaluated at stationary points of
log(rho) = -(2/3)*beta*a + log(a/(1-a)). The structure is the standard
double-well one: a single stationary point for beta <= 6, up to three
beyond, a first-order switch across the curve beta = -3*log(rho), and a
gap equation delta = tanh(beta*delta/6) for the coexisting branches.
Stationarity is solved on its two outer rising pieces: concave below
the inflection logit(a) = 0 and convex above it, they end at the
closed-form folds logit(a) = +-2*atanh(sqrt(1 - 6/beta)) for beta > 6,
and at the inflection otherwise. Newton from the outer end of each
piece moves monotonically to its root.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _check_q1, _check_rho
from .numerics import _bisect, expit, softplus

__all__ = [
    "MeanFieldResult",
    "mf_beta_level",
    "mf_lambda",
    "mf_gap",
    "mf_phase_curve",
    "mf_derivative_jumps",
    "MF_CURVE_RHO_MAX",
]

# the flat-profile transition curve beta = -3 log(rho) only exists below here
MF_CURVE_RHO_MAX = math.exp(-2.0)


@dataclass(frozen=True)
class MeanFieldResult:
    """Selected stationary occupation a_star with its value lambda_bar.

    branch_a1/branch_a2 hold the outer stationary points when three
    exist (None otherwise).
    """

    a_star: float
    branch_a1: float | None
    branch_a2: float | None
    lambda_bar: float


def mf_beta_level(a, rho):
    """beta required for a flat profile at occupation a to be stationary:
    1.5 * (log(a/(1-a)) - log(rho)) / a. Vectorized in a."""
    a = np.asarray(a, dtype=float)
    if np.any((a <= 0) | (a >= 1)):
        raise DomainError("mf_beta_level needs a in (0, 1)")
    _check_rho(rho)
    out = 1.5 * (np.log(a / (1.0 - a)) - math.log(rho)) / a
    return float(out) if out.ndim == 0 else out


def mf_lambda(params):
    """Flat-profile growth rate bound at (rho, beta).

    Finds the outer stationary occupations, the maxima of the flat
    functional, then selects per the sign of log(rho) + beta/3: above
    the curve the high branch wins, below it the low one; exactly on it
    the branches tie and the high one is reported. Each is the root of
    stationarity on a rising piece, concave below the inflection and
    convex above it, found by Newton with the analytic slope from the
    piece's outer end, where the tangent stays on the near side of the
    root; a fold end where stationarity holds to 1e-12 is the root. The
    middle stationary point, a minimum, is never refined. beta = 0
    gives exactly a = rho/(1+rho), log(1+rho).
    """
    _check_q1(params)
    rho, beta = params.rho, params.beta
    lr = math.log(rho)
    if beta == 0.0:
        return MeanFieldResult(rho / (1.0 + rho), None, None, math.log1p(rho))

    # stationarity in t = logit(a) - log(rho), whose roots lie in
    # [0, 2*beta/3]; unlike logit(a), t keeps its sign for tiny beta.
    # beta/1.5 rounds the same quotient as 2*beta/3, where 2*beta overflows
    # for beta from about 9e307
    c = beta / 1.5

    def g(t):
        # g, its slope and the occupation, from one logistic value
        a = float(expit(t + lr))
        return t - c * a, 1.0 - c * a * (1.0 - a), a

    # g is concave below its inflection t = -log(rho) and convex above;
    # for beta > 6 its outer rising pieces end at the folds around it
    cuts = [min(max(-lr, 0.0), c)] * 2
    if beta > 6.0:
        # 2*atanh(s) with s = sqrt(1 - 6/beta), as 1 - s = (6/beta)/(1 + s),
        # finite where 6/beta rounds away
        s = math.sqrt(1.0 - 6.0 / beta)
        x_fold = 2.0 * math.log1p(s) + math.log(beta / 6.0)
        cuts = [min(max(x - lr, 0.0), c) for x in (-x_fold, x_fold)]
    ends = {t: g(t) for t in (0.0, *cuts, c)}
    roots = {}
    # Newton from the outer end of each piece, where g <= 0 on the concave
    # low piece and g >= 0 on the convex high one, moves monotonically to
    # the root; it stops once a step no longer advances. A root on the
    # cut shared for beta <= 6 counts once.
    for outer, inner, ahead in ((0.0, cuts[0], 1.0), (c, cuts[1], -1.0)):
        g_out, slope, a = ends[outer]
        g_in = ends[inner][0]
        if outer == inner or not min(g_out, g_in) <= 0.0 <= max(g_out, g_in):
            continue
        t = outer
        # near a fold the root is nearly double and Newton crawls onto it
        if abs(g_in) <= 1e-12:
            t, a = inner, ends[inner][2]
        else:
            while slope > 0.0:
                t_next = t - g_out / slope
                if not (t_next - t) * ahead > 0.0:
                    break
                t = t_next
                g_out, slope, a = g(t)
        roots[t] = a
    a1 = a2 = None
    if len(roots) == 1:
        ((t_star, a_star),) = roots.items()
    else:
        (t1, a1), (t2, a2) = roots.items()
        t_star, a_star = (t2, a2) if lr >= -beta / 3.0 else (t1, a1)
    x_star = t_star + lr
    lambda_bar = -(beta / 3.0) * a_star * a_star + float(softplus(x_star))
    return MeanFieldResult(a_star, a1, a2, lambda_bar)


def mf_gap(beta):
    """Positive solution of delta = tanh(beta*delta/6), beta > 6.

    Bisection on (0, 1) down to adjacent floats: the left edge is on the
    tanh side of the fixed point for any beta > 6, the right edge always
    on the other.
    """
    if not beta > 6.0:
        raise DomainError("the gap equation has no positive solution for beta <= 6")
    lo, hi = _bisect(lambda x: math.tanh(beta * x / 6.0) > x, 1e-12, 1.0,
                     np.finfo(float).eps)
    return 0.5 * (lo + hi)


def mf_phase_curve(rho):
    """Flat-profile transition curve beta = -3*log(rho), defined for
    rho below exp(-2) (equivalently beta > 6)."""
    if not 0 < rho < MF_CURVE_RHO_MAX:
        raise DomainError(
            "the flat-profile model has no transition for rho >= exp(-2)"
        )
    return -3.0 * math.log(rho)


def mf_derivative_jumps(beta):
    """Derivative jumps across the flat-profile curve at inverse
    temperature beta > 6: (gap/rho, gap/3) for the rho- and
    beta-derivatives, with rho = exp(-beta/3) the on-curve amplitude."""
    if not beta > 6.0:
        raise DomainError("derivative jumps exist only for beta > 6")
    delta = mf_gap(beta)
    rho = math.exp(-beta / 3.0)
    return delta / rho, delta / 3.0

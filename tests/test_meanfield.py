import math

import numpy as np
import pytest
from scipy.special import expit

from lyaprec.errors import DomainError, NumericsError
from lyaprec.meanfield import (
    MF_CURVE_RHO_MAX,
    mf_beta_level,
    mf_derivative_jumps,
    mf_gap,
    mf_lambda,
    mf_phase_curve,
)
from lyaprec.variational import ModelParams, entropy_I, lyapunov


def test_beta_zero_flat_profile():
    res = mf_lambda(ModelParams(0.4, 0.0))
    assert res.a_star == pytest.approx(0.4 / 1.4, rel=1e-12)
    assert res.lambda_bar == pytest.approx(math.log(1.4), rel=1e-12)
    assert res.branch_a1 is None and res.branch_a2 is None


@pytest.mark.parametrize("rho,beta", [(0.1, 2.0), (0.05, 9.5), (0.6, 4.0)])
def test_stationarity_residual(rho, beta):
    res = mf_lambda(ModelParams(rho, beta))
    for a in (res.a_star, res.branch_a1, res.branch_a2):
        if a is None:
            continue
        g = math.log(a / (1.0 - a)) - (2.0 / 3.0) * beta * a - math.log(rho)
        assert abs(g) < 1e-9


def test_multiple_roots_inside_window():
    res = mf_lambda(ModelParams(0.05, 9.5))
    assert res.branch_a1 is not None and res.branch_a2 is not None
    assert res.branch_a1 < res.branch_a2
    # log(0.05) > -9.5/3, so the high branch is selected
    assert res.a_star == res.branch_a2


@pytest.mark.parametrize("beta", [1e18, 1e300])
def test_huge_beta_is_finite(beta):
    # 1 - 6/beta rounds to 1 here; the fold 2*log1p(s) + log(beta/6) stays finite
    res = mf_lambda(ModelParams(0.1, beta))
    assert res.a_star == 1.0
    assert res.lambda_bar == pytest.approx(beta / 3.0, rel=1e-12)


@pytest.mark.parametrize("beta", [1e171, 1e200, 1e250])
@pytest.mark.parametrize("rho", [1e-8, 1e-3, 0.1, 0.5, 2.0])
def test_huge_beta_refines_to_rounding(rho, beta):
    # the stationarity residual rounds at about eps*beta here, far above
    # 1e-12, so the refinement ends on a 4-ulp bracket
    params = ModelParams(rho, beta)
    lam = mf_lambda(params).lambda_bar
    assert math.isfinite(lam)
    # both bounds equal beta/3 to rounding, where lyapunov sits up to 5 eps low
    assert lam <= lyapunov(params).lambda_ * (1 + 1e-14)


# 2*beta overflows for beta from about 9e307, and beta*(1+rho) from
# 1.8e308/(1+rho); the products that held them keep their factors of two
# where they cannot overflow
@pytest.mark.parametrize("beta", [5e307, 8.9e307, 1e308, 1.7e308])
@pytest.mark.parametrize("rho", [1e-8, 0.1, 2.0])
def test_beta_at_the_float_edge(rho, beta):
    params = ModelParams(rho, beta)
    lam_mf = mf_lambda(params).lambda_bar
    assert lam_mf == pytest.approx(beta / 3.0, rel=1e-14)
    try:
        lam = lyapunov(params).lambda_
    except NumericsError as exc:
        assert exc.stage in ("fold search", "root refinement", "branch values")
        return
    assert beta / 3.0 + math.log(rho) <= lam * (1 + 1e-14)
    assert lam <= (beta / 3.0 + math.log1p(rho)) * (1 + 1e-14)
    assert lam_mf <= lam * (1 + 1e-14)


def test_level_curve_anchor():
    assert mf_beta_level(0.5, math.exp(-2.0)) == pytest.approx(6.0, rel=1e-14)
    with pytest.raises(DomainError):
        mf_beta_level(0.0, 0.1)
    with pytest.raises(DomainError):
        mf_beta_level(1.0, 0.1)
    with pytest.raises(DomainError):
        mf_beta_level(0.5, -1.0)


def test_gap_fixed_point():
    d = mf_gap(12.0)
    assert 0.0 < d < 1.0
    assert math.tanh(12.0 * d / 6.0) == pytest.approx(d, abs=1e-12)
    for bad in (6.0, 5.0, 0.0):
        with pytest.raises(DomainError):
            mf_gap(bad)


def _fixed_step_gap(beta):
    # reference: a fixed 120-step bisection, which keeps the bracket on the
    # same pair of adjacent floats once it reaches them
    lo, hi = 1e-12, 1.0
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if math.tanh(beta * mid / 6.0) > mid:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_gap_matches_fixed_step_bisection():
    # both halve the same brackets down to adjacent floats
    rng = np.random.default_rng(3)
    betas = 6.0 * np.exp(rng.uniform(0.0, math.log(1e300 / 6.0), 4000))
    edges = [math.nextafter(6.0, math.inf), 6.0 + 1e-15, 6.0 + 1e-9, 1e300]
    for beta in betas.tolist() + edges:
        assert mf_gap(beta) == _fixed_step_gap(beta), beta


def test_curve_and_coexistence():
    rho = 0.05
    bb = mf_phase_curve(rho)
    assert bb == pytest.approx(-3.0 * math.log(rho), rel=1e-14)
    delta = mf_gap(bb)
    res = mf_lambda(ModelParams(rho, bb))
    assert res.branch_a1 == pytest.approx((1.0 - delta) / 2.0, abs=1e-9)
    assert res.branch_a2 == pytest.approx((1.0 + delta) / 2.0, abs=1e-9)
    assert res.a_star == res.branch_a2


def test_curve_domain():
    assert MF_CURVE_RHO_MAX == pytest.approx(math.exp(-2.0), rel=1e-15)
    for bad in (MF_CURVE_RHO_MAX, 0.9, 0.0):
        with pytest.raises(DomainError):
            mf_phase_curve(bad)


def test_derivative_jumps():
    beta = 10.0
    delta = mf_gap(beta)
    jump_rho, jump_beta = mf_derivative_jumps(beta)
    rho_on_curve = math.exp(-beta / 3.0)
    assert jump_rho == pytest.approx(delta / rho_on_curve, rel=1e-12)
    assert jump_beta == pytest.approx(delta / 3.0, rel=1e-12)


def _flat_functional(a, rho, beta):
    # a*log(rho) + beta*a^2/3 - I(a), whose maximum over a is lambda_bar
    return a * math.log(rho) + beta * a * a / 3.0 - entropy_I(a)


@pytest.mark.parametrize(
    "rho,beta", [(0.2, 80.0), (0.01, 60.0), (0.3, 40.0), (0.4, 19.5), (0.5, 300.0)]
)
def test_occupation_near_one(rho, beta):
    params = ModelParams(rho, beta)
    res = mf_lambda(params)
    assert math.isfinite(res.lambda_bar)
    # the functional equals the closed form only at a stationary point; a_star
    # may round to 1, where the logit form of stationarity cannot be evaluated
    assert _flat_functional(res.a_star, rho, beta) == pytest.approx(
        res.lambda_bar, rel=1e-12
    )
    a_grid = expit(np.linspace(math.log(rho) - 5.0, 2.0 * beta / 3.0 + 5.0, 4001))
    assert max(_flat_functional(a, rho, beta) for a in a_grid) <= (
        res.lambda_bar + 1e-12 * res.lambda_bar
    )
    assert res.lambda_bar <= lyapunov(params).lambda_ + 1e-9


def test_tiny_rho_sweep_returns_the_larger_outer_root():
    # rho from 1e-300 to 1e-40, where refining the middle root raised
    # "bracket collapsed" on 228 of these draws; it is never returned
    rng = np.random.default_rng(7)
    rhos = np.exp(rng.uniform(math.log(1e-300), math.log(1e-40), 2000))
    betas = np.exp(rng.uniform(math.log(1e-3), math.log(1e4), 2000))
    for rho, beta in zip(rhos.tolist(), betas.tolist()):
        res = mf_lambda(ModelParams(rho, beta))
        value = _flat_functional(res.a_star, rho, beta)
        assert res.lambda_bar == pytest.approx(value, rel=1e-12), (rho, beta)
        for a in (res.branch_a1, res.branch_a2):
            if a is not None:
                assert value >= _flat_functional(a, rho, beta), (rho, beta)

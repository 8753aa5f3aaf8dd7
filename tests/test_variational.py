import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy import integrate as sp_integrate
from scipy.optimize import minimize_scalar
from scipy.special import expit

from conftest import WINDOW_EDGES
from lyaprec import variational
from lyaprec.errors import AccuracyError, DomainError, NumericsError
from lyaprec.meanfield import mf_lambda
from lyaprec.numerics import (
    _boundary_kernels,
    inverse_softplus,
    softplus,
    softplus_diff,
)
from lyaprec.phase import trace_phase_curve
from lyaprec.variational import (
    ModelParams,
    big_F,
    big_F_scan,
    correction_integral,
    d_of_h1,
    entropy_I,
    lambda_of_d,
    lambda_of_h1,
    lyapunov,
    lyapunov_q,
    reconstruct_profile,
    solve_h1,
)


def test_params_validation():
    with pytest.raises(DomainError):
        ModelParams(0.0, 1.0)
    with pytest.raises(DomainError):
        ModelParams(-0.1, 1.0)
    with pytest.raises(DomainError):
        ModelParams(0.2, -0.5)
    with pytest.raises(DomainError):
        ModelParams(0.2, 1.0, q=0)


def test_entropy_endpoints_and_center():
    assert entropy_I(0.0) == 0.0
    assert entropy_I(1.0) == 0.0
    assert entropy_I(0.5) == pytest.approx(-math.log(2.0), rel=1e-15)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_entropy_symmetry(x):
    assert entropy_I(x) == pytest.approx(entropy_I(1.0 - x), abs=1e-12)


def test_entropy_domain():
    with pytest.raises(DomainError):
        entropy_I(-0.01)
    with pytest.raises(DomainError):
        entropy_I(1.01)


def _big_f_reference(a, rho):
    # substitute y = u^2 to remove the endpoint singularity, then hand the
    # smooth integrand to quadpack
    L = float(softplus(a)) - math.log1p(rho)
    num = 1.0 + math.exp(a)
    val, _ = sp_integrate.quad(
        lambda u: 2.0 * num / (num - math.exp(u * u)),
        0.0,
        math.sqrt(L),
        epsabs=1e-13,
        epsrel=1e-13,
        limit=200,
    )
    return val


@pytest.mark.parametrize(
    "a,rho", [(0.3, 0.1), (1.0, 0.5), (2.5, 0.05), (-1.0, 0.2)]
)
def test_big_f_reference_values(a, rho):
    assert big_F(a, rho) == pytest.approx(_big_f_reference(a, rho), rel=1e-9)


def test_big_f_envelope():
    for a, rho in [(0.5, 0.1), (3.0, 0.05), (1.2, 0.8)]:
        L = float(softplus(a)) - math.log1p(rho)
        assert big_F(a, rho) >= 2.0 * math.sqrt(L)


def test_big_f_edges():
    assert big_F(math.log(0.2), 0.2) == 0.0
    with pytest.raises(DomainError):
        big_F(-3.0, 0.2)


def test_big_f_scan_matches_adaptive():
    rho = 0.123
    avals = np.linspace(math.log(rho) + 1e-3, 6.0, 25)
    scan = big_F_scan(avals, rho)
    ada = np.array([big_F(float(a), rho) for a in avals])
    assert float(np.max(np.abs(scan - ada))) < 5e-7


def _big_f_scan_one_shot(a, rho):
    # the scan formula in one pass over the whole array
    a = np.atleast_1d(np.asarray(a, dtype=float))
    L = np.maximum(softplus(a) - math.log1p(rho), 0.0)
    expo = L[:, None] * (variational._SCAN_U[None, :] ** 2 - 1.0)
    den = 1.0 - np.exp(expo) / (1.0 + rho)
    return 2.0 * np.sqrt(L) * (variational._SCAN_W / den).sum(axis=1)


@pytest.mark.parametrize("rho", [1e-6, 0.05, 0.1232, 0.5])
@pytest.mark.parametrize("n", [0, 1, 127, 128, 129, 1000, 8192])
def test_big_f_scan_blocks_are_bit_identical(n, rho):
    rng = np.random.default_rng(n)
    a = math.log(rho) + rng.uniform(0.0, 12.0, n)
    if n:
        a[0] = math.log(rho)
    got = big_F_scan(a, rho)
    assert got.shape == (n,)
    assert np.array_equal(got, _big_f_scan_one_shot(a, rho))


def test_correction_integral_at_zero():
    for rho in (0.1, 0.5, 2.0):
        assert correction_integral(0.0, rho) == pytest.approx(
            1.0 / (3.0 * rho), rel=1e-10
        )


def test_solve_h1_counts_and_residuals(mini_curve):
    p = mini_curve[1]
    params = ModelParams(p.rho, p.beta_cr)
    rs = solve_h1(params)
    assert len(rs.roots) == 3
    target = 2.0 * math.sqrt(params.beta)
    lr = math.log(p.rho)
    for r in rs.roots:
        assert abs(big_F(r, p.rho) - target) <= 1e-7
        d = d_of_h1(r, params)
        assert abs(float(softplus_diff(r, lr)) - params.beta * d * d) <= 1e-9
    for beta in (1.0, 20.0):
        assert len(solve_h1(ModelParams(p.rho, beta)).roots) == 1
    with pytest.raises(DomainError):
        solve_h1(ModelParams(p.rho, 0.0))


def _three_branch_window(rho):
    # independent of the solver's own scan: a dense fixed-rule scan for the
    # hump and the dip, each polished by bounded Brent on the adaptive big_F
    a = np.linspace(math.log(rho), math.log(rho) + 12.0, 8192)
    desc = np.flatnonzero(np.diff(big_F_scan(a, rho)) < 0)
    i, j = desc[0], desc[-1] + 1
    opts = {"xatol": 1e-12}
    hump = minimize_scalar(lambda x: -big_F(x, rho), bounds=(a[i - 1], a[i + 1]),
                           method="bounded", options=opts)
    dip = minimize_scalar(lambda x: big_F(x, rho), bounds=(a[j - 1], a[j + 1]),
                          method="bounded", options=opts)
    return 0.25 * dip.fun ** 2, 0.25 * hump.fun ** 2


@pytest.mark.parametrize("rho", [0.05, 0.1, 0.12])
@pytest.mark.parametrize("u", [5e-8, 1e-9])
@pytest.mark.parametrize("edge", ["lo", "hi"])
def test_three_branches_next_to_window_edges(rho, u, edge):
    # two roots next to a fold share one scan cell here
    beta_lo, beta_hi = _three_branch_window(rho)
    beta = beta_lo * (1.0 + u) if edge == "lo" else beta_hi * (1.0 - u)
    params = ModelParams(rho, beta)
    rs = solve_h1(params)
    assert len(rs.roots) == 3
    assert rs.roots == sorted(rs.roots)
    target = 2.0 * math.sqrt(beta)
    for r, (a, b) in zip(rs.roots, rs.brackets):
        assert a <= r <= b
        assert abs(big_F(r, rho) - target) <= 1e-9
    assert len(lyapunov(params).all_branches) == 3


@pytest.mark.parametrize("rho", [0.12322, 0.12326, 0.123275, 0.1232819, 0.12328197])
def test_three_branches_with_folds_inside_one_scan_cell(rho):
    # just under rho_c the hump and the dip are closer than the scan step;
    # the last window is 7e-12 wide (relative), past what a dense scan in
    # the logit resolves, so the edges are the mpmath ones
    beta_lo, beta_hi = WINDOW_EDGES[rho]
    res = lyapunov(ModelParams(rho, 0.5 * (beta_lo + beta_hi)))
    assert len(res.all_branches) == 3
    d = [b.d for b in res.all_branches]
    assert d == sorted(d) and d[0] < d[1] < d[2]


@given(
    st.floats(min_value=0.01, max_value=0.3),
    st.floats(min_value=0.2, max_value=20.0),
)
def test_branch_count_matches_dense_scan(rho, beta):
    lr = math.log(rho)
    a_sup = float(inverse_softplus(beta + math.log1p(rho)))
    F = big_F_scan(np.linspace(lr, a_sup, 8192), rho)
    target = 2.0 * math.sqrt(beta)
    steps = np.diff(F)
    folds = F[1:-1][steps[:-1] * steps[1:] < 0]
    assume(np.all(np.abs(folds - target) > 1e-3 * target))
    expected = int(np.count_nonzero(np.diff(F < target)))
    assert len(solve_h1(ModelParams(rho, beta)).roots) == expected


def test_lambda_representations_agree(mini_curve):
    p = mini_curve[0]
    params = ModelParams(p.rho, p.beta_cr)
    for r in solve_h1(params).roots:
        via_h1 = lambda_of_h1(r, params)
        via_d = lambda_of_d(d_of_h1(r, params), params)
        assert via_h1 == pytest.approx(via_d, abs=1e-10)


@pytest.mark.parametrize("rho,beta", [(2e-6, 15.0), (1e-6, 18.0), (2e-6, 8.0)])
def test_lambda_of_d_at_tiny_rho(rho, beta):
    # the selected branch has d about rho, so the kernel denominator
    # falls to about rho near y = 1 and must be formed without cancellation
    params = ModelParams(rho, beta)
    res = lyapunov(params)
    assert lambda_of_d(res.selected.d, params) == pytest.approx(
        res.lambda_, rel=1e-14
    )


# in-domain inputs at tiny rho or tiny beta, where the boundary logit
# cannot resolve the roots, plus (1e-6, 40) with three branches; in the
# last one g rounds to zero at the left end of the interval in d
@pytest.mark.parametrize(
    "rho,beta",
    [(1e-8, 5.0), (1e-8, 200.0), (1e-6, 15.0), (3e-7, 10.0), (0.1, 1e-12),
     (1e-12, 50.0), (1e-6, 40.0), (6.0484092008514074e-05, 8.418923363519257e-13)],
)
def test_tiny_rho_and_tiny_beta_roots(rho, beta):
    res = lyapunov(ModelParams(rho, beta))
    tol = 1e-9 * max(1.0, abs(res.lambda_))
    assert beta / 3.0 + math.log(rho) - tol <= res.lambda_
    assert res.lambda_ <= beta / 3.0 + math.log1p(rho) + tol
    d = np.array([b.d for b in res.all_branches])
    g = d * (1.0 + rho) * _boundary_kernels(beta * d * d, rho)[0] - 1.0
    assert np.all(np.abs(g) <= 1e-12)
    if (rho, beta) == (1e-8, 200.0):
        assert len(d) == 3
        # 40-digit mpmath solve of the boundary equation in d
        assert res.lambda_ == pytest.approx(48.688482478329387, rel=1e-13)


# past beta = 3e9 the 1e-10 residual on big_F asks g for less than its
# rounding; the target is floored at 4 ulp of 1, so these solve
@pytest.mark.parametrize(
    "rho,beta",
    [(0.06696966632581428, 459690599017.4075), (3.0475790976855555, 884025234814.2302),
     (0.01, 1e16), (0.01, 1e100)],
)
def test_large_beta_roots(rho, beta):
    res = lyapunov(ModelParams(rho, beta))
    assert beta / 3.0 + math.log(rho) <= res.lambda_ * (1 + 1e-15)
    assert res.lambda_ <= (beta / 3.0 + math.log1p(rho)) * (1 + 1e-15)
    d = np.array([b.d for b in res.all_branches])
    g = d * (1.0 + rho) * _boundary_kernels(beta * d * d, rho)[0] - 1.0
    assert np.all(np.abs(g) <= 4.0 * np.finfo(float).eps)


def test_huge_beta_draws_solve_or_name_stage():
    # b_max/rho overflows here, so the kernel rule's panel count is taken
    # from a difference of logs; every draw must solve or fail typed
    rng = np.random.default_rng(300)
    for _ in range(30):
        rho = float(10.0 ** rng.uniform(-12.0, 2.0))
        beta = float(10.0 ** rng.uniform(300.0, 301.0))
        try:
            lam = lyapunov(ModelParams(rho, beta)).lambda_
        except NumericsError as exc:
            assert exc.stage in ("fold search", "root refinement", "branch values")
            continue
        assert beta / 3.0 + math.log(rho) <= lam * (1 + 1e-15)
        assert lam <= (beta / 3.0 + math.log1p(rho)) * (1 + 1e-15)


# at a subnormal beta the scan nodes sit far above beta, where b/beta
# overflows; the tangent start must not warn, and the value is unchanged
@pytest.mark.parametrize("rho,beta,lam", [(0.5, 1e-310, 0.4054651081081644),
                                          (0.1, 5e-324, 0.09531017980432487)])
def test_subnormal_beta_solves_without_warnings(rho, beta, lam):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lyapunov(ModelParams(rho, beta)).lambda_ == lam


@pytest.mark.parametrize("beta_max", [60.0, 2000.0])
def test_selected_value_matches_logit_route(beta_max):
    # the branch value through K1 against the adaptive route in the
    # boundary logit, which shares no quadrature with it
    rng = np.random.default_rng(2015)
    for _ in range(200):
        rho = math.exp(rng.uniform(math.log(1e-3), math.log(0.5)))
        params = ModelParams(rho, rng.uniform(0.0, beta_max))
        res = lyapunov(params)
        assert lambda_of_h1(res.selected.h1, params) == pytest.approx(
            res.lambda_, rel=1e-9, abs=1e-9
        )


def test_logit_route_at_large_beta():
    # with h1 far above 40 the logit integrand is sqrt(w) to machine
    # precision away from the softplus knee, so a 7/15-point check is exact
    # on a panel that hides the knee unless the knee gets its own breakpoint
    params = ModelParams(0.05189386099324022, 1826.693155883632)
    res = lyapunov(params)
    # 35-digit mpmath: g(d) = 0 solved in d, branch value through K1
    assert lambda_of_h1(res.selected.h1, params) == pytest.approx(
        605.940799099491067, rel=1e-14
    )


def _raise_on_call(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


# each stage of lyapunov, reached at an input where the step runs first:
# at (0.1, 5.5) beta reaches the scan cell of the dip, which is polished;
# (0.3, 1.0) has no fold
@pytest.mark.parametrize(
    "stage,name,rho,beta",
    [
        ("fold search", "_boundary_kernels", 0.1, 5.5),
        ("fold search", "_refine_bracket", 0.1, 5.5),
        ("root refinement", "_level_roots", 0.3, 1.0),
        ("branch values", "_branch_values", 0.3, 1.0),
    ],
)
def test_errors_name_stage_and_point(monkeypatch, stage, name, rho, beta):
    monkeypatch.setattr(
        variational, name, _raise_on_call(AccuracyError("forced", 1.0, 1.0))
    )
    with pytest.raises(AccuracyError) as info:
        lyapunov(ModelParams(rho, beta))
    exc = info.value
    assert (exc.stage, exc.rho, exc.beta) == (stage, rho, beta)
    assert str(exc) == "%s at rho=%r, beta=%r: forced" % (stage, rho, beta)
    assert isinstance(exc, NumericsError) and exc.best_estimate == 1.0


def test_beta_zero_closed_form():
    for rho in (0.01, 0.5, 5.0):
        res = lyapunov(ModelParams(rho, 0.0))
        assert res.lambda_ == math.log1p(rho)
        d = rho / (1.0 + rho)
        assert res.selected.d == pytest.approx(d, rel=1e-14)
        assert res.dlambda_drho == pytest.approx(d / rho, rel=1e-13)
        assert res.dlambda_dbeta == pytest.approx(d * d / 3.0, rel=1e-13)


def test_derivatives_match_finite_differences():
    res = lyapunov(ModelParams(0.3, 4.0))
    h = 1e-4
    fd_beta = (
        lyapunov(ModelParams(0.3, 4.0 + h)).lambda_
        - lyapunov(ModelParams(0.3, 4.0 - h)).lambda_
    ) / (2.0 * h)
    assert res.dlambda_dbeta == pytest.approx(fd_beta, rel=2e-6, abs=1e-8)
    r = 1e-5
    fd_rho = (
        lyapunov(ModelParams(0.3 + r, 4.0)).lambda_
        - lyapunov(ModelParams(0.3 - r, 4.0)).lambda_
    ) / (2.0 * r)
    assert res.dlambda_drho == pytest.approx(fd_rho, rel=2e-6, abs=1e-8)


def test_monotone_in_beta_and_rho():
    vals = [lyapunov(ModelParams(0.15, float(b))).lambda_ for b in np.linspace(0.0, 9.0, 10)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    vals = [lyapunov(ModelParams(float(r), 3.0)).lambda_ for r in np.linspace(0.05, 0.9, 9)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_flat_profile_is_lower_bound():
    for rho in (0.05, 0.2, 0.7):
        for beta in (0.5, 3.0, 7.0):
            p = ModelParams(rho, beta)
            assert mf_lambda(p).lambda_bar <= lyapunov(p).lambda_ + 1e-9


def test_root_shift_identity():
    # moving the level target in beta or in rho shifts the stationary logit
    # along the same curve: da/dbeta = (rho/sqrt(beta)) * sqrt(L) * da/drho
    rho, beta = 0.3, 4.0

    def root(r, b):
        return solve_h1(ModelParams(r, b)).roots[0]

    h = 1e-3
    da_dbeta = (root(rho, beta + h) - root(rho, beta - h)) / (2.0 * h)
    da_drho = (root(rho * (1 + h), beta) - root(rho * (1 - h), beta)) / (
        2.0 * h * rho
    )
    a0 = root(rho, beta)
    L = float(softplus(a0)) - math.log1p(rho)
    assert da_dbeta == pytest.approx(
        (rho / math.sqrt(beta)) * math.sqrt(L) * da_drho, rel=1e-3
    )


# the mini_curve amplitudes, two far below (the fold window at 1e-6 is
# out of reach of the boundary logit) and one just under rho_c
@pytest.mark.parametrize("rho", [0.04, 0.07, 0.1, 0.001, 0.1232, 1e-6])
def test_tie_at_transition(rho):
    (p,) = trace_phase_curve([rho])
    res = lyapunov(ModelParams(p.rho, p.beta_cr))
    assert res.tie
    assert len(res.all_branches) == 3
    low, high = res.all_branches[0], res.all_branches[-1]
    assert abs(high.lambda_value - low.lambda_value) <= 1e-12
    assert res.selected.d == max(b.d for b in res.all_branches)


def test_moment_order_one_matches_base():
    assert lyapunov_q(ModelParams(0.2, 3.0, q=1)) == lyapunov(
        ModelParams(0.2, 3.0)
    ).lambda_


def test_profile_shape_and_energy():
    params = ModelParams(0.25, 5.0)
    res = lyapunov(params)
    prof = reconstruct_profile(res.selected, params, nodes=801)
    assert prof.grid[0] == 0.0 and prof.grid[-1] == 1.0
    assert prof.h_values[0] == math.log(0.25)
    assert prof.h_values[-1] == res.selected.h1
    assert np.all(np.diff(prof.h_values) >= -1e-12)
    assert prof.f_values[0] == pytest.approx(0.25 / 1.25, rel=1e-12)
    assert np.allclose(prof.f_values, expit(prof.h_values), atol=1e-12)
    assert prof.energy == pytest.approx(
        2.0 * params.beta * float(softplus(res.selected.h1)), rel=1e-12
    )


def test_profile_validation():
    params = ModelParams(0.25, 5.0)
    res = lyapunov(params)
    with pytest.raises(DomainError):
        reconstruct_profile(res.selected, params, nodes=1)
    with pytest.raises(DomainError):
        reconstruct_profile(res.selected, ModelParams(0.25, 0.0))

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy import integrate as sp_integrate
from scipy.optimize import minimize_scalar
from scipy.special import expit

from conftest import WINDOW_EDGES, kernel_calls
from lyaprec import variational
from lyaprec.errors import AccuracyError, DomainError, NumericsError, _stage
from lyaprec.meanfield import mf_beta_level, mf_lambda
from lyaprec.numerics import (
    _boundary_kernels,
    inverse_softplus,
    softplus,
    softplus_diff,
)
from lyaprec.phase import appendix_b_checks, trace_phase_curve
from lyaprec.variational import (
    Branch,
    ModelParams,
    _folds,
    _moved_root,
    _moved_roots,
    _polish_folds,
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


@pytest.mark.parametrize("rho", [0.0, -0.1, math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda rho: big_F(1.0, rho),
    lambda rho: big_F_scan([1.0, 2.0], rho),
    lambda rho: correction_integral(5.0, rho),
    lambda rho: appendix_b_checks([5.0], rho),
    lambda rho: mf_beta_level(0.5, rho),
], ids=["big_F", "big_F_scan", "correction_integral", "appendix_b_checks",
        "mf_beta_level"])
def test_amplitude_must_be_positive_finite(call, rho):
    with pytest.raises(DomainError, match="^rho must be a positive finite real$"):
        call(rho)


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


@pytest.mark.parametrize("a", [[math.nan], [math.nan, 1.0], [math.inf], [1.0, -math.inf]])
def test_big_f_scan_refuses_non_finite_a(a):
    # as big_F does: a NaN used to come back as NaN after a RuntimeWarning,
    # or to fail the kernel's rule check at the valid point beside it, and
    # +inf to overflow the kernel argument
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="^big_F_scan needs a finite a >= log"):
            big_F_scan(a, 0.1)


def test_big_f_scan_matches_adaptive():
    # big_F is the one-point scan: a point's block mates and panel rule
    # move its value by rounding only (at most 5 ulp seen over rho from
    # 1e-300 to 3)
    rho = 0.123
    avals = np.linspace(math.log(rho) + 1e-3, 6.0, 25)
    scan = big_F_scan(avals, rho)
    ada = np.array([big_F(float(a), rho) for a in avals])
    np.testing.assert_allclose(scan, ada, rtol=4e-15, atol=0.0)


@pytest.mark.parametrize("rho", [1e-6, 0.05, 0.1232, 0.5])
@pytest.mark.parametrize("n", [0, 1, 127, 128, 129, 1000, 8192])
def test_big_f_scan_blocks_are_bit_identical(n, rho):
    # the scan goes to the kernel 128 points at a time: each block's
    # values are those of a scan of that block alone, bit for bit
    rng = np.random.default_rng(n)
    a = math.log(rho) + rng.uniform(0.0, 12.0, n)
    if n:
        a[0] = math.log(rho)
    got = big_F_scan(a, rho)
    assert got.shape == (n,)
    blocks = [big_F_scan(a[i:i + 128], rho) for i in range(0, n, 128)]
    assert np.array_equal(got, np.concatenate(blocks) if blocks else got[:0])


def _big_f_mpmath(a, rho, dps=30):
    # 2*sqrt(L)*(1+rho)*K0(L) with L = log((1+e^a)/(1+rho)) at the float a,
    # K0 in v = c*(e^t - 1), c = rho/(2L): the integrand over t is about
    # 1/(2L) through the layer of width c at v = 0, and is scaled by 2L so
    # that mpmath's absolute error estimate is a relative one
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps + 5):
        a, rho = mp.mpf(a), mp.mpf(rho)
        L = mp.log1p(mp.exp(a)) - mp.log1p(rho)
        c = rho / (2 * L)
        T = mp.log1p(1 / c)

        def f(t):
            v = c * mp.expm1(t)
            return 2 * L * c * mp.exp(t) / (rho - mp.expm1(-L * v * (2 - v)))

        ends = sorted({mp.mpf(0), T} | {T - s for s in (64, 32, 16, 8, 4, 2, 1) if s < T})
        K0 = mp.quad(f, ends, method="gauss-legendre") / (2 * L)
        return float(2 * mp.sqrt(L) * (1 + rho) * K0)


@pytest.mark.parametrize("rho", [1e-300, 1e-12, 1e-8, 0.1])
def test_big_f_scan_matches_mpmath(rho):
    # a - log(rho) in {1, 4, 8}, where L is about rho*e^(a - log rho), and
    # a in {0, 3}, where the layer at v = 0 is about rho/(2L) wide; the
    # graded 15-panel rule this scan replaced was off by 1e-5 to 6e-5 at
    # the first three and by about 0.4 at the last two at rho = 1e-12
    lr = math.log(rho)
    a = np.array([lr + 1.0, lr + 4.0, lr + 8.0, 0.0, 3.0])
    want = np.array([_big_f_mpmath(x, rho) for x in a])
    np.testing.assert_allclose(big_F_scan(a, rho), want, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose([big_F(x, rho) for x in a.tolist()], want, rtol=1e-13, atol=0.0)


def test_correction_integral_at_zero():
    for rho in (0.1, 0.5, 2.0):
        assert correction_integral(0.0, rho) == pytest.approx(
            1.0 / (3.0 * rho), rel=1e-10
        )


# a nan would pass the order checks of each argument unseen, and an inf
# would reach the kernel
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", [
    lambda x: d_of_h1(x, ModelParams(0.1, 5.0)),
    lambda x: lambda_of_h1(x, ModelParams(0.1, 5.0)),
    lambda x: big_F(x, 0.1),
    lambda x: correction_integral(x, 0.1),
], ids=["d_of_h1", "lambda_of_h1", "big_F", "correction_integral"])
def test_non_finite_arguments_raise(call, x):
    with pytest.raises(DomainError, match="finite"):
        call(x)


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


# Roots d of B(b) = beta at the float (rho, beta), with the branch value
# there, from 45-digit mpmath: findroot in log d on log(d*(1+rho)*K0(b)),
# K0 and K1 by mpmath.quad in v = 1 - u on breakpoints graded toward the
# layer of width rho/(2b) at v = 0. They share no code with the solver.
ROOT_NEAR_RHO_C = (0.12328, 5.12018, 0.3828245847809646623068, 0.1622117058714536703877)
ROOTS_AT_FOLD_ROW = (0.1, 5.7, (0.1939979066316587885717468, 0.3540295517512217536179042,
                                0.5558184276624145293822439))


def test_root_near_rho_c_matches_mpmath():
    # phi is small near rho_c, so the residual left by the root solve would
    # err by r/phi in d; the last Newton move takes d to its rounding floor
    rho, beta, d, lam = ROOT_NEAR_RHO_C
    res = lyapunov(ModelParams(rho, beta))
    assert res.selected.d == pytest.approx(d, rel=1e-12)
    assert res.dlambda_drho * rho == pytest.approx(d, rel=1e-12)
    assert res.lambda_ == pytest.approx(lam, rel=1e-15)
    assert solve_h1(ModelParams(rho, beta)).d == pytest.approx([d], rel=1e-12)


def test_three_roots_match_mpmath():
    # the outer roots to 2e-15; the middle one has |phi| = 0.053, where the
    # rounding of K0 alone (1.4e-16 at its last evaluation) moves d by 3e-15
    rho, beta, want = ROOTS_AT_FOLD_ROW
    got = [b.d for b in lyapunov(ModelParams(rho, beta)).all_branches]
    assert got == solve_h1(ModelParams(rho, beta)).d
    for x, y, tol in zip(got, want, (2e-15, 5e-15, 2e-15)):
        assert x == pytest.approx(y, rel=tol)


def test_root_move_contract():
    # the one Newton move of a root: no move at its own level, finite far
    # from it, NaN (not an exception) where the step overflows or phi = 0
    assert _moved_root(0.3, 2.0, 0.4, 0.0, 2.0) == 0.3
    for ratio in (1e-300, 1e300):
        x = _moved_root(0.5, 1.0, 0.5, 0.0, ratio)
        assert isinstance(x, float) and x == pytest.approx(0.5 * ratio ** 0.5, rel=1e-13)
    assert math.isnan(_moved_root(0.5, 1.0, 0.0, 1e-3, 1.0))
    assert math.isnan(_moved_root(0.5, 1.0, 1e-3, 0.0, 1e300))
    assert _moved_roots([0.3, 0.4], 2.0, [0.4, -0.2], [0.0, 0.0], 2.0) == [0.3, 0.4]


def _three_branch_window(rho):
    # independent of the solver's fold scan in b: a dense scan in a for the
    # hump and the dip, each polished by bounded Brent on big_F
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


# the critical amplitude from 30-digit mpmath, where the hump and the dip merge
RHO_C = 0.12328197774653884798


@pytest.mark.parametrize("k", range(2, 16))
def test_fold_window_exactly_below_rho_c(k):
    # below rho_c the pair hides between two scan nodes, which the zoom
    # finds; above it the zoom shows that there is none
    assert _folds(RHO_C * (1.0 - 10.0 ** -k))[3] is not None
    assert _folds(RHO_C * (1.0 + 10.0 ** -k))[3] is None


@pytest.mark.parametrize("rho,most", [
    (0.02, 3), (0.05, 3), (0.1, 3), (RHO_C * (1.0 - 5e-3), 4), (RHO_C * (1.0 - 1e-6), 4)])
def test_fold_polish_kernel_calls(monkeypatch, rho, most):
    # each fold starts where the cubic Hermite of log B across its scan
    # cell is flat, so Newton on phi needs one or two steps even near
    # rho_c, where phi is near its minimum across the cell
    b, B, phi, cells = _folds(rho)
    x, B_x = [], []

    def polish():
        x[:], B_x[:] = _polish_folds(rho, b[cells], B[cells], phi[cells])

    assert kernel_calls(monkeypatch, polish) <= most
    # both folds are zeros of phi, between their scan nodes
    K0, dK0 = _boundary_kernels(np.array(x), rho, rows=2)
    assert np.all(np.abs(1.0 + 2.0 * np.array(x) * dK0 / K0) <= 2e-12)
    assert np.all((b[cells[:, 0]] <= x) & (x <= b[cells[:, 1]]))


def test_one_beta_kernel_calls(monkeypatch):
    # one fold scan for K0 and dK0/db alone, then three-row root-solve
    # steps for all three branches; beta reaches no fold's scan cell, so
    # nothing is polished
    asked = []
    kernels = variational._boundary_kernels

    def counted(b, rho, rows=3):
        asked.append(rows)
        return kernels(b, rho, rows=rows)

    monkeypatch.setattr(variational, "_boundary_kernels", counted)
    lyapunov(ModelParams(0.1, 5.7))
    assert asked[0] == 2 and len(asked) <= 5
    assert set(asked[1:]) == {3}


def test_fold_cells_bracket_sign_changes():
    rng = np.random.default_rng(5)
    near = RHO_C * (1.0 + rng.choice([-1.0, 1.0], 200) * 10.0 ** rng.uniform(-12.0, -3.0, 200))
    for rho in np.concatenate((rng.uniform(0.10, 0.14, 400), near)):
        b, _, phi, cells = _folds(rho)
        assert np.all(np.diff(b) > 0)
        assert (cells is not None) == (rho < RHO_C)
        if cells is not None:
            (h0, h1), (d0, d1) = cells
            assert h1 == h0 + 1 and d1 == d0 + 1
            assert phi[h0] >= 0 > phi[h1] and phi[d0] < 0 <= phi[d1]


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


@pytest.mark.parametrize("rho", [1e-20, 1e-12])
def test_h1_at_tiny_rho(rho):
    # h1 = log(expm1(beta*d^2 + log1p(rho))) is about log(rho) here, which
    # needs every digit of expm1 at an argument near rho
    mp = pytest.importorskip("mpmath")
    sel = lyapunov(ModelParams(rho, 1.0)).selected
    with mp.workdps(40):
        want = float(mp.log(mp.expm1(mp.mpf(sel.d) ** 2 + mp.log1p(rho))))
    assert sel.h1 == pytest.approx(want, rel=1e-14)
    assert sel.h1 == pytest.approx(math.log(rho), rel=1e-6)


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


# (1+r)^(1/phi) underflows in the first Newton steps here, which made the
# step d/(1+r)^(1/phi) divide by zero; such a step bisects instead
@pytest.mark.parametrize("rho", [1e-100, 1e-50, 1e-20])
def test_huge_beta_at_tiny_rho_solves_without_warnings(rho):
    beta = 1e300
    lam = lyapunov(ModelParams(rho, beta)).lambda_
    tol = 1e-9 * abs(lam)
    assert beta / 3.0 + math.log(rho) - tol <= lam <= beta / 3.0 + math.log1p(rho) + tol


# dK0 is about -1/(2b^2), subnormal for b past about 1e154, where the two
# kernel rules differ by subnormal rounding alone; these used to raise
# "boundary kernel rules disagree"
@pytest.mark.parametrize("rho", [1e-8, 1e-3, 0.5, 10.0])
@pytest.mark.parametrize("beta", [1e158, 1e159, 1e160, 1e161, 1e165, 1e175])
def test_subnormal_kernel_slope_solves(rho, beta):
    lam = lyapunov(ModelParams(rho, beta)).lambda_
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


def _logit_route_mpmath(h1, rho, beta, dps=30):
    # log(1+e^h1) - beta^(-1/2) * integral over x in [log rho, h1] of
    # sqrt(log((1+e^h1)/(1+e^x))), taken in w = h1 - x, where the
    # integrand is sqrt(log1p(expm1(w)/(1+e^(w-h1)))) with its square-root
    # zero at w = 0 and the softplus knee (x = 0) at w = h1. Tanh-sinh
    # stops at degree 5, with about two thirds of the integrand calls of
    # the full 30-digit run, and its error estimate is held below 1e-20
    # relative
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        h1 = mp.mpf(h1)
        W = h1 - mp.log(mp.mpf(rho))
        ends = [0, h1, W] if 0 < h1 < W else [0, W]
        integral, err = mp.quad(
            lambda w: mp.sqrt(mp.log1p(mp.expm1(w) / (1 + mp.exp(w - h1)))),
            ends, maxdegree=5, error=True)
        assert err <= 1e-20 * integral
        return float(mp.log1p(mp.exp(h1)) - integral / mp.sqrt(mp.mpf(beta)))


@pytest.mark.parametrize("beta_max", [60.0, 2000.0])
def test_selected_value_matches_logit_route(beta_max):
    # every branch value, and lambda_of_h1 at the branch's logit, against
    # the logit route in 30-digit mpmath, which shares no quadrature with
    # the K1 kernel of both; worst measured 3.3e-15 relative to
    # max(1, |lambda|), where lambda is a small difference of two values
    # near h1
    rng = np.random.default_rng(2015)
    for _ in range(20):
        rho = math.exp(rng.uniform(math.log(1e-12), math.log(3.0)))
        params = ModelParams(rho, rng.uniform(0.0, beta_max))
        for branch in lyapunov(params).all_branches:
            want = _logit_route_mpmath(branch.h1, rho, params.beta)
            tol = 1e-13 * max(1.0, abs(want))
            assert abs(branch.lambda_value - want) <= tol, (rho, params.beta, branch)
            assert abs(lambda_of_h1(branch.h1, params) - want) <= tol, (rho, params.beta, branch)


def test_logit_route_at_large_beta():
    # with h1 far above 40 the logit integrand is sqrt(w) to machine
    # precision away from the softplus knee, so a K15/G7 check is exact
    # on a panel that hides the knee unless the knee gets its own breakpoint
    params = ModelParams(0.05189386099324022, 1826.693155883632)
    res = lyapunov(params)
    # 35-digit mpmath: g(d) = 0 solved in d, branch value through K1
    assert lambda_of_h1(res.selected.h1, params) == pytest.approx(
        605.940799099491067, rel=1e-14
    )


# 30-digit mpmath of the logit route: at a subnormal beta, b/beta
# overflows while b^(3/2)/sqrt(beta) does not
@pytest.mark.parametrize("rho,beta,h1,want", [
    (3.0, 1e-310, 2.0, -5.25177782184348939569901906518e+154),
    (0.5, 5e-324, 1.0, -5.18653976794422056698888011866e+161),
])
def test_logit_route_at_subnormal_beta(rho, beta, h1, want):
    assert lambda_of_h1(h1, ModelParams(rho, beta)) == pytest.approx(want, rel=1e-14)


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
        ("fold search", "_polish_folds", 0.1, 5.5),
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


def test_row_errors_name_the_failing_beta(monkeypatch):
    # only the middle beta of the row misses its target (no fold at 0.3:
    # one root per beta); the error names that beta, not the row
    target = variational._residual_target
    monkeypatch.setattr(variational, "_residual_target",
                        lambda beta: np.where(beta == 2.0, -1.0, target(beta)))
    with pytest.raises(NumericsError) as info:
        variational._solve_row(0.3, [1.0, 2.0, 3.0])
    exc = info.value
    assert (exc.stage, exc.rho, exc.beta, exc.q, exc.index) == ("root refinement", 0.3, 2.0, 1, 1)
    assert str(exc) == ("root refinement at rho=0.3, beta=2.0: "
                        "the roots did not reach the residual target")


def test_kernel_errors_carry_the_failing_element():
    with pytest.raises(NumericsError) as info:
        _boundary_kernels(np.array([1.0, math.inf, 2.0]), 0.1)
    assert info.value.index == 1


def test_stage_names_the_element_of_a_batched_step():
    betas = np.array([1.0, 2.0, 3.0])
    for index, beta in ((1, 2.0), (None, 1.0)):
        exc = NumericsError("forced")
        exc.index = index
        with pytest.raises(NumericsError) as info:
            with _stage("step", 0.1, betas, q=3):
                raise exc
        assert (info.value.beta, info.value.q) == (beta, 3)
        assert str(info.value) == "step at rho=0.1, beta=%r, q=3: forced" % beta


def test_moment_order_errors_name_q(monkeypatch):
    monkeypatch.setattr(
        variational, "_level_roots", _raise_on_call(AccuracyError("forced", 1.0, 1.0))
    )
    with pytest.raises(AccuracyError) as info:
        lyapunov_q(ModelParams(0.3, 1.0, q=2))
    exc = info.value
    assert (exc.stage, exc.rho, exc.beta, exc.q) == ("root refinement", 0.3, 1.0, 2)
    assert str(exc) == "root refinement at rho=0.3, beta=1.0, q=2: forced"


def _row_cases():
    rng = np.random.default_rng(16)
    # the CLI default grid, then seeded rows from beta = 0 and 1e-13 up to
    # 1e200, then probes 1e-9 (relative) inside each window edge
    rows = [(rho, [float(beta) for beta in range(9)]) for rho in (0.025, 0.05, 0.125, 0.2)]
    for rho in (1e-8, 1e-6, 1e-3, 0.05, 0.1232, 0.3, 2.0):
        rows.append((rho, [0.0, 1e-13] + (10.0 ** rng.uniform(-12.0, 200.0, 6)).tolist()))
    for rho, (lo, hi) in WINDOW_EDGES.items():
        lo, hi = float(lo), float(hi)
        rows.append((rho, [lo * (1.0 + 1e-9), 0.5 * (lo + hi), hi * (1.0 - 1e-9), 2.0 * hi]))
    return rows


def test_row_matches_scalar_solves():
    eps = np.finfo(float).eps
    for rho, betas in _row_cases():
        for beta, got in zip(betas, variational._solve_row(rho, betas)):
            want = lyapunov(ModelParams(rho, beta))
            assert len(got.all_branches) == len(want.all_branches), (rho, beta)
            assert got.tie == want.tie
            assert got.lambda_ == pytest.approx(want.lambda_, rel=1e-13)
            for x, y in zip(got.all_branches, want.all_branches):
                assert x.lambda_value == pytest.approx(y.lambda_value, rel=1e-13)
                if abs(x.d - y.d) <= 1e-13 * y.d:
                    continue
                # near a fold phi is small, and a root moves by up to
                # |r|/|phi| in log d inside the residual target
                d = np.array([x.d, y.d])
                b = beta * d * d
                K0, dK0, _ = _boundary_kernels(b, rho)
                target = variational._residual_target(beta) + 4.0 * eps
                assert np.all(np.abs(d * (1.0 + rho) * K0 - 1.0) <= target), (rho, beta)
                phi = 1.0 + 2.0 * b[1] * dK0[1] / K0[1]
                assert abs(math.log(x.d / y.d)) <= 4.0 * target / abs(phi), (rho, beta)


@pytest.mark.parametrize("rho", [2e-308, 1e-310, 1e-320])
def test_fold_scan_overflow_names_stage(rho):
    # the fold scan's nodes overflow to inf below about 1e-307; the kernel
    # refuses b = inf with a NumericsError instead of a bare OverflowError
    with pytest.raises(NumericsError) as info:
        lyapunov(ModelParams(rho, 5.0))
    assert (info.value.stage, info.value.rho, info.value.beta) == ("fold search", rho, 5.0)


# Below rho of about 1e-155 the kernel's dK0/db row overflows, the fold
# scan loses the hump, and the solve lands on a negative value inside the
# window, although lambda >= log(1+rho) always holds: the bound guard
# refuses it. The overflow still warns, which these tests let pass.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("rho,beta", [(1e-155, 900.0), (1e-160, 900.0),
                                      (1e-180, 1000.0), (1e-200, 1000.0)])
def test_values_outside_their_bounds_raise(rho, beta):
    with pytest.raises(AccuracyError) as info:
        lyapunov(ModelParams(rho, beta))
    exc = info.value
    assert (exc.stage, exc.rho, exc.beta, exc.q) == ("bounds", rho, beta, 1)
    assert exc.best_estimate < 0.0 < exc.error_bound
    assert str(exc).startswith("bounds at rho=%r, beta=%r: lambda=" % (rho, beta))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_moment_order_bounds_error_names_q():
    # the q = 1 rate at (1e-160, 2*450) is the wrong value above
    with pytest.raises(AccuracyError) as info:
        lyapunov_q(ModelParams(1e-160, 450.0, q=2))
    exc = info.value
    assert (exc.stage, exc.rho, exc.beta, exc.q) == ("bounds", 1e-160, 450.0, 2)
    assert str(exc).startswith("bounds at rho=1e-160, beta=450.0, q=2: ")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("beta,lam", [(1.0, 1e-160), (5000.0, 1305.2162876223479)])
def test_tiny_rho_values_inside_their_bounds_answer(beta, lam):
    # non-finite fold-scan nodes alone do not make a value wrong
    assert lyapunov(ModelParams(1e-160, beta)).lambda_ == pytest.approx(lam, rel=1e-12)


@pytest.mark.parametrize("rho", [1e-8, 1e-3, 0.1, 0.5, 2.0])
@pytest.mark.parametrize("beta", [1e171, 1e200, 1e250, 1e300, 1.7e308])
def test_huge_beta_values_pass_the_bound_guard(rho, beta):
    # the value sits up to about 1.6e-16*beta below beta/3 + log(rho),
    # inside the guard's allowance of 8 eps*beta
    lam = lyapunov(ModelParams(rho, beta)).lambda_
    tol = 8.0 * np.finfo(float).eps * beta
    assert beta / 3.0 + math.log(rho) - tol <= lam <= beta / 3.0 + math.log1p(rho) + tol


def test_grid_domain_draws_pass_the_bound_guard():
    # the benchmark grid's domain: rho from 1e-8 to 0.5, beta up to 20, q
    # up to 3; every draw answers
    rng = np.random.default_rng(41)
    for _ in range(2000):
        rho = float(10.0 ** rng.uniform(-8.0, math.log10(0.5)))
        beta = float(rng.uniform(0.0, 20.0))
        q = int(rng.integers(1, 4))
        lam = lyapunov_q(ModelParams(rho, beta, q))
        assert q * math.log1p(rho) <= lam * (1.0 + 1e-15), (rho, beta, q)


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


# every function that takes ModelParams but solves q = 1 only
@pytest.mark.parametrize("call", [
    lyapunov,
    solve_h1,
    lambda p: lambda_of_h1(1.0, p),
    lambda p: d_of_h1(1.0, p),
    lambda p: lambda_of_d(0.5, p),
    mf_lambda,
    lambda p: reconstruct_profile(lyapunov(ModelParams(0.1, 2.0)).selected, p),
], ids=["lyapunov", "solve_h1", "lambda_of_h1", "d_of_h1", "lambda_of_d",
        "mf_lambda", "reconstruct_profile"])
def test_q1_solvers_refuse_other_moment_orders(call):
    # the solver they name answers, unlike the q = 1 value 0.1017110050713465
    with pytest.raises(DomainError, match="use lyapunov_q for q = 3$"):
        call(ModelParams(0.1, 2.0, q=3))
    assert lyapunov_q(ModelParams(0.1, 2.0, q=3)) == pytest.approx(0.5443505679360885, rel=1e-12)


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


def test_profile_of_every_branch_at_tiny_rho():
    # the low branch has d = rho and h1 = log(rho) exactly: its profile is
    # flat, while the two upper branches rise from log(rho) to h1
    params = ModelParams(1e-100, 1e3)
    lr = math.log(params.rho)
    branches = lyapunov(params).all_branches
    assert len(branches) == 3 and branches[0].h1 == lr
    for branch in branches:
        prof = reconstruct_profile(branch, params, nodes=401)
        assert prof.grid[0] == 0.0 and prof.grid[-1] == 1.0
        assert prof.h_values[0] == lr and prof.h_values[-1] == branch.h1
        assert np.all(np.diff(prof.h_values) >= 0.0)
        assert prof.energy == 2.0 * params.beta * float(softplus(branch.h1))
    flat = reconstruct_profile(branches[0], params, nodes=401)
    assert np.all(flat.h_values == lr)
    assert np.allclose(flat.f_values, expit(lr), rtol=1e-15, atol=0.0)
    below = Branch(h1=math.nextafter(lr, -math.inf), d=params.rho, lambda_value=0.0)
    with pytest.raises(DomainError):
        reconstruct_profile(below, params)


# (rho, beta, h1, h at nodes 1, 2, 400, 1000, 1600 and 1990 of a 2001-node
# grid): 50-digit mpmath solutions of S(w) = S(W)*(1 - y), with
# S(w) = integral over [0, w] of 2v / sqrt(log((1+e^{h1})/(1+e^{h1-v^2}))),
# W = sqrt(h1 - log(rho)) and h = h1 - w^2, a form the code does not use.
# Rows 4 and 5 are the selected branch of (0.1, 1e6) and the top branch of
# (3.7338993799240465e-05, 6981.216721725687), where h1 is large; in the
# last, 1/rho overflows and the layer at y = 0 is subnormal in the kernel's v
PROFILE_REFERENCE = [
    (0.1, 5.7, -1.0128171220672046,
     (-2.301479434515116031796, -2.300374035387651583393, -1.883953200032201704991,
      -1.375780029334587436464, -1.073115642345743297562, -1.012855088008863998683)),
    (0.05, 8.0, 4.029997942587344,
     (-2.990076344898231919482, -2.984420607747747977028, -0.7672203661581491766314,
      2.082147988904178182705, 3.715892423929188604349, 4.029801435490897994199)),
    (1e-100, 1e3, 752.116978276736,
     (-229.3912625189108405855, -228.5240157384171127892, 112.11697827673583522,
      502.1169782767359047336, 712.1169782767359421641, 752.0919782767359492892)),
    (0.1, 1e6, 999997.6974128075,
     (997.4474128078600210771, 1996.697412807859655367, 359997.6974128077286324,
      749997.6974128075858982, 959997.6974128075090413, 999972.6974128074944111)),
    (3.7338993799240465e-05, 6981.216721725687, 6971.017403421523,
     (-3.219360005399356641494, 3.756135590633784990386, 2503.038701517082360097,
      5225.713222990101082537, 6691.768734552495779236, 6970.842873003480198286)),
    (1e-310, 5.0, 0.0,
     (-713.4435951278164616953, -713.0858114274787582899, -570.6878986930728029582,
      -356.0176784904507597447, -141.3474582878287165311, -1.922276495288135811836)),
]


@pytest.mark.parametrize("rho,beta,h1,want", PROFILE_REFERENCE)
def test_profile_matches_mpmath(rho, beta, h1, want):
    prof = reconstruct_profile(Branch(h1=h1, d=0.5, lambda_value=0.0),
                               ModelParams(rho, beta), nodes=2001)
    got = prof.h_values[[1, 2, 400, 1000, 1600, 1990]]
    assert np.all(np.abs(got - np.array(want)) <= 1e-13 * np.maximum(np.abs(want), 1.0))


@pytest.mark.parametrize("rho,beta", [(0.1, 5.7), (0.05, 8.0), (0.01, 12.0)])
def test_profile_mean_occupation_is_branch_d(rho, beta):
    # h'' = -2*beta*f and h'(1) = 0, so the integral of f over y is
    # h'(0)/(2*beta) = sqrt(L(h1) - L(log rho))/sqrt(beta) = d
    params = ModelParams(rho, beta)
    for branch in lyapunov(params).all_branches:
        prof = reconstruct_profile(branch, params, nodes=2001)
        assert abs(sp_integrate.simpson(prof.f_values, x=prof.grid) - branch.d) <= 1e-12


def test_profile_energy_overflows_to_inf_without_warning():
    params = ModelParams(0.1, 1e300)
    branch = lyapunov(params).selected
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prof = reconstruct_profile(branch, params)
    h = prof.h_values
    assert prof.energy == math.inf
    assert np.all(np.isfinite(h)) and np.all(np.diff(h) >= 0.0)
    assert h[0] == math.log(0.1) and h[-1] == branch.h1


def test_flat_profile_where_b_underflows():
    # one ulp above log(rho) at a subnormal rho, b = L(h1) - L(log rho)
    # rounds to 0
    lr = math.log(1e-310)
    h1 = math.nextafter(lr, 0.0)
    prof = reconstruct_profile(Branch(h1=h1, d=1e-310, lambda_value=0.0),
                               ModelParams(1e-310, 5.0), nodes=11)
    assert np.all(prof.h_values[:-1] == lr) and prof.h_values[-1] == h1


def test_profile_validation():
    params = ModelParams(0.25, 5.0)
    res = lyapunov(params)
    with pytest.raises(DomainError):
        reconstruct_profile(res.selected, params, nodes=1)
    with pytest.raises(DomainError):
        reconstruct_profile(res.selected, ModelParams(0.25, 0.0))

import math
import warnings

import numpy as np
import pytest

from conftest import CURVE_POINTS, WINDOW_EDGES, kernel_calls
from lyaprec import phase, variational
from lyaprec.errors import DomainError, EvaluationError, NumericsError, _stage
from lyaprec.meanfield import mf_beta_level, mf_derivative_jumps, mf_lambda
from lyaprec.phase import (
    appendix_b_checks,
    clausius_clapeyron_check,
    critical_exponent_fit,
    critical_jump_constants,
    jump_coefficients_near_critical,
    locate_critical_point,
    mf_critical_point,
    mf_trace,
    near_critical_rho_grid,
    trace_phase_curve,
)
from lyaprec.variational import (
    ModelParams,
    _folds,
    _polish_folds,
    big_F_scan,
    lambda_of_d,
    lyapunov,
    solve_h1,
)


def test_critical_point_flatness(crit):
    # slope and curvature of the level curve both vanish where the
    # metastable window closes
    h = 0.02
    xs = crit.a_c + h * np.arange(-2.0, 3.0)
    lv = 0.25 * big_F_scan(xs, crit.rho_c) ** 2
    slope = (8.0 * (lv[3] - lv[1]) - (lv[4] - lv[0])) / (12.0 * h)
    curv = (-lv[4] + 16.0 * lv[3] - 30.0 * lv[2] + 16.0 * lv[1] - lv[0]) / (
        12.0 * h * h
    )
    assert abs(slope) < 1e-6
    assert abs(curv) < 1e-4
    assert crit.beta_c == pytest.approx(lv[2], rel=1e-8)


def test_critical_point_digits(crit):
    assert crit.rho_c == pytest.approx(0.12328197886584452, abs=2e-8)
    assert crit.beta_c == pytest.approx(5.120090719378248, abs=2e-6)
    assert crit.a_c == pytest.approx(0.24914843785112906, abs=2e-7)
    assert crit.d_c == pytest.approx(0.37217516154300145, abs=2e-7)
    assert crit.candidates
    assert min(abs(c - crit.a_c) for c in crit.candidates) < 1e-3


def test_meanfield_critical_digits(mf_crit):
    assert mf_crit.rho_c == pytest.approx(math.exp(-2.0), abs=1e-6)
    assert mf_crit.beta_c == pytest.approx(6.0, abs=1e-6)
    assert mf_crit.a_c == pytest.approx(0.5, abs=1e-6)


# the flat-profile hooks spelled out as the benchmark's copy of this finder has them
MF_HOOKS = dict(beta_level=mf_beta_level, d_map=lambda a, rho, beta: a,
                a_domain=lambda rho: (0.02, 0.98), fd_step=0.005)


def test_mf_critical_point_is_the_flat_profile_finder(mf_crit):
    assert mf_crit == locate_critical_point(**MF_HOOKS)
    assert mf_critical_point((0.1, 0.2)) == locate_critical_point(
        rho_bracket=(0.1, 0.2), **MF_HOOKS)


@pytest.mark.parametrize("beta", [6.5, 8.0, 12.0, 30.0])
def test_mf_trace_matches_mf_lambda(beta):
    (p,) = mf_trace([beta])
    assert (p.rho, p.beta_cr) == (math.exp(-beta / 3.0), beta)
    res = mf_lambda(ModelParams(p.rho, p.beta_cr))
    assert res.branch_a1 == pytest.approx(p.d1, abs=1e-9)
    assert res.branch_a2 == pytest.approx(p.d2, abs=1e-9)
    assert (p.jump_drho, p.jump_dbeta) == mf_derivative_jumps(beta)


def test_mf_trace_needs_beta_above_six():
    with pytest.raises(DomainError):
        mf_trace([7.0, 6.0])


def _plain_bisection(min_slope, rho_bracket):
    # the rho bisection on finite-difference slope minima alone, every
    # step and both bracket ends from the slope scan
    rho_lo, rho_hi = rho_bracket
    s_lo, _ = min_slope(rho_lo)
    s_hi, _ = min_slope(rho_hi)
    if not (s_lo < 0 < s_hi):
        raise DomainError(
            "rho bracket does not straddle the critical amplitude: "
            "slope minima %r and %r" % (s_lo, s_hi)
        )
    a_at = None
    while rho_hi - rho_lo > 1e-8 * rho_lo:
        mid = 0.5 * (rho_lo + rho_hi)
        s_mid, a_at = min_slope(mid)
        if s_mid < 0:
            rho_lo = mid
        else:
            rho_hi = mid
    return rho_lo, rho_hi, a_at


def _no_window(rho):
    return None, None, None, None


def _plain_endpoint(monkeypatch, **kwargs):
    # the finder with window tests that report no window, once its slope
    # scans are checked to be the plain bisection's, rho for rho; returns
    # the endpoint and the number of slope scans
    scans, found = [], {}
    min_slope = phase._min_slope

    def recorded(blevel, rho, *args):
        scans.append(rho)
        found[rho] = min_slope(blevel, rho, *args)
        return found[rho]

    with monkeypatch.context() as m:
        m.setattr(phase, "_folds", _no_window)
        m.setattr(phase, "_mf_window", lambda rho: False)
        m.setattr(phase, "_min_slope", recorded)
        got = locate_critical_point(**kwargs)
    asked = []

    def replay(rho):
        asked.append(rho)
        return found[rho]

    _plain_bisection(replay, kwargs.get("rho_bracket", (0.05, 0.3)))
    assert scans == asked
    return got, len(scans)


def _slope_scans(monkeypatch, finder, **kwargs):
    # the finder's result, and the number of slope scans it ran
    calls = []
    min_slope = phase._min_slope

    def counted(*args):
        calls.append(args[1])
        return min_slope(*args)

    with monkeypatch.context() as m:
        m.setattr(phase, "_min_slope", counted)
        got = finder(**kwargs)
    return got, len(calls)


def _exact_min_slope(rho):
    # the finder's slope scan of the exact model on its default logit domain
    lr = math.log(rho)
    return phase._min_slope(phase._beta_level, rho, lr + 1e-6, lr + 10.0, 0.02)


def test_bracket_must_straddle():
    with pytest.raises(DomainError) as plain:
        _plain_bisection(_exact_min_slope, (0.2, 0.3))
    with pytest.raises(DomainError) as info:
        locate_critical_point(rho_bracket=(0.2, 0.3))
    assert str(info.value).startswith(
        "rho bracket does not straddle the critical amplitude: slope minima ")
    assert str(info.value) == str(plain.value)


@pytest.mark.parametrize("bracket", [(0.1232, 0.12329), (0.123295, 0.1234)])
def test_bracket_must_straddle_the_slope_crossing(bracket):
    # at fd_step 0.2 the slope minimum crosses zero near 0.1232932: the
    # first bracket straddles the fold scan's rho_c but not that crossing,
    # so moving the trusted interval reaches its end and the plain check
    def min_slope(rho):
        lr = math.log(rho)
        return phase._min_slope(phase._beta_level, rho, lr + 1e-6, lr + 10.0, 0.2)

    with pytest.raises(DomainError) as plain:
        _plain_bisection(min_slope, bracket)
    with pytest.raises(DomainError) as info:
        locate_critical_point(rho_bracket=bracket, fd_step=0.2)
    assert str(info.value) == str(plain.value)


@pytest.mark.parametrize("bracket", [(0.0, 0.3), (-0.1, 0.3), (0.05, -1.0)])
def test_bracket_must_be_positive(bracket):
    with pytest.raises(DomainError, match="rho bracket must be positive"):
        locate_critical_point(rho_bracket=bracket)


def _no_fold_scan(rho):
    raise AssertionError("the fold scan ran at rho=%r" % rho)


@pytest.mark.parametrize("finder", [locate_critical_point, mf_critical_point])
@pytest.mark.parametrize("bracket", [(0.05, math.inf), (math.inf, 0.3)])
def test_bracket_must_be_finite(monkeypatch, finder, bracket):
    # an infinite end used to bisect forever (exact model) or give a NaN
    # slope minimum (flat profile); it is refused before any fold scan
    monkeypatch.setattr(phase, "_folds", _no_fold_scan)
    with pytest.raises(DomainError, match="^rho must be a positive finite real$"):
        finder(rho_bracket=bracket)


@pytest.mark.parametrize("rho", [0.0, -0.1, math.nan, math.inf])
def test_trace_rejects_bad_amplitudes(monkeypatch, rho):
    monkeypatch.setattr(phase, "_folds", _no_fold_scan)
    with pytest.raises(DomainError, match="^rho must be a positive finite real$"):
        trace_phase_curve([rho])


@pytest.mark.parametrize("rho", [2e-308, 1e-310, 1e-320])
def test_tiny_rho_overflow_is_a_named_numerics_error(rho):
    # the fold scan's nodes overflow to inf here; that is a NumericsError
    # named by the stage, not a bare OverflowError
    with pytest.raises(NumericsError) as info:
        trace_phase_curve([rho])
    assert (info.value.stage, info.value.rho, info.value.beta) == ("fold window", rho, None)
    with pytest.raises(NumericsError) as info:
        locate_critical_point(rho_bracket=(rho, 0.3))
    assert (info.value.stage, info.value.rho) == ("fold search", rho)


OTHER_BRACKETS = [(0.07, 0.3), (0.1, 0.2), (0.12, 0.13), (0.08, 0.25),
                  (0.04, 0.3), (0.05, 0.31), (0.11, 0.15)]


@pytest.mark.parametrize("bracket", OTHER_BRACKETS)
def test_endpoint_from_other_brackets(bracket, crit):
    # the polish ends at the finite-difference noise floor, not at an error
    got = locate_critical_point(rho_bracket=bracket)
    assert got.rho_c == pytest.approx(crit.rho_c, rel=1e-12)
    assert got.a_c == pytest.approx(crit.a_c, abs=1e-9)


@pytest.mark.parametrize("bracket", [(0.05, 0.3)] + OTHER_BRACKETS)
def test_fold_scan_steps_match_plain_bisection(monkeypatch, bracket):
    # the slope scan confirms the answers taken from the window test, so
    # every field of the endpoint is the plain bisection's, bit for bit
    got, scans = _slope_scans(monkeypatch, locate_critical_point, rho_bracket=bracket)
    plain, plain_scans = _plain_endpoint(monkeypatch, rho_bracket=bracket)
    assert got == plain
    assert scans <= plain_scans


@pytest.mark.parametrize("bracket", [
    b for b in [(0.05, 0.3)] + OTHER_BRACKETS if b[0] < math.exp(-2.0) < b[1]])
def test_flat_profile_window_matches_plain_bisection(monkeypatch, bracket):
    # the closed-form window test of mf_beta_level sets the trusted interval
    got, scans = _slope_scans(monkeypatch, mf_critical_point, rho_bracket=bracket)
    plain, plain_scans = _plain_endpoint(monkeypatch, rho_bracket=bracket, **MF_HOOKS)
    assert got == plain
    assert scans <= plain_scans


@pytest.mark.parametrize("fd_step", [0.01, 0.03, 0.05, 0.1, 0.2])
@pytest.mark.parametrize("bracket", [(0.05, 0.3), (0.1232, 0.1234)])
def test_fold_scan_matches_plain_bisection_at_other_steps(monkeypatch, bracket, fd_step):
    # the finite-difference crossing moves with fd_step, away from the
    # fold scan's: the slope scan disputes an end of the final bracket,
    # and the finder moves that side of its trusted interval past the
    # crossing
    kwargs = dict(rho_bracket=bracket, fd_step=fd_step)
    got, scans = _slope_scans(monkeypatch, locate_critical_point, **kwargs)
    plain, plain_scans = _plain_endpoint(monkeypatch, **kwargs)
    assert got == plain
    assert scans <= plain_scans


def _scan_counts(monkeypatch, finder):
    # slope scans and big_F_scan points of one finder call
    points = []
    scan = phase.big_F_scan

    def counted_scan(a_values, rho):
        points.append(np.size(a_values))
        return scan(a_values, rho)

    monkeypatch.setattr(phase, "big_F_scan", counted_scan)
    _, scans = _slope_scans(monkeypatch, finder)
    return scans, sum(points)


def test_fold_scan_leaves_few_slope_scans(monkeypatch):
    scans, points = _scan_counts(monkeypatch, locate_critical_point)
    # the plain bisection takes 30 slope scans and 133,108 scan points
    assert scans <= 2
    assert points <= 17000


def test_flat_profile_window_leaves_few_slope_scans(monkeypatch):
    # the plain bisection takes 30 slope scans; the hook-spelled call, as
    # the benchmark makes it, takes the same window test and as few
    scans, _ = _scan_counts(monkeypatch, mf_critical_point)
    assert scans <= 4
    _, hooked = _slope_scans(monkeypatch, locate_critical_point, **MF_HOOKS)
    assert hooked == scans


# each configuration's slope scans under the recorded window-path walk
# that the trusted interval replaced: the interval takes no more
SCAN_CEILINGS = (
    [(locate_critical_point, {}, 2), (mf_critical_point, {}, 8)]
    + [(locate_critical_point, dict(rho_bracket=b), n)
       for b, n in zip(OTHER_BRACKETS, [4, 4, 2, 7, 7, 2, 2])]
    + [(locate_critical_point, dict(rho_bracket=b, fd_step=step), n)
       for b, counts in [((0.05, 0.3), [2, 7, 12, 15, 18]),
                         ((0.1232, 0.1234), [2, 10, 10, 14, 18])]
       for step, n in zip([0.01, 0.03, 0.05, 0.1, 0.2], counts)]
)


@pytest.mark.parametrize("finder,kwargs,ceiling", SCAN_CEILINGS, ids=[
    "-".join([f.__name__] + ["%s=%s" % (k, v) for k, v in kw.items()]).replace(" ", "")
    for f, kw, _ in SCAN_CEILINGS])
def test_slope_scans_stay_under_the_path_walk(monkeypatch, finder, kwargs, ceiling):
    _, scans = _slope_scans(monkeypatch, finder, **kwargs)
    assert scans <= ceiling


@pytest.mark.parametrize("shift", [1e-5, -1e-5, 3e-7, -3e-7, 5e-8, -5e-8])
def test_misplaced_fold_scan_climbs(monkeypatch, crit, mf_crit, shift):
    # a window test whose crossing lies off the finite-difference one: the
    # slope scan disputes an end of the final bracket, and the finder
    # moves that side of its trusted interval past the crossing; crit and
    # mf_crit, from the default bracket, are the plain bisection's endpoints
    fake_c = crit.rho_c * (1.0 + shift)

    def fake_folds(rho):
        return None, None, None, (np.array([[0, 1], [2, 3]]) if rho < fake_c else None)

    monkeypatch.setattr(phase, "_folds", fake_folds)
    assert locate_critical_point() == crit
    monkeypatch.setattr(phase, "_mf_window", lambda rho: rho < math.exp(-2.0) * (1.0 + shift))
    assert mf_critical_point() == mf_crit


def test_traced_points_structure(mini_curve):
    rhos = [p.rho for p in mini_curve]
    assert rhos == sorted(rhos)
    betas = [p.beta_cr for p in mini_curve]
    assert betas == sorted(betas, reverse=True)
    for p in mini_curve:
        assert 0.0 < p.d1 < p.d2
        assert p.jump_drho == pytest.approx((p.d2 - p.d1) / p.rho, rel=1e-12)
        assert p.jump_dbeta == pytest.approx(
            (p.d2 ** 2 - p.d1 ** 2) / 2.0, rel=1e-12
        )


def test_traced_points_balance_branch_values(mini_curve):
    for p in mini_curve:
        params = ModelParams(p.rho, p.beta_cr)
        assert lambda_of_d(p.d1, params) == pytest.approx(
            lambda_of_d(p.d2, params), abs=1e-8
        )


@pytest.mark.parametrize("rho,most", [(0.1232, 7), (0.12328, 6)])
def test_near_critical_trace_kernel_calls(monkeypatch, rho, most):
    # the hump and the dip share a scan cell here; the zoom between them
    # stops at its first scan with a node where phi < 0
    assert kernel_calls(monkeypatch, lambda: trace_phase_curve([rho])) <= most


def test_traced_point_kernel_calls(monkeypatch):
    # one fold scan, both folds polished together (the only calls that ask
    # for the second-derivative row), and the joint Newton steps on both
    # roots and beta from the equal-area start, one call each
    asked = []
    kernels = variational._boundary_kernels

    def counted(b, rho, rows=3):
        asked.append(rows)
        return kernels(b, rho, rows=rows)

    monkeypatch.setattr(variational, "_boundary_kernels", counted)
    trace_phase_curve([0.05])
    assert len(asked) <= 7
    assert asked.count(3) <= 3
    assert asked.count(4) <= 3


def test_near_critical_curve_kernel_calls(monkeypatch, crit):
    rhos = near_critical_rho_grid(crit)
    assert len(rhos) == 12
    assert kernel_calls(monkeypatch, lambda: trace_phase_curve(rhos)) <= 90


@pytest.mark.parametrize("rho", [1e-8, 1e-12])
def test_tiny_rho_trace_kernel_calls(monkeypatch, rho):
    # the high root lies above the fold scan here (b2 about 27 at 1e-8);
    # the equal-area start follows sqrt(B/b) -> 1 past the scan's top
    # instead of the last node's tangent, and costs at most one more call
    at_1e3 = kernel_calls(monkeypatch, lambda: trace_phase_curve([1e-3]))
    assert kernel_calls(monkeypatch, lambda: trace_phase_curve([rho])) <= at_1e3 + 1


@pytest.mark.parametrize("rho", sorted(CURVE_POINTS))
def test_traced_points_match_mpmath(rho):
    beta_cr, d1, d2 = CURVE_POINTS[rho]
    (p,) = trace_phase_curve([rho])
    # near rho_c the roots move as 1/phi times beta and their residual,
    # which carries the rounding of K0 and K1 into d
    tol = 1e-10 if rho > 0.12 else 1e-12
    assert p.beta_cr == pytest.approx(beta_cr, rel=1e-13)
    assert (p.d1, p.d2) == pytest.approx((d1, d2), rel=tol)


def _solves(monkeypatch):
    # the calls of the fallback root solve
    solves = []
    level_roots = phase._level_roots

    def counted(*args):
        solves.append(args[1])
        return level_roots(*args)

    monkeypatch.setattr(phase, "_level_roots", counted)
    return solves


def test_trace_solves_start_roots_past_their_folds(monkeypatch):
    # swapped start roots lie past the folds, on the other outer branch:
    # the loop solves the roots at the start beta instead of stepping
    start = phase._equal_area_start

    def swapped(*args):
        beta, (d1, d2) = start(*args)
        return beta, [d2, d1]

    monkeypatch.setattr(phase, "_equal_area_start", swapped)
    solves = _solves(monkeypatch)
    (p,) = trace_phase_curve([0.07])
    assert len(solves) == 1
    beta_cr, d1, d2 = CURVE_POINTS[0.07]
    assert p.beta_cr == pytest.approx(beta_cr, rel=1e-13)
    assert (p.d1, p.d2) == pytest.approx((d1, d2), rel=1e-12)


def test_trace_bisects_on_a_root_moved_off_its_piece(monkeypatch):
    # a NaN move, as from an overflowing step, lies on no piece: the loop
    # bisects the window bracket and solves the roots at its midpoint from
    # the last ones
    moved = phase._moved_roots
    first = []

    def fail_once(d, *args):
        if not first:
            first.append(list(d))
            return [math.nan, math.nan]
        return moved(d, *args)

    monkeypatch.setattr(phase, "_moved_roots", fail_once)
    solves = _solves(monkeypatch)
    (p,) = trace_phase_curve([0.07])
    assert len(solves) == 1 and solves[0][0] != p.beta_cr
    beta_cr, d1, d2 = CURVE_POINTS[0.07]
    assert p.beta_cr == pytest.approx(beta_cr, rel=1e-13)
    assert (p.d1, p.d2) == pytest.approx((d1, d2), rel=1e-12)


@pytest.mark.parametrize("rho", [1e-154, 1.8896523396912657e-152, 2.9331662783899645e-71,
                                 1e-20, 0.12328193870126355])
def test_trace_answers_across_the_range(rho):
    # at tiny rho the low root sits within rounding of its piece's lower
    # end, which a moved root may cross without leaving its branch; near
    # rho_c the window is 4e-10 wide in beta. No warning, and the outer
    # branch values balance up to the rounding of their terms (about
    # beta*d^2 each)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (p,) = trace_phase_curve([rho])
    assert 0.0 < p.d1 < p.d2 < 1.0
    params = ModelParams(p.rho, p.beta_cr)
    assert lambda_of_d(p.d2, params) == pytest.approx(lambda_of_d(p.d1, params),
                                                      abs=1e-14 * p.beta_cr)


@pytest.mark.parametrize("rho", [0.1233, 0.124])
def test_no_window_above_rho_c_kernel_calls(monkeypatch, rho):
    # just above rho_c the zoom runs to its 1e-8 floor in log b, one
    # kernel call per scan
    assert kernel_calls(monkeypatch, lambda: lyapunov(ModelParams(rho, 5.1))) <= 10


def test_locate_critical_point_kernel_calls(monkeypatch):
    # the fold scans and the folds' polish; the finite-difference slope
    # scans ask big_F_scan for K0 alone, which is not counted
    assert kernel_calls(monkeypatch, locate_critical_point) <= 70


def test_trace_rejects_one_phase_region():
    with pytest.raises(DomainError):
        trace_phase_curve([0.2])


@pytest.mark.parametrize(
    "stage,name,beta",
    [("fold window", "_folds", None),
     ("coexistence Newton", "_level_at", 7.566814580295705)],
)
def test_trace_errors_name_stage_and_point(monkeypatch, stage, name, beta):
    def fail(*args, **kwargs):
        raise EvaluationError("forced", abscissa=0.5)

    monkeypatch.setattr(phase, name, fail)
    with pytest.raises(EvaluationError) as info:
        trace_phase_curve([0.05])
    exc = info.value
    assert (exc.stage, exc.rho) == (stage, 0.05)
    # the Newton stage starts at the equal-area estimate of beta_cr(0.05)
    if beta is None:
        assert exc.beta is None
    else:
        assert exc.beta == pytest.approx(beta, rel=1e-4)
    # stored and printed as plain floats, not numpy scalars
    assert exc.beta is None or type(exc.beta) is float
    assert str(exc) == "%s at rho=0.05, beta=%r: forced" % (stage, exc.beta)
    assert exc.abscissa == 0.5


def test_stage_prints_plain_floats():
    with pytest.raises(NumericsError) as info:
        with _stage("step", np.float64(0.1), np.float64(5.0)):
            raise NumericsError("forced")
    assert (type(info.value.rho), type(info.value.beta)) == (float, float)
    assert str(info.value) == "step at rho=0.1, beta=5.0: forced"


# the window edges are mpmath values (WINDOW_EDGES), independent of the fold
# finder that gives both the tracer's window and the pieces of solve_h1;
# at tiny rho the hump lies at b = 2.28*rho and beta_hi near 0.44/rho
@pytest.mark.parametrize("edge", ["lo", "mid", "hi"])
@pytest.mark.parametrize("rho", [1e-12, 1e-8, 3e-7, 1e-6, 1e-3, 0.05, 0.1, 0.12, 0.1232])
def test_fold_window_edges_bound_three_branches(rho, edge):
    beta_lo, beta_hi = WINDOW_EDGES[rho]
    if edge == "mid":
        inside, outside = 0.5 * (beta_lo + beta_hi), None
    elif edge == "lo":
        inside, outside = beta_lo * (1 + 1e-9), beta_lo * (1 - 1e-9)
    else:
        inside, outside = beta_hi * (1 - 1e-9), beta_hi * (1 + 1e-9)
    assert len(solve_h1(ModelParams(rho, inside)).roots) == 3
    assert len(lyapunov(ModelParams(rho, inside)).all_branches) == 3
    if outside is not None:
        assert len(solve_h1(ModelParams(rho, outside)).roots) == 1


@pytest.mark.parametrize("rho", sorted(WINDOW_EDGES))
def test_fold_window_matches_mpmath(rho):
    b, B, phi, cells = _folds(rho)
    _, (beta_hi, beta_lo) = _polish_folds(rho, b[cells], B[cells], phi[cells])
    assert (beta_lo, beta_hi) == pytest.approx(WINDOW_EDGES[rho], rel=1e-13)


def test_slope_check_needs_three_points(mini_curve):
    with pytest.raises(DomainError):
        clausius_clapeyron_check(mini_curve[:2])
    # coarse 0.03 spacing: only a rough match is expected here, the
    # 30-point acceptance test owns the 1% bound
    for numeric, formula in clausius_clapeyron_check(mini_curve):
        assert numeric == pytest.approx(formula, rel=0.12)


def test_fit_window_misuse(crit, mini_curve):
    with pytest.raises(DomainError):
        critical_exponent_fit(mini_curve, crit)
    with pytest.raises(DomainError):
        critical_exponent_fit(mini_curve, crit, window=(1e-2, 1e-4))
    with pytest.raises(DomainError):
        jump_coefficients_near_critical(mini_curve, crit)


def test_near_critical_grid_shape(crit):
    rhos = near_critical_rho_grid(crit, n=6)
    assert len(rhos) == 6
    assert rhos == sorted(rhos)
    assert all(0.0 < r < crit.rho_c for r in rhos)


def test_closed_constants(crit):
    consts = critical_jump_constants(crit)
    assert consts["c1"] == pytest.approx(0.19138603, abs=2e-6)
    assert consts["c2"] == pytest.approx(4.17122154, abs=5e-5)
    assert consts["gap_prefactor"] == pytest.approx(3.48744335, abs=5e-5)
    assert consts["curvature_constant"] == pytest.approx(8.14054862, abs=1e-4)
    assert consts["third_derivative"] == pytest.approx(0.34552718, abs=1e-6)
    # the two jump coefficients share one curvature scale
    scale = math.sqrt(crit.rho_c * crit.d_c)
    assert consts["c1"] / consts["c2"] == pytest.approx(scale * scale, rel=1e-9)


def test_asymptotics_report():
    rep = appendix_b_checks([5.0, 20.0], 0.1, cubic_betas=[30.0, 120.0])
    assert rep.sandwich_ok
    assert rep.scaled_gap_bounded
    assert rep.cubic_bounded
    assert rep.scaled_gap_max <= 1.0
    for row in rep.rows:
        assert row["lower"] <= row["value"] <= row["upper"]
        assert row["scaled_gap"] >= 0.0


def test_asymptotics_validation():
    with pytest.raises(DomainError):
        appendix_b_checks([0.5], 0.1)
    with pytest.raises(DomainError):
        appendix_b_checks([5.0], -0.1)

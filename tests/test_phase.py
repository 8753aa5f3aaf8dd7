import math

import numpy as np
import pytest

from conftest import WINDOW_EDGES
from lyaprec import phase, variational
from lyaprec.errors import DomainError, EvaluationError
from lyaprec.phase import (
    appendix_b_checks,
    clausius_clapeyron_check,
    critical_exponent_fit,
    critical_jump_constants,
    jump_coefficients_near_critical,
    locate_critical_point,
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


def _plain_bisection(min_slope, rho_bracket, side):
    # the rho bisection on finite-difference slope minima alone, every
    # step and both bracket ends from the slope scan, side unused
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
    return rho_lo, rho_hi, a_at, True


def _plain_endpoint(monkeypatch, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(phase, "_bisect_rho", _plain_bisection)
        return locate_critical_point(**kwargs)


def test_bracket_must_straddle(monkeypatch):
    with pytest.raises(DomainError) as plain:
        _plain_endpoint(monkeypatch, rho_bracket=(0.2, 0.3))
    with pytest.raises(DomainError) as info:
        locate_critical_point(rho_bracket=(0.2, 0.3))
    assert str(info.value).startswith(
        "rho bracket does not straddle the critical amplitude: slope minima ")
    assert str(info.value) == str(plain.value)


@pytest.mark.parametrize("bracket", [(0.0, 0.3), (-0.1, 0.3), (0.05, -1.0)])
def test_bracket_must_be_positive(bracket):
    with pytest.raises(DomainError, match="rho bracket must be positive"):
        locate_critical_point(rho_bracket=bracket)


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
    # the fold scan decides only steps the slope scan decides the same way,
    # so every field of the endpoint is the plain bisection's, bit for bit
    assert locate_critical_point(rho_bracket=bracket) == _plain_endpoint(
        monkeypatch, rho_bracket=bracket)


def test_fold_scan_leaves_few_slope_scans(monkeypatch):
    calls, points = [], []
    min_slope, scan = phase._min_slope, phase.big_F_scan

    def counted_min_slope(*args, **kwargs):
        calls.append(1)
        return min_slope(*args, **kwargs)

    def counted_scan(a_values, rho):
        points.append(np.size(a_values))
        return scan(a_values, rho)

    monkeypatch.setattr(phase, "_min_slope", counted_min_slope)
    monkeypatch.setattr(phase, "big_F_scan", counted_scan)
    locate_critical_point()
    # the plain bisection takes 30 slope scans and 133,108 scan points
    assert len(calls) <= 8
    assert sum(points) <= 45000


@pytest.mark.parametrize("shift", [1e-5, -1e-5, 3e-7, -3e-7])
def test_misplaced_fold_scan_falls_back(monkeypatch, crit, shift):
    # a fold scan whose crossing lies outside the band around the
    # finite-difference one: the far steps it decides are then wrong, the
    # final bracket is not decided by slope scans at both ends, and the
    # plain bisection runs again
    fake_c = crit.rho_c * (1.0 + shift)

    def fake_folds(rho):
        return None, None, None, (np.array([[0, 1], [2, 3]]) if rho < fake_c else None)

    decided = []
    bisect = phase._bisect_rho

    def spied(*args):
        out = bisect(*args)
        decided.append(out[3])
        return out

    monkeypatch.setattr(phase, "_folds", fake_folds)
    monkeypatch.setattr(phase, "_bisect_rho", spied)
    # crit, from the default bracket, is the plain bisection's endpoint
    assert locate_critical_point() == crit
    assert decided == [False, True]


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


@pytest.mark.parametrize("rho,most", [(0.1232, 40), (0.12328, 52)])
def test_near_critical_trace_kernel_calls(monkeypatch, rho, most):
    # the hump and the dip share a scan cell here; the search between
    # them stops at its first node with phi < 0
    calls = []
    kernels = variational._boundary_kernels

    def counted(*args, **kwargs):
        calls.append(1)
        return kernels(*args, **kwargs)

    monkeypatch.setattr(variational, "_boundary_kernels", counted)
    trace_phase_curve([rho])
    assert len(calls) <= most


def test_trace_rejects_one_phase_region():
    with pytest.raises(DomainError):
        trace_phase_curve([0.2])


@pytest.mark.parametrize(
    "stage,name,beta",
    [("fold window", "_folds", None),
     ("coexistence Newton", "_level_roots", 0.5 * (7.0049 + 10.1037))],
)
def test_trace_errors_name_stage_and_point(monkeypatch, stage, name, beta):
    def fail(*args, **kwargs):
        raise EvaluationError("forced", abscissa=0.5)

    monkeypatch.setattr(phase, name, fail)
    with pytest.raises(EvaluationError) as info:
        trace_phase_curve([0.05])
    exc = info.value
    assert (exc.stage, exc.rho) == (stage, 0.05)
    # the Newton stage starts at the middle of the window (7.0049, 10.1037)
    if beta is None:
        assert exc.beta is None
    else:
        assert exc.beta == pytest.approx(beta, rel=1e-4)
    assert str(exc) == "%s at rho=0.05, beta=%r: forced" % (stage, exc.beta)
    assert exc.abscissa == 0.5


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
    b, _, phi, cells = _folds(rho)
    _, (beta_hi, beta_lo) = _polish_folds(rho, b[cells], phi[cells])
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

"""Shared fixtures; the expensive searches run once per session."""

import pytest
from hypothesis import HealthCheck, settings

from lyaprec import variational
from lyaprec.phase import locate_critical_point, mf_critical_point, trace_phase_curve

settings.register_profile(
    "stable",
    deadline=None,
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("stable")


# Three-branch windows (beta_lo, beta_hi) = (B(b_dip), B(b_hump)) of the
# beta level B(b) = b*(1+rho)^2*K0(b)^2, from 34-digit mpmath: each fold
# solves 1 + 2b*K0'(b)/K0(b) = 0 by findroot in log b, with K0 and K0' by
# adaptive quadrature in v = 1 - u on breakpoints graded toward the layer
# of width rho/(2b) at v = 0. They share no code with the solver.
WINDOW_EDGES = {
    1e-12: (55.3919719754477951226732450644, 439228839891.864765195926730622),
    1e-8: (37.0474280079786148048754010351, 43922885.2086789527368373339412),
    3e-7: (30.3025113440381538613159620158, 1464097.35258376853239246494956),
    1e-6: (27.9230675802153875422632123303, 439230.059506836491337244166075),
    1e-3: (14.4535611026598134812661442445, 440.450229309590205926303582964),
    0.05: (7.00486347635036113596794909072, 10.1037015183850435757473264639),
    0.1: (5.60120460724405441987583881325, 5.84820749480106684570465399562),
    0.12: (5.18799535301481145129092871203, 5.19850526567717938770257366991),
    0.1232: (5.12185832718781213849063610065, 5.12189852267292754340471086366),
    0.12322: (5.12142889465117439886376065595, 5.12145531277873573122163885001),
    0.12326: (5.12056702758475974366055464996, 5.12057260397604859422077642029),
    0.123275: (5.12024233087296665232527712359, 5.12024332831484803346252720953),
    0.1232819: (5.12009243765847056698735703533, 5.12009243883149516267428456598),
    0.12328197: (5.12009091258917889616061778714, 5.12009091262607213470366237589),
}

# First-order curve points (beta_cr, d1, d2) at the float rho, from 45-digit
# mpmath and the same to 30 digits at 60: findroot in (log b1, log b2, beta)
# on B(b1) = B(b2) = beta and equal branch values
# b - 2*(1+rho)*b^(3/2)*K1(b)/sqrt(beta), with K0 and K1 by mpmath.quad in
# v = 1 - u on breakpoints graded toward the layer at v = 0. They share no
# code with the tracer. The last rho is rho_c*(1 - 1e-3), with the mpmath
# endpoint rho_c = 0.12328197774653884798.
CURVE_POINTS = {
    0.04: (8.17541937023094589936585236561, 0.0514065544102785466456768075003,
           0.681564362282932149728213050574),
    0.07: (6.65083050267783971972516093299, 0.107311364588342224178584756976,
           0.628582923666419647600033551136),
    0.1: (5.68408062983455906775940962385, 0.191865050350741963888561384966,
          0.548452369667683429363430967767),
    0.1231586957687923: (5.12277903551729052069639895963, 0.35883827417202400961501191386,
                         0.385489618462846308513475903224),
}


@pytest.fixture(scope="session")
def crit():
    return locate_critical_point()


@pytest.fixture(scope="session")
def mf_crit():
    return mf_critical_point()


@pytest.fixture(scope="session")
def mini_curve():
    return trace_phase_curve([0.04, 0.07, 0.1])


def kernel_calls(monkeypatch, run):
    """The number of boundary-kernel calls the solver makes in run(): those
    with at least the dK0/db row (the fold scan asks for K0 and dK0/db, a
    root solve adds K1, the fold polish b^2*K0''), not big_F_scan's calls
    for K0 alone."""
    calls = []
    kernels = variational._boundary_kernels

    def counted(b, rho, rows=3):
        calls.append(rows >= 2)
        return kernels(b, rho, rows=rows)

    monkeypatch.setattr(variational, "_boundary_kernels", counted)
    run()
    return sum(calls)

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special
from scipy.special import erfi, zeta

from lyaprec import numerics
from lyaprec.errors import AccuracyError, DomainError, EvaluationError
from lyaprec.numerics import (
    QuadratureSpec,
    _boundary_kernels,
    _kernel_rule,
    _logsumexp,
    expit,
    integrate_adaptive,
    integrate_inverse_sqrt_singularity,
    inverse_softplus,
    polylog,
    softplus,
    softplus_diff,
)
from lyaprec.variational import entropy_I


def test_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(relative_tolerance=-1e-9)
    with pytest.raises(DomainError):
        QuadratureSpec(max_subdivisions=0)


def test_adaptive_polynomial():
    got = integrate_adaptive(lambda x: 3.0 * x ** 2 - 2.0 * x + 1.0, -1.0, 2.0)
    assert got == pytest.approx(9.0, abs=1e-12)


def test_adaptive_smooth_reference():
    got = integrate_adaptive(np.exp, 0.0, 1.0)
    assert got == pytest.approx(math.e - 1.0, rel=1e-12)


def test_adaptive_degenerate_interval():
    assert integrate_adaptive(np.exp, 2.0, 2.0) == 0.0


def test_adaptive_reports_failure():
    spec = QuadratureSpec(1e-15, 1e-300, 1)
    with pytest.raises(AccuracyError) as exc:
        integrate_adaptive(lambda x: np.sin(40.0 * x), 0.0, 10.0, spec=spec)
    assert math.isfinite(exc.value.best_estimate)
    assert exc.value.error_bound > 0.0


def test_adaptive_panel_budget():
    # unresolvable oscillation: panels keep failing their share until the
    # global panel cap trips
    spec = QuadratureSpec(1e-13, 1e-300, 60)
    with pytest.raises(AccuracyError) as exc:
        integrate_adaptive(lambda x: np.sin(1e8 * x), 0.0, 10.0, spec=spec)
    assert "panel budget" in str(exc.value)


def test_adaptive_bad_abscissa():
    with pytest.raises(EvaluationError):
        integrate_adaptive(lambda x: np.where(x > 0.5, np.nan, x), 0.0, 1.0)


def test_sqrt_singularity_power_laws():
    # integral of y^(k-1/2) over [0, U] has the closed form U^(k+1/2)/(k+1/2)
    for k in range(5):
        got = integrate_inverse_sqrt_singularity(
            lambda y, k=k: y ** (k - 0.5), 2.0
        )
        assert got == pytest.approx(2.0 ** (k + 0.5) / (k + 0.5), rel=1e-12)


def test_sqrt_singularity_erfi_reference():
    got = integrate_inverse_sqrt_singularity(
        lambda y: np.exp(y) / np.sqrt(y), 2.0
    )
    want = math.sqrt(math.pi) * float(erfi(math.sqrt(2.0)))
    assert got == pytest.approx(want, rel=1e-11)


def test_sqrt_singularity_edges():
    assert integrate_inverse_sqrt_singularity(lambda y: 1.0 / np.sqrt(y), 0.0) == 0.0
    with pytest.raises(DomainError):
        integrate_inverse_sqrt_singularity(lambda y: y, -1.0)


# (rho, b, K0, K1, dK0/db) from 50-digit mpmath quadrature of the u form,
# with breakpoints crowding toward u = 1 at the layer width rho/(2b)
KERNEL_REFERENCE = [
    (0.1, 1.0, 2.1545017411809585015, 1.0544389449807869399, -1.108084441666641318),
    (0.05, 18.0, 1.03406808032160604, 0.39691396963136216386, -0.0046069717376897748052),
    (1e-8, 200.0, 1.0460620292524288439, 0.37937473167724369926, -0.00023036217364063462667),
    (1e-12, 50.0, 1.2764784850538721718, 0.60947781488579193627, -0.0055330145390087912656),
    (0.1, 1e-12, 9.9999999999333327782, 3.333333333319999815, -66.666666665546659265),
    (0.3, 0.0, 3.3333333333333334567, 1.1111111111111111522, -7.4074074074074079557),
    (2.0, 5.0, 0.3487253066187536846, 0.12322518010319963816, -0.0035706414670311772673),
    (1e-4, 1e4, 1.0003604900795743704, 0.3337604751942297884, -4.6048419084765786108e-8),
]


@pytest.mark.parametrize("rho,b,k0,k1,dk0", KERNEL_REFERENCE)
def test_boundary_kernels_match_mpmath(rho, b, k0, k1, dk0):
    got = _boundary_kernels(b, rho)
    for value, ref in zip(got, (k0, k1, dk0)):
        assert value.shape == (1,)
        assert float(value[0]) == pytest.approx(ref, rel=1e-14)
    # an array call that includes b agrees with the scalar call
    K0, K1, dK0 = _boundary_kernels([0.5 * b, b], rho)
    assert K0[1] == pytest.approx(k0, rel=1e-14)


@pytest.mark.parametrize("b,rho", [(0.7092, 0.1233), (2.28e-8, 1e-8), (20.0, 1e-8)])
def test_second_derivative_row_matches_central_differences(b, rho):
    # the row is b^2*d^2K0/db^2; fourth-order central differences of
    # dK0/db, all in one call so that one panel rule serves every point
    h = 1e-3 * b
    K0, K1, dK0, ddK0_b2 = _boundary_kernels(b + h * np.array([-2.0, -1.0, 0.0, 1.0, 2.0]), rho,
                                             rows=4)
    fd = (8.0 * (dK0[3] - dK0[1]) - (dK0[4] - dK0[0])) / (12.0 * h)
    assert ddK0_b2[2] / b ** 2 == pytest.approx(fd, rel=2e-10)
    # the other rows agree with a call without it to rounding
    for with_row, without in zip((K0, K1, dK0), _boundary_kernels(b + h * np.array(
            [-2.0, -1.0, 0.0, 1.0, 2.0]), rho)):
        np.testing.assert_allclose(with_row, without, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("rho", [1e-300, 1e-8, 0.1232, 2.0])
def test_boundary_kernels_leading_rows(rho):
    # rows=1 is K0 alone, which stays in range where dK0/db overflows
    # (rho below about 1e-154); elsewhere each count of rows agrees with
    # the others to rounding
    b = np.array([0.0, rho, 0.5, 3.0, 40.0])
    (K0,) = _boundary_kernels(b, rho, rows=1)
    assert np.all(np.isfinite(K0)) and K0[0] == pytest.approx(1.0 / rho, rel=1e-15)
    if rho < 1e-154:
        return
    for rows in (3, 4):
        got = _boundary_kernels(b, rho, rows=rows)
        assert len(got) == rows
        np.testing.assert_allclose(got[0], K0, rtol=1e-15, atol=0.0)


def _boundary_kernels_uncached(b, rho):
    # the kernel family with its panel rule built afresh on every call
    b = np.atleast_1d(np.asarray(b, dtype=float))
    b_max = float(b.max())
    doublings = 1
    if b_max > 0.0:
        doublings = max(1, math.ceil(math.log2(2.0 * b_max / min(rho, 1.0))))
    scale = np.ldexp(1.0, np.arange(-doublings - 1, 0))
    scale[0] = scale[1]
    v = np.multiply.outer(scale, numerics._KERNEL_DOUBLING)
    v[0] = scale[0] * numerics._KERNEL_FIRST
    v = v.ravel()
    layer = v * (2.0 - v)
    weights = np.multiply.outer(scale, numerics._KERNEL_WEIGHTS).reshape(-1, 2)
    n = v.size
    buf = np.empty((b.size, 3, n))
    inv, inv_u2, slope = buf[:, 0], buf[:, 1], buf[:, 2]
    np.multiply.outer(b, -layer, out=slope)
    np.expm1(slope, out=slope)
    np.subtract(rho, slope, out=inv)
    np.reciprocal(inv, out=inv)
    np.multiply(inv, (1.0 - v) ** 2, out=inv_u2)
    slope += 1.0
    slope *= layer
    slope *= inv
    slope *= inv
    vals = (buf.reshape(-1, n) @ weights).reshape(b.size, 3, 2)
    vals[:, 2] *= -1.0
    return vals[:, 0, 0], vals[:, 1, 0], vals[:, 2, 0]


def test_boundary_kernels_cached_rule_is_bit_identical():
    rng = np.random.default_rng(7)
    for _ in range(300):
        rho = 10.0 ** rng.uniform(-8.0, 0.5)
        size = int(rng.integers(1, 40))
        b = 10.0 ** rng.uniform(-6.0, 4.0, size)
        b[rng.random(size) < 0.2] = 0.0
        for arg in (b, float(b[0]), 0.0):
            got = _boundary_kernels(arg, rho)
            want = _boundary_kernels_uncached(arg, rho)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)


def test_kernel_rule_is_read_only():
    _boundary_kernels([0.5, 3.0], 0.1)
    for doublings in (1, 5, 40):
        for arr in _kernel_rule(doublings):
            assert arr.flags.writeable is False
            with pytest.raises(ValueError):
                arr[0] = 0.0
    assert _kernel_rule(5) is _kernel_rule(5)


def test_kernel_rule_cache_under_threads():
    # the shared rule cache hands every thread the same values as a
    # rule built afresh, while threads race to fill it
    cases = [(10.0 ** k, 0.1) for k in range(-3, 5)]
    want = [_boundary_kernels_uncached(b, rho) for b, rho in cases]
    errors = []

    def work():
        for _ in range(20):
            for (b, rho), ref in zip(cases, want):
                got = _boundary_kernels(b, rho)
                if not all(np.array_equal(g, w) for g, w in zip(got, ref)):
                    errors.append((b, rho))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _kernel_rule.cache_clear()
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_polylog_anchors():
    z2 = math.pi ** 2 / 6.0
    z3 = float(zeta(3))
    l2 = math.log(2.0)
    assert polylog(2, 1.0) == pytest.approx(z2, rel=1e-14)
    assert polylog(2, 0.5) == pytest.approx(z2 / 2.0 - l2 * l2 / 2.0, rel=1e-14)
    assert polylog(3, 1.0) == pytest.approx(z3, rel=1e-14)
    assert polylog(3, 0.5) == pytest.approx(
        7.0 * z3 / 8.0 - z2 * l2 / 2.0 + l2 ** 3 / 6.0, rel=1e-14
    )
    assert polylog(2, 0.0) == 0.0


def test_polylog_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    for order in (2, 3):
        for z in (0.01, 0.2, 0.45, 0.7, 0.93, 0.999, 1.0):
            want = float(mp.polylog(order, z))
            assert polylog(order, z) == pytest.approx(want, rel=1e-12, abs=1e-13)


def test_polylog_derivative_identity():
    # z * d/dz Li3(z) = Li2(z)
    for z in (0.3, 0.55, 0.8):
        h = 1e-6
        fd = (polylog(3, z + h) - polylog(3, z - h)) / (2.0 * h)
        assert fd == pytest.approx(polylog(2, z) / z, rel=1e-8)


def test_polylog_domain():
    for bad in (1.2, -0.5, -1.5):
        with pytest.raises(DomainError):
            polylog(2, bad)
    with pytest.raises(DomainError):
        polylog(4, 0.5)


@given(st.floats(min_value=-12.0, max_value=30.0))
def test_softplus_roundtrip(x):
    assert float(inverse_softplus(softplus(x))) == pytest.approx(x, abs=1e-8)


def test_inverse_softplus_domain():
    with pytest.raises(DomainError):
        inverse_softplus(0.0)
    with pytest.raises(DomainError):
        inverse_softplus(-1.0)


def test_inverse_softplus_matches_mpmath():
    # log(expm1(y)) to a few ulp from y = 1e-300, where it is log(y), up
    # to 10^2.5; near its zero at y = log(2) the relative error grows
    # without bound, so |x| < 0.1 is skipped
    mp = pytest.importorskip("mpmath")
    ys = 10.0 ** np.linspace(-300.0, 2.5, 1000)
    with mp.workdps(40):
        want = np.array([float(mp.log(mp.expm1(mp.mpf(y)))) for y in ys])
    got = inverse_softplus(ys)
    far = np.abs(want) >= 0.1
    assert np.all(np.abs(got - want)[far] <= 1e-15 * np.abs(want)[far])


@given(
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=-50.0, max_value=50.0),
)
def test_softplus_diff_consistency(a, b):
    hi, lo = max(a, b), min(a, b)
    stable = float(softplus_diff(hi, lo))
    direct = float(softplus(hi) - softplus(lo))
    assert stable == pytest.approx(direct, abs=1e-9)
    assert stable >= 0.0


def test_softplus_diff_broadcasts():
    out = softplus_diff(np.array([1.0, 2.0, 3.0]), 0.5)
    assert out.shape == (3,)
    assert np.all(np.diff(out) > 0)


# The package computes without SciPy; these pin its own helpers to the
# SciPy functions they replace.


@pytest.mark.parametrize("n", [7, 15])
def test_legendre_tables_are_scipys(n):
    nodes, weights = special.roots_legendre(n)
    assert getattr(numerics, "_NODES%d" % n).tobytes() == nodes.tobytes()
    assert getattr(numerics, "_WEIGHTS%d" % n).tobytes() == weights.tobytes()


def _same(got, want):
    return (got == want) | (np.isnan(got) & np.isnan(want))


def test_scalar_expit_is_scipys_bit_for_bit():
    rng = np.random.default_rng(41)
    x = np.concatenate([rng.normal(0.0, 30.0, 50_000), rng.uniform(-800.0, 800.0, 50_000),
                        np.linspace(-745.2, -709.0, 2001), rng.uniform(-745.2, -709.0, 2000),
                        [0.0, -0.0, math.inf, -math.inf, math.nan, -709.78, -709.79]])
    got = np.array([expit(v) for v in x.tolist()])
    assert all(type(expit(v)) is float for v in (0.5, np.float64(-800.0), np.array(3.0)))
    assert _same(got, special.expit(x)).all()


def test_array_expit_within_three_eps_of_scipy():
    # np.exp may be 1 ulp off libm; the sum and the division carry that
    # to at most about 2.1 eps relative
    rng = np.random.default_rng(43)
    x = np.concatenate([rng.normal(0.0, 30.0, 50_000), rng.uniform(-800.0, 800.0, 50_000),
                        [0.0, math.inf, -math.inf]])
    got, want = expit(x), special.expit(x)
    assert got.shape == x.shape
    assert np.all(np.abs(got - want) <= 3.0 * np.finfo(float).eps * want)
    assert np.isnan(expit(np.array([math.nan]))[0])


def test_logsumexp_is_scipys_bit_for_bit():
    rng = np.random.default_rng(47)
    for _ in range(3000):
        size = int(rng.integers(1, 300))
        a = rng.normal(0.0, float(10.0 ** rng.uniform(-3.0, 3.0)), size)
        if size > 1 and rng.random() < 0.3:  # a[0] stays finite
            a[rng.integers(1, size, int(rng.integers(1, size)))] = -math.inf
        if rng.random() < 0.3:  # tied maxima
            a[rng.integers(0, size, int(rng.integers(1, size + 1)))] = a.max()
        if rng.random() < 0.1:
            a = np.round(a)
        assert _logsumexp(a) == float(special.logsumexp(a))
    for a in ([math.inf, 1.0], [1.0], [700.0, 710.0, 710.0], [-math.inf, 3.0, -math.inf]):
        assert _logsumexp(np.array(a)) == float(special.logsumexp(a))


def test_entropy_is_the_xlogy_form():
    rng = np.random.default_rng(53)
    x = np.concatenate([rng.random(20_000), 10.0 ** rng.uniform(-320.0, 0.0, 2000),
                        1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 2000), [0.0, 1.0, 0.5]])
    want = special.xlogy(x, x) + special.xlogy(1.0 - x, 1.0 - x)
    got = np.array([entropy_I(v) for v in x.tolist()])
    assert np.array_equal(got, want)
    # the array form rounds numpy's log
    assert np.allclose(entropy_I(x), want, rtol=1e-15, atol=0.0)

import math
import sys
import threading

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special
from scipy.special import zeta

from lyaprec import numerics
from lyaprec.errors import AccuracyError, DomainError
from lyaprec.numerics import (
    _boundary_kernels,
    _kernel_rule,
    _logsumexp,
    expit,
    inverse_softplus,
    polylog,
    softplus,
    softplus_diff,
)
from lyaprec.variational import _FOLD_GRID, entropy_I


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
    for value, ref in zip(got, (k0, dk0, k1)):
        assert value.shape == (1,)
        assert float(value[0]) == pytest.approx(ref, rel=1e-14)
    # an array call that includes b agrees with the scalar call
    K0, dK0, K1 = _boundary_kernels([0.5 * b, b], rho)
    assert K0[1] == pytest.approx(k0, rel=1e-14)


@pytest.mark.parametrize("rho,b1,step", [(0.1232, 0.7, 2.0 ** -20), (0.1232, 0.7, 2.0 ** -40),
                                         (0.04, 0.0216, 3.78), (1e-8, 1e-14, 27.0)])
def test_k1_difference_keeps_its_digits(rho, b1, step):
    # against 40-digit mpmath at the same float b; the difference of two
    # rounded K1 errs by about an ulp of K1 over K1(b2) - K1(b1): 7e-11
    # relative at the 2^-20 step and 7e-6 at 2^-40, against 2.5e-16 here
    b2 = b1 + step
    assert b2 - b1 == step
    got = numerics._k1_difference(rho, b1, b2, step)
    with mpmath.workdps(40):
        def k1(b):
            f = lambda u: u * u / (rho - mpmath.expm1(b * (u * u - 1)))
            layer = [1 - mpmath.mpf(rho) / (2 * b) * 2 ** -j for j in range(8)]
            return mpmath.quad(f, [0] + sorted(x for x in layer if x > 0) + [1])
        want = k1(mpmath.mpf(b2)) - k1(mpmath.mpf(b1))
    assert got == pytest.approx(float(want), rel=1e-15)
    # wide apart, it is the kernel's own K1 difference to rounding
    K1 = _boundary_kernels([b1, b2], rho)[2]
    assert got == pytest.approx(K1[1] - K1[0], rel=1e-14, abs=4e-16 * abs(K1[1]))


@pytest.mark.parametrize("b,rho", [(0.7092, 0.1233), (2.28e-8, 1e-8), (20.0, 1e-8)])
def test_second_derivative_row_matches_central_differences(b, rho):
    # the row is b^2*d^2K0/db^2; fourth-order central differences of
    # dK0/db, all in one call so that one panel rule serves every point
    h = 1e-3 * b
    K0, dK0, K1, ddK0_b2 = _boundary_kernels(b + h * np.array([-2.0, -1.0, 0.0, 1.0, 2.0]), rho,
                                             rows=4)
    fd = (8.0 * (dK0[3] - dK0[1]) - (dK0[4] - dK0[0])) / (12.0 * h)
    assert ddK0_b2[2] / b ** 2 == pytest.approx(fd, rel=2e-10)
    # the other rows agree with a call without it to rounding
    for with_row, without in zip((K0, dK0, K1), _boundary_kernels(b + h * np.array(
            [-2.0, -1.0, 0.0, 1.0, 2.0]), rho)):
        np.testing.assert_allclose(with_row, without, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("rho", [1e-300, 1e-8, 0.1232, 2.0])
def test_boundary_kernels_leading_rows(rho):
    # rows=1 is K0 alone, which stays in range where dK0/db overflows
    # (rho below about 1e-154); elsewhere each count of rows gives the
    # leading rows of K0, dK0/db, K1, b^2*K0'' to rounding
    b = np.array([0.0, rho, 0.5, 3.0, 40.0])
    (K0,) = _boundary_kernels(b, rho, rows=1)
    assert np.all(np.isfinite(K0)) and K0[0] == pytest.approx(1.0 / rho, rel=1e-15)
    if rho < 1e-154:
        return
    want = (K0,) + _boundary_kernels(b, rho, rows=4)[1:]
    # at b = 0: dK0/db = -(2/3)/rho^2 and K1 = (1/3)/rho
    assert (want[1][0], want[2][0]) == pytest.approx((-2.0 / (3.0 * rho * rho), 1.0 / (3.0 * rho)),
                                                     rel=1e-14)
    for rows in (2, 3, 4):
        got = _boundary_kernels(b, rho, rows=rows)
        assert len(got) == rows
        for row, ref in zip(got, want):
            np.testing.assert_allclose(row, ref, rtol=1e-15, atol=0.0)


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
    buf = np.empty((3, b.size, n))
    inv, slope, inv_u2 = buf
    np.multiply.outer(b, -layer, out=slope)
    np.expm1(slope, out=slope)
    np.subtract(rho, slope, out=inv)
    np.reciprocal(inv, out=inv)
    np.multiply(inv, (1.0 - v) ** 2, out=inv_u2)
    slope += 1.0
    slope *= layer
    slope *= inv
    slope *= inv
    vals = (buf.reshape(-1, n) @ weights).reshape(3, b.size, 2)
    vals[1] *= -1.0
    return vals[0, :, 0], vals[1, :, 0], vals[2, :, 0]


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


@pytest.mark.parametrize("rows,index", [(1, 2), (2, 2), (3, 2), (4, 1)])
def test_boundary_kernels_error_names_the_first_offending_b(monkeypatch, rows, index):
    # one doubling panel cannot resolve the layer at b = 500; at b = 0.2
    # only the b^2*K0'' row of rows=4 fails its Gauss check
    monkeypatch.setattr(numerics, "_kernel_doublings", lambda b_max, rho: 1)
    with pytest.raises(AccuracyError) as info:
        _boundary_kernels([0.1, 0.2, 500.0, 0.3], 0.1, rows=rows)
    assert info.value.index == index
    if index == 2:
        assert info.value.best_estimate == pytest.approx(0.90972, rel=1e-5)


def test_fold_scan_rows_keep_the_bits_of_three_rows():
    # on the fold-scan shape, K0 and dK0/db of rows=2 are those of rows=3
    # bit for bit
    rng = np.random.default_rng(5)
    for rho in 10.0 ** rng.uniform(-100.0, math.log10(2.0), 400):
        b = rho / 16.0 * (16.0 * 256.0 / rho) ** _FOLD_GRID
        two, three = _boundary_kernels(b, rho, rows=2), _boundary_kernels(b, rho, rows=3)
        assert np.array_equal(two[0], three[0]) and np.array_equal(two[1], three[1])


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


@pytest.mark.parametrize("n", [7])
def test_legendre_tables_are_scipys(n):
    nodes, weights = special.roots_legendre(n)
    assert getattr(numerics, "_NODES%d" % n).tobytes() == nodes.tobytes()
    assert getattr(numerics, "_WEIGHTS%d" % n).tobytes() == weights.tobytes()


# The nonnegative nodes of the 15-point Gauss-Kronrod rule from the outside
# in, then the weights of the same nodes, to 33 digits (the qk15 rule of
# QUADPACK, re-derived by solving its exactness equations at 60 digits).
_QK15_NODES = [
    "0.991455371120812639206854697526329", "0.949107912342758524526189684047851",
    "0.864864423359769072789712788640926", "0.741531185599394439863864773280788",
    "0.586087235467691130294144838258730", "0.405845151377397166906606412076961",
    "0.207784955007898467600689403773245", "0"]
_QK15_WEIGHTS = [
    "0.022935322010529224963732008058970", "0.063092092629978553290700663189204",
    "0.104790010322250183839876322541518", "0.140653259715525918745189590510238",
    "0.169004726639267902826583426598550", "0.190350578064785409913256402421014",
    "0.204432940075298892414161999234649", "0.209482141084727828012999174891714"]


def test_kronrod_table_is_qk15():
    nodes, weights = numerics._K15_NODES, numerics._K15_WEIGHTS
    half_nodes = [float(mpmath.mpf(s)) for s in _QK15_NODES]
    half_weights = [float(mpmath.mpf(s)) for s in _QK15_WEIGHTS]
    want_nodes = np.array([-x for x in half_nodes] + half_nodes[-2::-1])
    want_weights = np.array(half_weights + half_weights[-2::-1])
    assert nodes[0::2].tobytes() == want_nodes[0::2].tobytes()
    assert nodes[1::2].tobytes() == numerics._NODES7.tobytes()
    assert weights.tobytes() == want_weights.tobytes()
    assert numerics._G7_WEIGHTS[1::2].tobytes() == numerics._WEIGHTS7.tobytes()
    assert not numerics._G7_WEIGHTS[0::2].any()
    for k in range(0, 23, 2):
        assert float(weights @ nodes ** k) == pytest.approx(2.0 / (k + 1), rel=0.0, abs=1e-15)
    # the strings themselves: exact to their own digits in every moment
    with mpmath.workdps(40):
        xs = [mpmath.mpf(s) for s in _QK15_NODES]
        ws = [mpmath.mpf(s) for s in _QK15_WEIGHTS]
        for k in range(0, 23, 2):
            got = ws[-1] * (k == 0) + 2 * mpmath.fsum(w * x ** k for w, x in zip(ws[:-1], xs))
            assert abs(got - mpmath.mpf(2) / (k + 1)) < 1e-31


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

import itertools
import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from lyaprec import simulate
from lyaprec.errors import BudgetError, DomainError
from lyaprec.variational import ModelParams, lyapunov, lyapunov_q
from lyaprec.simulate import (
    NoiseSpec,
    SimSpec,
    clt_check,
    estimate_moment,
    exact_moment,
    lln_check,
    simulate_paths,
)
from lyaprec.simulate import _chunk_rng, _chunk_sizes, _normal_cdf, _simulate_chunk


def test_spec_validation():
    with pytest.raises(DomainError):
        SimSpec(n=0, rho=0.2, sigma=0.1)
    with pytest.raises(DomainError):
        SimSpec.from_beta(0, 0.2, 1.0)
    with pytest.raises(DomainError):
        SimSpec(n=4, rho=-0.1, sigma=0.1)
    with pytest.raises(DomainError):
        SimSpec(n=4, rho=0.2, sigma=-1.0)
    with pytest.raises(DomainError):
        SimSpec(n=4, rho=0.2, sigma=0.1, q=0)
    with pytest.raises(DomainError):
        NoiseSpec(kind="bogus")
    with pytest.raises(DomainError):
        NoiseSpec(kind="exponential", value=0.0)


@pytest.mark.parametrize("seed", [1.5, "7", None, -1, 2 ** 64, np.int64(-3)])
def test_spec_needs_64_bit_seed(seed):
    with pytest.raises(DomainError, match=r"^seed must be an integer in \[0, 2\*\*64\)$"):
        SimSpec(n=4, rho=0.2, sigma=0.1, seed=seed)


def test_largest_seed_runs_and_differs_from_zero():
    top = SimSpec(n=12, rho=0.2, sigma=0.1, paths=100, seed=2 ** 64 - 1)
    assert estimate_moment(top) != estimate_moment(replace(top, seed=0))
    assert estimate_moment(top) == estimate_moment(replace(top, seed=np.uint64(2 ** 64 - 1)))
    # the LLN ladder's seeds seed + j wrap below 2**64, for a numpy seed too
    ladder = lln_check(top, ladder=2)
    assert ladder.rows[0][0] == 12
    assert lln_check(replace(top, seed=np.uint64(2 ** 64 - 1)), ladder=2) == ladder


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field", ["rho", "sigma", "tau", "x0"])
def test_spec_needs_finite_inputs(field, value):
    kwargs = dict(n=4, rho=0.2, sigma=0.1)
    kwargs[field] = value
    with pytest.raises(DomainError):
        SimSpec(**kwargs)


@pytest.mark.parametrize("kind", ["constant", "exponential", "uniform"])
def test_noise_needs_finite_value(kind):
    with pytest.raises(DomainError, match="^noise value must be finite$"):
        NoiseSpec(kind=kind, value=math.inf)


def test_from_beta_needs_finite_beta():
    with pytest.raises(DomainError):
        SimSpec.from_beta(10, 0.2, math.inf)
    # no amplitude at all is a valid, deterministic chain
    assert SimSpec.from_beta(10, 0.0, 1.0).rho == 0.0


def test_from_beta_roundtrip():
    s = SimSpec.from_beta(50, 0.2, 2.0)
    assert s.sigma == pytest.approx(math.sqrt(4.0) / 50.0, rel=1e-15)
    assert s.beta == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(DomainError):
        SimSpec.from_beta(10, 0.2, -1.0)


def test_single_step_is_deterministic():
    # the first multiplier carries no noise, so n=1 collapses to 1+rho
    s = SimSpec(n=1, rho=0.25, sigma=0.3, paths=100, seed=5)
    assert exact_moment(s).log_moment == pytest.approx(math.log(1.25), rel=1e-14)
    mc = estimate_moment(s)
    assert mc.log_moment == pytest.approx(math.log(1.25), rel=1e-12)
    assert mc.stderr_log == pytest.approx(0.0, abs=1e-12)


def test_exact_small_n_hand_values():
    assert exact_moment(SimSpec(n=2, rho=0.3, sigma=0.5)).log_moment == pytest.approx(
        2.0 * math.log(1.3), rel=1e-13
    )
    w = math.exp(0.25)  # sigma^2 tau
    want = 1.0 + 3 * 0.3 + 0.3 ** 2 * (2.0 + w) + 0.3 ** 3 * w
    assert exact_moment(SimSpec(n=3, rho=0.3, sigma=0.5)).log_moment == pytest.approx(
        math.log(want), rel=1e-13
    )


def test_exact_matches_subset_bruteforce():
    n, rho, sigma = 6, 0.35, 0.4
    total = 0.0
    for r in range(n + 1):
        for sub in itertools.combinations(range(n), r):
            expo = sigma * sigma * sum(
                min(i, j) for i, j in itertools.combinations(sub, 2)
            )
            total += rho ** r * math.exp(expo)
    got = exact_moment(SimSpec(n=n, rho=rho, sigma=sigma)).log_moment
    assert got == pytest.approx(math.log(total), rel=1e-12)


def test_exact_q2_matches_bruteforce():
    n, rho, sigma, q = 4, 0.3, 0.5, 2
    total = 0.0
    for ks in itertools.product(range(q + 1), repeat=n):
        coef = math.prod(math.comb(q, k) * rho ** k for k in ks)
        suffix = list(itertools.accumulate(ks[::-1]))[::-1]
        expo = 0.5 * sigma * sigma * sum(s * (s - 1) for s in suffix[1:])
        total += coef * math.exp(expo)
    got = exact_moment(SimSpec(n=n, rho=rho, sigma=sigma, q=q)).log_moment
    assert got == pytest.approx(math.log(total), rel=1e-12)


def _enumerated_log_moment(n, q, rho, sigma):
    # every configuration c in {0..q}^n as one row, summed directly
    c = np.array(list(itertools.product(range(q + 1), repeat=n)))
    suffix = np.cumsum(c[:, ::-1], axis=1)[:, ::-1][:, 1:]
    log_binom = np.log([math.comb(q, k) for k in range(q + 1)])
    log_w = (
        log_binom[c].sum(axis=1)
        + math.log(rho) * c.sum(axis=1)
        + 0.5 * sigma * sigma * (suffix * (suffix - 1.0)).sum(axis=1)
    )
    m = log_w.max()
    return m + math.log(np.exp(log_w - m).sum())


def test_exact_matches_enumeration_on_random_specs():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(200):
        q = int(rng.integers(1, 4))
        n = int(rng.integers(1, int(12 / math.log2(q + 1)) + 1))
        rho, beta = float(rng.uniform(0.01, 0.5)), float(rng.uniform(0.0, 4.0))
        spec = SimSpec.from_beta(n, rho, beta, q=q)
        want = _enumerated_log_moment(n, q, rho, spec.sigma)
        got = exact_moment(spec)
        assert got.paths_used == (q + 1) ** n
        worst = max(worst, abs(got.log_moment - want) / want)
    assert worst <= 1e-14


def test_exact_matches_mpmath_reference():
    # log E x_10 at (rho, beta) = (0.2, 1), summed over all 2^10
    # configurations in 40-digit mpmath
    got = exact_moment(SimSpec.from_beta(10, 0.2, 1.0)).log_moment
    assert got == pytest.approx(1.8987266567322452644, rel=1e-15)


@pytest.mark.parametrize("q,n", [(1, 5000), (3, 4729)])
def test_exact_zero_beta_at_large_n(q, n):
    # beta = 0: x_n = (1+rho)^n exactly; (3, 4729) is the last q=3 size
    # inside the budget
    got = exact_moment(SimSpec.from_beta(n, 0.2, 0.0, q=q)).log_moment
    assert got == pytest.approx(q * n * math.log1p(0.2), rel=1e-13)


def test_exact_rate_approaches_lambda_from_below():
    lam = lyapunov(ModelParams(0.2, 1.0)).lambda_
    rate = exact_moment(SimSpec.from_beta(6400, 0.2, 1.0)).log_moment / 6400
    assert 0.0 < lam - rate <= 1e-5


# (rho, beta_cr) on the first-order curve; each q*beta sits 20% below or
# above it. rate(n) = lambda + c1/n + c2/n^2 + ...: the two-point value
# (4 r(1600) - r(400))/3 removes c1 and is held to tol, the three-point
# value (8 r(1600) - 6 r(800) + r(400))/3 removes c2 too and is held to
# _RICHARDSON3_TOL. Worst measured gaps (absolute): two-point 3.9e-8
# below the curve and 2.6e-5 above it, where c2 is larger; three-point
# 2.0e-10 below and 3.6e-8 above.
_RICHARDSON3_TOL = {"low": 1e-9, "high": 1e-7}


@pytest.mark.parametrize("side,factor,tol", [("low", 0.8, 1e-7), ("high", 1.2, 5e-5)])
@pytest.mark.parametrize("rho,beta_cr", [(0.04, 8.1754193702), (0.05, 7.5668145803)])
def test_richardson_recursion_matches_lyapunov_q(rho, beta_cr, side, factor, tol):
    for q in (1, 2, 3):
        beta = factor * beta_cr / q
        r400, r800, r1600 = (
            exact_moment(SimSpec.from_beta(n, rho, beta, q=q)).log_moment / n
            for n in (400, 800, 1600))
        want = lyapunov_q(ModelParams(rho, beta, q))
        two_point = (4.0 * r1600 - r400) / 3.0
        three_point = (8.0 * r1600 - 6.0 * r800 + r400) / 3.0
        assert abs(two_point - want) <= tol, (side, q)
        assert abs(three_point - want) <= _RICHARDSON3_TOL[side], (side, q)


def test_exact_budget_and_noise_rejection():
    # the first n past the budget for q = 1 and q = 3: refused at once,
    # where the work itself would take a second or more
    for q, n in ((1, 11585), (3, 4730)):
        t0 = time.perf_counter()
        with pytest.raises(BudgetError):
            exact_moment(SimSpec.from_beta(n, 0.2, 1.0, q=q))
        assert time.perf_counter() - t0 < 0.1
    with pytest.raises(DomainError):
        exact_moment(
            SimSpec(n=4, rho=0.2, sigma=0.1, noise=NoiseSpec(kind="constant", value=0.5))
        )


def test_method_labels():
    ex = exact_moment(SimSpec(n=3, rho=0.2, sigma=0.1))
    assert ex.method == "exact_recursion"
    assert ex.stderr_log == 0.0
    mc = estimate_moment(SimSpec(n=3, rho=0.2, sigma=0.1, paths=64))
    assert mc.method == "monte_carlo"
    assert mc.paths_used == 64


def test_estimator_needs_two_paths():
    with pytest.raises(DomainError):
        estimate_moment(SimSpec(n=4, rho=0.2, sigma=0.1, paths=1))


def test_determinism_and_thread_invariance():
    # 4 chunks: the default runs one worker per CPU, and every count
    # gives the threads=1 result bit for bit
    base = SimSpec(n=37, rho=0.3, sigma=0.12, paths=50000, seed=99)
    assert len(_chunk_sizes(base)) == 4
    for q, (kind, value) in itertools.product(
            (1, 2), (("none", 0.0), ("constant", 0.8), ("exponential", 0.8),
                     ("uniform", 0.8))):
        s = replace(base, q=q, noise=NoiseSpec(kind, value))
        a = estimate_moment(s)
        b = estimate_moment(s)
        c = estimate_moment(s, threads=4)
        d = estimate_moment(s, threads=1)
        assert a == b == c == d, (q, kind)


@pytest.mark.parametrize("threads", [0, -2, 2.5, True, "2"])
def test_estimator_refuses_bad_thread_counts(threads):
    with pytest.raises(DomainError, match="threads"):
        estimate_moment(SimSpec(n=4, rho=0.2, sigma=0.1, paths=64), threads=threads)


def test_one_worker_builds_no_executor(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("no pool expected")

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", refuse)
    one_chunk = SimSpec(n=12, rho=0.2, sigma=0.1, paths=10000, seed=5)
    assert len(_chunk_sizes(one_chunk)) == 1
    ref = estimate_moment(one_chunk)
    assert estimate_moment(one_chunk, threads=4) == ref
    # many chunks, but one worker
    many = replace(one_chunk, paths=40000)
    ref = estimate_moment(many, threads=1)
    monkeypatch.setattr(simulate, "_available_cpus", lambda: 1)
    assert estimate_moment(many) == ref


def test_default_workers_follow_cpus_and_chunks(monkeypatch):
    # one worker per available CPU, but never more than there are chunks
    sizes = []
    pool = simulate.ThreadPoolExecutor

    def recording(max_workers):
        sizes.append(max_workers)
        return pool(max_workers=max_workers)

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", recording)
    monkeypatch.setattr(simulate, "_available_cpus", lambda: 3)
    two = SimSpec(n=12, rho=0.2, sigma=0.1, paths=20000, seed=5)
    five = replace(two, paths=70000)
    assert [len(_chunk_sizes(s)) for s in (two, five)] == [2, 5]
    estimate_moment(two)
    estimate_moment(five)
    estimate_moment(five, threads=np.int64(4))
    assert sizes == [2, 3, 4]


def test_available_cpus_falls_back_to_the_cpu_count(monkeypatch):
    monkeypatch.delattr(simulate.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 6)
    assert simulate._available_cpus() == 6
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: None)
    assert simulate._available_cpus() == 1


def test_chunking_covers_all_paths():
    # long paths force 64-row chunks, so 130 paths span a partial tail chunk
    s = SimSpec(n=70000, rho=0.2, sigma=1e-4, paths=130, seed=1)
    out = np.concatenate(list(simulate_paths(s)))
    assert out.shape == (130,)
    assert np.isfinite(out).all()


def test_component_identity():
    s = SimSpec(n=64, rho=0.4, sigma=0.2, paths=512, seed=3)
    for log_x, sum_log_a, sum_b in simulate_paths(s, with_components=True):
        assert np.allclose(log_x, sum_log_a, atol=1e-12)
        assert np.all(sum_log_a >= 0.0)
        assert np.all(sum_b == 0.0)


def test_noise_only_increases_paths():
    base = SimSpec(n=32, rho=0.3, sigma=0.15, paths=256, seed=17)
    noisy = replace(base, noise=NoiseSpec(kind="exponential", value=0.5))
    clean_vals = np.concatenate(list(simulate_paths(base)))
    noisy_vals = np.concatenate(list(simulate_paths(noisy)))
    assert np.all(noisy_vals >= clean_vals - 1e-12)


def test_monte_carlo_agrees_with_enumeration():
    s = SimSpec.from_beta(10, 0.2, 1.0, paths=200000, seed=12)
    mc = estimate_moment(s, threads=2)
    ex = exact_moment(s)
    assert abs(mc.log_moment - ex.log_moment) <= 4.0 * mc.stderr_log


def test_lln_report():
    rep = lln_check(SimSpec.from_beta(8, 0.25, 1.5, paths=4000, seed=2), ladder=3)
    assert rep.target == pytest.approx(math.log(1.25), rel=1e-15)
    assert [r[0] for r in rep.rows] == [8, 16, 32]
    assert rep.gaps_shrink
    assert rep.final_within
    with pytest.raises(DomainError):
        lln_check(SimSpec.from_beta(8, 0.25, 1.5), ladder=1)


def test_clt_report():
    rep = clt_check(SimSpec.from_beta(400, 0.2, 3.0, paths=4000, seed=8))
    assert rep.variance_target == pytest.approx(2.0 * (0.2 / 1.2) ** 2, rel=1e-12)
    assert abs(rep.ratio - 1.0) < 0.1
    assert rep.qq_max_deviation < 0.05
    # rho = 0 or beta = 0 leaves no fluctuation: the target variance is 0
    with pytest.raises(DomainError, match="positive target variance"):
        clt_check(SimSpec.from_beta(400, 0.2, 0.0, paths=100))
    with pytest.raises(DomainError, match="positive target variance"):
        clt_check(SimSpec.from_beta(400, 0.0, 1.0, paths=100))


def test_growth_rate_noise_invariance():
    # additive noise shifts log x_n by o(n): the per-step gap shrinks as n grows
    gaps = []
    for n in (8, 32):
        clean = SimSpec.from_beta(n, 0.3, 1.0, paths=60000, seed=21)
        noisy = replace(clean, noise=NoiseSpec(kind="exponential", value=1.0))
        a = estimate_moment(clean).log_moment / n
        b = estimate_moment(noisy).log_moment / n
        gaps.append(abs(a - b))
    assert gaps[-1] < gaps[0]


def _reference_paths(spec):
    """The step-by-step log-space recursion
    log x_{i+1} = logaddexp(log a_i + log x_i, log b_i) on the chunk streams
    of simulate_paths, as (log_x, sum_log_a, sum_b) per chunk."""
    n, kind, value = spec.n, spec.noise.kind, spec.noise.value
    for chunk_index, rows in enumerate(_chunk_sizes(spec)):
        rng = _chunk_rng(spec.seed, chunk_index)
        with np.errstate(divide="ignore"):
            log_rho = np.log(spec.rho)
        z = np.zeros((rows, n))
        if n > 1:
            v = rng.normal(0.0, spec.sigma * math.sqrt(spec.tau), size=(rows, n - 1))
            drift = 0.5 * spec.sigma ** 2 * spec.tau * np.arange(1, n)
            z[:, 1:] = np.cumsum(v, axis=1) - drift
        log_a = np.logaddexp(0.0, log_rho + z)
        if kind == "exponential":
            b = rng.exponential(value, size=(rows, n))
        elif kind == "uniform":
            b = rng.uniform(0.0, value, size=(rows, n))
        else:
            b = np.full((rows, n), value)
        with np.errstate(divide="ignore"):
            log_b = np.log(b)
        log_x = np.full(rows, math.log(spec.x0))
        for i in range(n):
            log_x = np.logaddexp(log_a[:, i] + log_x, log_b[:, i])
        yield log_x, log_a.sum(axis=1), b.sum(axis=1)


_KINDS = [("none", 0.0), ("constant", 0.0), ("constant", 0.7),
          ("exponential", 1.5), ("uniform", 2.0)]
# n = 2 is one column of draws; n = 12 with 20000 paths is the bench shape,
# a 16384-row chunk in column-major blocks of 5957, 5957 and 4470 paths and a
# partial chunk, all summed by row adds; n = 300 runs 2500 paths in blocks of
# 219 paths and a last one of 91, summed by np.cumsum; and n = 70000 runs
# one-path blocks in 64-row chunks, so 130 paths end in a partial chunk
_ORACLE_CASES = [
    (n, rho, paths, kind, value)
    for n, rho, paths in ((50, 0.2, 300), (50, 0.0, 300), (1, 0.3, 40), (2, 0.3, 300),
                          (12, 0.2, 20000), (300, 0.2, 2500))
    for kind, value in _KINDS
] + [(70000, 0.2, 130, "none", 0.0), (70000, 0.2, 130, "exponential", 1.5)]


@pytest.mark.parametrize("n,rho,paths,kind,value", _ORACLE_CASES)
def test_closed_form_matches_step_recursion(n, rho, paths, kind, value):
    spec = SimSpec(n=n, rho=rho, sigma=0.3 / math.sqrt(n), x0=1.3, paths=paths,
                   seed=4, noise=NoiseSpec(kind, value))
    got = [np.concatenate(c) for c in zip(*simulate_paths(spec, with_components=True))]
    want = [np.concatenate(c) for c in zip(*_reference_paths(spec))]
    for name, g, w in zip(("log_x", "sum_log_a", "sum_b"), got, want):
        assert g.shape == (paths,)
        np.testing.assert_allclose(g, w, rtol=1e-13, atol=0, err_msg=name)


@pytest.mark.parametrize("kind,value", _KINDS)
@pytest.mark.parametrize("n", [4, 12, 300])
def test_running_sum_order_leaves_paths_unchanged(monkeypatch, n, kind, value):
    # one 600-path block runs its running sums as row adds, 2-path blocks
    # as np.cumsum down the columns; both add each path's terms in sequence
    rows = 600
    spec = SimSpec(n=n, rho=0.2, sigma=0.3 / math.sqrt(n), x0=1.3, paths=rows,
                   seed=11, noise=NoiseSpec(kind, value))
    monkeypatch.setattr(simulate, "_BLOCK", (n - 1) * rows)
    row_adds = _simulate_chunk(spec, 3, rows, True)
    monkeypatch.setattr(simulate, "_BLOCK", (n - 1) * 2)
    cumsum = _simulate_chunk(spec, 3, rows, True)
    for name, a, c in zip(("log_x", "sum_log_a", "sum_b"), row_adds, cumsum):
        np.testing.assert_array_equal(a, c, err_msg=name)


def _moment_without_warnings(rho, sigma=0.3, **kwargs):
    spec = SimSpec(n=12, rho=rho, sigma=sigma, paths=1000, seed=1, **kwargs)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return estimate_moment(spec).log_moment


def test_noise_at_the_float_edge_stays_finite_and_quiet():
    # sum b_i overflows here; it is summed only for with_components
    got = _moment_without_warnings(
        rho=0.2, x0=1e308, noise=NoiseSpec("exponential", 1e307))
    assert got == pytest.approx(713.6483092878731, rel=1e-13)


@pytest.mark.parametrize("rho,sigma,want", [
    (1e300, 0.3, 8303.244089989805),  # log rho + Z_i above 709
    (0.2, 50.0, 0.1823215567939549),  # drift sends e^(Z_i) far below 1e-308
])
def test_softplus_far_from_zero(rho, sigma, want):
    assert _moment_without_warnings(rho=rho, sigma=sigma) == pytest.approx(
        want, rel=1e-13)


def test_normal_cdf_matches_scipy_ndtr():
    # SciPy's ndtr runs its own erf and erfc, which can differ from libm's
    # by an ulp; through 1 - erfc/2 that is 2.2e-16 absolute at most
    ndtr = pytest.importorskip("scipy.special").ndtr
    rng = np.random.default_rng(59)
    z = np.concatenate([rng.normal(0.0, 3.0, 50_000), rng.uniform(-40.0, 40.0, 10_000),
                        [0.0, -0.0, 8.3, -38.5, math.inf, -math.inf]])
    assert np.all(np.abs(_normal_cdf(z) - ndtr(z)) <= 2.0 * np.finfo(float).eps)

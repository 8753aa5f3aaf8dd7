"""Sampling and exact estimators for the moment recursion.

The chain is x_{i+1} = a_i * x_i + b_i with multipliers
a_i = 1 + rho * exp(sigma * W_{t_i} - sigma^2 t_i / 2) driven by a
Brownian path W on the grid t_i = i * tau, and nonnegative additive
noise b_i. At fixed beta = sigma^2 tau n^2 / 2 the q-th moment of x_n
grows like exp(n * growth_rate), which is what the estimators here are
cross-checked against. The exact moment costs O(n^2 q^2), so
(1/n) log E[x_n^q] reaches n in the thousands, where its gap is O(1/n).

Reproducibility contract: path chunks draw from independent
counter-based substreams keyed by (seed, chunk index), and chunk sizing
depends only on n, so results are bit-identical regardless of how many
worker threads reduce the chunks.

Each chunk draws all of its random numbers first, the (rows, n-1)
normals and then the (rows, n) exponentials or uniforms, and runs in
column-major blocks of about 2^16 doubles: a block's draws are copied,
transposed, into one buffer the chunk reuses, one row per step and one
column per path. The Gaussian increments are summed into Z, shifted to
log rho + Z_i, and mapped to log a_i by softplus(x) = max(x, 0) +
log1p(exp(-|x|)), which runs on vectorized ufuncs and cannot overflow.
Each running sum over the steps adds every path's terms in sequence:
as in-place row adds, each a vector across the block's paths, where a
block has no more steps than paths (np.cumsum along short paths pays
numpy's per-path overhead), and as np.cumsum down the columns, which
adds in the same order, where it has more. With noise b_i = value * xi_i
the recursion is not stepped but summed in closed form,

    x_n = P_n (x0 + value * S),  S = sum_i xi_i / P_{i+1},  P_k = a_0 ... a_{k-1},

where every 1/P_{i+1} = exp(-C_{i+1}) <= 1 comes from the cumulative
sum C of log a >= 0, and log x_n = C_n + logaddexp(log x0, log(value * S))
stays finite for every finite input. The random stream is unchanged
by this form: xi is the standard draw, and numpy's exponential(v) and
uniform(0, v) are v * standard_exponential() and v * random() bit for
bit.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import BudgetError, DomainError, NumericsError
from .numerics import _logsumexp

__all__ = [
    "NoiseSpec",
    "SimSpec",
    "MomentEstimate",
    "LLNReport",
    "CLTReport",
    "simulate_paths",
    "estimate_moment",
    "exact_moment",
    "lln_check",
    "clt_check",
    "ENUMERATION_BUDGET",
]

_NOISE_KINDS = ("none", "constant", "exponential", "uniform")

# hard cap on the exact recursion's work, n*(n*q+1)*(q+1) transitions
ENUMERATION_BUDGET = 2 ** 28

@dataclass(frozen=True)
class NoiseSpec:
    """Additive-noise law for the b_i terms.

    kind "none" forces b=0; "constant" uses b=value every step;
    "exponential" draws with mean value; "uniform" draws from
    [0, value].
    """

    kind: str = "none"
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in _NOISE_KINDS:
            raise DomainError(
                "noise kind must be one of %s" % (_NOISE_KINDS,)
            )
        if not math.isfinite(self.value):
            raise DomainError("noise value must be finite")
        if self.kind == "constant":
            if not self.value >= 0:
                raise DomainError("constant noise level must be >= 0")
        elif self.kind != "none":
            if not self.value > 0:
                raise DomainError("%s noise scale must be > 0" % self.kind)


@dataclass(frozen=True)
class SimSpec:
    """Complete description of one simulation experiment."""

    n: int
    rho: float
    sigma: float
    tau: float = 1.0
    x0: float = 1.0
    paths: int = 1024
    seed: int = 0
    noise: NoiseSpec = NoiseSpec()
    q: int = 1

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise DomainError("n must be an integer >= 1")
        # every path would overflow or turn NaN on an infinite input
        for name in ("rho", "sigma", "tau", "x0"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError("%s must be finite" % name)
        if not self.rho >= 0:
            raise DomainError("rho must be >= 0")
        if not self.sigma >= 0:
            raise DomainError("sigma must be >= 0")
        if not self.tau > 0:
            raise DomainError("tau must be > 0")
        if not self.x0 > 0:
            raise DomainError("x0 must be > 0")
        if not (isinstance(self.paths, (int, np.integer)) and self.paths >= 1):
            raise DomainError("paths must be an integer >= 1")
        # the Philox key holds the seed in 64 bits, and seed + 2**64 would
        # silently repeat seed's streams
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= self.seed < 2 ** 64):
            raise DomainError("seed must be an integer in [0, 2**64)")
        if not (isinstance(self.q, (int, np.integer)) and self.q >= 1):
            raise DomainError("q must be an integer >= 1")

    @classmethod
    def from_beta(cls, n, rho, beta, **kwargs):
        """Spec on the fixed-beta diagonal: tau=1, sigma = sqrt(2*beta)/n."""
        if not (beta >= 0 and math.isfinite(beta)):
            raise DomainError("beta must be a finite real >= 0")
        if not n >= 1:
            raise DomainError("n must be an integer >= 1")
        return cls(n=n, rho=rho, sigma=math.sqrt(2.0 * beta) / n, tau=1.0, **kwargs)

    @property
    def beta(self):
        return 0.5 * self.sigma ** 2 * self.tau * self.n ** 2


@dataclass(frozen=True)
class MomentEstimate:
    log_moment: float
    stderr_log: float
    method: str
    paths_used: int


@dataclass(frozen=True)
class LLNReport:
    rows: list
    target: float
    gaps_shrink: bool
    final_within: bool


@dataclass(frozen=True)
class CLTReport:
    variance_empirical: float
    variance_target: float
    ratio: float
    qq_max_deviation: float
    n: int
    paths: int
    noise_kind: str


def _chunk_sizes(spec):
    """Paths per chunk, in chunk order: full chunks of a size that is a
    pure function of n, so that chunk boundaries (and hence the random
    streams) never depend on thread count, then the remainder."""
    rows = max(64, min(16384, 4_194_304 // max(spec.n, 1)))
    full, rest = divmod(spec.paths, rows)
    return [rows] * full + ([rest] if rest else [])


def _chunk_rng(seed, chunk_index):
    key = np.array([seed, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _softplus_in_place(x):
    """log(1 + e^x) written over x as max(x, 0) + log1p(e^-|x|): vector
    ufuncs throughout, and no overflow for any x."""
    pos = np.maximum(x, 0.0)
    np.abs(x, out=x)
    np.negative(x, out=x)
    np.exp(x, out=x)
    np.log1p(x, out=x)
    x += pos


# a column-major block holds about _BLOCK doubles, so that it stays in a
# core's cache: at n = 12, 2^16 beat 2^17 doubles by 68 against 89 ms per
# 200 000-path estimate_moment
_BLOCK = 1 << 16


def _running_sum(z):
    """Running sum in place down axis 0 of z, the step axis, adding each
    path's terms in sequence. Row adds pay Python's overhead once per
    step and np.cumsum numpy's once per path, so the shorter side pays."""
    if z.shape[0] <= z.shape[1]:
        for j in range(1, z.shape[0]):
            z[j] += z[j - 1]
    else:
        np.cumsum(z, axis=0, out=z)


def _path_sums(spec, z, drift, log_rho, xi):
    """Per-path sums from z, the scaled increments of Z_1 .. Z_{n-1}
    with one row per step and one column per path, which is overwritten:
    the sum of log a_1 .. log a_{n-1} and, for noisy paths (else None),
    xi_0 + sum_i e^-D_i xi_{i+1} (xi None for constant noise, xi_i = 1)."""
    _running_sum(z)
    z -= drift
    z += log_rho
    _softplus_in_place(z)
    if spec.noise.kind == "none":
        return z.sum(axis=0), None
    # x_n = P_n (x0 + value * sum_i xi_i / P_{i+1}), P_k = a_0 ... a_{k-1},
    # where 1/P_{i+1} = e^-head * e^-D_i and D_i = log a_1 + ... + log a_i
    # >= 0, so no term overflows; the last D_i (none at n = 1) is the sum
    # of log a
    _running_sum(z)
    total = z[-1].copy() if len(z) else 0.0
    np.negative(z, out=z)
    np.exp(z, out=z)
    first = 1.0
    if xi is not None:
        z *= xi[:, 1:].T
        first = xi[:, 0]
    return total, first + z.sum(axis=0)


def _simulate_chunk(spec, chunk_index, rows, with_components):
    n = spec.n
    rng = _chunk_rng(spec.seed, chunk_index)
    with np.errstate(divide="ignore"):
        log_rho = np.log(spec.rho)
    # Z_0 = 0, so log a_0 is one number; the draws of each path, one row,
    # turn from the increments of Z_1 .. Z_{n-1} into log a_1 .. log a_{n-1}
    head = float(np.logaddexp(0.0, log_rho))
    steps = rng.standard_normal(size=(rows, n - 1))
    kind = spec.noise.kind
    value = spec.noise.value
    xi = None  # b_i = value * xi_i; constant noise has xi_i = 1
    if kind == "exponential":
        xi = rng.standard_exponential(size=(rows, n))
    elif kind == "uniform":
        xi = rng.random(size=(rows, n))
    scale = spec.sigma * math.sqrt(spec.tau)
    drift = (0.5 * spec.sigma ** 2 * spec.tau * np.arange(1, n))[:, None]
    width = min(max(_BLOCK // max(n - 1, 1), 1), rows)
    buf = np.empty((n - 1) * width)
    sum_log_a = np.empty(rows)
    tail = None if kind == "none" else np.empty(rows)
    for lo in range(0, rows, width):
        hi = min(lo + width, rows)
        z = buf[:(n - 1) * (hi - lo)].reshape(n - 1, hi - lo)
        np.multiply(steps[lo:hi].T, scale, out=z)
        sum_log_a[lo:hi], noise = _path_sums(
            spec, z, drift, log_rho, None if xi is None else xi[lo:hi])
        if tail is not None:
            tail[lo:hi] = noise
    sum_log_a += head
    if kind == "none":
        log_x = math.log(spec.x0) + sum_log_a
    else:
        with np.errstate(divide="ignore"):  # value 0, or every xi_i 0
            log_noise = np.log(value) - head + np.log(tail)
        log_x = sum_log_a + np.logaddexp(math.log(spec.x0), log_noise)
    if not with_components:
        return log_x
    if kind == "none":
        sum_b = np.zeros(rows)
    elif xi is None:
        sum_b = np.full(rows, n * value)
    else:
        sum_b = value * xi.sum(axis=1)
    return log_x, sum_log_a, sum_b


def simulate_paths(spec, with_components=False):
    """Yield chunks of final-state logs, log|x_n| per path.

    With with_components=True each chunk is the triple
    (log_x, sum_log_a, sum_b), which is what the per-path bracketing
    x0 * prod(a) <= x_n <= (x0 + sum b) * prod(a) needs.
    """
    for chunk_index, rows in enumerate(_chunk_sizes(spec)):
        yield _simulate_chunk(spec, chunk_index, rows, with_components)


def _moment_chunk(spec, chunk_index, rows):
    log_x = _simulate_chunk(spec, chunk_index, rows, False)
    y = spec.q * log_x
    bad = int(np.count_nonzero(~np.isfinite(y)))
    if bad:
        return None, None, bad
    m = float(y.max())
    e = np.exp(y - m)
    lse1 = m + math.log(float(e.sum()))
    lse2 = 2 * m + math.log(float((e * e).sum()))
    return lse1, lse2, 0


def estimate_moment(spec, threads=1):
    """Monte Carlo estimate of log E[x_n^q] with its log-scale stderr.

    Accumulation is log-sum-exp throughout; the per-chunk partial sums
    are combined in chunk order, so the result is independent of the
    thread count used to compute them.
    """
    if spec.paths < 2:
        raise DomainError("need at least 2 paths for a variance estimate")
    sizes = _chunk_sizes(spec)

    def work(i):
        return _moment_chunk(spec, i, sizes[i])

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, range(len(sizes))))
    else:
        results = [work(i) for i in range(len(sizes))]

    bad = sum(r[2] for r in results)
    if bad:
        raise NumericsError(
            "%d of %d paths produced non-finite moments" % (bad, spec.paths)
        )
    lse1 = np.logaddexp.reduce([r[0] for r in results])
    lse2 = np.logaddexp.reduce([r[1] for r in results])
    p = spec.paths
    log_moment = float(lse1 - math.log(p))
    ratio = float(np.exp(lse2 - 2.0 * lse1))
    var_rel = max(0.0, (p * ratio - 1.0) / (p - 1.0))
    stderr_log = math.sqrt(var_rel)
    return MomentEstimate(
        log_moment=log_moment,
        stderr_log=stderr_log,
        method="monte_carlo",
        paths_used=p,
    )


def exact_moment(spec):
    """Exact E[x_n^q] for the noise-free chain by a suffix-count recursion.

    Expands prod_i (1 + rho e^{Z_i})^q multinomially; a configuration
    assigns c_i in {0..q} factors to step i and contributes
    prod binom(q, c_i) * rho^(sum c) * exp(G) with the Gaussian moment
    G = (sigma^2 tau / 2) * sum_{k>=1} S_k (S_k - 1) over the suffix counts
    S_k = sum_{i>=k} c_i. Since G sees only the S_k, a log-space dynamic
    program over S in [0, n*q], stepping i from n-1 down to 0, sums all
    (q+1)^n configurations (reported as paths_used) in n*(n*q+1)*(q+1)
    transitions; a budget guard refuses more than ENUMERATION_BUDGET.
    """
    if spec.noise.kind != "none":
        raise DomainError("exact moments cover the noise-free chain only")
    n, q = spec.n, spec.q
    work = n * (n * q + 1) * (q + 1)
    if work > ENUMERATION_BUDGET:
        raise BudgetError(
            "exact recursion needs %d transitions (budget %d); "
            "use the Monte Carlo estimator instead" % (work, ENUMERATION_BUDGET)
        )
    log_x0_term = q * math.log(spec.x0)
    if spec.rho == 0:
        return MomentEstimate(log_x0_term, 0.0, "exact_recursion", 1)
    log_rho = math.log(spec.rho)
    log_step = [math.log(math.comb(q, k)) + k * log_rho for k in range(q + 1)]
    s = np.arange(n * q + 1, dtype=float)
    gauss = 0.5 * spec.sigma ** 2 * spec.tau * s * (s - 1.0)
    # log_w[S]: log of the summed weight of c_i..c_{n-1} with suffix count S
    log_w = np.zeros(1)
    for i in range(n - 1, -1, -1):
        width = log_w.size
        new = np.concatenate([log_w, np.full(q, -np.inf)])  # c_i = 0
        for k in range(1, q + 1):
            np.logaddexp(new[k:k + width], log_w + log_step[k], out=new[k:k + width])
        if i >= 1:
            new += gauss[:new.size]
        log_w = new
    log_moment = _logsumexp(log_w) + log_x0_term
    return MomentEstimate(log_moment, 0.0, "exact_recursion", (q + 1) ** n)


def lln_check(spec, ladder=4):
    """Almost-sure growth check on the fixed-beta diagonal.

    Doubling n while holding beta fixed shrinks the per-step
    fluctuation of log a_i, so the per-step growth (log x_n - log x0)/n
    concentrates on log(1+rho). Rows are
    (n, mean, stderr, |mean - target|); the report flags whether the
    gap shrank across the ladder and whether the final gap is inside
    3*stderr plus a smoothing-bias allowance of order beta/n.
    """
    if ladder < 2:
        raise DomainError("ladder must be >= 2")
    beta = spec.beta
    target = math.log1p(spec.rho)
    rows = []
    for j in range(ladder):
        n_j = spec.n * 2 ** j
        s_j = replace(
            spec,
            n=n_j,
            sigma=math.sqrt(2.0 * beta / spec.tau) / n_j,
            seed=(int(spec.seed) + j) % 2 ** 64,
        )
        vals = []
        for log_x in simulate_paths(s_j):
            vals.append((log_x - math.log(spec.x0)) / n_j)
        g = np.concatenate(vals)
        mean = float(g.mean())
        se = float(g.std(ddof=1) / math.sqrt(g.size)) if g.size > 1 else 0.0
        rows.append((n_j, mean, se, abs(mean - target)))
    gaps_shrink = rows[-1][3] < rows[0][3]
    allowance = 3.0 * rows[-1][2] + beta / (4.0 * rows[-1][0])
    final_within = rows[-1][3] <= allowance
    return LLNReport(
        rows=rows, target=target, gaps_shrink=gaps_shrink, final_within=final_within
    )


def _normal_cdf(z):
    """Standard normal distribution function at each entry of z,
    0.5*erfc(-z/sqrt(2)) through math.erfc: within 1.1e-16 of the exact
    value, and within 2.3e-16 of SciPy's special.ndtr, whose own erf and
    erfc can differ from libm's in the last bit."""
    root2 = math.sqrt(2.0)
    return np.array([0.5 * math.erfc(-v / root2) for v in z.tolist()])


def clt_check(spec):
    """Gaussian-fluctuation check at fixed beta.

    The centered sums (log x_n - mean)/sqrt(n) should be asymptotically
    normal with variance (2*beta/3) * (rho/(1+rho))^2. Reports the
    empirical variance, the target, their ratio, and the worst
    deviation of the standardized sample from the normal distribution
    function. A target of 0 (rho = 0 or beta = 0) raises DomainError.
    """
    f = spec.rho / (1.0 + spec.rho)
    variance_target = (2.0 * spec.beta / 3.0) * f * f
    if not variance_target > 0:
        raise DomainError("clt_check needs a positive target variance (rho > 0, beta > 0)")
    vals = []
    for log_x in simulate_paths(spec):
        vals.append(log_x)
    log_x = np.concatenate(vals)
    if log_x.size < 2:
        raise DomainError("need at least 2 paths")
    scaled = (log_x - log_x.mean()) / math.sqrt(spec.n)
    variance_empirical = float(scaled.var(ddof=1))
    z = np.sort((log_x - log_x.mean()) / log_x.std(ddof=1))
    ecdf = (np.arange(1, z.size + 1) - 0.5) / z.size
    qq_max_deviation = float(np.abs(ecdf - _normal_cdf(z)).max())
    return CLTReport(
        variance_empirical=variance_empirical,
        variance_target=variance_target,
        ratio=variance_empirical / variance_target,
        qq_max_deviation=qq_max_deviation,
        n=spec.n,
        paths=log_x.size,
        noise_kind=spec.noise.kind,
    )

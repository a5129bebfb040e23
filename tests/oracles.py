"""Reference implementations the tests check the library against.

Nothing in the library calls these. Each is an independent route to a value
the library computes another way: closed forms, configuration counts, plain
divergences, a continuous convolution and the whole-length inverse FFT.
"""

import itertools
import math
from collections import Counter

import numpy as np
from scipy import fft
from scipy.special import gammaln, xlogy

from maxent_evalues.models import Table
from maxent_evalues.numerics import (
    FFT_CLAMP,
    NEG_INF,
    GridDensity,
    Pmf,
    binomial_pmf,
    log_beta_fn,
)
from maxent_evalues.priors import (
    PriorSpec,
    _induced_log_weights,
    induced_group_pmf,
    null_optimal_prior,
)


def uniform_pmf(n: int) -> Pmf:
    """Uniform pmf on 0..n."""
    return Pmf(np.full(n + 1, -np.log(n + 1)))


def delta_pmf(i: int, n: int) -> Pmf:
    """Point mass at i on support 0..n."""
    lw = np.full(n + 1, NEG_INF)
    lw[i] = 0.0
    return Pmf(lw)


def moments(pmf: Pmf) -> tuple[float, float]:
    """Mean and variance of a pmf on 0..N."""
    w = pmf.weights()
    x = np.arange(pmf.support_size)
    mu = float(np.dot(x, w))
    return mu, float(np.dot((x - mu) ** 2, w))


def log_binomial(n: int, k: int) -> float:
    """log C(n, k) via log-gamma."""
    if k < 0 or n < 0 or k > n:
        raise ValueError(f"invalid binomial ({n}, {k})")
    return float(gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1))


def kl_divergence(p: Pmf, q: Pmf) -> float:
    """KL(p || q) in nats; requires p absolutely continuous w.r.t. q."""
    if p.support_size != q.support_size:
        raise ValueError("KL undefined: support mismatch")
    lp, lq = p.log_weights, q.log_weights
    mask = lp > NEG_INF
    if (lq[mask] == NEG_INF).any():
        raise ValueError("KL undefined: q vanishes where p does not")
    return float(np.dot(np.exp(lp[mask]), lp[mask] - lq[mask]))


def total_variation(p: Pmf, q: Pmf) -> float:
    """Total variation distance, in [0, 1], between pmfs on one support."""
    return 0.5 * float(np.abs(p.weights() - q.weights()).sum())


def log_multiplicity(t: Table, hypothesis: str) -> float:
    """Log count of configurations realizing the table's sufficient statistic.

    Null: C(n, n1). Alternative: product of per-group C(n_i, ones_i).
    """
    if hypothesis == "null":
        return log_binomial(sum(t.sizes), sum(t.ones))
    if hypothesis == "alt":
        return sum(log_binomial(n, o) for n, o in t.groups)
    raise ValueError(f"unknown hypothesis {hypothesis!r}")


def uniform_convolution_closed_form(sizes, n1: int) -> float:
    """Probability that k independent discrete uniforms on 0..n_i sum to n1.

    Inclusion-exclusion over the upper-bound constraints (stars and bars),
    exact in integer arithmetic; equal-size fast path.
    """
    sizes = list(sizes)
    k = len(sizes)
    if k == 0:
        raise ValueError("no groups")
    if k > 20:
        raise ValueError("use numeric convolution")
    total = sum(sizes)
    if not 0 <= n1 <= total:
        return 0.0
    denom = math.prod(m + 1 for m in sizes)
    if len(set(sizes)) == 1:
        m = sizes[0]
        count = sum(
            (-1) ** j * math.comb(k, j) * math.comb(n1 - j * (m + 1) + k - 1, k - 1)
            for j in range(n1 // (m + 1) + 1)
        )
        return count / denom
    count = 0
    for r in range(k + 1):
        for subset in itertools.combinations(sizes, r):
            rem = n1 - sum(m + 1 for m in subset)
            if rem < 0:
                continue
            count += (-1) ** r * math.comb(rem + k - 1, k - 1)
    return count / denom


def log_equal_uniform_count(k: int, m: int, n1: int) -> float:
    """log of the number of ways k integers in 0..m sum to n1 (-inf if none).

    Inclusion-exclusion over the upper bounds, sum_j (-1)^j C(k, j)
    C(n1 - j(m + 1) + k - 1, k - 1), in Python integers, whose log is taken
    only at the end: exact for any k, where the quotient of
    uniform_convolution_closed_form underflows past 1e-308.
    """
    if not 0 <= n1 <= k * m:
        return -math.inf
    count = sum(
        (-1) ** j * math.comb(k, j) * math.comb(n1 - j * (m + 1) + k - 1, k - 1)
        for j in range(min(k, n1 // (m + 1)) + 1)
    )
    return math.log(count)


def redundancy(p_alt, specs, sizes) -> float:
    """Expected log-likelihood advantage of the point alternative over the
    Bayes marginal; sums per-group binomial-to-prior divergences. It bounds
    the regret of every candidate statistic from above."""
    specs = list(specs)
    sizes = list(sizes)
    pvec = np.atleast_1d(np.asarray(p_alt, dtype=float))
    if pvec.size != len(sizes):
        raise ValueError("p_alt length must match the number of groups")
    total = 0.0
    for m, p, s in zip(sizes, pvec, specs):
        total += kl_divergence(binomial_pmf(m, p), induced_group_pmf(s, m))
    return total


def direct_convolution_density(specs, grid_size: int) -> GridDensity:
    """Continuous convolution of beta prior densities, rescaled to the 1/k
    average: the limit of the pseudo density for equal group sizes.

    Only defined for beta priors bounded on [0, 1] (all parameters >= 1).
    """
    specs = list(specs)
    if len(specs) < 2:
        raise ValueError("need at least 2 groups")
    norm = [PriorSpec.from_beta(1.0, 1.0) if s.kind == "uniform" else s for s in specs]
    for s in norm:
        if s.kind != "beta":
            raise ValueError("direct convolution requires beta priors")
        if s.alpha < 1 or s.beta < 1:
            raise ValueError("density unbounded at boundary")
    k = len(norm)
    x = np.linspace(0.0, 1.0, grid_size)
    h = x[1] - x[0]

    def beta_density(s):
        with np.errstate(divide="ignore"):
            ld = xlogy(s.alpha - 1, x) + xlogy(s.beta - 1, 1 - x) - log_beta_fn(s.alpha, s.beta)
        return np.exp(ld)

    acc = beta_density(norm[0])
    for s in norm[1:]:
        acc = np.convolve(acc, beta_density(s)) * h
    # acc samples the density of the sum on [0, k]; the density of the mean
    # is k * f_sum(k * p0), which lands back on the original grid points.
    idx = np.arange(grid_size) * k
    return GridDensity.from_density(x, k * acc[idx])


def discrete_gaussian_approx(group_pmfs) -> Pmf:
    """Discrete Gaussian matching the summed means and variances of the groups."""
    group_pmfs = list(group_pmfs)
    if len(group_pmfs) < 2:
        raise ValueError("need at least 2 groups")
    mu = sum(moments(p)[0] for p in group_pmfs)
    var = sum(moments(p)[1] for p in group_pmfs)
    if var <= 0:
        raise ValueError("degenerate priors")
    n = sum(p.support_size - 1 for p in group_pmfs)
    j = np.arange(n + 1)
    return Pmf.from_log_weights(-((j - mu) ** 2) / (2 * var))


def gaussian_approx_tv(spec: PriorSpec, sizes) -> float:
    """TV distance between the exact prior convolution and its discrete
    Gaussian moment-matched approximation."""
    pmfs = [induced_group_pmf(spec, n) for n in sizes]
    return total_variation(null_optimal_prior(pmfs), discrete_gaussian_approx(pmfs))


def one_pass_convolution(specs, sizes, scale: int, total: int) -> np.ndarray:
    """Convolution of the groups' induced pmfs at size scale*n_i, at every
    point 0..total, by one FFT pass and one inverse transform of the whole
    length.

    Unnormalized, with round-off below FFT_CLAMP of its peak clamped to zero:
    the weights pseudo_null_density resamples.
    """
    length = fft.next_fast_len(total + 1, real=True)
    spectrum = 1.0
    for (spec, n), count in Counter(zip(specs, sizes)).items():
        w = _induced_log_weights(spec, scale * n)
        spectrum = spectrum * fft.rfft(np.exp(w - w.max()), length) ** count
    out = fft.irfft(spectrum, length)[: total + 1]
    out[out < FFT_CLAMP * out.max()] = 0.0
    return out

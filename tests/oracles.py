"""Reference implementations the tests check the library against.

Nothing in the library calls these. Each is an independent route to a value
the library computes another way: closed forms, configuration counts, plain
divergences, a continuous convolution, the whole-length inverse FFT and a
binomial mixture summed in fixed-point arithmetic.
"""

import itertools
import math
from collections import Counter

import mpmath
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
    log_binomial_row,
)
from maxent_evalues.evariables import log_w_pseudo0
from maxent_evalues.priors import (
    DEFAULT_DENSITY_GRID,
    DEFAULT_SCALE,
    PriorSpec,
    _induced_log_weights,
    canonical_priors,
    induced_group_pmf,
    null_optimal_prior,
    pseudo_null_density,
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


def log_binomial_mixture_exact(p, log_w, n: int, counts) -> np.ndarray:
    """log sum_j w_j C(n, c) p_j^c (1 - p_j)^(n - c) at each count c, rounded
    once.

    Each exponent log w_j + c log p_j + (n - c) log(1 - p_j) is an integer
    multiple of 2^-120, from the exact binary values of p and log w and
    50-digit mpmath logs (0^0 = 1 at the grid ends), so it carries none of
    the cancellation of the float form. The exponentials relative to the
    largest are each within 1e-14 relative (an exponent below 45 in
    magnitude, rounded to a float) and summed exactly (math.fsum). log C(n, c)
    is the library's log_binomial_row, added before the one rounding, so the
    value measures the mixture's arithmetic alone. A row sums the atoms whose
    float exponent lies within 45 nats of its largest: the others, at most
    len(p) of them, add less than len(p) e^-45 relative, 6e-16 on a
    20001-point grid.
    """
    p, log_w = np.asarray(p, dtype=float), np.asarray(log_w, dtype=float)
    one = 2**120
    coef = log_binomial_row(n)
    logs = {}
    out = []
    with mpmath.workdps(50):
        for c in np.atleast_1d(counts).tolist():
            approx = xlogy(c, p) + xlogy(n - c, 1.0 - p) + log_w
            if not (approx > -np.inf).any():
                out.append(-np.inf)
                continue
            exponents = []
            # An atom at p = 0 (p = 1) is kept only at c = 0 (c = n), where
            # its log p (log(1 - p)) has weight zero.
            for j in np.flatnonzero(approx >= approx.max() - 45.0).tolist():
                if j not in logs:
                    x = mpmath.mpf(float(p[j]))
                    logs[j] = (int(mpmath.log(x) * one) if x > 0 else 0,
                               int(mpmath.log(1 - x) * one) if x < 1 else 0)
                exponents.append(
                    int(log_w[j] * 2.0**120) + c * logs[j][0] + (n - c) * logs[j][1]
                )
            top = max(exponents)
            total = math.fsum(math.exp((t - top) / one) for t in exponents)
            log_coef = int(coef[c] * 2.0**120)
            out.append((top + log_coef + int(mpmath.log(total) * one)) / one)
    return np.array(out)


def point_alt_count_pmf(sizes, alt_params) -> Pmf:
    """Exact law of the total one-count under a point alternative: the
    groups' binomial laws convolved in group order."""
    return null_optimal_prior([binomial_pmf(n, p) for n, p in zip(sizes, alt_params)])


def pseudo_e_power(specs, sizes, group_pmfs, scale=DEFAULT_SCALE,
                   density_grid=DEFAULT_DENSITY_GRID) -> float:
    """Expected log pseudo statistic under a product law on the group counts,
    summed as one statistic: mic's group terms under the canonical priors,
    with the pseudo null's mass W_ps in place of W0 at the total count.

    Each group term is summed against its group's law, and log C(n, c) -
    log W_ps(c) against the groups' convolution, in the order and arithmetic
    that e_power sums a statistic, so the value has the bits the pseudo
    e-power had when it was a statistic of its own.
    """
    specs = canonical_priors(specs)
    n = sum(sizes)
    density = pseudo_null_density(specs, sizes, scale, density_grid)
    count_term = log_binomial_row(n) - log_w_pseudo0(density, n, np.arange(n + 1))
    pairs = [(law, induced_group_pmf(s, m).log_weights - log_binomial_row(m))
             for law, s, m in zip(group_pmfs, specs, sizes)]
    pairs.append((null_optimal_prior(group_pmfs), count_term))
    total = 0.0
    for law, values in pairs:
        mass = law.log_weights > NEG_INF
        total += float(np.dot(np.exp(law.log_weights[mass]), values[mass]))
    return total


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

"""Reference implementations the tests check the library against.

Nothing in the library calls these. Each is an independent route to a value
the library computes another way: closed forms, configuration counts, plain
divergences, a continuous convolution, the whole-length inverse FFT, a
binomial mixture summed in fixed-point arithmetic and the projection's
likelihood matrix built cellwise. The benchmark's designs, which several of
them are checked on, are here too.
"""

import itertools
import math
from collections import Counter

import mpmath
import numpy as np
from scipy import fft
from scipy.special import gammaln, logsumexp, xlogy

from maxent_evalues.models import Table
from maxent_evalues.numerics import (
    FFT_CLAMP,
    NEG_INF,
    Pmf,
    binomial_pmf,
    log_beta_fn,
    log_binomial_mixture,
    log_binomial_row,
)
from maxent_evalues.priors import (
    DEFAULT_DENSITY_GRID,
    DEFAULT_SCALE,
    PriorSpec,
    _induced_log_weights,
    canonical_priors,
    induced_group_pmf,
    null_optimal_prior,
    pseudo_atoms,
)


# The benchmark's designs (perfbench/workloads.py). Each table design: its
# group sizes, its prior and the point alternative its point ops pass.
TABLE_DESIGNS = {
    "t2-uniform": ((16, 40), "uniform", (0.569, 0.402)),
    "t4-nml": ((55, 80, 70, 62), "nml", (0.8727, 0.8192, 0.8045, 0.6368)),
    "t8-uniform": ((248, 163, 223, 192, 169, 250, 199, 177), "uniform",
                   (0.3312, 0.3063, 0.3626, 0.3612, 0.4645, 0.3846, 0.4857, 0.1858)),
    "t16-beta22": ((41, 56, 44, 58, 42, 39, 46, 59, 44, 60, 40, 47, 43, 60, 54, 58), "beta:2,2",
                   (0.9407, 0.9206, 0.99, 0.8926, 0.8637, 0.8935, 0.7583, 0.8068,
                    0.635, 0.6186, 0.866, 0.7676, 0.7471, 0.7705, 0.7699, 0.9425)),
}
# The network's 15 block pairs (n = 8778 dyads) under uniform priors, and the
# point alternative its net-test ops pass.
NETWORK_DYADS = (351, 729, 729, 702, 702, 351, 729, 702, 702, 351, 702, 702, 325, 676, 325)
NETWORK_PALT = (0.1857, 0.2402, 0.2648, 0.2643, 0.2305, 0.2648, 0.2515, 0.2299,
                0.2887, 0.2753, 0.2377, 0.2681, 0.2642, 0.2759, 0.2212)


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


def ripr_log_likelihoods(p, counts, n: int) -> np.ndarray:
    """log C(n, c) + c log p + (n - c) log(1 - p), counts x grid, cellwise
    with xlogy (0 log 0 = 0): the logs of ripr_solve's likelihood matrix as
    it was built before its band, every cell computed."""
    counts = np.asarray(counts)
    return (
        xlogy(counts[:, None], p[None, :])
        + xlogy((n - counts)[:, None], 1.0 - p[None, :])
        + log_binomial_row(n)[counts][:, None]
    )


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
    atoms = pseudo_atoms(specs, sizes, scale, density_grid)
    count_term = log_binomial_row(n) - log_binomial_mixture(*atoms, n)
    pairs = [(law, induced_group_pmf(s, m).log_weights - log_binomial_row(m))
             for law, s, m in zip(group_pmfs, specs, sizes)]
    pairs.append((null_optimal_prior(group_pmfs), count_term))
    total = 0.0
    for law, values in pairs:
        mass = law.log_weights > NEG_INF
        total += float(np.dot(np.exp(law.log_weights[mass]), values[mass]))
    return total


def pseudo_null_quadrature(specs, sizes, nodes: int = 400) -> np.ndarray:
    """log W_ps(c), c = 0..n, of two groups, by a 2-D Gauss-Legendre rule
    with `nodes` nodes a dimension: the pseudo null without its lattice.

    W_ps(c) is the mean of Binomial(n, (n_1 t_1 + n_2 t_2)/n)(c) over
    independent t_i from each group's high-resolution limit: its beta
    density (uniform is beta(1, 1)), integrated in t, or for NML the
    Beta(1/2, 1/2) limit, integrated in phi with t = sin^2 phi, where its
    density is the constant 2/pi and the integrand is smooth.
    """
    if len(sizes) != 2:
        raise ValueError("the quadrature takes two groups")
    x, w = np.polynomial.legendre.leggauss(nodes)
    axes = []
    for spec in specs:
        if spec.kind == "nml":
            # phi = (x + 1) pi/4 on [0, pi/2]: weight w pi/4 times 2/pi.
            axes.append((np.sin((x + 1) * np.pi / 4) ** 2, np.log(w / 2)))
            continue
        a, b = (1.0, 1.0) if spec.kind == "uniform" else (spec.alpha, spec.beta)
        t = (x + 1) / 2
        axes.append((t, np.log(w / 2) + xlogy(a - 1, t) + xlogy(b - 1, 1 - t) - log_beta_fn(a, b)))
    (t1, w1), (t2, w2) = axes
    n1, n2 = sizes
    n = n1 + n2
    p0 = ((n1 * t1[:, None] + n2 * t2[None, :]) / n).ravel()
    log_w = (w1[:, None] + w2[None, :]).ravel()
    out = np.empty(n + 1)
    for c in range(n + 1):
        out[c] = logsumexp(xlogy(c, p0) + xlogy(n - c, 1 - p0) + log_w)
    return out + log_binomial_row(n)


def log_sup_null_expectation(log_q, log_w0, points: int = 4001, tail: int = 200) -> float:
    """log of the largest E_p[S] = sum_c Binom(n, p)(c) Q(c)/W0(c) over iid
    Bernoulli(p) nulls, for a statistic whose null is log_w0 and whose group
    terms sum to the count law log_q (n = len - 1).

    In log space, over `points` equally spaced p in [0, 1] and `tail`
    log-spaced p from 1e-16 toward each end. A count with no mass under Q
    adds nothing; one with mass under Q and none under W0 makes it +inf.
    """
    n = log_q.size - 1
    c = np.arange(n + 1)
    # log C(n, c) to 30 digits: log_binomial_row is off by up to 3e-11 at
    # these n (test_log_binomial_row_ledger), which would show in E_p[S].
    with mpmath.workdps(30):
        log_c = np.array([float(mpmath.log(mpmath.binomial(n, j))) for j in range(n + 1)])
    with np.errstate(invalid="ignore"):
        ratio = np.where(log_q == NEG_INF, NEG_INF, log_q - log_w0) + log_c
    ends = np.logspace(-16, math.log10(0.5 / (points - 1)), tail)
    ps = np.unique(np.r_[np.linspace(0.0, 1.0, points), ends, 1.0 - ends])
    best = NEG_INF
    for block in np.array_split(ps, max(1, ps.size * (n + 1) // 1_000_000)):
        cells = xlogy(c, block[:, None]) + xlogy(n - c, 1.0 - block[:, None]) + ratio
        best = max(best, float(logsumexp(cells, axis=1).max()))
    return best


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


def direct_convolution_density(specs, grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Continuous convolution of beta prior densities, rescaled to the 1/k
    average: the limit of the pseudo density for equal group sizes, as its
    grid on [0, 1] and its values there, trapezoid-normalized.

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
    values = k * acc[np.arange(grid_size) * k]
    return x, values / np.trapezoid(values, x)


def trapezoid_rule(grid: np.ndarray) -> np.ndarray:
    """Log weights of the trapezoid rule on a uniform grid."""
    rule = np.full(grid.size, np.log(grid[1] - grid[0]))
    rule[[0, -1]] -= np.log(2.0)
    return rule


def trapezoid_atoms(grid, density) -> tuple[np.ndarray, np.ndarray]:
    """The trapezoid rule on a uniform grid as a mixing law: the grid, and
    the log of each point's rule weight times the density that density
    samples up to a constant, normalized so that the weights sum to 1. The
    steps are those pseudo_atoms takes, so its atoms match these bit for
    bit."""
    grid, density = np.asarray(grid, dtype=float), np.asarray(density, dtype=float)
    with np.errstate(divide="ignore"):
        log_density = np.log(density / np.trapezoid(density, grid))
    return grid, log_density + trapezoid_rule(grid)


def assert_quadrature_of(atoms, grid, density, rtol=0.0, atol=0.0):
    """Assert that atoms, pseudo_atoms' (grid, log weights), are the
    trapezoid rule's mixing law (trapezoid_atoms) of the density that
    density samples up to a constant on the uniform grid: the grid bit for
    bit, and the log weights bit for bit unless a tolerance is given. With
    one, the density each atom carries, its weight over its rule weight, is
    within rtol of the reference and atol times the reference's peak."""
    grid, density = np.asarray(grid, dtype=float), np.asarray(density, dtype=float)
    got_grid, got_log_w = atoms
    assert np.array_equal(got_grid, grid)
    if not (rtol or atol):
        assert np.array_equal(got_log_w, trapezoid_atoms(grid, density)[1])
        return
    ref = density / np.trapezoid(density, grid)
    np.testing.assert_allclose(np.exp(got_log_w - trapezoid_rule(grid)), ref,
                               rtol=rtol, atol=atol * ref.max())


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
    the weights pseudo_atoms resamples.
    """
    length = fft.next_fast_len(total + 1, real=True)
    spectrum = 1.0
    for (spec, n), count in Counter(zip(specs, sizes)).items():
        w = _induced_log_weights(spec, scale * n)
        spectrum = spectrum * fft.rfft(np.exp(w - w.max()), length) ** count
    out = fft.irfft(spectrum, length)[: total + 1]
    out[out < FFT_CLAMP * out.max()] = 0.0
    return out

"""E-variables for testing the equal-rate null against group-specific alternatives.

Every statistic here is one `Statistic`: on a 2xk table with per-group
one-counts c1 and total one-count c0 = sum(c1),

    log S(c1) = sum_i a_i[c1_i] + h(c0),    h(c0) = log C(n, c0) - log W0(c0),

where W0 is the null's mass at the total count. The statistics are

- the exact microcanonical growth-rate-optimal (GRO) e-variable: a_i is the
  group's induced prior mass over its multiplicity, W0 the optimal null
  prior (the convolution of the group priors);
- the canonical GRO e-variable: the same a_i, with W0 the projection of the
  Bayes marginal onto binomial mixtures (reverse information projection);
- its point-alternative variant: a_i is the group's Bernoulli
  log-likelihood at a fixed alternative;
- the pseudo statistic: the microcanonical a_i, with W0 the high-resolution
  limit density of the optimal null prior. It is a close upper proxy but not
  an e-variable.

The e-value of one table evaluates h at one count; an expectation under a
product law evaluates it at every count.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .numerics import (
    NEG_INF,
    Pmf,
    _binomial_log_cells,
    binomial_pmf,
    convolve_all,
    log_binomial_mixture,
    log_binomial_row,
    log_sum_exp,
    trapezoid_log_weights,
)
from .priors import (
    DEFAULT_DENSITY_GRID,
    DEFAULT_SCALE,
    PseudoDensity,
    induced_group_pmf,
    null_optimal_prior,
    pseudo_null_density,
)

# Defaults for the numerical reverse information projection.
RIPR_GRID_SIZE = 2001
RIPR_TOL = 1e-10
RIPR_MAX_ITER = 50_000

# Most cells (grid points x kept counts) of the matrix ripr_solve builds. It
# holds that one matrix, 8 bytes a cell, masked and pruned in place, and one
# block of about 8 MB while it fills it (tracemalloc: 8.5 bytes a cell, 134
# MiB, on the largest benchmark design, 8,265 kept counts at the default
# grid; 10.1 at 2001 kept counts), so the limit is about 400 MB. That design
# (1.65e7 cells) fits three times over.
_MAX_RIPR_CELLS = 50_000_000

# Mixture masses below this floor are clamped during the multiplicative
# updates to keep likelihood ratios finite.
_WEIGHT_FLOOR = 1e-300

# Projections kept by _projection. An entry holds its key's target bytes,
# 8(n+1), and the solution's grid and log weights, 16·grid_size, so the memo
# holds at most _PROJECTIONS x (8(n+1) + 16·grid_size) bytes: under 4 MB at
# the benchmark's sizes (n up to about 11,200 dyads, the default grid).
_PROJECTIONS = 32

POST_HOC_LEVEL = float(np.exp(-1.0))

_EVARIABLE_KINDS = {"gro_mic": True, "gro_can": True, "gro_point": True, "pseudo": False}


@dataclass(frozen=True)
class RiprSolution:
    """Numerical reverse information projection onto the null model.

    The projection is a discrete mixture of binomial total-count laws with
    mean parameters on a uniform grid; achieved_kl is the divergence from
    the target total-count law to the mixture total-count law.
    """

    grid: np.ndarray
    log_weights: np.ndarray
    achieved_kl: float
    iterations: int
    converged: bool

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        lw = np.asarray(self.log_weights, dtype=float)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "log_weights", lw)
        g.setflags(write=False)
        lw.setflags(write=False)
        if g.shape != lw.shape or g.ndim != 1:
            raise ValueError("grid and log_weights must be matching 1-D arrays")


def _group_pmfs(sizes, priors) -> list[Pmf]:
    priors = list(priors)
    if len(priors) != len(sizes):
        raise ValueError(f"expected {len(sizes)} priors, got {len(priors)}")
    return [induced_group_pmf(s, n) for s, n in zip(priors, sizes)]


def _bayes_terms(group_pmfs) -> tuple[np.ndarray, ...]:
    # Bayes marginal probability of one group configuration: the induced
    # prior mass at its one-count over the number of such configurations.
    return tuple(p.log_weights - log_binomial_row(p.support_size - 1) for p in group_pmfs)


def _alt_params(sizes, alt_params) -> np.ndarray:
    if not len(sizes):
        raise ValueError("no groups")
    pvec = np.atleast_1d(np.asarray(alt_params, dtype=float))
    if pvec.size != len(sizes):
        raise ValueError(f"expected {len(sizes)} parameters, got {pvec.size}")
    if ((pvec < 0) | (pvec > 1)).any():
        raise ValueError("mean parameters must lie in [0, 1]")
    return pvec


def _projected_mass(target: Pmf, n: int, grid_size, tol, max_iter):
    """log W0 of the projection of target onto binomial mixtures, solved
    through _projection, and the projection's achieved KL."""
    solution = _projection(target.log_weights.tobytes(), n, grid_size, tol, max_iter)
    if not solution.converged:
        raise ValueError(
            f"the reverse information projection did not converge in "
            f"{solution.iterations} iterations; refine solver settings: raise "
            "max_iter (--ripr-max-iter) or tol (--ripr-tol)"
        )
    return (
        lambda c: log_binomial_mixture(solution.grid, solution.log_weights, n, c),
        solution.achieved_kl,
    )


@dataclass(frozen=True, eq=False)
class Statistic:
    """log S(c1) = sum_i group_terms[i][c1_i] + count_term(sum(c1)).

    group_terms[i] is indexed by group i's one-count 0..n_i. log_null_mass
    gives log W0, the null's mass at a total count, at the counts asked
    for only, and count_term(c0) = log C(n, c0) - log W0(c0).
    """

    kind: str
    group_terms: tuple[np.ndarray, ...]
    log_null_mass: Callable[[np.ndarray], np.ndarray]
    achieved_kl: float | None

    def __post_init__(self):
        if self.kind not in _EVARIABLE_KINDS:
            raise ValueError(f"unknown statistic kind {self.kind!r}")

    @property
    def is_evariable(self) -> bool:
        return _EVARIABLE_KINDS[self.kind]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(a.size - 1 for a in self.group_terms)

    def count_term(self, counts) -> np.ndarray:
        c = np.atleast_1d(np.asarray(counts, dtype=np.int64))
        n = sum(self.sizes)
        # Checked here, since numpy would read a negative count from the end.
        outside = c[(c < 0) | (c > n)]
        if outside.size:
            raise ValueError(f"total count {outside[0]} out of range 0..{n}")
        return log_binomial_row(n)[c] - self.log_null_mass(c)

    def log_e(self, ones) -> float:
        """log S at one table, given its per-group one-counts."""
        ones = tuple(int(o) for o in ones)
        log_e = 0.0
        for i, (a, o) in enumerate(zip(self.group_terms, ones, strict=True)):
            if not 0 <= o < a.size:
                raise ValueError(f"group {i}: count {o} out of range 0..{a.size - 1}")
            log_e += float(a[o])
        return log_e + float(self.count_term(sum(ones))[0])

    @staticmethod
    def mic(sizes, priors) -> "Statistic":
        """Exact microcanonical GRO e-variable: W0 is the optimal null prior."""
        pmfs = _group_pmfs(sizes, priors)
        log_w0 = null_optimal_prior(pmfs).log_weights
        return Statistic("gro_mic", _bayes_terms(pmfs), lambda c: log_w0[c], None)

    @staticmethod
    def pseudo(
        sizes, priors, scale=DEFAULT_SCALE, density_grid=DEFAULT_DENSITY_GRID
    ) -> "Statistic":
        """The microcanonical form with the pseudo null prior of these sizes
        and priors, built at scale and resampled onto density_grid points
        (None: not resampled); not an e-variable."""
        density = pseudo_null_density(priors, sizes, scale, density_grid)
        n = sum(sizes)
        terms = _bayes_terms(_group_pmfs(sizes, priors))
        return Statistic("pseudo", terms, lambda c: log_w_pseudo0(density, n, c), None)

    @staticmethod
    def can(
        sizes,
        priors,
        grid_size: int = RIPR_GRID_SIZE,
        tol: float = RIPR_TOL,
        max_iter: int = RIPR_MAX_ITER,
    ) -> "Statistic":
        """Canonical GRO e-variable: W0 is the projection onto binomial
        mixtures of the optimal null prior, the Bayes marginal's law of the
        total count, for these sizes and priors."""
        pmfs = _group_pmfs(sizes, priors)
        mass, kl = _projected_mass(
            null_optimal_prior(pmfs), sum(sizes), grid_size, tol, max_iter
        )
        return Statistic("gro_can", _bayes_terms(pmfs), mass, kl)

    @staticmethod
    def point(
        sizes,
        alt_params,
        grid_size: int = RIPR_GRID_SIZE,
        tol: float = RIPR_TOL,
        max_iter: int = RIPR_MAX_ITER,
    ) -> "Statistic":
        """GRO e-variable against a point alternative: the group terms are the
        Bernoulli log-likelihoods at alt_params (0^0 = 1 at the boundary), and
        W0 is the projection of the exact law of the total count under the
        alternative, the convolution of the per-group binomials."""
        pvec = _alt_params(sizes, alt_params)
        terms = []
        for n, p in zip(sizes, pvec):
            c = np.arange(n + 1)
            terms.append(xlogy(c, p) + xlogy(n - c, 1.0 - p))
        mass, kl = _projected_mass(
            point_alt_count_pmf(sizes, pvec), sum(sizes), grid_size, tol, max_iter
        )
        return Statistic("gro_point", tuple(terms), mass, kl)


def log_w_pseudo0(density: PseudoDensity, n: int, n1) -> np.ndarray:
    """Log mass the pseudo null prior assigns to total counts, by quadrature.

    Mixes Binomial(n, p0) over the continuous density with trapezoid
    weights, at the requested total one-counts; an array, one value a count.
    """
    density = density.density
    c0 = np.atleast_1d(np.asarray(n1, dtype=np.int64))
    if ((c0 < 0) | (c0 > n)).any():
        raise ValueError("total count out of range")
    base = density.log_density + trapezoid_log_weights(density.grid)
    out = log_binomial_mixture(density.grid, base, n, c0)
    if (out == NEG_INF).any():
        raise ValueError("quadrature underflow")
    return out


def _keep_rows(a: np.ndarray, mask) -> np.ndarray:
    """a[mask] for a C-contiguous 2-D a, built in a's own buffer: the kept
    rows move down in order, and the result is a view of a's leading rows.

    Row i moves to an index at most i, so copying row by row overwrites only
    rows already moved or dropped. The view has the copy's layout, so BLAS
    sums over it in the same order, and a holds no second copy of itself.
    """
    kept = np.flatnonzero(mask)
    for dst, src in enumerate(kept):
        if dst != src:
            a[dst] = a[src]
    return a[: kept.size]


def ripr_solve(
    target: Pmf,
    n: int,
    grid_size: int = RIPR_GRID_SIZE,
    tol: float = RIPR_TOL,
    max_iter: int = RIPR_MAX_ITER,
) -> RiprSolution:
    """Project a total-count law onto mixtures of Binomial(n, p) by minimizing KL.

    Multiplicative (expectation-maximization style) updates on a uniform
    p-grid, with squared-extrapolation acceleration. Each outer iteration is
    safeguarded: an extrapolated candidate that fails to decrease the
    objective is replaced by the plain double update, so the objective is
    monotone non-increasing. Iteration stops when the relative decrease per
    outer iteration falls below tol.
    """
    if target.support_size != n + 1:
        raise ValueError(f"target support {target.support_size} != n+1 = {n + 1}")
    if grid_size < 51:
        raise ValueError("grid_size must be at least 51")
    # Written so that NaN, which fails every comparison, is refused.
    if not 0 < tol < math.inf or max_iter < 1:
        raise ValueError(
            f"tol (--ripr-tol) must be finite and positive and max_iter "
            f"(--ripr-max-iter) at least 1, got tol={tol}, max_iter={max_iter}"
        )
    t = target.weights()
    # Rows below 1e-60 of the peak change the objective by far less than any
    # usable tolerance; dropping them bounds the matrix size by the target's
    # effective support.
    keep = t > t.max() * 1e-60
    c0 = np.arange(n + 1)[keep]
    if grid_size * c0.size > _MAX_RIPR_CELLS:
        raise ValueError(
            f"the projection needs a {grid_size} x {c0.size} matrix (limit "
            f"{_MAX_RIPR_CELLS} cells); lower grid_size (--ripr-grid)"
        )
    t = t[keep]
    t = t / t.sum()
    p = np.linspace(0.0, 1.0, grid_size)
    # Component likelihood matrix L[j, i] = Binomial(n, p_i).pmf(c0_j); kept
    # in linear space, which is safe because each row attains its maximum
    # near p = c0/n where the pmf is polynomially small, not exp(-n) small.
    # It is built transposed, grid x counts in C order, so that L is
    # column-major: BLAS sums L @ w in an order that depends on the layout,
    # and the iterates (and where the iteration stops) depend on those sums.
    cells = np.empty((grid_size, c0.size))
    _binomial_log_cells(cells.T, c0, n, xlogy(1.0, p), xlogy(1.0, 1.0 - p))
    cells += log_binomial_row(n)[keep]
    # Components that are vanishingly unlikely against every kept row decay
    # to zero weight anyway; exclude them from the iteration.
    col_max = cells.max(axis=1)
    active = col_max > col_max.max() - 350.0
    cells = _keep_rows(cells, active)
    L = np.exp(cells, out=cells).T
    log_t = np.log(t)

    def mixture(weights):
        q = L @ weights
        return np.maximum(q, _WEIGHT_FLOOR, out=q)

    def em_step(weights, q):
        # q is mixture(weights), which the caller has already formed.
        nxt = weights * (L.T @ (t / q))
        nxt /= nxt.sum()
        return nxt

    def objective(q):
        return float(np.dot(t, log_t - np.log(q)))

    n_active = int(active.sum())
    w = np.full(n_active, 1.0 / n_active)
    q = mixture(w)
    kl = objective(q)
    converged = False
    it = 0
    active_idx = np.flatnonzero(active)
    for it in range(1, max_iter + 1):
        if it % 100 == 0:
            # Weights this small contribute below solver tolerance and only
            # decay further; dropping their columns shrinks the iteration.
            live = w > w.max() * 1e-20
            if live.sum() < w.size:
                w = w[live]
                w /= w.sum()
                L = _keep_rows(L.T, live).T
                active_idx = active_idx[live]
                q = mixture(w)
                kl = objective(q)
        w1 = em_step(w, q)
        w2 = em_step(w1, mixture(w1))
        r = w1 - w
        v = w2 - w1 - r
        norm_v = math.sqrt(v @ v)
        if norm_v == 0.0:
            cand = w2
        else:
            step = -math.sqrt(r @ r) / norm_v
            cand = w - 2.0 * step * r + step * step * v
            np.maximum(cand, 0.0, out=cand)
            total = cand.sum()
            if total <= 0.0:
                cand = w2
            else:
                cand /= total
                cand = em_step(cand, mixture(cand))
        q_cand = mixture(cand)
        kl_cand = objective(q_cand)
        if not math.isfinite(kl_cand) or kl_cand > kl:
            cand = w2
            q_cand = mixture(w2)
            kl_cand = objective(q_cand)
        if kl - kl_cand <= tol * max(abs(kl_cand), 1.0):
            w, kl = cand, kl_cand
            converged = True
            break
        w, kl, q = cand, kl_cand, q_cand
    full = np.full(grid_size, NEG_INF)
    with np.errstate(divide="ignore"):
        lw = np.log(w)
    full[active_idx] = lw - log_sum_exp(lw)
    return RiprSolution(p, full, kl, it, converged)


@functools.lru_cache(maxsize=_PROJECTIONS)
def _projection(
    target_log_weights: bytes, n: int, grid_size: int, tol: float, max_iter: int
) -> RiprSolution:
    """ripr_solve of the target whose log weights are these float64 bytes.

    The target is fixed by the design alone (group sizes and priors, or the
    point alternative), so every table of one design, and every caller that
    projects the same law, shares one solve. The solution is frozen and its
    arrays read-only, so handing it to every caller is safe; an unconverged
    one is kept too, and the statistic refuses it each time. ripr_solve
    itself stays an uncached plain function, looked up at each miss.
    """
    return ripr_solve(Pmf(np.frombuffer(target_log_weights)), n, grid_size, tol, max_iter)


def point_alt_count_pmf(sizes, alt_params) -> Pmf:
    """Exact law of the total one-count under a point alternative."""
    pvec = np.atleast_1d(np.asarray(alt_params, dtype=float))
    return convolve_all([binomial_pmf(n, pi) for n, pi in zip(sizes, pvec)])


def e_power(statistic: Statistic, group_pmfs) -> float:
    """Expected log statistic under a product law on the per-group one-counts.

    Exact: each group term is summed against its group's law and the count
    term against the convolution of the group laws. The statistic must be
    positive wherever the reference law puts mass.
    """
    group_pmfs = list(group_pmfs)
    if tuple(p.support_size - 1 for p in group_pmfs) != statistic.sizes:
        raise ValueError("group laws do not match the statistic's group sizes")
    law = convolve_all(group_pmfs)
    pairs = list(zip(group_pmfs, statistic.group_terms))
    pairs.append((law, statistic.count_term(np.arange(law.support_size))))
    total = 0.0
    for pmf, values in pairs:
        mass = pmf.log_weights > NEG_INF
        if (values[mass] == NEG_INF).any():
            raise ValueError("statistic vanishes on support")
        total += float(np.dot(np.exp(pmf.log_weights[mass]), values[mass]))
    return total


def decide(log_e: float, alpha: float = 0.05) -> str:
    """Level-alpha e-value test: reject iff e >= 1/alpha."""
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    if np.isnan(log_e):
        raise ValueError("NaN log e-value")
    return "reject" if log_e >= -np.log(alpha) else "continue"

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
from collections import OrderedDict
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

# Bytes the design memo (_design) may hold. An entry counts as its arrays
# and 2 KB for its objects. The arrays are the group terms, 8(n+k) bytes for
# k groups of n trials in all, and the null: mic's count law or pseudo's log
# W0 at every count, 8(n+1) each, or a projection's atoms and log weights,
# at most 16·grid_size. That is 18 KB for mic or pseudo at n = 1,024, and
# 104 KB for can on the benchmark's network design (n = 8,778 dyads in 15
# groups); all 141 entries of the benchmark's three pools hold 1.7 MB, so
# none is dropped. The least recently used entries go first; an entry
# larger than the whole budget is not kept.
_DESIGN_BYTES = 64 * 2**20

POST_HOC_LEVEL = float(np.exp(-1.0))

_EVARIABLE_KINDS = {"gro_mic": True, "gro_can": True, "gro_point": True, "pseudo": False}


@dataclass(frozen=True)
class RiprSolution:
    """Numerical reverse information projection onto the null model.

    The projection is a discrete mixture of binomial total-count laws: its
    atoms are the points of a uniform grid on [0, 1] that kept weight, in
    increasing order, with their finite log weights. achieved_kl is the
    divergence from the target total-count law to the mixture total-count
    law.
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
        if g.shape != lw.shape or g.ndim != 1 or not np.isfinite(lw).all():
            raise ValueError("grid and log_weights must be matching 1-D arrays, the weights finite")


def _group_pmfs(sizes, priors) -> list[Pmf]:
    priors = list(priors)
    if len(priors) != len(sizes):
        raise ValueError(f"expected {len(sizes)} priors, got {len(priors)}")
    return [induced_group_pmf(s, n) for s, n in zip(priors, sizes)]


def _bayes_terms(group_pmfs) -> tuple[np.ndarray, ...]:
    # Bayes marginal probability of one group configuration: the induced
    # prior mass at its one-count over the number of such configurations.
    terms = tuple(p.log_weights - log_binomial_row(p.support_size - 1) for p in group_pmfs)
    for a in terms:
        a.setflags(write=False)
    return terms


def _alt_params(sizes, alt_params) -> np.ndarray:
    if not len(sizes):
        raise ValueError("no groups")
    pvec = np.atleast_1d(np.asarray(alt_params, dtype=float))
    if pvec.size != len(sizes):
        raise ValueError(f"expected {len(sizes)} parameters, got {pvec.size}")
    # Written so that NaN, which fails every comparison, is refused.
    if not ((pvec >= 0) & (pvec <= 1)).all():
        raise ValueError("mean parameters must lie in [0, 1]")
    return pvec


@dataclass(frozen=True, eq=False)
class Statistic:
    """log S(c1) = sum_i group_terms[i][c1_i] + count_term(sum(c1)).

    group_terms[i] is indexed by group i's one-count 0..n_i. log_null_mass
    gives log W0, the null's mass at a total count, at the counts asked
    for only, and count_term(c0) = log C(n, c0) - log W0(c0).

    Every kind is fixed by its design alone, so each is built once per
    process and design (see _design).
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
        return _statistic("gro_mic", sizes, priors, None)

    @staticmethod
    def pseudo(
        sizes, priors, scale=DEFAULT_SCALE, density_grid=DEFAULT_DENSITY_GRID
    ) -> "Statistic":
        """The microcanonical form with the pseudo null prior of these sizes
        and priors, built at scale and resampled onto density_grid points
        (None: not resampled); not an e-variable. Reading a count where the
        quadrature underflows is refused."""
        return _statistic("pseudo", sizes, priors, (scale, density_grid))

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
        return _statistic("gro_can", sizes, priors, (grid_size, tol, max_iter))

    @staticmethod
    def point(
        sizes,
        alt_params,
        grid_size: int = RIPR_GRID_SIZE,
        tol: float = RIPR_TOL,
        max_iter: int = RIPR_MAX_ITER,
    ) -> "Statistic":
        """GRO e-variable against a point alternative: the canonical
        construction with each group's law Binomial(n_i, alt_params[i]) in
        place of its prior's induced law. The group terms are then the
        Bernoulli log-likelihoods (0^0 = 1 at the boundary), and W0 is the
        projection of the exact law of the total count under the alternative."""
        pvec = _alt_params(sizes, alt_params)
        return _statistic("gro_point", sizes, pvec.tolist(), (grid_size, tol, max_iter))


def _statistic(kind: str, sizes, params, settings) -> Statistic:
    """The statistic _design keeps for this design, or the refusal of its
    unconverged projection."""
    built = _design(kind, tuple(sizes), tuple(params), settings)
    if isinstance(built, RiprSolution):
        raise ValueError(
            f"the reverse information projection did not converge in "
            f"{built.iterations} iterations; refine solver settings: raise "
            "max_iter (--ripr-max-iter) or tol (--ripr-tol)"
        )
    return built


# The design memo: key -> (statistic or unconverged projection, bytes), the
# least recently used first.
_designs: OrderedDict = OrderedDict()


def _design(
    kind: str, sizes: tuple, params: tuple, settings: tuple | None
) -> Statistic | RiprSolution:
    """The statistic of one design, built once, or the unconverged
    projection that _statistic refuses in its place.

    The key is the kind, the sizes in order, params (the priors, or the
    alternative's parameters for gro_point) and the kind's settings: None
    for gro_mic, (grid_size, tol, max_iter) for a projection, (scale,
    density_grid) for pseudo. A hit builds nothing; permuted sizes are
    another design. The memo holds at most _DESIGN_BYTES: a miss drops the
    least recently used entries, and an entry larger than that is returned
    but not kept. A build that raises is not kept either.
    """
    key = (kind, sizes, params, settings)
    if key in _designs:
        _designs.move_to_end(key)
        return _designs[key][0]
    built, arrays = _build(*key)
    size = 2048 + sum(a.nbytes for a in arrays)
    if size <= _DESIGN_BYTES:
        _designs[key] = (built, size)
        held = sum(b for _, b in _designs.values())
        while held > _DESIGN_BYTES:
            held -= _designs.popitem(last=False)[1][1]
    return built


def _build(kind: str, sizes: tuple, params: tuple, settings: tuple | None):
    """One design's statistic (or unconverged projection) and the arrays it
    holds.

    The group laws are induced by the priors in params (Binomial(n_i,
    params[i]) for gro_point). W0 is their convolution (gro_mic), its
    projection at settings = (grid_size, tol, max_iter), or the pseudo
    quadrature of the density built at settings = (scale, density_grid),
    taken once at every count; the density is not kept. The statistic is
    frozen and its arrays read-only, so every caller can share it.
    induced_group_pmf, null_optimal_prior, ripr_solve, pseudo_null_density
    and log_w_pseudo0 stay plain functions, looked up at each build.
    """
    if kind == "pseudo":
        # The density first, so that its checks run before anything else.
        density = pseudo_null_density(params, sizes, *settings)
        n = sum(sizes)
        log_w0 = log_w_pseudo0(density, n, np.arange(n + 1))
        log_w0.setflags(write=False)
        terms = _bayes_terms(_group_pmfs(sizes, params))
        mass = functools.partial(_quadrature_at, log_w0)
        return Statistic(kind, terms, mass, None), (*terms, log_w0)
    if kind == "gro_point":
        group_pmfs = [binomial_pmf(n, p) for n, p in zip(sizes, params)]
    else:
        group_pmfs = _group_pmfs(sizes, params)
    target = null_optimal_prior(group_pmfs)
    terms = _bayes_terms(group_pmfs)
    if settings is None:
        log_w0 = target.log_weights
        return Statistic(kind, terms, lambda c: log_w0[c], None), (*terms, log_w0)
    n = sum(p.support_size - 1 for p in group_pmfs)
    solution = ripr_solve(target, n, *settings)
    atoms = (solution.grid, solution.log_weights)
    if not solution.converged:
        return solution, atoms
    mass = functools.partial(log_binomial_mixture, *atoms, n)
    return Statistic(kind, terms, mass, solution.achieved_kl), (*terms, *atoms)


def _quadrature_at(log_w0: np.ndarray, counts) -> np.ndarray:
    """The pseudo quadrature log_w0 at the counts asked for, refusing the
    first where it underflowed."""
    c = np.atleast_1d(counts)
    out = log_w0[c]
    under = c[out == NEG_INF]
    if under.size:
        raise ValueError(
            f"quadrature underflow at total count {under[0]}; raise density_grid (--density-grid)"
        )
    return out


def log_w_pseudo0(density: PseudoDensity, n: int, n1) -> np.ndarray:
    """Log mass the pseudo null prior assigns to total counts, by quadrature.

    Mixes Binomial(n, p0) over the continuous density with trapezoid
    weights, at the requested total one-counts; an array, one value a count,
    -inf where the quadrature underflows.
    """
    density = density.density
    c0 = np.atleast_1d(np.asarray(n1, dtype=np.int64))
    if ((c0 < 0) | (c0 > n)).any():
        raise ValueError("total count out of range")
    base = density.log_density + trapezoid_log_weights(density.grid)
    return log_binomial_mixture(density.grid, base, n, c0)


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
        raise ValueError(f"grid_size (--ripr-grid) must be at least 51, got {grid_size}")
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
    with np.errstate(divide="ignore"):
        lw = np.log(w)
    # Normalized before the zero weights are cut (where they sit changes a
    # sum's rounding), so the atoms' bits are those of the whole active grid.
    lw -= log_sum_exp(lw)
    atoms = lw > NEG_INF
    return RiprSolution(p[active_idx[atoms]], lw[atoms], kl, it, converged)


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

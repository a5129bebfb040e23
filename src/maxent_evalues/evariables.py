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
  log-likelihood at a fixed alternative.

The pseudo null, binomials mixed over the high-resolution limit of the
optimal null prior, is not a statistic but one count law, log W_ps at every
count (pseudo_null): the diagnostics compare it with mic's W0.

The e-value of one table evaluates h at one count; an expectation under a
product law evaluates it at every count.
"""

from __future__ import annotations

import math
import mmap
import operator
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .numerics import (
    NEG_INF,
    Pmf,
    _within_budget,
    binomial_pmf,
    convolve_all,
    log_binomial_mixture,
    log_binomial_row,
    log_sum_exp,
)
from .models import _count
from .priors import (
    DEFAULT_DENSITY_GRID,
    DEFAULT_SCALE,
    canonical_priors,
    induced_group_pmf,
    null_optimal_prior,
    pseudo_atoms,
)

# Defaults for the numerical reverse information projection.
RIPR_GRID_SIZE = 2001
RIPR_TOL = 1e-10
RIPR_MAX_ITER = 50_000

# The likelihood matrix's band (_likelihood_bands): exp returns exactly 0.0
# below -745.14, and the 55 nats to -_BAND_NATS far exceed a cell's rounding.
# Blocks of _BAND_CELLS cells take one 256 KiB scratch array.
_BAND_NATS = 800.0
_BAND_CELLS = 2**15

# Mixture masses below this floor are clamped during the multiplicative
# updates to keep likelihood ratios finite.
_WEIGHT_FLOOR = 1e-300

# Bytes the design memo (_design) may hold. An entry counts as its arrays
# and 2 KB for its objects. A statistic's arrays are the group terms, 8(n+k)
# bytes for k groups of n trials in all, the null, log W0 at every count,
# 8(n+1), and for can and point the projection's atoms and log weights, at
# most 16·grid_size; a pseudo null's is that null alone, 8(n+1). That is
# 18 KB for mic and 10 KB for a pseudo null at n = 1,024, and 174 KB for
# can on the benchmark's network design (n = 8,778 dyads in 15 groups); all
# 140 designs of the benchmark's three pools hold under 1.8 MB, so none is
# dropped. The least recently used entries go first; an entry
# larger than the whole budget is not kept.
_DESIGN_BYTES = 64 * 2**20

POST_HOC_LEVEL = float(np.exp(-1.0))


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


def _design_bytes(n: int, k: int) -> int:
    """The stated peak resident growth of building a design of n trials in k
    groups, of any kind. The left fold of the group laws (mic's null, can's
    and point's target) grew by 24 to 213 bytes a trial for 1 to 60 groups
    (fresh-process VmHWM, n = 2e6: each FFT step's freed buffers stay in the
    heap), a mixture over every count (the null of can, point and pseudo) by
    97, and each group's own arrays and objects take under 700 bytes.
    """
    return n * max(104, math.ceil(40 * (1 + math.log2(max(k, 1))))) + 2048 * k


def _check_design(n: int, k: int, advice: str = "lower the group sizes") -> None:
    """Refuse a design of n trials in k groups past the budget, before
    anything of its size is built."""
    _within_budget(_design_bytes(n, k), f"a design of {n} trials in {k} group(s)", advice)


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

    group_terms[i] is indexed by group i's one-count 0..n_i. null is log W0,
    the null's mass at each total count 0..n, as a read-only array, so
    count_term(c0) = log C(n, c0) - log W0(c0) is an index read for every
    kind. For can and point, W0 is the binomial mixture of their projection,
    taken once at every count when the statistic is built; the projection
    is kept for its achieved_kl.

    Every kind is fixed by its design alone, so each is built once per
    process and design (see _design).
    """

    kind: str
    group_terms: tuple[np.ndarray, ...]
    null: np.ndarray
    projection: RiprSolution | None = None

    def __post_init__(self):
        if self.kind not in ("gro_mic", "gro_can", "gro_point"):
            raise ValueError(f"unknown statistic kind {self.kind!r}")

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(a.size - 1 for a in self.group_terms)

    @property
    def achieved_kl(self) -> float | None:
        return None if self.projection is None else self.projection.achieved_kl

    def count_term(self, counts) -> np.ndarray:
        c = np.atleast_1d(np.asarray(counts))
        if c.dtype.kind not in "iu":
            # Table's rule: integral floats pass; bools and fractions do not.
            c = np.array([_count(v, "total count") for v in c.ravel().tolist()],
                         dtype=object).reshape(c.shape)
        n = sum(self.sizes)
        # Checked here, since numpy would read a negative count from the end.
        outside = c[(c < 0) | (c > n)]
        if outside.size:
            raise ValueError(f"total count {outside[0]} out of range 0..{n}")
        c = c.astype(np.int64, copy=False)
        return log_binomial_row(n)[c] - self.null[c]

    def log_e(self, ones) -> float:
        """log S at one table, given its per-group one-counts."""
        ones = tuple(_count(o, f"group {i}: count") for i, o in enumerate(ones))
        log_e = 0.0
        for i, (a, o) in enumerate(zip(self.group_terms, ones, strict=True)):
            if not 0 <= o < a.size:
                raise ValueError(f"group {i}: count {o} out of range 0..{a.size - 1}")
            log_e += float(a[o])
        return log_e + float(self.count_term(sum(ones))[0])

    @staticmethod
    def mic(sizes, priors) -> "Statistic":
        """Exact microcanonical GRO e-variable: W0 is the optimal null prior."""
        return _design("gro_mic", sizes, priors, None)

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
        settings = (operator.index(grid_size), tol, operator.index(max_iter))
        return _design("gro_can", sizes, priors, settings)

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
        settings = (operator.index(grid_size), tol, operator.index(max_iter))
        return _design("gro_point", sizes, pvec.tolist(), settings)


def pseudo_null(sizes, priors, scale=DEFAULT_SCALE, density_grid=DEFAULT_DENSITY_GRID):
    """log W_ps at every total count 0..n, read-only: binomials mixed over
    the quadrature atoms of the pseudo null density of these sizes and
    priors, built at scale and resampled onto density_grid points (None: not
    resampled; pseudo_atoms). A build that underflows at any count is
    refused. beta(1,1) is keyed as uniform."""
    grid = None if density_grid is None else operator.index(density_grid)
    settings = (operator.index(scale), grid)
    return _design("pseudo", sizes, canonical_priors(priors), settings)


# The design memo: key -> (statistic or pseudo null, bytes), least recent first.
_designs: OrderedDict = OrderedDict()


def _design(kind: str, sizes, params, settings: tuple | None):
    """The statistic, or for pseudo the count law, of one design, built once.

    The key is the kind, the sizes in order, params (the priors, or the
    alternative's parameters for gro_point) and the kind's settings: None
    for gro_mic, (grid_size, tol, max_iter) for a projection, (scale,
    density_grid) for pseudo. The sizes and the integer settings are taken
    by operator.index, so that a float is refused on a hit as on a miss. A
    hit builds nothing; permuted sizes are another design. The memo holds
    at most _DESIGN_BYTES, counting an entry as its arrays (a statistic's
    group terms, null and projection's two arrays; a pseudo null itself),
    plus 2 KB: a miss drops the least recently used entries, and an entry
    larger than that is returned but not kept. A build that raises (an
    unconverged projection, say) is not kept either.
    """
    key = (kind, tuple(operator.index(n) for n in sizes), tuple(params), settings)
    if key in _designs:
        _designs.move_to_end(key)
        built = _designs[key][0]
    else:
        built = _build(*key)
        held = [built] if kind == "pseudo" else [*built.group_terms, built.null]
        if kind in ("gro_can", "gro_point"):
            held += [built.projection.grid, built.projection.log_weights]
        size = 2048 + sum(a.nbytes for a in held)
        if size <= _DESIGN_BYTES:
            _designs[key] = (built, size)
            total = sum(b for _, b in _designs.values())
            while total > _DESIGN_BYTES:
                total -= _designs.popitem(last=False)[1][1]
    return built


def _build(kind: str, sizes: tuple, params: tuple, settings: tuple | None):
    """One design's statistic, or pseudo null.

    The group laws are induced by the priors in params (Binomial(n_i,
    params[i]) for gro_point). W0 is their convolution (gro_mic) or the
    binomial mixture of its projection at settings = (grid_size, tol,
    max_iter); the pseudo null is the binomial mixture over the quadrature
    atoms built at settings = (scale, density_grid); an unconverged
    projection or an underflowed quadrature is refused. A mixture is taken
    once at every count, and the atoms and the convolution a projection was
    solved from are not kept. The statistic is frozen and the arrays
    read-only, so every caller can share them.
    induced_group_pmf, null_optimal_prior, ripr_solve, pseudo_atoms and
    log_binomial_mixture stay plain functions, looked up at each build.
    """
    n = sum(sizes)
    _check_design(n, len(sizes))
    if kind == "pseudo":
        null = log_binomial_mixture(*pseudo_atoms(params, sizes, *settings), n)
        if (null == NEG_INF).any():
            raise ValueError(
                f"quadrature underflow at total count {np.argmax(null == NEG_INF)}; "
                "raise density_grid (--density-grid)"
            )
        null.setflags(write=False)
        return null
    if kind == "gro_point":
        group_pmfs = [binomial_pmf(m, p) for m, p in zip(sizes, params)]
    else:
        group_pmfs = _group_pmfs(sizes, params)
    target = null_optimal_prior(group_pmfs)
    terms = _bayes_terms(group_pmfs)
    if settings is None:
        return Statistic(kind, terms, target.log_weights)
    solved = ripr_solve(target, n, *settings)
    if not solved.converged:
        raise ValueError(
            f"the reverse information projection did not converge in "
            f"{solved.iterations} iterations; refine solver settings: raise "
            "max_iter (--ripr-max-iter) or tol (--ripr-tol)"
        )
    null = log_binomial_mixture(solved.grid, solved.log_weights, n)
    null.setflags(write=False)
    return Statistic(kind, terms, null, solved)


def _likelihood_bands(p, counts, n: int, log_c) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ripr_solve's likelihood matrix, grid x counts in C order, each grid
    point's largest log cell, and each row's written extent.

    Cell [j, i] is exp(c log p_j + (n - c) log(1 - p_j) + log C(n, c)) at
    c = counts[i] (increasing; log_c holds log C(n, c)), added in that order
    with 0 log 0 = 0: the cellwise xlogy form, bit for bit. By Pinsker's
    bound a cell's log is at most -2n (c/n - p_j)^2, so only the band
    |c - n p_j| <= sqrt(_BAND_NATS n / 2) is computed; every other cell
    stays 0.0, as exp gives it. Grid points go in blocks whose rectangle of
    counts holds at most _BAND_CELLS cells (or one row). A maximum is exact
    wherever it exceeds 1 - _BAND_NATS, so the 350-nat mask is the whole
    matrix's whenever the largest cell exceeds 351 - _BAND_NATS; where it
    does not, every count is taken.

    Row j is 0.0 outside columns extent[j, 0]:extent[j, 1], its block's
    rectangle ((counts.size, 0) where nothing was written). The matrix is an
    anonymous private mapping, not huge pages: a page no block writes maps
    the kernel's zero page, which BLAS reads without making it resident.
    """
    buf = mmap.mmap(-1, 8 * p.size * counts.size, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    out = np.frombuffer(buf, dtype=float).reshape(p.size, counts.size)
    maxima = np.full(p.size, NEG_INF)
    extent = np.full((p.size, 2), (counts.size, 0))
    log_p, log_q = xlogy(1.0, p), xlogy(1.0, 1.0 - p)
    scratch = np.empty(min(max(_BAND_CELLS, counts.size), out.size))
    for half in (math.sqrt(_BAND_NATS * n / 2), math.inf):
        lo = np.searchsorted(counts, n * p - half, "left")
        hi = np.searchsorted(counts, n * p + half, "right")
        start = 0
        while start < p.size:
            # Bands move right with p, so a block's cells grow with its rows.
            size = (hi[start:] - lo[start]) * np.arange(1, p.size - start + 1)
            stop = start + max(1, int(np.searchsorted(size, _BAND_CELLS, "right")))
            a, b = int(lo[start]), int(hi[stop - 1])
            if a < b:
                c = counts[a:b]
                rows = out[start:stop, a:b]
                logs = scratch[: rows.size].reshape(rows.shape)
                # c log p in the scratch block, (n - c) log(1 - p) in the
                # matrix's own cells. 0 * -inf is NaN at the grid ends; those
                # cells are zeroed next.
                with np.errstate(invalid="ignore"):
                    np.multiply.outer(log_p[start:stop], c, out=logs)
                    np.multiply.outer(log_q[start:stop], n - c, out=rows)
                if c[0] == 0:
                    logs[:, 0] = 0.0
                if c[-1] == n:
                    rows[:, -1] = 0.0
                logs += rows
                logs += log_c[a:b]
                maxima[start:stop] = logs.max(axis=1)
                np.exp(logs, out=rows)
                extent[start:stop] = a, b
            start = stop
        if maxima.max() > 351.0 - _BAND_NATS:
            break
    return out, maxima, extent


def _compact_rows(a: np.ndarray, extent: np.ndarray, mask) -> tuple[np.ndarray, np.ndarray]:
    """a[mask] and extent[mask] for a C-contiguous 2-D a whose row i is 0.0
    outside columns extent[i, 0]:extent[i, 1], built in a's own buffer: the
    kept rows move down in order, and the result is a view of a's leading
    rows.

    Row i moves to an index at most i, so copying row by row overwrites only
    rows already moved or dropped. A moved row copies only the span of its
    own extent and its destination's: it is 0.0 outside its own, so that one
    slice also clears what the destination held. The view has a[mask]'s
    layout, so BLAS sums over it in the same order, and a holds no second
    copy of itself.
    """
    kept = np.flatnonzero(mask)
    dst = np.flatnonzero(kept != np.arange(kept.size))
    src = kept[dst]
    lo = np.minimum(extent[src, 0], extent[dst, 0])
    hi = np.maximum(extent[src, 1], extent[dst, 1])
    width = a.shape[1]
    flat = a.reshape(-1)
    # A row and its destination written nowhere give hi < lo: an empty slice.
    for to, at, length in zip((dst * width + lo).tolist(), (src * width + lo).tolist(),
                              (hi - lo).tolist()):
        flat[to:to + length] = flat[at:at + length]
    return a[: kept.size], extent[kept]


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
    # The matrix takes 8 bytes a cell of address space (resident where its
    # band writes), and the solve 106 to 110 bytes a grid point besides.
    _within_budget(8 * grid_size * (c0.size + 16), f"the projection's {grid_size} x "
                   f"{c0.size} likelihood matrix", "lower grid_size (--ripr-grid)")
    t = t[keep]
    t = t / t.sum()
    p = np.linspace(0.0, 1.0, grid_size)
    # Component likelihood matrix L[j, i] = Binomial(n, p_i).pmf(c0_j); kept
    # in linear space, which is safe because each row attains its maximum
    # near p = c0/n where the pmf is polynomially small, not exp(-n) small.
    # It is built transposed, grid x counts in C order, so that L is
    # column-major: BLAS sums L @ w in an order that depends on the layout,
    # and the iterates (and where the iteration stops) depend on those sums.
    cells, col_max, extent = _likelihood_bands(p, c0, n, log_binomial_row(n)[keep])
    # Components that are vanishingly unlikely against every kept row decay
    # to zero weight anyway; exclude them from the iteration.
    active = col_max > col_max.max() - 350.0
    cells, extent = _compact_rows(cells, extent, active)
    L = cells.T
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
                cells, extent = _compact_rows(cells, extent, live)
                L = cells.T
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

"""E-variables for testing the equal-rate null against group-specific alternatives.

Three statistics are provided for an observed 2xk table:

- the exact microcanonical growth-rate-optimal (GRO) e-variable, available in
  closed form from multiplicities and the optimal null prior;
- the canonical GRO e-variable, obtained by numerically projecting the Bayes
  marginal alternative onto the null model (reverse information projection),
  and its point-alternative variant;
- the pseudo statistic, which replaces the discrete optimal null prior with
  its high-resolution limit density. It is a close upper proxy but not an
  e-variable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .models import Table, canonical_loglik, log_multiplicity
from .numerics import (
    NEG_INF,
    GridDensity,
    Pmf,
    binomial_pmf,
    convolve_all,
    log_binomial,
    log_binomial_row,
    log_sum_exp,
    trapezoid_log_weights,
)
from .priors import PriorSpec, PseudoDensity, induced_group_pmf, null_optimal_prior

# Defaults for the numerical reverse information projection.
RIPR_GRID_SIZE = 2001
RIPR_TOL = 1e-10
RIPR_MAX_ITER = 50_000

# Mixture masses below this floor are clamped during the multiplicative
# updates to keep likelihood ratios finite.
_WEIGHT_FLOOR = 1e-300

POST_HOC_LEVEL = float(np.exp(-1.0))

_EVARIABLE_KINDS = {"gro_mic": True, "gro_can": True, "gro_point": True, "pseudo": False}


def e_or_none(log_e: float) -> float | None:
    """exp(log_e) for a JSON report; None where it overflows a float.

    log_e stays the authoritative value: JSON has no infinity.
    """
    with np.errstate(over="ignore"):
        e = float(np.exp(log_e))
    return e if np.isfinite(e) else None


@dataclass(frozen=True)
class EValueReport:
    """One evaluated statistic, split into log numerator and denominator."""

    statistic_kind: str  # "gro_mic" | "gro_can" | "gro_point" | "pseudo"
    log_numerator: float
    log_denominator: float
    c1: tuple[int, ...]
    c0: int
    achieved_kl: float | None = None

    def __post_init__(self):
        if self.statistic_kind not in _EVARIABLE_KINDS:
            raise ValueError(f"unknown statistic kind {self.statistic_kind!r}")

    @property
    def log_e(self) -> float:
        return self.log_numerator - self.log_denominator

    @property
    def e(self) -> float:
        return float(np.exp(self.log_e))

    @property
    def is_evariable(self) -> bool:
        return _EVARIABLE_KINDS[self.statistic_kind]

    def to_dict(self) -> dict:
        return {
            "statistic_kind": self.statistic_kind,
            "log_e": self.log_e,
            "e": e_or_none(self.log_e),
            "is_evariable": self.is_evariable,
            "c1": list(self.c1),
            "c0": self.c0,
            "achieved_kl": self.achieved_kl,
        }


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

    def log_marginal_count_pmf(self, n: int, counts=None) -> np.ndarray:
        """Log pmf of the total one-count under the mixture of Binomial(n, p).

        Evaluated at the given counts, or at every count 0..n by default.
        """
        c0 = np.arange(n + 1) if counts is None else np.atleast_1d(counts)
        ll = (
            xlogy(c0[:, None], self.grid[None, :])
            + xlogy((n - c0)[:, None], 1.0 - self.grid[None, :])
            + log_binomial_row(n)[c0][:, None]
            + self.log_weights[None, :]
        )
        m = ll.max(axis=1, keepdims=True)
        m[m == NEG_INF] = 0.0
        with np.errstate(divide="ignore"):
            return m[:, 0] + np.log(np.exp(ll - m).sum(axis=1))


def _check_compatible(table: Table, priors) -> list[PriorSpec]:
    priors = list(priors)
    if len(priors) != table.k:
        raise ValueError(f"expected {table.k} priors, got {len(priors)}")
    return priors


def log_marginal_alt(table: Table, priors) -> float:
    """Log Bayes marginal alternative probability of one configuration.

    Factorizes over groups: each group contributes its induced prior mass at
    the observed one-count minus the group multiplicity.
    """
    priors = _check_compatible(table, priors)
    total = 0.0
    for (n, ones), spec in zip(table.groups, priors):
        pmf = induced_group_pmf(spec, n)
        total += float(pmf.log_weights[ones]) - log_binomial(n, ones)
    return total


def log_e_gro_mic(table: Table, priors) -> EValueReport:
    """Exact microcanonical GRO e-value.

    Closed form: the null-to-alternative multiplicity ratio times the
    alternative-to-optimal-null prior mass ratio at the observed counts.
    """
    priors = _check_compatible(table, priors)
    group_pmfs = [induced_group_pmf(s, n) for s, n in zip(priors, table.sizes)]
    w0 = null_optimal_prior(group_pmfs)
    log_w1 = sum(float(p.log_weights[o]) for p, o in zip(group_pmfs, table.ones))
    log_w0 = float(w0.log_weights[table.n1])
    # The optimal null prior is the convolution of the group priors, so it
    # cannot vanish at a total count the group priors jointly realize.
    assert not (log_w0 == NEG_INF and log_w1 > NEG_INF)
    num = log_multiplicity(table, "null") + log_w1
    den = log_multiplicity(table, "alt") + log_w0
    return EValueReport("gro_mic", num, den, table.ones, table.n1)


def log_w_pseudo0(density: GridDensity | PseudoDensity, n: int, n1) -> np.ndarray | float:
    """Log mass the pseudo null prior assigns to total counts, by quadrature.

    Mixes Binomial(n, p0) over the continuous density with trapezoid
    weights, at the requested total one-counts (scalar or array).
    """
    if isinstance(density, PseudoDensity):
        density = density.density
    c0 = np.atleast_1d(np.asarray(n1, dtype=np.int64))
    if ((c0 < 0) | (c0 > n)).any():
        raise ValueError("total count out of range")
    p = density.grid
    base = density.log_density + trapezoid_log_weights(density)
    lrow = log_binomial_row(n)
    out = np.empty(c0.size)
    chunk = max(1, 4_000_000 // max(p.size, 1))
    for start in range(0, c0.size, chunk):
        cc = c0[start : start + chunk]
        ll = (
            xlogy(cc[:, None], p[None, :])
            + xlogy((n - cc)[:, None], 1.0 - p[None, :])
            + base[None, :]
        )
        m = ll.max(axis=1, keepdims=True)
        m[m == NEG_INF] = 0.0
        with np.errstate(divide="ignore"):
            out[start : start + chunk] = (
                m[:, 0] + np.log(np.exp(ll - m).sum(axis=1)) + lrow[cc]
            )
    if (out == NEG_INF).any():
        raise ValueError("quadrature underflow")
    return out if np.ndim(n1) else float(out[0])


def log_e_pseudo(table: Table, priors, density: PseudoDensity) -> EValueReport:
    """Pseudo statistic: the microcanonical form with the pseudo null prior.

    Not an e-value; its null expectation can exceed 1.
    """
    priors = _check_compatible(table, priors)
    group_pmfs = [induced_group_pmf(s, n) for s, n in zip(priors, table.sizes)]
    log_w1 = sum(float(p.log_weights[o]) for p, o in zip(group_pmfs, table.ones))
    log_w0 = log_w_pseudo0(density, table.n, table.n1)
    num = log_multiplicity(table, "null") + log_w1
    den = log_multiplicity(table, "alt") + log_w0
    return EValueReport("pseudo", num, den, table.ones, table.n1)


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
    if tol <= 0 or max_iter < 1:
        raise ValueError("tol must be positive and max_iter at least 1")
    t = target.weights()
    # Rows below 1e-60 of the peak change the objective by far less than any
    # usable tolerance; dropping them bounds the matrix size by the target's
    # effective support.
    keep = t > t.max() * 1e-60
    c0 = np.arange(n + 1)[keep]
    t = t[keep]
    t = t / t.sum()
    p = np.linspace(0.0, 1.0, grid_size)
    # Component likelihood matrix L[j, i] = Binomial(n, p_i).pmf(c0_j); kept
    # in linear space, which is safe because each row attains its maximum
    # near p = c0/n where the pmf is polynomially small, not exp(-n) small.
    logL = (
        xlogy(c0[:, None], p[None, :])
        + xlogy((n - c0)[:, None], 1.0 - p[None, :])
        + log_binomial_row(n)[keep][:, None]
    )
    # Components that are vanishingly unlikely against every kept row decay
    # to zero weight anyway; exclude them from the iteration.
    col_max = logL.max(axis=0)
    active = col_max > col_max.max() - 350.0
    logL = logL[:, active]
    L = np.exp(logL)
    log_t = np.log(t)

    def em_step(weights):
        q = L @ weights
        np.clip(q, _WEIGHT_FLOOR, None, out=q)
        nxt = weights * (L.T @ (t / q))
        return nxt / nxt.sum()

    def objective(weights):
        q = L @ weights
        np.clip(q, _WEIGHT_FLOOR, None, out=q)
        return float(np.dot(t, log_t - np.log(q)))

    n_active = int(active.sum())
    w = np.full(n_active, 1.0 / n_active)
    kl = objective(w)
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
                L = L[:, live]
                active_idx = active_idx[live]
                kl = objective(w)
        w1 = em_step(w)
        w2 = em_step(w1)
        r = w1 - w
        v = w2 - w1 - r
        norm_v = float(np.linalg.norm(v))
        if norm_v == 0.0:
            cand = w2
        else:
            step = -float(np.linalg.norm(r)) / norm_v
            cand = w - 2.0 * step * r + step * step * v
            np.clip(cand, 0.0, None, out=cand)
            total = cand.sum()
            cand = w2 if total <= 0.0 else em_step(cand / total)
        kl_cand = objective(cand)
        if not np.isfinite(kl_cand) or kl_cand > kl:
            cand = w2
            kl_cand = objective(w2)
        if kl - kl_cand <= tol * max(abs(kl_cand), 1.0):
            w, kl = cand, kl_cand
            converged = True
            break
        w, kl = cand, kl_cand
    full = np.full(grid_size, NEG_INF)
    with np.errstate(divide="ignore"):
        lw = np.log(w)
    full[active_idx] = lw - log_sum_exp(lw)
    return RiprSolution(p, full, kl, it, converged)


def _mixture_log_config_prob(solution: RiprSolution, n: int, n1: int) -> float:
    # Mixture probability of one configuration: mixture pmf of the total
    # count divided by the number of configurations realizing that count.
    return float(solution.log_marginal_count_pmf(n, n1)[0]) - log_binomial(n, n1)


def log_e_gro_can(
    table: Table,
    priors,
    solution: RiprSolution | None = None,
    grid_size: int = RIPR_GRID_SIZE,
    tol: float = RIPR_TOL,
    max_iter: int = RIPR_MAX_ITER,
) -> EValueReport:
    """Canonical GRO e-value for the observed table.

    The alternative is the Bayes marginal over the given priors; the null is
    the projected mixture. A precomputed projection may be passed to avoid
    re-solving for the same priors and sizes.
    """
    priors = _check_compatible(table, priors)
    if solution is None:
        group_pmfs = [induced_group_pmf(s, n) for s, n in zip(priors, table.sizes)]
        solution = ripr_solve(
            null_optimal_prior(group_pmfs),
            table.n,
            grid_size=grid_size,
            tol=tol,
            max_iter=max_iter,
        )
    if not solution.converged:
        raise ValueError("refine solver")
    num = log_marginal_alt(table, priors)
    den = _mixture_log_config_prob(solution, table.n, table.n1)
    return EValueReport(
        "gro_can", num, den, table.ones, table.n1, achieved_kl=solution.achieved_kl
    )


def point_alt_count_pmf(sizes, alt_params) -> Pmf:
    """Exact law of the total one-count under a point alternative."""
    pvec = np.atleast_1d(np.asarray(alt_params, dtype=float))
    return convolve_all([binomial_pmf(n, pi) for n, pi in zip(sizes, pvec)])


def log_e_gro_point(
    table: Table,
    alt_params,
    solution: RiprSolution | None = None,
    grid_size: int = RIPR_GRID_SIZE,
    tol: float = RIPR_TOL,
    max_iter: int = RIPR_MAX_ITER,
) -> EValueReport:
    """GRO e-value against a point alternative with the given mean parameters.

    The projection target is the exact law of the total count under the
    point alternative: the convolution of the per-group binomials.
    """
    pvec = np.atleast_1d(np.asarray(alt_params, dtype=float))
    if pvec.size != table.k:
        raise ValueError(f"expected {table.k} parameters, got {pvec.size}")
    if solution is None:
        solution = ripr_solve(
            point_alt_count_pmf(table.sizes, pvec),
            table.n,
            grid_size=grid_size,
            tol=tol,
            max_iter=max_iter,
        )
    if not solution.converged:
        raise ValueError("refine solver")
    num = canonical_loglik(table, pvec, "alt")
    den = _mixture_log_config_prob(solution, table.n, table.n1)
    return EValueReport(
        "gro_point", num, den, table.ones, table.n1, achieved_kl=solution.achieved_kl
    )


def e_power(log_e_fn, group_pmfs) -> float:
    """Expected log e-value under a product law on the per-group one-counts.

    Enumerates the full product support exactly; log_e_fn takes a tuple of
    per-group one-counts. The statistic must be positive wherever the
    reference law puts mass.
    """
    group_pmfs = list(group_pmfs)
    log_ws = [p.log_weights for p in group_pmfs]
    total = 0.0
    for idx in itertools.product(*[range(p.support_size) for p in group_pmfs]):
        lp = sum(float(lw[i]) for lw, i in zip(log_ws, idx))
        if lp == NEG_INF:
            continue
        ls = log_e_fn(idx)
        if ls == NEG_INF:
            raise ValueError("statistic vanishes on support")
        total += np.exp(lp) * ls
    return total


def combine_evalues(log_es) -> float:
    """Log of the product e-value from independent batches (optional continuation)."""
    log_es = list(log_es)
    if not log_es:
        raise ValueError("no e-values to combine")
    return float(sum(log_es))


def decide(log_e: float, alpha: float = 0.05) -> str:
    """Level-alpha e-value test: reject iff e >= 1/alpha."""
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    if np.isnan(log_e):
        raise ValueError("NaN log e-value")
    return "reject" if log_e >= -np.log(alpha) else "continue"

"""Evaluation machinery: approximation gaps, regret, convergence checks.

Every expectation here is an exact sum over sufficient-statistic supports.
Statistics on 2xk tables decompose as a sum of per-group terms plus a term
in the total count, so expectations under product alternatives reduce to
one-dimensional sums against per-group binomials and their convolution.

The pseudo null W_ps is a count law, not a statistic: on mic's group terms
its e-power is mic's plus the gap r under the Bayes marginal, and mic's plus
r'(p) under a point alternative p. e_power is only given e-variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import islice, product

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import betainc

from .evariables import (
    RIPR_GRID_SIZE,
    RIPR_MAX_ITER,
    RIPR_TOL,
    Statistic,
    _alt_params,
    _trials,
    e_power,
    pseudo_null,
    # Nothing here solves a projection; the name stays bound because
    # perfbench's tracer test checks that every module's ripr_solve reaches
    # one wrapper.
    ripr_solve,  # noqa: F401
)
from .numerics import _BLOCK_CELLS, NEG_INF, binomial_log_pmfs, binomial_pmf
from .priors import (
    DEFAULT_DENSITY_GRID,
    DEFAULT_SCALE,
    PriorSpec,
    induced_group_pmf,
    null_optimal_prior,
    pseudo_points,
)

# Worst-case search protocol: interior product grid.
WORST_CASE_BOUNDS = (0.02, 0.98)
WORST_CASE_STEP = 0.02
# Most grid points, P^k for P points an axis and k groups, a worst-case search
# values. With the pseudo density already built, on 2 shared cores and one
# BLAS thread, the default 49-point axis at k = 5 (2.8e8 points) took 1.6-1.9
# s at group size 10 and 3.1 s at 50, and 17320^2 points (k = 2) 0.6 and 1.4
# s. A single group counts as P^2, so that no axis is longer than the k = 2
# one; one group of 10 on that axis took 11 ms.
MAX_WORST_CASE_POINTS = 300_000_000
# Most binomial weights, P times the sum of n + 1 over the distinct group
# sizes, that a worst-case search builds: one (point x count) matrix a size,
# 8 bytes a cell, so at most about 400 MB. The first contraction's buffer,
# P x (N - n_k + 1) cells for N trials in all and n_k in the last group, is
# held to the same limit.
MAX_WORST_CASE_CELLS = 50_000_000


@dataclass(frozen=True)
class RegretCurve:
    """Regret versus sample size, with a fitted logarithmic growth a*log m + b."""

    points: tuple[tuple[int, float], ...]
    fitted_a: float
    fitted_b: float
    residual: float
    p_alt: tuple[float, ...]


def e_powers(
    specs,
    sizes,
    scale: int = DEFAULT_SCALE,
    density_grid: int | None = DEFAULT_DENSITY_GRID,
    grid_size: int = RIPR_GRID_SIZE,
    tol: float = RIPR_TOL,
    max_iter: int = RIPR_MAX_ITER,
) -> tuple[dict, float]:
    """Exact e-powers of the mic, can and pseudo statistics under the Bayes
    marginal of specs, which should satisfy mic <= can <= pseudo, and the
    achieved KL of the canonical statistic's projection; pseudo's is mic's
    plus r. scale and density_grid are the pseudo null density's settings.
    """
    # First, so that its checks run before anything else is built.
    r = gap_r(specs, sizes, scale, density_grid)
    group_pmfs = [induced_group_pmf(s, n) for s, n in zip(specs, sizes)]
    mic = e_power(Statistic.mic(sizes, specs), group_pmfs)
    can = Statistic.can(sizes, specs, grid_size, tol, max_iter)
    powers = {"pseudo": mic + r, "mic": mic, "can": e_power(can, group_pmfs)}
    return powers, can.achieved_kl


def _count_term_gap(specs, sizes, scale, density_grid) -> tuple[np.ndarray, np.ndarray]:
    """log W0 of the exact null prior at every total count, and h_pseudo - h_mic.

    Both count terms are log C(n, c) - log W0(c), so their difference is
    that of the null masses, taken directly.
    """
    sizes = list(sizes)
    # First, so that the density's checks run before anything else.
    log_w_ps = pseudo_null(sizes, specs, scale, density_grid)
    log_w0 = Statistic.mic(sizes, specs).null
    gap = log_w0 - log_w_ps
    gap[log_w0 == NEG_INF] = 0.0
    return log_w0, gap


def gap_r(specs, sizes, scale=DEFAULT_SCALE, density_grid=DEFAULT_DENSITY_GRID) -> float:
    """KL divergence r from the exact null prior to the pseudo null prior, on
    the total-count space. Equals the pseudo-minus-exact e-power difference.
    scale and density_grid are the pseudo null density's settings."""
    log_w0, gap = _count_term_gap(specs, sizes, scale, density_grid)
    return float(np.dot(np.exp(log_w0), gap))


def gap_r_prime(
    p_alt, specs, sizes, scale=DEFAULT_SCALE, density_grid=DEFAULT_DENSITY_GRID
) -> float:
    """Expected exact-vs-pseudo log-ratio under a point alternative.

    Same integrand as gap_r but weighted by the exact total-count law of the
    point alternative instead of the Bayes marginal.
    """
    sizes = list(sizes)
    pvec = _alt_params(sizes, p_alt)
    _, gap = _count_term_gap(specs, sizes, scale, density_grid)
    law = null_optimal_prior([binomial_pmf(n, p) for n, p in zip(sizes, pvec)])
    return float(np.dot(law.weights(), gap))


def worst_case_r_prime(
    specs,
    sizes,
    scale: int = DEFAULT_SCALE,
    density_grid: int | None = DEFAULT_DENSITY_GRID,
    grid_step: float = WORST_CASE_STEP,
    bounds: tuple[float, float] = WORST_CASE_BOUNDS,
) -> tuple[float, tuple[float, ...]]:
    """Maximum of gap_r_prime over an interior product grid of alternatives.

    The value at a grid point is the dot product of gap with the convolution
    of its groups' binomial pmfs, convolved in group order. The result is the
    largest of these float values and the first point, in lexicographic
    order, that attains it. Points tied in exact arithmetic, such as
    permutations of one alternative among equal groups, are convolved in
    different orders and can differ in the last bits; then the largest float
    wins, which need not be the lexicographically smallest point.

    Every point's value is first computed at once by contraction; only the
    points within round-off of the largest are evaluated again as above.
    Equal groups share one binomial weight matrix over the axis. A grid past
    MAX_WORST_CASE_POINTS points, or past MAX_WORST_CASE_CELLS weights or
    cells of the first contraction, is refused before anything is built.
    """
    lo, hi = bounds
    if not 0 < lo < hi < 1:
        raise ValueError("bounds must satisfy 0 < lo < hi < 1")
    if not 0 < grid_step < np.inf:
        raise ValueError(f"grid_step must be positive and finite, got {grid_step}")
    sizes = list(sizes)
    # The length of the arange below, at least the axis size; compared as a
    # float root, since the power can overflow.
    span = (hi + grid_step / 2 - lo) / grid_step
    groups = max(len(sizes), 2)
    if span > MAX_WORST_CASE_POINTS ** (1 / groups):
        raise ValueError(
            f"worst-case grid of about {span:.4g} points a group and {len(sizes)} "
            f"group(s) exceeds the limit of {MAX_WORST_CASE_POINTS} points "
            "(P^k, or P^2 for one group); raise grid_step or narrow the bounds"
        )
    axis = np.arange(lo, hi + grid_step / 2, grid_step)
    # arange can run up to half a step past hi; a point only round-off past
    # hi is hi itself and stays.
    axis = axis[axis <= hi + 1e-9 * grid_step]
    distinct = dict.fromkeys(sizes)
    cells = axis.size * sum(n + 1 for n in distinct)
    buffer = axis.size * (sum(sizes[:-1]) + 1)
    if max(cells, buffer) > MAX_WORST_CASE_CELLS:
        raise ValueError(
            f"worst-case grid of {axis.size} points a group needs {cells} binomial "
            f"weights over its distinct group sizes and {buffer} cells to contract "
            f"its last group, past the limit of {MAX_WORST_CASE_CELLS} each; raise "
            "grid_step (--grid-step) or narrow the bounds (--lo, --hi)"
        )
    _, gap = _count_term_gap(specs, sizes, scale, density_grid)
    # One (point x count) weight matrix per distinct size, shared by equal groups.
    for n in distinct:
        w = binomial_log_pmfs(n, axis)
        distinct[n] = np.exp(w, out=w)
    per_group = [distinct[n] for n in sizes]
    shape = (axis.size,) * len(sizes)
    # A value sums products of k binomial weights, each group's summing to 1,
    # with gap. A term meets at most `terms` roundings in the contraction
    # (sums of n_i + 1 terms per group) and as many in the recursion (the
    # same per group, then a dot product of N + 1 terms), so either form is
    # within terms * eps / 2 * max|gap| of the exact sum and the two within
    # e = terms * eps * max|gap| of each other; the largest value under the
    # recursion is then within 2e of the contracted maximum. A safety factor
    # of 4 covers second-order terms and weight sums that are 1 only up to
    # round-off.
    terms = sum(n + 1 for n in sizes) + sum(sizes) + 1 + 2 * len(sizes)
    slack = 4 * 2 * terms * np.finfo(float).eps * float(np.abs(gap).max())
    best = -np.inf
    best_point: tuple[float, ...] = ()
    top = -np.inf
    for start, values in _leaf_values(per_group, gap):
        top = max(top, float(values.max()))
        # NaN compares false: a NaN value is kept, and every leaf is when
        # max|gap| is infinite.
        for leaf in np.flatnonzero(~(values < top - slack)):
            index = np.unravel_index(start + leaf, shape)
            conv = np.array([1.0])
            for w, i in zip(per_group, index):
                conv = np.convolve(conv, w[i])
            val = float(np.dot(conv, gap))
            if val > best:
                best = val
                best_point = tuple(float(axis[i]) for i in index)
    return best, best_point


def _leaf_values(per_group, gap):
    """Yield (first flat index, values) for consecutive blocks of grid points
    in lexicographic (C) order, computed by contraction.

    per_group[i] is group i's (grid point x count) binomial matrix W_i; the
    value at (p_1..p_k) is sum over counts c of prod_i W_i[p_i, c_i] gap[sum c].
    The trailing groups are contracted into gap, last group first, while the
    arrays stay within _BLOCK_CELLS; the last group always is, in blocks of
    counts, so that large groups still leave only the leading groups'
    prefixes to convolve. A block of those prefixes is then one matrix
    product of their convolved pmfs with the result, in blocks of its rows
    where one prefix's values alone exceed _BLOCK_CELLS.
    """
    points = per_group[0].shape[0]
    tail = gap[None, :]  # rows: trailing points in C order; columns: counts
    lead = len(per_group)
    while lead:
        w = per_group[lead - 1]
        width = w.shape[1]
        counts = tail.shape[1] - width + 1
        # A block of `step` counts copies step x width window cells a tail
        # row and makes step x points result cells a tail row.
        step = _BLOCK_CELLS // (tail.shape[0] * max(points, width))
        if step < counts and lead < len(per_group):
            break
        windows = sliding_window_view(tail, width, axis=1)
        out = np.empty((points, tail.shape[0], counts))
        step = max(step, 1)
        for c in range(0, counts, step):
            out[:, :, c : c + step] = np.tensordot(
                w, windows[:, c : c + step], axes=([1], [2])
            )
        tail = out.reshape(points * tail.shape[0], counts)
        lead -= 1
    cols = min(tail.shape[0], _BLOCK_CELLS)
    # Fewer columns than tail rows only when one prefix is a block of its own,
    # so each block's points stay consecutive.
    rows = max(1, _BLOCK_CELLS // (cols + tail.shape[1]))
    prefixes = (reduce(np.convolve, ws, np.array([1.0]))
                for ws in product(*per_group[:lead]))
    start = 0
    while block := list(islice(prefixes, rows)):
        block = np.array(block)
        for c in range(0, tail.shape[0], cols):
            values = (block @ tail[c : c + cols].T).ravel()
            yield start, values
            start += values.size


def regret(
    p_alt,
    specs,
    sizes,
    candidate: str,
    grid_size: int = RIPR_GRID_SIZE,
    tol: float = RIPR_TOL,
    max_iter: int = RIPR_MAX_ITER,
) -> float:
    """Expected log-growth loss of a candidate statistic against the point GRO.

    candidate is one of "gro_mic", "gro_can", "pseudo". The pseudo
    candidate's e-power is mic's plus r'(p), its density built at the
    default scale and grid. Both e-powers are exact under the point
    alternative.
    """
    specs = list(specs)
    sizes = list(sizes)
    pvec = _alt_params(sizes, p_alt)
    if candidate not in ("gro_mic", "gro_can", "pseudo"):
        raise ValueError(f"unknown candidate kind {candidate!r}")
    # r' first, so that the density's checks run before the projection.
    r_prime = gap_r_prime(pvec, specs, sizes) if candidate == "pseudo" else 0.0
    if candidate == "gro_can":
        cand = Statistic.can(sizes, specs, grid_size, tol, max_iter)
    else:
        cand = Statistic.mic(sizes, specs)
    point = Statistic.point(sizes, pvec, grid_size, tol, max_iter)
    binomials = [binomial_pmf(m, p) for m, p in zip(sizes, pvec)]
    return e_power(point, binomials) - e_power(cand, binomials) - r_prime


def fit_log_slope(points) -> tuple[float, float, float]:
    """Least squares of y against log m; returns (slope, intercept, rms residual)."""
    points = list(points)
    ms = np.array([float(m) for m, _ in points])
    ys = np.array([float(y) for _, y in points])
    if np.unique(ms).size < 3:
        raise ValueError("need at least 3 distinct m values")
    x = np.log(ms)
    design = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    resid = ys - design @ coef
    return float(coef[0]), float(coef[1]), float(np.sqrt(np.mean(resid**2)))


def regret_curve(
    p_alt,
    spec: PriorSpec,
    ms,
    candidate: str = "gro_mic",
    grid_size: int = RIPR_GRID_SIZE,
    tol: float = RIPR_TOL,
    max_iter: int = RIPR_MAX_ITER,
) -> RegretCurve:
    """Regret at a fixed alternative across balanced designs of size m per group.

    The m values run in this process, so every projection they solve stays
    in the design memo: curves that share a prior or an alternative solve
    its `can` or `point` projection once.
    """
    pvec = tuple(float(p) for p in np.atleast_1d(np.asarray(p_alt, dtype=float)))
    ms = sorted(int(m) for m in ms)
    # fit_log_slope refuses fewer; check before any cell solves a projection.
    if len(set(ms)) < 3:
        raise ValueError("need at least 3 distinct m values")
    k = len(pvec)
    # The largest cell is refused here, before any cell solves a projection;
    # regret builds each cell's pseudo density at the default scale.
    _trials([ms[-1]] * k)
    if candidate == "pseudo":
        pseudo_points([ms[-1]] * k, DEFAULT_SCALE, "lower the largest m (--m-list)")
    points = tuple(
        (m, regret(pvec, [spec] * k, [m] * k, candidate,
                   grid_size=grid_size, tol=tol, max_iter=max_iter))
        for m in ms
    )
    a, b, resid = fit_log_slope(points)
    return RegretCurve(points, a, b, resid, pvec)


def theorem1_diagnostic(spec: PriorSpec, m: int, bins: int) -> float:
    """Total variation, over equal cells of [0, 1], between the normalized
    one-count law under the marginal and the prior it should converge to.

    NML is compared against Beta(1/2, 1/2) cell probabilities; a residual
    boundary discrepancy is expected and reported, not hidden.
    """
    if m < 1:
        raise ValueError("group size must be at least 1")
    if bins < 1:
        raise ValueError("bins must be positive")
    if bins > m + 1:
        raise ValueError("bins must not exceed m+1")
    _trials([m])
    pmf = induced_group_pmf(spec, m)
    j = np.arange(m + 1)
    cell = np.minimum((j * bins) // m, bins - 1)
    observed = np.bincount(cell, weights=pmf.weights(), minlength=bins)
    edges = np.linspace(0.0, 1.0, bins + 1)
    if spec.kind == "uniform":
        a, b = 1.0, 1.0
    elif spec.kind == "beta":
        a, b = spec.alpha, spec.beta
    else:  # nml
        a, b = 0.5, 0.5
    cdf = betainc(a, b, edges)
    expected = np.diff(cdf)
    return 0.5 * float(np.abs(observed - expected).sum())


def cells_n_fixed(k_values, n) -> tuple[tuple[int, int], ...]:
    cells = []
    for k in k_values:
        if n % k:
            raise ValueError(f"n={n} not divisible by k={k}")
        cells.append((int(k), n // int(k)))
    return tuple(cells)


def cells_power_law(k_values) -> tuple[tuple[int, int], ...]:
    """The (k, m) cells of the regime m = 5k^2."""
    return tuple((int(k), 5 * int(k) ** 2) for k in k_values)

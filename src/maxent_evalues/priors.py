"""Group-level induced priors, the optimal null prior, and pseudo densities.

The optimal null prior is the convolution of the per-group induced pmfs; the
pseudo density is its high-resolution limit on the null mean-value space
p0 = n1/n.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy import fft
from scipy.special import gammaln, xlogy

from .numerics import (
    FFT_CLAMP,
    GridDensity,
    Pmf,
    convolve_all,
    log_beta_fn,
    log_binomial_row,
)

# Resolution multiplier of the pseudo density's high-resolution route.
DEFAULT_SCALE = 10_000

# Largest high-resolution support pseudo_null_density builds (scale * n + 1
# points). A build holds about 20 bytes a point at its peak (tracemalloc:
# 168-197 MiB at 1.024e7 points, k = 8 and 2, n = 1024; peak RSS of the
# process 421 MB there and 730 MB at 2.048e7, k = 8), so this keeps it below
# about 1 GB and still admits n = 1024 at the default scale.
MAX_PSEUDO_POINTS = 25_000_000

# Default resample target when a high-resolution density grid gets large.
DEFAULT_DENSITY_GRID = 20_001


@dataclass(frozen=True)
class PriorSpec:
    """Declarative prior on one group's mean-value parameter."""

    kind: str  # "uniform" | "beta" | "nml" | "explicit"
    alpha: float | None = None
    beta: float | None = None
    pmf: Pmf | None = None

    def __post_init__(self):
        if self.kind == "beta":
            a, b = self.alpha, self.beta
            # Written so that NaN, which fails every comparison, is refused.
            if a is None or b is None or not (0 < a < math.inf and 0 < b < math.inf):
                raise ValueError(
                    f"beta prior requires finite, strictly positive parameters, got ({a}, {b})"
                )
        elif self.kind == "explicit":
            if self.pmf is None:
                raise ValueError("explicit prior requires a pmf")
        elif self.kind not in ("uniform", "nml"):
            raise ValueError(f"unknown prior kind {self.kind!r}")

    @staticmethod
    def uniform() -> "PriorSpec":
        return PriorSpec("uniform")

    @staticmethod
    def from_beta(alpha: float, beta: float) -> "PriorSpec":
        return PriorSpec("beta", alpha=alpha, beta=beta)

    @staticmethod
    def nml() -> "PriorSpec":
        return PriorSpec("nml")

    @staticmethod
    def explicit(pmf: Pmf) -> "PriorSpec":
        return PriorSpec("explicit", pmf=pmf)

    def describe(self) -> str:
        if self.kind == "beta":
            return f"beta({self.alpha:g},{self.beta:g})"
        if self.kind == "explicit":
            return f"explicit[{self.pmf.support_size}]"
        return self.kind


@dataclass(frozen=True)
class PseudoDensity:
    """Continuous null prior on p0."""

    density: GridDensity


def _induced_log_weights(spec: PriorSpec, n: int) -> np.ndarray:
    """Log weights of a uniform, beta or NML group's induced pmf on 0..n.

    Beta weights are normalized in exact arithmetic, uniform and NML ones up
    to a constant.
    """
    if spec.kind == "uniform":
        return np.zeros(n + 1)
    j = np.arange(n + 1)
    if spec.kind == "beta":
        a, b = spec.alpha, spec.beta
        # gammaln(j + x) once per distinct offset x, since gammaln(n - j + x)
        # is its reverse; log C(n, j) is built as log_binomial_row builds it.
        lg = {x: gammaln(j + x) for x in {1, a, b}}
        lw = gammaln(n + 1) - lg[1] - lg[1][::-1] + lg[a] + lg[b][::-1]
        return lw - gammaln(n + a + b) - log_beta_fn(a, b)
    if spec.kind == "nml":
        return log_binomial_row(n) + xlogy(j, j / n) + xlogy(n - j, 1.0 - j / n)
    raise ValueError(f"unknown prior kind {spec.kind!r}")


def induced_group_pmf(spec: PriorSpec, n: int) -> Pmf:
    """Distribution induced on one group's one-count by the alternative marginal."""
    if n < 1:
        raise ValueError("group size must be at least 1")
    if spec.kind == "explicit":
        if spec.pmf.support_size != n + 1:
            raise ValueError(f"explicit pmf support {spec.pmf.support_size} != n+1 = {n + 1}")
        return spec.pmf
    return Pmf.from_log_weights(_induced_log_weights(spec, n))


def null_optimal_prior(group_pmfs) -> Pmf:
    """Optimal null prior: convolution of the per-group induced pmfs."""
    return convolve_all(group_pmfs)


def discrete_gaussian_approx(group_pmfs) -> Pmf:
    """Discrete Gaussian matching the summed means and variances of the groups."""
    group_pmfs = list(group_pmfs)
    if len(group_pmfs) < 2:
        raise ValueError("need at least 2 groups")
    mu = sum(p.mean() for p in group_pmfs)
    var = sum(p.variance() for p in group_pmfs)
    if var <= 0:
        raise ValueError("degenerate priors")
    n = sum(p.support_size - 1 for p in group_pmfs)
    j = np.arange(n + 1)
    return Pmf.from_log_weights(-((j - mu) ** 2) / (2 * var))


def _one_pass_convolution(specs, sizes, scale: int, total: int) -> np.ndarray:
    """Convolution of the groups' induced pmfs at size scale*n_i, in one FFT pass.

    Each distinct (prior, size) pair is built and transformed once, at the
    final length, and enters the product raised to its multiplicity. The
    result is unnormalized, with round-off below FFT_CLAMP of its peak
    clamped to zero.
    """
    length = fft.next_fast_len(total + 1, real=True)
    spectrum = None
    for (spec, n), count in Counter(zip(specs, sizes)).items():
        # Unnormalized: pseudo_null_density normalizes the density once.
        w = _induced_log_weights(spec, scale * n)
        w -= w.max()
        f = fft.rfft(np.exp(w, out=w), length)
        del w
        if count > 1:
            np.power(f, count, out=f)
        # In place, and each array freed as soon as it is spent: at scale
        # 1e4 these are 1e7-point arrays, and copies raise the peak memory.
        if spectrum is None:
            spectrum = f
        else:
            spectrum *= f
        del f
    out = fft.irfft(spectrum, length)[: total + 1]
    del spectrum
    out[out < FFT_CLAMP * out.max()] = 0.0
    return out


def pseudo_null_density(
    specs,
    sizes,
    scale: int = DEFAULT_SCALE,
    grid_size: int | None = None,
) -> PseudoDensity:
    """High-resolution-limit density of the optimal null prior on p0 = n1/n.

    Each group's induced pmf is computed at size scale*n_i, the pmfs are
    convolved in one FFT pass, and the weights are placed on the grid
    i/(scale*n) of [0, 1]. Supports above MAX_PSEUDO_POINTS points are
    refused before anything is built. Beta priors with a parameter below 1
    diverge at the boundary; their endpoint grid cells are dropped. If
    grid_size is given and smaller, the weights are linearly resampled onto
    that many points. The result is normalized as a density once, at the end.
    """
    specs = list(specs)
    sizes = list(sizes)
    if len(specs) != len(sizes):
        raise ValueError("specs and sizes length mismatch")
    if not sizes:
        raise ValueError("no groups")
    if min(sizes) < 1:
        raise ValueError("group size must be at least 1")
    if scale < 10:
        raise ValueError("scale must be at least 10")
    if any(s.kind == "explicit" for s in specs):
        raise ValueError("no high-resolution extension for explicit priors")
    total = scale * sum(int(n) for n in sizes)
    if total + 1 > MAX_PSEUDO_POINTS:
        raise ValueError(
            f"pseudo density needs {total + 1} points at scale {scale} "
            f"(limit {MAX_PSEUDO_POINTS}); lower scale or the group sizes"
        )
    weights = _one_pass_convolution(specs, sizes, scale, total)
    # The points i/total kept, lo <= i <= hi: all but the end cells of beta
    # priors with a parameter below 1.
    lo = int(any(s.kind == "beta" and (s.alpha < 1 or s.beta < 1) for s in specs))
    hi = total - lo
    if grid_size is not None and hi - lo + 1 > grid_size:
        if grid_size < 2:
            raise ValueError("grid_size must be at least 2")
        grid = np.linspace(lo / total, hi / total, grid_size)
        # np.interp reads only the two points that bracket each resampled
        # point, so only those are built, with one more on each side to cover
        # the rounding of grid * total; the result is the same bit for bit.
        # Deduplicated after a sort: np.unique took 10-40 ms on these 8e4
        # indices, more than the whole grid costs at small totals.
        near = np.floor(grid * total).astype(np.int64)[:, None] + np.arange(-1, 3)
        near = np.sort(np.clip(near, lo, hi), axis=None)
        near = near[np.diff(near, prepend=-1) > 0]
        weights = np.interp(grid, near / total, weights[near])
    else:
        grid = np.arange(lo, hi + 1) / total
        weights = weights[lo : hi + 1]
    return PseudoDensity(GridDensity.from_density(grid, weights))


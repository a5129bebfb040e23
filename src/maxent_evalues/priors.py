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
# points). A resampled build peaks at about 16 bytes a point in the forward
# transforms (a padded buffer and its spectrum), and at up to 20 where a
# beta or NML group of half the points builds its log weights, whichever
# inverse runs (tracemalloc at 1.024e7 points, n = 1024: 159 MiB at k = 8
# and 2, 196 MiB with two beta(2,2) groups; peak RSS of the process 305 and
# 334 MB), so n = 1024 fits at the default scale and the limit stays near
# 500 MB.
MAX_PSEUDO_POINTS = 25_000_000

# A build that keeps every point (no resample) runs the whole inverse and
# builds its density over all of them: about 56 bytes a point whatever the
# prior (tracemalloc: 548 MiB at 1.024e7 points, 274 MiB at 5.12e6, k = 2).
# It is refused past this many points, which keeps it near the same 500 MB.
_MAX_UNRESAMPLED_POINTS = MAX_PSEUDO_POINTS * 20 // 56

# Most residues, mod the period of the resampled indices, at which
# pseudo_null_density computes the convolution by the folded inverse
# (_folded_irfft); each costs one pass over the spectrum. The default grid
# needs 1 to 3. With more, the whole inverse transform runs.
_MAX_RESIDUES = 8

# Default resample target when a high-resolution density grid gets large.
DEFAULT_DENSITY_GRID = 20_001


@dataclass(frozen=True)
class PriorSpec:
    """Declarative prior on one group's mean-value parameter."""

    kind: str  # "uniform" | "beta" | "nml"
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.kind == "beta":
            a, b = self.alpha, self.beta
            # Written so that NaN, which fails every comparison, is refused.
            if a is None or b is None or not (0 < a < math.inf and 0 < b < math.inf):
                raise ValueError(
                    f"beta prior requires finite, strictly positive parameters, got ({a}, {b})"
                )
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

    def describe(self) -> str:
        if self.kind == "beta":
            return f"beta({self.alpha:g},{self.beta:g})"
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
    return Pmf.from_log_weights(_induced_log_weights(spec, n))


def null_optimal_prior(group_pmfs) -> Pmf:
    """Optimal null prior: convolution of the per-group induced pmfs."""
    return convolve_all(group_pmfs)


def _one_pass_spectrum(specs, sizes, scale: int, length: int) -> np.ndarray:
    """rfft, at length, of the convolution of the groups' induced pmfs at size
    scale*n_i, unnormalized.

    Each distinct (prior, size) pair is built and transformed once, at the
    final length, and enters the product raised to its multiplicity. A
    beta(1,1) group is built as the uniform prior it is: exact constant
    weights, where the beta form carries gammaln's round-off and its cost.
    """
    flat = PriorSpec.from_beta(1, 1)
    specs = [PriorSpec.uniform() if s == flat else s for s in specs]
    spectrum = None
    for (spec, n), count in Counter(zip(specs, sizes)).items():
        # Unnormalized: pseudo_null_density normalizes the density once. The
        # weights go straight into a zero-padded buffer of the final length,
        # so rfft makes no padded copy of its own. The buffer is allocated
        # after the log weights, whose build holds several temporaries.
        if spec.kind == "uniform":
            buf = np.zeros(length)
            buf[: scale * n + 1] = 1.0
        else:
            w = _induced_log_weights(spec, scale * n)
            w -= w.max()
            buf = np.zeros(length)
            np.exp(w, out=buf[: w.size])
            del w
        f = fft.rfft(buf)
        del buf
        if count > 1:
            np.power(f, count, out=f)
        # In place, and each array freed as soon as it is spent: at scale
        # 1e4 these are 1e7-point arrays, and copies raise the peak memory.
        if spectrum is None:
            spectrum = f
        else:
            spectrum *= f
        del f
    return spectrum


def _folded_irfft(spectrum, length: int, period: int, residues) -> np.ndarray:
    """irfft(spectrum, length) at the indices period*q + r, q < length/period,
    one row per residue r; period must divide length.

    With k = k1 + Q*k2 (Q = length/period), the inverse at period*q + r is
    the length-Q inverse DFT in k1 of e^{2 pi i r k1/length} times the sum
    over k2 of the spectrum at k weighted by e^{2 pi i r k2/period}: one
    (residues x period/2) by (period/2 x Q) matrix product over the one-sided
    spectrum, whose terms count twice except at k = 0 and k = length/2.
    """
    q = length // period
    rows = period // 2
    r = np.asarray(residues)[:, None]
    # r*k2 reduced mod period first: an argument of many turns would carry
    # the rounding of its quotient, up to 1e-13 at period 512, into the sum.
    phase = np.exp(2j * np.pi * (r * np.arange(rows + 1) % period) / period)
    folded = 2 * (phase[:, :rows] @ spectrum[: q * rows].reshape(rows, q))
    # The rest of the one-sided spectrum sits at k2 = rows: the Nyquist term
    # alone for an even period, the first half of k1's range for an odd one.
    tail = spectrum[q * rows :]
    folded[:, : tail.size] += 2 * phase[:, rows:] * tail
    # The Nyquist term (even length) and k = 0 count once.
    if length % 2 == 0:
        folded[:, tail.size - 1] -= phase[:, rows] * tail[-1]
    folded[:, 0] -= spectrum[0]
    folded *= np.exp(2j * np.pi * r * np.arange(q) / length)
    return fft.ifft(folded, axis=1).real / period


def pseudo_null_density(
    specs,
    sizes,
    scale: int = DEFAULT_SCALE,
    grid_size: int | None = None,
) -> PseudoDensity:
    """High-resolution-limit density of the optimal null prior on p0 = n1/n.

    Each group's induced pmf is computed at size scale*n_i, the pmfs are
    convolved in one FFT pass, and the weights are placed on the grid
    i/(scale*n) of [0, 1]. Supports above MAX_PSEUDO_POINTS points, or above
    _MAX_UNRESAMPLED_POINTS without a resample, are refused before anything
    is built. Beta priors with a parameter below 1 diverge at the boundary;
    their endpoint grid cells are dropped. If
    grid_size is given and smaller, the weights are linearly resampled onto
    that many points, and the inverse transform is evaluated only at the
    points the resample reads where their period allows (_folded_irfft). The
    result is normalized as a density once, at the end.
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
    total = scale * sum(int(n) for n in sizes)
    if total + 1 > MAX_PSEUDO_POINTS:
        raise ValueError(
            f"pseudo density needs {total + 1} points at scale {scale} "
            f"(limit {MAX_PSEUDO_POINTS}); lower scale or the group sizes"
        )
    # The points i/total kept, lo <= i <= hi: all but the end cells of beta
    # priors with a parameter below 1.
    lo = int(any(s.kind == "beta" and (s.alpha < 1 or s.beta < 1) for s in specs))
    hi = total - lo
    resample = grid_size is not None and hi - lo + 1 > grid_size
    if not resample and total + 1 > _MAX_UNRESAMPLED_POINTS:
        raise ValueError(
            f"pseudo density without a resample needs {total + 1} points at scale "
            f"{scale} (limit {_MAX_UNRESAMPLED_POINTS}); lower scale or the group "
            "sizes, or resample onto fewer grid points"
        )
    # The convolution is computed at the indices period*q + r for r in
    # residues; period 1 is the whole inverse transform.
    length = fft.next_fast_len(total + 1, real=True)
    period, residues = 1, np.zeros(1, dtype=np.int64)
    if resample:
        if grid_size < 2:
            raise ValueError("grid_size must be at least 2")
        grid = np.linspace(lo / total, hi / total, grid_size)
        # Resampled point i sits at index lo + i*(hi - lo)/steps = a + f/steps
        # and is read from a and b = a + 1 by linear weights; from a alone
        # when f = 0.
        steps = grid_size - 1
        a, f = np.divmod(np.arange(grid_size, dtype=np.int64) * (hi - lo), steps)
        a += lo
        b = a + (f > 0)
        # Every `cycle` points the indices move on by `stride` with the same
        # fractions, so those read fall on at most 2*cycle residues mod stride.
        g = math.gcd(hi - lo, steps)
        stride, cycle = (hi - lo) // g, steps // g
        if cycle <= _MAX_RESIDUES:
            found = np.unique(np.concatenate([a[:cycle], b[:cycle]]) % stride)
            per_residue = -(-(total + 1) // stride)
            fold_length = stride * fft.next_fast_len(per_residue, real=True)
            # The length must stay fast for the forward transforms, and the
            # period at most its square root, so that the fold's phase matrix
            # (period/2 columns a residue) stays small beside the spectrum.
            if (
                found.size <= _MAX_RESIDUES
                and stride * stride <= fold_length
                and fft.next_fast_len(fold_length, real=True) == fold_length
            ):
                period, residues, length = stride, found, fold_length
    spectrum = _one_pass_spectrum(specs, sizes, scale, length)
    if period == 1:
        conv = fft.irfft(spectrum, length)[None, : total + 1]
    else:
        conv = _folded_irfft(spectrum, length, period, residues)
    del spectrum
    conv[conv < FFT_CLAMP * conv.max()] = 0.0
    if resample:
        row_a = np.searchsorted(residues, a % period)
        row_b = np.searchsorted(residues, b % period)
        at_a = conv[row_a, a // period]
        weights = at_a + (conv[row_b, b // period] - at_a) * (f / steps)
    else:
        grid = np.arange(lo, hi + 1) / total
        weights = conv[0, lo : hi + 1]
    return PseudoDensity(GridDensity.from_density(grid, weights))

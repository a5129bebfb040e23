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
)

# Resolution multiplier of the pseudo density's high-resolution route.
DEFAULT_SCALE = 10_000

# Largest high-resolution support pseudo_null_density builds (scale * n + 1
# points). A resampled build peaks at about 8 bytes a point when every group
# is uniform or beta(1,1): the spectrum, written in closed form. One other
# distinct (prior, size) pair adds its rfft's zero-padded buffer, 16 bytes a
# point; two or more add the next pair's spectrum as well, 24. Where the
# whole inverse runs, an all-uniform build also takes 16. (tracemalloc at
# 1.024e7 points: 81 MiB for uniform groups at k = 2 and 8, equal sizes or
# not; 159 MiB for one group of beta(2,2), NML or beta(0.5,3), or for two of
# beta(2,2); 238 MiB for beta(2,2) and NML. Peak RSS of `gap`: 138 MB for
# two uniform groups of 512, 373 MB for one beta(2,2) group of 1024.) So
# n = 1024 fits at the default scale, and at the limit the traced peak runs
# from about 210 MB to 600 MB.
MAX_PSEUDO_POINTS = 25_000_000

# A build that keeps every point (no resample) runs the whole inverse and
# builds its density over all of them: about 56 bytes a point whatever the
# priors (tracemalloc: 274 MiB at 5.12e6 points, k = 2, for uniform,
# beta(2,2), and NML with beta(0.5,3)). It is refused past this many points,
# which keeps it near 500 MB.
_MAX_UNRESAMPLED_POINTS = 500_000_000 // 56

# Most residues, mod the period of the resampled indices, at which
# pseudo_null_density computes the convolution by the folded inverse
# (_folded_irfft); each costs one pass over the spectrum. The default grid
# needs 1 to 3. With more, the whole inverse transform runs.
_MAX_RESIDUES = 8

# Default resample target when a high-resolution density grid gets large.
DEFAULT_DENSITY_GRID = 20_001

# Points per block of the blocked builds of the high-resolution route (the
# induced log weights and _box_spectrum), which bounds their temporary
# arrays. Blocks of 1e6 points raised the peak RSS of a 1e7-point NML build
# by 13 MB, as the allocator kept their freed buffers; blocks of 64 KB arrays
# did not, and ran the box spectra of 1e5 to 5e6 frequencies fastest.
_BLOCK_POINTS = 1 << 13


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


def parse_prior(text: str) -> PriorSpec:
    """Prior syntax: 'uniform', 'nml', or 'beta:a,b'."""
    text = text.strip().lower()
    if text == "uniform":
        return PriorSpec.uniform()
    if text == "nml":
        return PriorSpec.nml()
    if text.startswith("beta:"):
        parts = text[len("beta:"):].split(",")
        if len(parts) != 2:
            raise ValueError(f"expected beta:a,b, got {text!r}")
        return PriorSpec.from_beta(float(parts[0]), float(parts[1]))
    raise ValueError(f"unknown prior {text!r}")


@dataclass(frozen=True)
class PseudoDensity:
    """Continuous null prior on p0."""

    density: GridDensity


def _induced_log_weights(spec: PriorSpec, n: int, out=None) -> np.ndarray:
    """Log weights of a uniform, beta or NML group's induced pmf on 0..n,
    written into out (n + 1 floats) if it is given.

    Beta weights are normalized in exact arithmetic, uniform and NML ones up
    to a constant.
    """
    if out is None:
        out = np.empty(n + 1)
    if spec.kind == "uniform":
        out[:] = 0.0
        return out
    if spec.kind not in ("beta", "nml"):
        raise ValueError(f"unknown prior kind {spec.kind!r}")
    # At scale 1e4 the weights have about 1e7 points: they are built in
    # blocks of _BLOCK_POINTS, so only out is held at full length. Each block
    # of j <= n/2 is built with its mirror n - j, which reads the same
    # log-gamma arrays reversed: gammaln runs once per point and distinct
    # offset. Each block hands gammaln and xlogy the floats the whole-array
    # expression forms and sums in its order, so the bits are the same; log
    # C(n, j) is built as log_binomial_row builds it.
    top = gammaln(n + 1)
    offsets = {1}
    if spec.kind == "beta":
        a, b = spec.alpha, spec.beta
        offsets |= {a, b}
        bottom = gammaln(n + a + b)
        log_b = log_beta_fn(a, b)

    def fill(lw, g, gr, j, r):
        """Weights at j into lw, from gammaln(j + x) and gammaln(r + x)."""
        np.subtract(top, g[1], out=lw)
        lw -= gr[1]
        if spec.kind == "beta":
            lw += g[a]
            lw += gr[b]
            lw -= bottom
            lw -= log_b
        else:
            q = j / n
            lw += xlogy(j, q)
            lw += xlogy(r, 1.0 - q)

    mid = n // 2 + 1
    for start in range(0, mid, _BLOCK_POINTS):
        j = np.arange(start, min(start + _BLOCK_POINTS, mid), dtype=float)
        r = n - j
        lg, lr = {}, {}
        for x in offsets:
            lg[x], lr[x] = j + x, r + x
            gammaln(lg[x], out=lg[x])
            gammaln(lr[x], out=lr[x])
        fill(out[start : start + j.size], lg, lr, j, r)
        stop = n + 1 - start
        fill(out[stop - j.size : stop][::-1], lr, lg, r, j)
    return out


def induced_group_pmf(spec: PriorSpec, n: int) -> Pmf:
    """Distribution induced on one group's one-count by the alternative marginal."""
    if n < 1:
        raise ValueError("group size must be at least 1")
    return Pmf.from_log_weights(_induced_log_weights(spec, n))


def null_optimal_prior(group_pmfs) -> Pmf:
    """Optimal null prior: convolution of the per-group induced pmfs."""
    return convolve_all(group_pmfs)


def _box_spectrum(boxes, length: int, spectrum=None) -> np.ndarray:
    """The one-sided rfft, at length L, of the convolution of boxes of ones:
    c boxes of M <= L ones for each M: c in boxes, scaled by 1/M^c so that
    the k = 0 term is 1. If spectrum is given, it is multiplied in place.

    A box's transform is e^{-i pi k (M-1)/L} sin(pi k M/L) / sin(pi k/L).
    Every angle is an integer multiple of pi/L, reduced mod 2L in integers
    before its sine or cosine is taken. The frequencies run in blocks of B:
    e^{i pi (k0 + j) s/L} is e^{i pi k0 s/L} e^{i pi j s/L}, one rotation a
    block of a table of B entries for each step s, itself the outer product
    of two tables of about sqrt(B) entries: no sin or cos runs per
    frequency. The phases of all boxes add up to one step.
    """
    half, turn = length // 2 + 1, 2 * length
    rows = min(_BLOCK_POINTS, half)
    shift = sum(c * (m - 1) for m, c in boxes.items()) % turn
    width = math.isqrt(rows - 1) + 1

    def unit(j, step):
        return np.exp(1j * (j * step % turn) * (np.pi / length))

    tables = {}
    for step in {1, shift, *boxes}:
        table = np.multiply.outer(unit(np.arange(0, rows, width), step),
                                  unit(np.arange(width), step)).ravel()[:rows]
        tables[step] = table.real.copy(), table.imag.copy()

    def turned(start, size, step):
        """e^{i pi k step/L} = (c0 + i s0)(tc + i ts) at k = start + j, j < size."""
        angle = (start * step % turn) * (math.pi / length)
        tc, ts = tables[step]
        return math.cos(angle), math.sin(angle), tc[:size], ts[:size]

    fresh = spectrum is None
    if fresh:
        spectrum = np.empty(half, dtype=complex)
        spectrum[0] = 1.0
    for start in range(1, half, rows):
        size = min(rows, half - start)
        c0, s0, tc, ts = turned(start, size, 1)
        sin_k = s0 * tc + c0 * ts
        amp = np.ones(size)
        for m, count in boxes.items():
            c0, s0, tc, ts = turned(start, size, m)
            x = (s0 / m) * tc
            x += (c0 / m) * ts
            x /= sin_k
            if count > 1:
                # pow() takes a slow path on a negative base (40 times slower
                # here): |x| is raised, and an odd power gets x's sign back.
                np.copysign(np.abs(x) ** count, x if count % 2 else 1.0, out=x)
            amp *= x
        c0, s0, tc, ts = turned(start, size, shift)
        re = c0 * tc - s0 * ts
        im = s0 * tc + c0 * ts
        re *= amp
        im *= amp
        block = spectrum[start : start + size]
        if fresh:
            block.real = re
            np.negative(im, out=block.imag)
        else:
            block *= re - 1j * im
    return spectrum


def _one_pass_spectrum(specs, sizes, scale: int, length: int) -> np.ndarray:
    """rfft, at length, of the convolution of the groups' induced pmfs at size
    scale*n_i, up to a positive constant.

    A uniform group's weights are a box of scale*n_i + 1 ones, whose
    transform has a closed form: all of them enter through _box_spectrum, a
    beta(1,1) group among them. Each other distinct (prior, size) pair is
    built and transformed once, at the final length, and enters the product
    raised to its multiplicity.
    """
    flat = PriorSpec.from_beta(1, 1)
    spectrum, boxes = None, Counter()
    for (spec, n), count in Counter(zip(specs, sizes)).items():
        if spec.kind == "uniform" or spec == flat:
            boxes[scale * n + 1] += count
            continue
        # The weights are built straight into a zero-padded buffer of the
        # final length, so rfft makes no padded copy of its own.
        buf = np.zeros(length)
        w = _induced_log_weights(spec, scale * n, out=buf[: scale * n + 1])
        w -= w.max()
        np.exp(w, out=w)
        f = fft.rfft(buf)
        del buf, w
        # Unscaled, the product's k = 0 term is prod (sum of weights)^count,
        # past 1e308 at about 77 groups of scale 1e4. Each factor, and the
        # product as it grows, is scaled by the power of two nearest its k = 0
        # term: exact, and FFT_CLAMP and the normalization of the density do
        # not see the scale. Where the count-th power of what that leaves
        # could still overflow (hundreds of equal groups), the factor is
        # divided by the term itself.
        lead = math.log2(f[0].real)
        near = round(lead)
        f *= 2.0**-near if count * abs(lead - near) < 256 else 1 / f[0].real
        if count > 1:
            np.power(f, count, out=f)
        # In place, and each array freed as soon as it is spent: at scale
        # 1e4 these are 1e7-point arrays, and copies raise the peak memory.
        if spectrum is None:
            spectrum = f
        else:
            spectrum *= f
            spectrum *= 2.0 ** -round(math.log2(spectrum[0].real))
        del f
    if boxes:
        spectrum = _box_spectrum(boxes, length, spectrum)
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
            raise ValueError(f"density_grid (--density-grid) must be at least 2, got {grid_size}")
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

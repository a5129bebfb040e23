"""Group-level induced priors, the optimal null prior, and the pseudo null's atoms.

The optimal null prior is the convolution of the per-group induced pmfs
(numerics.convolve_all); the
pseudo null mixes binomials over its high-resolution limit on the null
mean-value space p0 = n1/n, taken by quadrature on a grid (pseudo_atoms).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
from numpy import fft
from scipy.special import gammaln, xlogy

from .numerics import (
    FFT_CLAMP,
    Pmf,
    _next_fast_len,
    _within_budget,
    log_beta_fn,
)

# Resolution multiplier of the pseudo null's high-resolution route.
DEFAULT_SCALE = 10_000

# Most residues, mod the period of the resampled indices, at which
# pseudo_atoms computes the convolution by the folded inverse
# (_folded_irfft); each adds a row to its one matrix product over the
# spectrum. The default grid needs 1 to 3. With more, the whole inverse runs.
_MAX_RESIDUES = 8

# Default resample target when a high-resolution density grid gets large.
DEFAULT_DENSITY_GRID = 20_001

# Points per block of the blocked builds of the high-resolution route (the
# induced log weights and the closed count), which bounds their temporary
# arrays. Blocks of 1e6 points raised the peak RSS of a 1e7-point NML build
# by 13 MB, as the allocator kept their freed buffers; blocks of 64 KB arrays
# did not.
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
            # The induced log weights subtract log-gamma terms of size a log a,
            # so they err by about eps a log a (at n = 50: 4e-9 at 1e6, 6e-5
            # at 1e10); past 1e16, j + a no longer resolves unit steps.
            if max(a, b) > 1e6:
                raise ValueError(
                    f"beta prior parameters above 1e6 lose the induced pmf to "
                    f"round-off, got ({a}, {b})"
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


def canonical_priors(specs) -> list[PriorSpec]:
    """specs with beta(1,1) spelled as the uniform prior, which it is: built
    as one, its weights are the exact ones, not gammaln's round-off of them."""
    flat = PriorSpec.from_beta(1, 1)
    return [PriorSpec.uniform() if s == flat else s for s in specs]


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


def _power(x, count: int) -> np.ndarray:
    """x**count in x's buffer, for a positive integer count. A power of two
    is taken by repeated squaring, faster than np.power on a complex
    spectrum (41 against 57 ms at 16 on 5.1e6 points); any other count by
    np.power, which holds no copy of x, where squaring needs one (33 against
    52 ms at 3)."""
    if count & (count - 1):
        return np.power(x, count, out=x)
    while count > 1:
        x *= x
        count >>= 1
    return x


def _one_pass_spectrum(specs, sizes, scale: int, length: int) -> np.ndarray:
    """rfft, at length, of the convolution of the groups' induced pmfs at size
    scale*n_i, up to a positive constant.

    Each distinct (prior, size) pair is built and transformed once, at the
    final length, and enters the product raised to its multiplicity; a
    uniform group's weights are a box of scale*n_i + 1 ones.
    """
    spectrum = None
    for (spec, n), count in Counter(zip(specs, sizes)).items():
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
        f = _power(f, count)
        # In place, and each array freed as soon as it is spent: at scale
        # 1e4 these are 1e7-point arrays, and copies raise the peak memory.
        if spectrum is None:
            spectrum = f
        else:
            spectrum *= f
            spectrum *= 2.0 ** -round(math.log2(spectrum[0].real))
        del f
    return spectrum


def _box_counts(boxes, length: int):
    """The convolution of boxes of ones (c boxes of M ones for each M: c in
    boxes) counted by inclusion-exclusion, up to a positive constant, or None
    where its rounding bound exceeds that of the FFT route of length L.

    Returns count(points): the values at an int64 array of points, with those
    below FFT_CLAMP of the peak set to 0, as the FFT route sets them. With k
    boxes, the number of ways to sum to i is
        sum over s of coef(s) C(i - s + k - 1, k - 1),   s <= i,
    where the offsets s = sum t_M M and their signed coefficients, prod over
    M of (-1)^t_M C(c, t_M), 0 <= t_M <= c, are kept exact in integers. The
    convolution is symmetric about T/2 (T = sum c (M - 1)), so each point is
    read from its nearer end: only offsets up to T//2 enter. Each
    C(x + k - 1, k - 1) is taken as the product of its factors x + j, j < k,
    each divided by the power of two nearest the largest box so that nothing
    overflows: the constants dropped, (k-1)! and the powers of two, are the
    same in every term. Two factors are multiplied exactly (integers below
    2^53) before their scaling, so a term rounds about k/2 times.

    The rule. The terms grow with i up to T//2, and so does their number,
    where the lattice peaks (a convolution of symmetric log-concave boxes).
    So at every point the sum errs by at most its bound at the centre,
    gamma(p + n - 1) times the sum of the terms' magnitudes there, with p the
    roundings of a term and n the terms (Higham, ch. 3-4). The closed form
    runs where that is at most the FFT route's own bound, 4 log2(L) eps
    times the peak (TestFoldedIrfft): up to 8 or 9 equal groups at the
    default scale, not 10, whose alternating sum cancels too much.
    """
    k = sum(boxes.values())
    total = sum(c * (m - 1) for m, c in boxes.items())
    centre = total // 2
    eps = np.finfo(float).eps
    # Past 8 log2(L) terms the summation alone, (n - 1) eps/2 of the sum of
    # magnitudes, can exceed the FFT route's bound: no need to list them.
    most = 8 * math.log2(length) + 1
    # offset: [signed coefficient, inclusion-exclusion terms behind it].
    table = {0: [1, 1]}
    for m, c in boxes.items():
        grown = {}
        for s, (coef, ways) in table.items():
            for t in range(min(c, (centre - s) // m) + 1):
                entry = grown.setdefault(s + t * m, [0, 0])
                entry[0] += (-1) ** t * math.comb(c, t) * coef
                entry[1] += ways
        table = grown
        terms = sum(entry[1] for entry in table.values())
        if terms > most:
            return None
    offsets = sorted(s for s, (coef, _) in table.items() if coef)
    coefs = [float(table[s][0]) for s in offsets]
    e = round(math.log2(max(boxes)))
    pair, single = 2.0 ** (-2 * e), 2.0**-e
    roundings = k // 2 + any(abs(table[s][0]) > 2**53 for s in offsets)

    def evaluate(points, magnitude=None):
        near = np.minimum(points, total - points)
        out = np.zeros(near.shape)
        for s, coef in zip(offsets, coefs):
            # x = -1 below the offset: its factor x + 1 zeroes the term.
            x = np.maximum(near - s, -1).astype(float)
            term = np.full(near.shape, coef)
            for j in range(1, k, 2):
                f = x + j
                if j + 1 < k:
                    f *= x + (j + 1)
                    f *= pair
                else:
                    f *= single
                term *= f
            out += term
            if magnitude is not None:
                magnitude += np.abs(term)
        return out

    magnitude = np.zeros(1)
    with np.errstate(over="ignore", invalid="ignore"):
        peak = evaluate(np.array([centre]), magnitude)[0]
    n = roundings + terms - 1
    bound = n * eps / 2 / (1 - n * eps / 2) * magnitude[0]
    if not (peak > 0 and bound <= 4 * math.log2(length) * eps * peak):
        return None

    def count(points):
        out = np.empty(points.shape)
        for start in range(0, points.size, _BLOCK_POINTS):
            out[start : start + _BLOCK_POINTS] = evaluate(points[start : start + _BLOCK_POINTS])
        out[out < FFT_CLAMP * peak] = 0.0
        return out

    return count


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
    folded = phase[:, :rows] @ spectrum[: q * rows].reshape(rows, q)
    # The rest of the one-sided spectrum sits at k2 = rows: the Nyquist term
    # alone for an even period, the first half of k1's range for an odd one.
    tail = spectrum[q * rows :]
    folded[:, : tail.size] += phase[:, rows:] * tail
    folded *= 2
    # The Nyquist term (even length) and k = 0 count once.
    if length % 2 == 0:
        folded[:, tail.size - 1] -= phase[:, rows] * tail[-1]
    folded[:, 0] -= spectrum[0]
    folded *= np.exp(2j * np.pi * r * np.arange(q) / length)
    return fft.ifft(folded, axis=1).real / period


def _lattice(specs, sizes, scale: int, grid_size: int | None,
             advice: str = "lower scale (--scale) or the group sizes, or resample "
                           "onto fewer points (--density-grid)"):
    """pseudo_atoms' checked design: its specs (beta(1,1) as
    uniform), sizes, last lattice index total = scale * sum(sizes), the
    indices lo..hi it keeps, and whether it is resampled.

    Refused past the budget before anything is built: stated at 56 bytes a
    point and 80 a grid point resampled (a transform's padded buffer, its
    spectrum and work buffer, and another pair's spectrum: 31 to 40 bytes a
    point at 1e6 to 1.02e7 points, VmHWM), and 80 bytes a point kept whole,
    which builds its density over every point (32 to 33 at 2e6 and 1e7). A
    counted build (1.9 MB at 1.02e7 points) is stated as the transformed one
    it falls back to.
    """
    # beta(1,1) groups are built as uniform ones, and so may be counted.
    specs = canonical_priors(specs)
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
    # The points i/total kept, lo <= i <= hi: all but the end cells of beta
    # priors with a parameter below 1.
    lo = int(any(s.kind == "beta" and (s.alpha < 1 or s.beta < 1) for s in specs))
    hi = total - lo
    resample = grid_size is not None and hi - lo + 1 > grid_size
    nbytes = 56 * (total + 1) + 80 * grid_size if resample else 80 * (total + 1)
    _within_budget(nbytes, f"a pseudo density of {total + 1} points at scale {scale}", advice)
    return specs, sizes, total, lo, hi, resample


def pseudo_atoms(specs, sizes, scale: int,
                 grid_size: int | None) -> tuple[np.ndarray, np.ndarray]:
    """The pseudo null's mixing law on p0 = n1/n: the atoms of the trapezoid
    quadrature of the optimal null prior's high-resolution-limit density,
    and their log weights, which sum to 1 up to rounding.

    Each group's induced pmf is computed at size scale*n_i, the pmfs are
    convolved in one FFT pass, and the weights are placed on the grid
    i/(scale*n) of [0, 1]. A lattice past the budget is refused before
    anything is built (_lattice). Beta priors with a parameter below 1
    diverge at the boundary; their endpoint grid cells are dropped. If
    grid_size is not None and smaller, the weights are linearly resampled
    onto that many points, and the inverse transform is evaluated only at
    the points the resample reads where their period allows (_folded_irfft).
    The weights are normalized as a density once, at the end, and take the
    trapezoid rule's step, half of it at the two end atoms.
    """
    specs, sizes, total, lo, hi, resample = _lattice(specs, sizes, scale, grid_size)
    # The convolution is computed at the indices period*q + r for r in
    # residues; period 1 is the whole inverse transform.
    length = _next_fast_len(total + 1)
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
            fold_length = stride * _next_fast_len(per_residue)
            # The length must stay fast for the forward transforms, and the
            # period at most its square root, so that the fold's phase matrix
            # (period/2 columns a residue) stays small beside the spectrum.
            if (
                found.size <= _MAX_RESIDUES
                and stride * stride <= fold_length
                and _next_fast_len(fold_length) == fold_length
            ):
                period, residues, length = stride, found, fold_length
    # Uniform groups are boxes of ones, whose convolution is counted where its
    # rounding bound is within the FFT route's (_box_counts).
    count = conv = None
    if all(s.kind == "uniform" for s in specs):
        count = _box_counts(Counter(scale * int(n) + 1 for n in sizes), length)
    if count is None:
        spectrum = _one_pass_spectrum(specs, sizes, scale, length)
        if period == 1:
            conv = fft.irfft(spectrum, length)[None, : total + 1]
        else:
            conv = _folded_irfft(spectrum, length, period, residues)
        del spectrum
        conv[conv < FFT_CLAMP * conv.max()] = 0.0

        def count(points):
            return conv[np.searchsorted(residues, points % period), points // period]

    if resample:
        at_a = count(a)
        weights = at_a + (count(b) - at_a) * (f / steps)
    else:
        grid = np.arange(lo, hi + 1) / total
        weights = count(np.arange(lo, hi + 1)) if conv is None else conv[0, lo : hi + 1]
    integral = np.trapezoid(weights, grid)
    # Written so that NaN, which fails every comparison, is refused.
    if not 0 < integral < math.inf:
        raise ValueError("density integrates to zero")
    with np.errstate(divide="ignore"):
        log_w = np.log(weights / integral)
    step = np.log(grid[1] - grid[0])
    log_w[1:-1] += step
    log_w[[0, -1]] += step - np.log(2.0)
    return grid, log_w

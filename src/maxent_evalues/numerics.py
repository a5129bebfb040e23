"""Log-space primitives: stable reductions, special functions, pmf/density containers.

All probability mass is carried as natural logarithms; exact zero is the
float('-inf') sentinel, never a denormal. Operations here are pure and
re-entrant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft
from scipy.special import gammaln, xlogy

NEG_INF = float("-inf")

# Normalization tolerance for Pmf (log-space) and GridDensity (trapezoid).
PMF_NORM_TOL = 1e-12
DENSITY_NORM_TOL = 1e-8

# Combined support above which convolution switches to FFT, and the relative
# level below which post-FFT round-off is clamped to zero.
FFT_THRESHOLD = 4096
FFT_CLAMP = 1e-15


def log_sum_exp(values) -> float:
    """log(sum(exp(values))) with max-shift; -inf iff all inputs are -inf."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("empty reduction")
    if np.isnan(arr).any():
        raise ValueError("NaN in log-space reduction")
    m = float(arr.max())
    if m == NEG_INF:
        return NEG_INF
    return m + float(np.log(np.exp(arr - m).sum()))


def log_binomial_row(n: int) -> np.ndarray:
    """log C(n, k) for all k in 0..n."""
    if n < 0:
        raise ValueError(f"invalid binomial row n={n}")
    # gammaln(n - k + 1) is gammaln(k + 1) reversed.
    lg = gammaln(np.arange(1, n + 2))
    return gammaln(n + 1) - lg - lg[::-1]


def log_beta_fn(a: float, b: float) -> float:
    """log B(a, b) for a, b > 0."""
    if a <= 0 or b <= 0:
        raise ValueError(f"beta function requires positive arguments, got ({a}, {b})")
    return float(gammaln(a) + gammaln(b) - gammaln(a + b))


@dataclass(frozen=True)
class Pmf:
    """Normalized pmf on integer support 0..N, stored as log weights."""

    log_weights: np.ndarray

    def __post_init__(self):
        lw = np.asarray(self.log_weights, dtype=float)
        object.__setattr__(self, "log_weights", lw)
        lw.setflags(write=False)
        if lw.ndim != 1 or lw.size == 0:
            raise ValueError("pmf needs a nonempty 1-D log-weight array")
        if np.isnan(lw).any():
            raise ValueError("NaN log weight")
        total = log_sum_exp(lw)
        if abs(total) > PMF_NORM_TOL:
            raise ValueError(f"pmf not normalized: log total {total}")
        if (lw > PMF_NORM_TOL).any():
            raise ValueError("pmf entry exceeds 1")

    @property
    def support_size(self) -> int:
        return self.log_weights.size

    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)

    @staticmethod
    def from_log_weights(log_weights) -> "Pmf":
        """Build a pmf from unnormalized log weights."""
        lw = np.asarray(log_weights, dtype=float)
        return Pmf(lw - log_sum_exp(lw))

    @staticmethod
    def from_weights(weights) -> "Pmf":
        w = np.asarray(weights, dtype=float)
        if (w < 0).any():
            raise ValueError("negative weight")
        with np.errstate(divide="ignore"):
            return Pmf.from_log_weights(np.log(w))


def binomial_pmf(n: int, p: float) -> Pmf:
    """Binomial(n, p) on 0..n, boundary p handled with 0^0 = 1."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")
    j = np.arange(n + 1)
    lw = log_binomial_row(n) + xlogy(j, p) + xlogy(n - j, 1.0 - p)
    return Pmf.from_log_weights(lw)


def convolve(a: Pmf, b: Pmf) -> Pmf:
    """Convolution of two pmfs on [0 .. Na+Nb].

    Direct log-space summation for small supports; FFT on linear weights for
    large ones, with negative round-off clamped to zero and the result
    renormalized.
    """
    na, nb = a.support_size, b.support_size
    if na + nb - 1 > FFT_THRESHOLD:
        wa = np.exp(a.log_weights)
        wb = np.exp(b.log_weights)
        # The rfft sequence scipy.signal.fftconvolve runs on real 1-D input,
        # bit for bit where both factors have two points or more, without
        # importing scipy.signal.
        length = fft.next_fast_len(na + nb - 1, real=True)
        out = fft.irfft(fft.rfft(wa, length) * fft.rfft(wb, length), length)[: na + nb - 1]
        out[out < FFT_CLAMP * out.max()] = 0.0
        return Pmf.from_weights(out)
    res = np.full(na + nb - 1, NEG_INF)
    la, lb = a.log_weights, b.log_weights
    if na > nb:
        la, lb = lb, la
        na, nb = nb, na
    for i in range(na):
        if la[i] == NEG_INF:
            continue
        np.logaddexp(res[i : i + nb], la[i] + lb, out=res[i : i + nb])
    return Pmf.from_log_weights(res)


def convolve_all(pmfs) -> Pmf:
    """Left-fold convolution of a sequence of pmfs, in the given order."""
    pmfs = list(pmfs)
    if not pmfs:
        raise ValueError("empty reduction")
    acc = pmfs[0]
    for p in pmfs[1:]:
        acc = convolve(acc, p)
    return acc


@dataclass(frozen=True)
class GridDensity:
    """Nonnegative density on a uniform grid inside [0, 1], trapezoid-normalized."""

    grid: np.ndarray
    log_density: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        ld = np.asarray(self.log_density, dtype=float)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "log_density", ld)
        g.setflags(write=False)
        ld.setflags(write=False)
        if g.ndim != 1 or g.size < 2 or g.shape != ld.shape:
            raise ValueError("grid and log_density must be matching 1-D arrays")
        steps = np.diff(g)
        if (steps <= 0).any():
            raise ValueError("grid must be strictly increasing")
        # Floor of a few ulps: rounding of x/total makes adjacent steps
        # differ by up to one ulp of 1.0 regardless of the step size.
        if abs(steps.max() - steps.min()) > max(1e-9 * steps.mean(), 4e-16):
            raise ValueError("grid must be uniform")
        if g[0] < -1e-12 or g[-1] > 1 + 1e-12:
            raise ValueError("grid must lie inside [0, 1]")
        if np.isnan(ld).any():
            raise ValueError("NaN log density")
        integral = np.trapezoid(np.exp(ld), g)
        if abs(integral - 1.0) > DENSITY_NORM_TOL:
            raise ValueError(f"density not normalized: trapezoid integral {integral}")

    @staticmethod
    def from_density(grid, values) -> "GridDensity":
        """Build a density from nonnegative samples, normalizing the trapezoid integral."""
        g = np.asarray(grid, dtype=float)
        d = np.asarray(values, dtype=float)
        if (d < 0).any():
            raise ValueError("negative density value")
        integral = np.trapezoid(d, g)
        if integral <= 0:
            raise ValueError("density integrates to zero")
        with np.errstate(divide="ignore"):
            return GridDensity(g, np.log(d / integral))


# Cells per block of the binomial log-likelihood builds, which bounds their
# temporary arrays.
_BLOCK_CELLS = 1_000_000


def _binomial_log_cells(out, counts, n: int, log_p, log_q, tail=None) -> None:
    """Fill out[i, j] = c_i log p_j + (n - c_i) log(1 - p_j) in place.

    out is any (counts x grid) float array, in either memory order. log_p and
    log_q are the grid's log p and log(1 - p) as xlogy(1.0, .) takes them,
    and 0 log 0 = 0 at c = 0 and c = n, so every cell equals the cellwise
    xlogy form bit for bit. The (n - c) term is formed in blocks of tail's
    rows, about _BLOCK_CELLS cells unless the caller passes its own scratch,
    in out's memory order so that adding it streams.
    """
    if tail is None:
        tail = np.empty_like(out[: max(1, _BLOCK_CELLS // max(log_p.size, 1))])
    rows = tail.shape[0]
    for start in range(0, counts.size, rows):
        cc = counts[start : start + rows]
        ll, tl = out[start : start + rows], tail[: cc.size]
        # 0 * -inf is NaN at the grid ends; those rows are zeroed next.
        with np.errstate(invalid="ignore"):
            np.multiply.outer(cc.astype(float), log_p, out=ll)
            np.multiply.outer((n - cc).astype(float), log_q, out=tl)
        ll[cc == 0] = 0.0
        tl[cc == n] = 0.0
        ll += tl


# A row of log_binomial_mixture leaves out terms that sum to less than
# e^-_WINDOW_NATS of those it keeps; e^-37 < 2^-53, below one ulp.
_WINDOW_NATS = 37.0


def _mixture_windows(p, log_w, n: int, counts) -> tuple[np.ndarray, np.ndarray]:
    """Each count's window [lo, hi) of the increasing atoms p, as indices.

    With a = c/n, the term at p_j is log w_j + peak_c - n KL(a || p_j), and
    Pinsker's inequality, n KL >= 2n (p_j - a)^2, bounds it by
    max log w + peak_c - 2n (p_j - a)^2. The window keeps j*, the atom
    nearest a, and every p_j with |p_j - a| <= sqrt(tau / 2n), where
    tau = (max log w - log w_j*) + n KL(a || p_j*) + log G + _WINDOW_NATS
    and G is the number of atoms. Each of the at most G atoms left out then
    has a term below e^-_WINDOW_NATS / G of j*'s. The window depends on c
    alone. Every log weight must be finite.
    """
    # At n = 0 every count is 0 and the window, wider than 1, is the whole grid.
    a = counts / max(n, 1)
    right = np.searchsorted(p, a).clip(max=p.size - 1)
    left = (right - 1).clip(min=0)
    star = np.where(a - p[left] <= p[right] - a, left, right)
    # n KL(a || p_j*): infinite, and the window the whole grid, where the
    # binomial at p_j* cannot reach c.
    n_kl = xlogy(counts, a) + xlogy(n - counts, (n - counts) / max(n, 1))
    n_kl -= xlogy(counts, p[star]) + xlogy(n - counts, 1.0 - p[star])
    tau = log_w.max() - log_w[star] + n_kl + np.log(p.size) + _WINDOW_NATS
    half = np.sqrt(tau / (2 * max(n, 1)))
    return np.searchsorted(p, a - half, "left"), np.searchsorted(p, a + half, "right")


def log_binomial_mixture(p, log_w, n: int, counts) -> np.ndarray:
    """log sum_j w_j C(n, c) p_j^c (1 - p_j)^(n - c) at each count c.

    The log pmf of the total count of n trials under a mixture of
    Binomial(n, p_j) on the increasing grid p with log weights log_w,
    evaluated at the given counts only. The mixture is its atoms: points of
    weight zero (-inf) are dropped first. Each count's row sums only its own
    window of the atoms (_mixture_windows), whose left-out terms sum to less
    than e^-37 of the kept ones, so all n + 1 counts cost about
    sqrt(2 tau n) G cells, not (n + 1) G, and log p and log(1 - p) are taken
    once, over the atoms the windows span. Each row's cells equal the
    cellwise xlogy form bit for bit, and its max, exp and sum run over its
    window alone, so a count's value is the same whichever counts it is
    asked for with.

    Distinct counts are taken in order, in blocks of _BLOCK_CELLS // G rows,
    each built by _binomial_log_cells over the union of its rows' windows:
    counts close together have windows that mostly overlap, and a block
    never needs more than its share of the two buffers of a whole-grid
    build.
    """
    c = np.atleast_1d(np.asarray(counts, dtype=np.int64))
    live = log_w > NEG_INF
    p, log_w = p[live], log_w[live]
    if not p.size:
        return np.full(c.size, NEG_INF)
    u, inverse = np.unique(c, return_inverse=True)
    lo, hi = _mixture_windows(p, log_w, n, u)
    first, last = int(lo.min()), int(hi.max())
    p, log_w, lo, hi = p[first:last], log_w[first:last], lo - first, hi - first
    log_p, log_q = xlogy(1.0, p), xlogy(1.0, 1.0 - p)
    rows = max(1, _BLOCK_CELLS // p.size)
    cells = np.empty(min(rows, u.size) * p.size)
    tail = np.empty_like(cells)
    out = np.empty(u.size)
    for start in range(0, u.size, rows):
        stop = min(start + rows, u.size)
        left, right = int(lo[start:stop].min()), int(hi[start:stop].max())
        width = right - left
        ll = cells[: (stop - start) * width].reshape(stop - start, width)
        _binomial_log_cells(
            ll, u[start:stop], n, log_p[left:right], log_q[left:right],
            tail[: ll.size].reshape(ll.shape),
        )
        ll += log_w[left:right]
        win = np.stack((lo[start:stop], hi[start:stop]), axis=1) - left
        # Row i's window is ll.flat[ends[2i] : ends[2i + 1]]; the reductions
        # over the gaps between windows are dropped, and an end at ll.size,
        # which reduceat does not take, is left off.
        ends = (np.arange(0, ll.size, width)[:, None] + win).ravel()
        m = np.maximum.reduceat(ll.ravel(), ends[:-1] if ends[-1] == ll.size else ends)[::2]
        m[m == NEG_INF] = 0.0
        # Cells outside a window are below its max, so exp cannot overflow.
        ll -= m[:, None]
        np.exp(ll, out=ll)
        sums = [row[a:b].sum() for row, (a, b) in zip(ll, win.tolist())]
        with np.errstate(divide="ignore"):
            out[start:stop] = m + np.log(sums)
    return out[inverse] + log_binomial_row(n)[c]


def trapezoid_log_weights(grid: np.ndarray) -> np.ndarray:
    """Log trapezoid quadrature weights for a uniform grid."""
    lw = np.full(grid.size, np.log(grid[1] - grid[0]))
    lw[0] -= np.log(2.0)
    lw[-1] -= np.log(2.0)
    return lw

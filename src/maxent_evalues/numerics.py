"""Log-space primitives: stable reductions, special functions, the pmf container
and the binomial mixture kernel.

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

# Normalization tolerance for Pmf (log-space).
PMF_NORM_TOL = 1e-12

# Combined support above which convolution switches to FFT, and the relative
# level below which post-FFT round-off is clamped to zero.
FFT_THRESHOLD = 4096
FFT_CLAMP = 1e-15

# Cells per block of the binomial log-pmf build, of the mixture kernel's
# shared table and of the worst-case contraction (diagnostics), which bounds
# their temporary arrays for any number of groups.
_BLOCK_CELLS = 1_000_000

# Most bytes of peak resident growth one build may take. Each route states
# its peak from its design and settings where it builds, and _within_budget
# refuses it before anything of that size is allocated.
MAX_BYTES = 2**30


def _within_budget(nbytes: int, what: str, advice: str) -> None:
    """Refuse what, stated at nbytes, past MAX_BYTES; advice names the flag."""
    if nbytes > MAX_BYTES:
        raise ValueError(f"{what} needs {nbytes} bytes, past the budget of {MAX_BYTES}; {advice}")


def log_sum_exp(values) -> float:
    """log(sum(exp(values))) with max-shift; -inf iff all inputs are -inf."""
    arr = np.asarray(values, dtype=float).reshape(1, -1)
    if arr.size == 0:
        raise ValueError("empty reduction")
    if np.isnan(arr).any():
        raise ValueError("NaN in log-space reduction")
    return float(_row_log_sum_exp(arr)[0])


def _row_log_sum_exp(lw: np.ndarray) -> np.ndarray:
    """log_sum_exp of each row of a 2-D array: -inf for a row of -inf, NaN
    for a row with +inf."""
    m = lw.max(axis=1, keepdims=True)
    m[m == NEG_INF] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        shifted = lw - m
        np.exp(shifted, out=shifted)
        return (m + np.log(shifted.sum(axis=1, keepdims=True)))[:, 0]


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
        # A +inf entry makes the total NaN, which passes here and is refused
        # as an entry above 1.
        total = _row_log_sum_exp(lw[None, :])[0]
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


def binomial_log_pmfs(n: int, ps) -> np.ndarray:
    """Normalized log pmfs of Binomial(n, p) on 0..n, one row per p in ps,
    boundary p handled with 0^0 = 1.

    Each row is Pmf.from_log_weights of that p's unnormalized log weights,
    bit for bit; normalized from a checked p, it needs no check of its own.
    The rows are built in blocks of about _BLOCK_CELLS cells, so the result
    is the only full-size array.
    """
    ps = np.asarray(ps, dtype=float)
    # Written so that NaN, which fails every comparison, is refused.
    bad = ps[~((0.0 <= ps) & (ps <= 1.0))]
    if bad.size:
        raise ValueError(f"probability out of range: {bad[0]}")
    j = np.arange(n + 1)
    row = log_binomial_row(n)
    out = np.empty((ps.size, n + 1))
    rows = max(1, _BLOCK_CELLS // (n + 1))
    for start in range(0, ps.size, rows):
        lw, p = out[start : start + rows], ps[start : start + rows, None]
        # log C(n, j) + j log p + (n - j) log(1 - p), added in that order.
        xlogy(j, p, out=lw)
        lw += row
        lw += xlogy(n - j, 1.0 - p)
        lw -= _row_log_sum_exp(lw)[:, None]
    return out


def binomial_pmf(n: int, p: float) -> Pmf:
    """Binomial(n, p) on 0..n, boundary p handled with 0^0 = 1."""
    return Pmf(binomial_log_pmfs(n, [p])[0])


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


# A row of log_binomial_mixture leaves out terms that sum to less than
# e^-_WINDOW_NATS of those it keeps; e^-37 < 2^-53, below one ulp.
_WINDOW_NATS = 37.0

# Largest magnitude of an exponent in log_binomial_mixture's shared table:
# e^300 is far from overflow, and it leaves 408 nats above the normal range.
_TABLE_NATS = 300.0


def _mixture_windows(p, log_w, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each count c = 0..n's window [lo, hi) of the increasing atoms p, as indices.

    With a = c/n, the term at p_j is log w_j + peak_c - n KL(a || p_j), and
    Pinsker's inequality, n KL >= 2n (p_j - a)^2, bounds it by
    max log w + peak_c - 2n (p_j - a)^2. The window keeps j*, the atom
    nearest a, and every p_j with |p_j - a| <= sqrt(tau / 2n), where
    tau = (max log w - log w_j*) + n KL(a || p_j*) + log G + _WINDOW_NATS
    and G is the number of atoms. Each of the at most G atoms left out then
    has a term below e^-_WINDOW_NATS / G of j*'s. The window depends on c
    alone. Every log weight must be finite.
    """
    counts = np.arange(n + 1)
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


def log_binomial_mixture(p, log_w, n: int) -> np.ndarray:
    """log sum_j w_j C(n, c) p_j^c (1 - p_j)^(n - c) at every count c = 0..n.

    The log pmf of the total count of n trials under a mixture of
    Binomial(n, p_j) on the increasing grid p with log weights log_w. The
    mixture is its atoms: points of weight zero (-inf) are dropped first,
    and an atom at p = 0 or 1 adds its weight at c = 0 or n alone. For the
    G interior atoms the term at count a + d is the term at a plus d l_j,
    l_j = log p_j - log(1 - p_j), so counts go in blocks [a, a + b), a a
    multiple of b = max(1, min(300 / max|l|, _BLOCK_CELLS / G, n + 1)). One
    table E[d, j] = exp(d l_j), d < b, serves every block, and a block is
    one product E @ A over the union of its counts' windows
    (_mixture_windows, whose left-out terms sum to less than e^-37 of the
    kept ones), A_j the terms at a, in the cellwise form, scaled by their
    largest. All n + 1 counts then take exponentials of a few percent of
    the (n + 1) G cells (4% at n = 1024 on the default 20001-point grid). No
    exponent exceeds 300 in magnitude, so nothing overflows, and a term lost
    to underflow in A (below e^-708) is below e^-108 of its row's largest,
    which is at least e^-300. E holds at most _BLOCK_CELLS cells; at b = 1
    it is not built and a block is the sum of A.
    """
    live = log_w > NEG_INF
    p, log_w = p[live], log_w[live]
    ends = ((0, log_w[p == 0.0]), (n, log_w[p == 1.0]))
    inner = (0.0 < p) & (p < 1.0)
    p, log_w = p[inner], log_w[inner]
    out = np.full(n + 1, NEG_INF)
    if p.size:
        extremes = p[[0, -1]]
        # logit is increasing, so its largest magnitude is at an end.
        with np.errstate(divide="ignore"):
            bound = _TABLE_NATS / np.abs(np.log(extremes) - np.log(1.0 - extremes)).max()
        b = max(1, int(min(bound, _BLOCK_CELLS // p.size, n + 1)))
        starts = np.arange(0, n + 1, b)
        lo, hi = _mixture_windows(p, log_w, n)
        first, last = int(lo.min()), int(hi.max())
        lo, hi = np.minimum.reduceat(lo, starts) - first, np.maximum.reduceat(hi, starts) - first
        # The logs are taken once, over the atoms the blocks' windows span.
        p, log_w = p[first:last], log_w[first:last]
        log_p, log_q = np.log(p), np.log(1.0 - p)
        if b > 1:
            table = np.exp(np.multiply.outer(np.arange(b), log_p - log_q))
        for a, left, right in zip(*(x.tolist() for x in (starts, lo, hi))):
            z = min(a + b, n + 1)
            t = a * log_p[left:right] + (n - a) * log_q[left:right] + log_w[left:right]
            m = t.max()
            t -= m
            np.exp(t, out=t)
            sums = table[: z - a, left:right] @ t if b > 1 else t.sum(keepdims=True)
            out[a:z] = m + np.log(sums)
    for count, w in ends:
        for log_mass in w:
            out[count] = np.logaddexp(out[count], log_mass)
    return out + log_binomial_row(n)

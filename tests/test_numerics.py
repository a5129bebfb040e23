import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp, xlogy

from maxent_evalues import numerics
from maxent_evalues.evariables import point_alt_count_pmf, ripr_solve
from maxent_evalues.numerics import (
    FFT_CLAMP,
    FFT_THRESHOLD,
    NEG_INF,
    GridDensity,
    Pmf,
    _mixture_windows,
    binomial_pmf,
    convolve,
    convolve_all,
    log_beta_fn,
    log_binomial_mixture,
    log_binomial_row,
    log_sum_exp,
    trapezoid_log_weights,
)
from maxent_evalues.priors import PriorSpec, induced_group_pmf, pseudo_null_density
from oracles import (
    delta_pmf,
    kl_divergence,
    log_binomial,
    moments,
    total_variation,
    uniform_pmf,
)


class TestLogSumExp:
    def test_matches_direct_sum(self):
        vals = np.log([0.1, 0.2, 0.7])
        assert log_sum_exp(vals) == pytest.approx(0.0, abs=1e-14)

    def test_all_neg_inf(self):
        assert log_sum_exp([NEG_INF, NEG_INF]) == NEG_INF

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            log_sum_exp([])

    def test_nan_raises(self):
        with pytest.raises(ValueError):
            log_sum_exp([0.0, np.nan])

    @given(st.lists(st.floats(min_value=-500, max_value=500), min_size=1, max_size=30))
    def test_shift_invariance(self, vals):
        base = log_sum_exp(vals)
        shifted = log_sum_exp([v + 3.5 for v in vals])
        assert shifted == pytest.approx(base + 3.5, rel=1e-12)


class TestSpecialFunctions:
    def test_log_binomial_exact(self):
        assert log_binomial(10, 3) == pytest.approx(math.log(120), rel=1e-14)
        assert log_binomial(5, 0) == pytest.approx(0.0, abs=1e-14)

    def test_log_binomial_invalid(self):
        with pytest.raises(ValueError):
            log_binomial(3, 4)
        with pytest.raises(ValueError):
            log_binomial(3, -1)

    def test_log_binomial_row_matches_comb(self):
        row = log_binomial_row(12)
        for k in range(13):
            assert row[k] == pytest.approx(math.log(math.comb(12, k)), rel=1e-13)

    def test_log_beta_fn(self):
        # B(2, 3) = 1/12
        assert log_beta_fn(2, 3) == pytest.approx(math.log(1 / 12), rel=1e-13)
        with pytest.raises(ValueError):
            log_beta_fn(0.0, 1.0)

    def test_nml_normalizer_small_n(self):
        # The NML term at j = 0 is 1, so the induced mass there is 1 over
        # the normalizer: n=1: 1 + 1; n=2: 1 + 2*(1/4) + 1.
        for n, normalizer in [(1, 2.0), (2, 2.5)]:
            p = induced_group_pmf(PriorSpec.nml(), n)
            assert np.exp(-p.log_weights[0]) == pytest.approx(normalizer, rel=1e-14)


class TestPmf:
    def test_uniform(self):
        p = uniform_pmf(4)
        assert p.support_size == 5
        assert p.weights() == pytest.approx([0.2] * 5)

    def test_delta_moments(self):
        mean, variance = moments(delta_pmf(3, 6))
        assert mean == pytest.approx(3.0)
        assert variance == pytest.approx(0.0, abs=1e-15)

    def test_from_weights_normalizes(self):
        p = Pmf.from_weights([1, 2, 1])
        assert p.weights() == pytest.approx([0.25, 0.5, 0.25])

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            Pmf(np.log([0.5, 0.6]))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Pmf.from_weights([0.5, -0.1, 0.6])

    def test_log_weights_read_only(self):
        p = uniform_pmf(3)
        with pytest.raises(ValueError):
            p.log_weights[0] = 0.0

    @given(st.integers(min_value=0, max_value=40), st.floats(min_value=0, max_value=1))
    def test_binomial_moments(self, n, p):
        mean, variance = moments(binomial_pmf(n, p))
        assert mean == pytest.approx(n * p, abs=1e-9)
        assert variance == pytest.approx(n * p * (1 - p), abs=1e-9)

    def test_binomial_boundary(self):
        assert binomial_pmf(5, 0.0).weights()[0] == pytest.approx(1.0)
        assert binomial_pmf(5, 1.0).weights()[5] == pytest.approx(1.0)


class TestConvolve:
    def test_binomial_additivity(self):
        a = binomial_pmf(4, 0.3)
        b = binomial_pmf(7, 0.3)
        c = convolve(a, b)
        expect = binomial_pmf(11, 0.3)
        assert c.weights() == pytest.approx(expect.weights(), abs=1e-13)

    def test_delta_identity(self):
        p = Pmf.from_weights([0.2, 0.5, 0.3])
        shifted = convolve(p, delta_pmf(0, 0))
        assert shifted.weights() == pytest.approx(p.weights())

    def test_fft_path_matches_direct(self):
        # Supports chosen to exceed the FFT threshold.
        rng_w = np.abs(np.sin(np.arange(3000))) + 1e-3
        a = Pmf.from_weights(rng_w)
        b = Pmf.from_weights(rng_w[:2500])
        big = convolve(a, b)  # 5499 > 4096 -> FFT
        # Direct log-space reference on a truncated pair stays on the exact path.
        assert big.support_size == 5499
        assert abs(np.exp(big.log_weights).sum() - 1) < 1e-10

    # The benchmark network's 15 block pairs (n = 8778 dyads) and the point
    # alternative its net-test ops pass.
    NETWORK_DYADS = (351, 729, 729, 702, 702, 351, 729, 702, 702, 351, 702, 702, 325, 676, 325)
    NETWORK_PALT = (0.1857, 0.2402, 0.2648, 0.2643, 0.2305, 0.2648, 0.2515, 0.2299,
                    0.2887, 0.2753, 0.2377, 0.2681, 0.2642, 0.2759, 0.2212)

    @staticmethod
    def fftconvolve_reference(a, b):
        """The FFT route as it ran on scipy.signal.fftconvolve."""
        from scipy.signal import fftconvolve

        out = fftconvolve(a.weights(), b.weights())
        out[out < FFT_CLAMP * out.max()] = 0.0
        return Pmf.from_weights(out)

    @pytest.mark.parametrize("na", [2, 3, 2049, 4000, 4095])
    def test_fft_route_matches_fftconvolve_above_threshold(self, na):
        # Combined supports of FFT_THRESHOLD + 1 to + 3, at lopsided and
        # balanced splits. Every factor has two points or more, as every
        # group law of one or more trials does; fftconvolve multiplied a
        # one-point factor directly.
        rng = np.random.default_rng(na)
        for extra in (1, 2, 3):
            a = Pmf.from_weights(rng.random(na))
            b = Pmf.from_weights(rng.random(FFT_THRESHOLD + extra - na + 1))
            expect = self.fftconvolve_reference(a, b)
            assert np.array_equal(convolve(a, b).log_weights, expect.log_weights)

    def test_fft_route_matches_fftconvolve_on_the_network_design(self):
        # Every FFT step of the left folds that build the network's optimal
        # null prior (uniform priors) and its point alternative's count law.
        for pmfs in (
            [induced_group_pmf(PriorSpec.uniform(), n) for n in self.NETWORK_DYADS],
            [binomial_pmf(n, p) for n, p in zip(self.NETWORK_DYADS, self.NETWORK_PALT)],
        ):
            acc = pmfs[0]
            for p in pmfs[1:]:
                got = convolve(acc, p)
                if acc.support_size + p.support_size - 1 > FFT_THRESHOLD:
                    expect = self.fftconvolve_reference(acc, p)
                    assert np.array_equal(got.log_weights, expect.log_weights)
                acc = got
            assert acc.support_size == sum(self.NETWORK_DYADS) + 1

    def test_convolve_all_order_free(self):
        pmfs = [binomial_pmf(3, 0.2), uniform_pmf(4), binomial_pmf(2, 0.9)]
        left = convolve_all(pmfs)
        right = convolve_all(pmfs[::-1])
        assert left.weights() == pytest.approx(right.weights(), abs=1e-13)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            convolve_all([])

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=25)
    def test_uniform_convolution_mass(self, na, nb):
        c = convolve(uniform_pmf(na), uniform_pmf(nb))
        assert c.support_size == na + nb + 1
        assert np.exp(c.log_weights).sum() == pytest.approx(1.0, abs=1e-12)
        assert moments(c)[0] == pytest.approx(na / 2 + nb / 2, abs=1e-9)


class TestDivergences:
    def test_kl_self_zero(self):
        p = binomial_pmf(6, 0.4)
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-14)

    def test_kl_nonnegative(self):
        p = binomial_pmf(6, 0.4)
        q = binomial_pmf(6, 0.6)
        assert kl_divergence(p, q) > 0

    def test_kl_absolute_continuity(self):
        p = uniform_pmf(2)
        q = delta_pmf(1, 2)
        with pytest.raises(ValueError, match="KL undefined"):
            kl_divergence(p, q)
        # The reverse direction is fine: delta << uniform.
        assert kl_divergence(q, p) == pytest.approx(math.log(3), rel=1e-13)

    def test_kl_support_mismatch(self):
        with pytest.raises(ValueError, match="KL undefined"):
            kl_divergence(uniform_pmf(2), uniform_pmf(3))

    def test_tv_bounds(self):
        p = delta_pmf(0, 1)
        q = delta_pmf(1, 1)
        assert total_variation(p, q) == pytest.approx(1.0)
        assert total_variation(p, p) == pytest.approx(0.0)


class TestGridDensity:
    def test_uniform_density(self):
        g = np.linspace(0, 1, 101)
        d = GridDensity.from_density(g, np.ones(101))
        assert np.exp(d.log_density) == pytest.approx(np.ones(101))

    def test_normalization_enforced(self):
        g = np.linspace(0, 1, 11)
        with pytest.raises(ValueError, match="not normalized"):
            GridDensity(g, np.zeros(11) + 0.5)

    def test_nonuniform_grid_rejected(self):
        g = np.array([0.0, 0.1, 0.3, 1.0])
        with pytest.raises(ValueError):
            GridDensity.from_density(g, np.ones(4))

    def test_trapezoid_weights_integrate(self):
        lw = trapezoid_log_weights(np.linspace(0, 1, 51))
        assert np.exp(lw).sum() == pytest.approx(1.0, abs=1e-12)


def cellwise_log_terms(p, log_w, n, counts):
    """The terms of log_binomial_mixture as one matrix of cellwise xlogy
    terms, a row a count, without log C(n, c)."""
    c = np.asarray(counts, dtype=np.int64)
    return (
        xlogy(c[:, None], p[None, :])
        + xlogy((n - c)[:, None], 1.0 - p[None, :])
        + log_w[None, :]
    )


def cellwise_binomial_mixture(p, log_w, n, counts):
    """log_binomial_mixture with every row summed over the whole grid."""
    ll = cellwise_log_terms(p, log_w, n, counts)
    m = ll.max(axis=1, keepdims=True)
    m[m == NEG_INF] = 0.0
    with np.errstate(divide="ignore"):
        return m[:, 0] + np.log(np.exp(ll - m).sum(axis=1)) + log_binomial_row(n)[counts]


def windowed_binomial_mixture(p, log_w, n, counts):
    """log_binomial_mixture with each row shifted and summed over its own
    window of the live atoms (the points of finite weight), one row at a
    time: the reference its blocks must equal bit for bit."""
    atoms = log_w > NEG_INF
    p, log_w = p[atoms], log_w[atoms]
    lo, hi = _mixture_windows(p, log_w, n, np.asarray(counts))
    out = []
    for row, a, b in zip(cellwise_log_terms(p, log_w, n, counts), lo, hi):
        row = row[a:b]
        m = row.max()
        m = 0.0 if m == NEG_INF else m
        with np.errstate(divide="ignore"):
            out.append(m + np.log(np.exp(row - m).sum()))
    return np.array(out) + log_binomial_row(n)[counts]


@functools.cache
def mixture_input(name):
    """(p, log_w, n) of one test input of log_binomial_mixture."""
    if name.startswith("pseudo"):
        # The pseudo quadrature of log_w_pseudo0, on the default grid.
        _, prior, sizes = name.split("/")
        spec = {"uniform": PriorSpec.uniform(), "beta22": PriorSpec.from_beta(2, 2),
                "nml": PriorSpec.nml()}[prior]
        sizes = [int(s) for s in sizes.split(",")]
        d = pseudo_null_density([spec] * len(sizes), sizes, grid_size=20_001).density
        return d.grid, d.log_density + trapezoid_log_weights(d.grid), sum(sizes)
    if name.startswith("ripr"):
        # The projections of point alternatives onto binomial mixtures, on
        # sizes within the benchmark's table designs: a few atoms of the
        # default 2001-point grid carry all the weight.
        sizes = [int(s) for s in name.split("/")[1].split(",")]
        target = point_alt_count_pmf(sizes, np.linspace(0.3, 0.6, len(sizes)))
        sol = ripr_solve(target, sum(sizes))
        return sol.grid, sol.log_weights, sum(sizes)
    rng = np.random.default_rng(7)
    p = np.linspace(0.0, 1.0, 20_001)
    log_w = 3.0 * rng.normal(size=p.size)
    log_w[:40] = NEG_INF
    log_w[-40:] = NEG_INF
    return p, log_w, {"random": 300, "n1": 1}[name]


MIXTURE_INPUTS = (
    "pseudo/uniform/512,512",
    "pseudo/uniform/256,256,256,256",
    # Its density is zero near 0 and 1, where FFT_CLAMP clears it.
    "pseudo/uniform/128,128,128,128,128,128,128,128",
    "pseudo/beta22/1024",
    "pseudo/nml/40,40",
    "ripr/20,35",
    "ripr/45,60,70,80",
    "ripr/150,200,180,250,160,240,170,230",
    "ripr/30,34,38,42,46,50,54,58,60,56,52,48,44,40,36,32",
    "random",
    "n1",
)


class TestLogBinomialMixture:
    # Grids of 5 points: every window is the whole grid.
    @pytest.mark.parametrize("n, grid", [(1, 5), (7, 5)])
    def test_matches_cellwise_xlogy(self, n, grid):
        rng = np.random.default_rng(n)
        p = np.linspace(0.0, 1.0, grid)  # both ends, where the logs are -inf
        log_w = rng.normal(size=grid)
        log_w[1] = NEG_INF
        log_w[-2] = NEG_INF
        counts = np.r_[np.arange(n + 1), [n, 0, n // 2]]
        got = log_binomial_mixture(p, log_w, n, counts)
        assert np.array_equal(got, cellwise_binomial_mixture(p, log_w, n, counts))

    def test_matches_cellwise_xlogy_over_its_windows(self):
        # At n = 120 the windows leave out part of the 19999 live atoms of
        # the 20001-point grid. Each row equals the cellwise terms summed
        # over its own window of the atoms bit for bit, and the whole row
        # within the left-out mass, e^-37 relative, and a few ulps of the
        # sum's round-off in another order.
        n = 120
        rng = np.random.default_rng(n)
        p = np.linspace(0.0, 1.0, 20_001)
        log_w = rng.normal(size=p.size)
        log_w[1] = NEG_INF
        log_w[-2] = NEG_INF
        counts = np.r_[np.arange(n + 1), [n, 0, n // 2]]
        atoms = log_w > NEG_INF
        lo, hi = _mixture_windows(p[atoms], log_w[atoms], n, counts)
        assert ((hi - lo) < atoms.sum()).sum() > n // 2
        got = log_binomial_mixture(p, log_w, n, counts)
        assert np.array_equal(got, windowed_binomial_mixture(p, log_w, n, counts))
        whole = cellwise_binomial_mixture(p, log_w, n, counts)
        # log C(n, c) and the row's shifted log sum cancel in part: the ulps
        # are those of the larger.
        scale = np.maximum(np.abs(whole), log_binomial_row(n)[counts])
        assert (np.abs(got - whole) <= 4 * np.spacing(scale)).all()

    @pytest.mark.parametrize("name", MIXTURE_INPUTS)
    def test_left_out_mass_within_bound(self, name):
        # Brute force over every cell: the terms outside a row's window sum
        # to at most e^-37 of those inside it.
        p, log_w, n = mixture_input(name)
        counts = np.arange(n + 1)
        lo, hi = _mixture_windows(p, log_w, n, counts)
        assert (lo < hi).all()
        col = np.arange(p.size)
        for start in range(0, n + 1, 64):
            rows = slice(start, start + 64)
            ll = cellwise_log_terms(p, log_w, n, counts[rows])
            inside = (col >= lo[rows, None]) & (col < hi[rows, None])
            kept = logsumexp(np.where(inside, ll, NEG_INF), axis=1)
            left_out = logsumexp(np.where(inside, NEG_INF, ll), axis=1)
            assert (left_out - kept <= -37.0).all()
            assert np.isfinite(kept).all()

    def test_rows_independent_of_the_counts_asked_with(self):
        p, log_w, n = mixture_input("pseudo/uniform/512,512")
        rng = np.random.default_rng(3)
        counts = np.r_[rng.integers(0, n + 1, size=40), [512, 0, n, 512, 7, 7]]
        rng.shuffle(counts)
        together = log_binomial_mixture(p, log_w, n, counts)
        alone = [log_binomial_mixture(p, log_w, n, c)[0] for c in counts]
        assert np.array_equal(together, alone)
        every = log_binomial_mixture(p, log_w, n, np.arange(n + 1))
        assert np.array_equal(together, every[counts])

    def test_reads_a_third_of_the_cells(self, monkeypatch):
        # At n = 1024 on the 20001-point grid the windows keep 28% of the
        # cells, and the blocks' unions of windows add about 4 points more.
        p, log_w, n = mixture_input("pseudo/uniform/512,512")
        built = []
        cells = numerics._binomial_log_cells

        def spy(out, *args):
            built.append(out.size)
            cells(out, *args)

        monkeypatch.setattr(numerics, "_binomial_log_cells", spy)
        got = log_binomial_mixture(p, log_w, n, np.arange(n + 1))
        assert sum(built) <= 0.35 * (n + 1) * p.size
        assert np.isfinite(got).all()
        assert np.exp(got).sum() == pytest.approx(1.0, abs=1e-8)

    def test_builds_cells_at_atoms_only(self, monkeypatch):
        # A sparse point projection (19 atoms), scattered onto the whole
        # 2001-point grid with -inf weights between its atoms: no cell is
        # built, and no log taken, at a zero-weight point, so a one-count
        # read costs the atoms, not the grid.
        atoms, log_w_atoms, n = mixture_input("ripr/45,60,70,80")
        assert atoms.size == 19
        p = np.linspace(0.0, 1.0, 2001)
        log_w = np.full(p.size, NEG_INF)
        log_w[np.searchsorted(p, atoms)] = log_w_atoms
        assert np.array_equal(p[log_w > NEG_INF], atoms)
        grids, logged = [], []
        cells, log = numerics._binomial_log_cells, numerics.xlogy

        def cells_spy(out, counts, n, log_p, *args):
            grids.append(log_p.copy())
            cells(out, counts, n, log_p, *args)

        def log_spy(x, y):
            logged.append(np.size(y))
            return log(x, y)

        monkeypatch.setattr(numerics, "_binomial_log_cells", cells_spy)
        monkeypatch.setattr(numerics, "xlogy", log_spy)
        for counts in (n // 2, np.arange(n + 1)):
            grids.clear()
            logged.clear()
            got = log_binomial_mixture(p, log_w, n, counts)
            # Logs are taken over the atoms or over the counts, never the grid.
            assert max(logged) <= max(atoms.size, np.size(counts))
            assert grids and all(np.isin(g, log(1.0, atoms)).all() for g in grids)
            assert np.array_equal(got, log_binomial_mixture(atoms, log_w_atoms, n, counts))

    def test_point_mass_at_one(self):
        # Every count below n has no mass: those rows are all -inf.
        p = np.linspace(0.0, 1.0, 11)
        log_w = np.full(11, NEG_INF)
        log_w[-1] = 0.0
        counts = np.arange(7)
        got = log_binomial_mixture(p, log_w, 6, counts)
        assert np.array_equal(got, cellwise_binomial_mixture(p, log_w, 6, counts))
        assert got[-1] == 0.0
        assert (got[:-1] == NEG_INF).all()

import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp, xlogy

from maxent_evalues import numerics
from maxent_evalues.evariables import ripr_solve
from maxent_evalues.numerics import (
    FFT_CLAMP,
    FFT_THRESHOLD,
    NEG_INF,
    GridDensity,
    Pmf,
    _mixture_windows,
    binomial_log_pmfs,
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
    NETWORK_DYADS,
    NETWORK_PALT,
    delta_pmf,
    kl_divergence,
    log_binomial,
    log_binomial_mixture_exact,
    moments,
    point_alt_count_pmf,
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

    # The benchmark's largest pool design has n = 1024, its network n = 8778.
    @pytest.mark.xfail(strict=True, reason=(
        "log_binomial_row takes gammaln differences of values near n log n, off "
        "by 1.8e-12 at n = 1024 and 3.1e-11 at n = 8778; mending it moves mic's "
        "bytes, so it waits for ROADMAP item 1"))
    @pytest.mark.parametrize("n", [1024, 8778])
    def test_log_binomial_row_ledger(self, n):
        # Every count step n/400 against mpmath. The bound is 1e-13 over one
        # ulp of the value: near log C(8778, 4389) = 6079.7 a float is 4.5e-13
        # from the exact value at best.
        counts = sorted({round(i * n / 400) for i in range(401)})
        row = log_binomial_row(n)[counts]
        with mpmath.workdps(40):
            errors = [float(abs(mpmath.mpf(float(v)) - mpmath.log(mpmath.binomial(n, c))))
                      for v, c in zip(row, counts)]
        assert (np.array(errors) <= 1e-13 + np.spacing(np.abs(row))).all()

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

    @pytest.mark.parametrize("log_weights, error", [
        ([0.0, np.nan], "NaN log weight"),
        (np.log([0.5, 0.6]), "pmf not normalized"),
        ([NEG_INF, NEG_INF], "pmf not normalized: log total -inf"),
        ([np.inf, NEG_INF], "pmf entry exceeds 1"),
    ])
    def test_checks_refuse(self, log_weights, error):
        with pytest.raises(ValueError, match=error):
            Pmf(np.array(log_weights))


def reference_binomial_pmf(n, p):
    """Binomial(n, p) as one Pmf of its unnormalized log weights: the
    arithmetic binomial_log_pmfs must reproduce bit for bit."""
    j = np.arange(n + 1)
    return Pmf.from_log_weights(log_binomial_row(n) + xlogy(j, p) + xlogy(n - j, 1.0 - p))


class TestBinomialLogPmfs:
    AXES = {
        "default": np.arange(0.02, 0.98 + 0.01, 0.02),
        "fine": np.arange(0.02, 0.98 + 5e-4, 1e-3),
        "random": np.random.default_rng(30).random(40),
        "ends": np.array([0.0, 1.0, 0.5, 1e-300, 1.0 - 2**-53]),
    }

    # At n = 8778 the fine axis's 961 rows run in blocks of 113.
    @pytest.mark.parametrize("n", [1, 7, 10, 128, 129, 1000, 8778])
    @pytest.mark.parametrize("axis", AXES, ids=str)
    def test_rows_match_binomial_pmf_bit_for_bit(self, n, axis):
        ps = self.AXES[axis]
        rows = binomial_log_pmfs(n, ps)
        assert rows.shape == (ps.size, n + 1)
        for p, row in zip(ps.tolist(), rows):
            reference = reference_binomial_pmf(n, p)
            pmf = binomial_pmf(n, p)
            assert row.tobytes() == reference.log_weights.tobytes() == pmf.log_weights.tobytes()
            assert np.exp(row).tobytes() == pmf.weights().tobytes()

    @pytest.mark.parametrize("ps", [[0.5, 1.5], [np.nan], [-0.0, -1e-300]])
    def test_refuses_a_probability_out_of_range(self, ps):
        with pytest.raises(ValueError, match="probability out of range"):
            binomial_log_pmfs(4, ps)

    def test_every_row_is_checked(self):
        rows = np.array([[0.0, NEG_INF], np.log([0.5, 0.6])])
        with pytest.raises(ValueError, match="pmf not normalized"):
            numerics._check_log_pmfs(rows)
        numerics._check_log_pmfs(rows[:1])


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
            [induced_group_pmf(PriorSpec.uniform(), n) for n in NETWORK_DYADS],
            [binomial_pmf(n, p) for n, p in zip(NETWORK_DYADS, NETWORK_PALT)],
        ):
            acc = pmfs[0]
            for p in pmfs[1:]:
                got = convolve(acc, p)
                if acc.support_size + p.support_size - 1 > FFT_THRESHOLD:
                    expect = self.fftconvolve_reference(acc, p)
                    assert np.array_equal(got.log_weights, expect.log_weights)
                acc = got
            assert acc.support_size == sum(NETWORK_DYADS) + 1

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


@functools.cache
def mixture_input(name):
    """(p, log_w, n) of one test input of log_binomial_mixture, cut to its
    atoms (the points of finite weight), as the kernel passes them to
    _mixture_windows."""
    p, log_w, n = _mixture_grid(name)
    atoms = log_w > NEG_INF
    return p[atoms], log_w[atoms], n


def _mixture_grid(name):
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


# Largest error in log the kernel may make against the exact sum. Over every
# count of MIXTURE_INPUTS the blocked kernel is within 2.3e-13, and the
# cellwise xlogy form summed over each count's window within 3.4e-13, both
# at ripr/150,...: the rounding of exponents of about n log 2 in magnitude.
MIXTURE_TOL = 4e-13


def oracle_counts(n):
    """Both ends, their neighbours and counts spread between, some of them
    at the ends of the kernel's blocks."""
    spread = np.r_[np.linspace(0, n, 9).astype(int), np.random.default_rng(n).integers(0, n + 1, 6)]
    c = np.unique(np.r_[0, 1, n - 1, n, spread, spread + 1])
    return c[(0 <= c) & (c <= n)]


class NumpySpy:
    """numpy, recording the kind and shape of every exp and log taken."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        fn = getattr(np, name)
        if name not in ("exp", "log"):
            return fn

        def spy(x, *args, **kwargs):
            self.calls.append((name, np.shape(x)))
            return fn(x, *args, **kwargs)

        return spy

    def cells(self, *names):
        return [math.prod(shape) for name, shape in self.calls if name in names]


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
        exact = log_binomial_mixture_exact(p, log_w, n, counts)
        assert np.abs(got - exact).max() <= MIXTURE_TOL
        assert np.abs(got - cellwise_binomial_mixture(p, log_w, n, counts)).max() <= MIXTURE_TOL

    def test_matches_cellwise_xlogy_over_its_windows(self):
        # At n = 120 the windows leave out part of the 19999 live atoms of
        # the 20001-point grid; each count is still within MIXTURE_TOL of
        # the exact sum over every atom, and of the cellwise form's.
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
        whole = cellwise_binomial_mixture(p, log_w, n, counts)
        assert np.abs(got - whole).max() <= MIXTURE_TOL
        some = oracle_counts(n)
        exact = log_binomial_mixture_exact(p, log_w, n, some)
        assert np.abs(got[some] - exact).max() <= MIXTURE_TOL

    @pytest.mark.parametrize("name", MIXTURE_INPUTS)
    def test_within_the_exact_sum(self, name):
        p, log_w, n = mixture_input(name)
        counts = oracle_counts(n)
        got = log_binomial_mixture(p, log_w, n, counts)
        assert np.abs(got - log_binomial_mixture_exact(p, log_w, n, counts)).max() <= MIXTURE_TOL

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
        # cells, but a count takes no exponential of its own: its block's
        # shared table row and one product. The table and the blocks' scaled
        # weights are 4% of the (n + 1) G cells.
        p, log_w, n = mixture_input("pseudo/uniform/512,512")
        spy = NumpySpy()
        monkeypatch.setattr(numerics, "np", spy)
        got = log_binomial_mixture(p, log_w, n, np.arange(n + 1))
        assert sum(spy.cells("exp")) <= 0.05 * (n + 1) * p.size
        assert np.isfinite(got).all()
        assert np.exp(got).sum() == pytest.approx(1.0, abs=1e-8)

    def test_builds_cells_at_atoms_only(self, monkeypatch):
        # A sparse point projection (19 atoms), scattered onto the whole
        # 2001-point grid with -inf weights between its atoms: no exp or
        # log is taken at a zero-weight point, so a one-count read costs the
        # atoms, not the grid, and the values are those of the atoms alone.
        atoms, log_w_atoms, n = mixture_input("ripr/45,60,70,80")
        assert atoms.size == 19
        p = np.linspace(0.0, 1.0, 2001)
        log_w = np.full(p.size, NEG_INF)
        log_w[np.searchsorted(p, atoms)] = log_w_atoms
        assert np.array_equal(p[log_w > NEG_INF], atoms)
        for counts in (n // 2, np.arange(n + 1)):
            spy = NumpySpy()
            monkeypatch.setattr(numerics, "np", spy)
            got = log_binomial_mixture(p, log_w, n, counts)
            monkeypatch.undo()
            # A log is taken over the atoms, or over a block's rows, at most
            # n + 1 (256) of them; an exp over at most the atoms a row.
            assert max(spy.cells("log")) <= max(atoms.size, n + 1) < p.size
            assert all(shape[-1] <= atoms.size for name, shape in spy.calls if name == "exp")
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

    def test_no_trials(self):
        # At n = 0 every atom, p = 0 and p = 1 among them, puts its whole
        # weight at c = 0.
        p = np.linspace(0.0, 1.0, 7)
        log_w = np.random.default_rng(0).normal(size=p.size)
        got = log_binomial_mixture(p, log_w, 0, [0, 0])
        assert got == pytest.approx([logsumexp(log_w)] * 2, abs=1e-15)

    @pytest.mark.parametrize("n", [0, 1, 9])
    def test_edge_atoms_only(self, n):
        # Only p = 0 and p = 1 carry weight: their weights sit at c = 0 and
        # c = n, and every count between has no mass.
        p = np.linspace(0.0, 1.0, 5)
        log_w = np.array([-0.4, NEG_INF, NEG_INF, NEG_INF, -1.1])
        got = log_binomial_mixture(p, log_w, n, np.arange(n + 1))
        want = np.full(n + 1, NEG_INF)
        want[0] = -0.4
        want[n] = np.logaddexp(want[n], -1.1)
        assert np.array_equal(got, want)

    def test_atoms_at_the_float_limits(self, monkeypatch):
        # logit(1e-300) = -690.8, past the table's 300 nats: the blocks are
        # single counts, no table is built, nothing overflows and every count
        # is within MIXTURE_TOL of the exact sum.
        p = np.array([1e-300, 0.3, 0.5, 1 - 1e-16])
        log_w = np.log([0.2, 0.3, 0.1, 0.4])
        n = 60
        spy = NumpySpy()
        monkeypatch.setattr(numerics, "np", spy)
        got = log_binomial_mixture(p, log_w, n, np.arange(n + 1))
        monkeypatch.undo()
        assert all(len(shape) < 2 for name, shape in spy.calls if name == "exp")
        exact = log_binomial_mixture_exact(p, log_w, n, np.arange(n + 1))
        assert np.isfinite(got).all()
        assert np.abs(got - exact).max() <= MIXTURE_TOL

    def test_a_two_million_point_grid(self, monkeypatch):
        # 2,000,001 atoms, past _BLOCK_CELLS: the blocks are single counts,
        # and the shared table, which would be a row of 1 over every atom,
        # is not built, so no 2-D array past _BLOCK_CELLS cells is. The
        # counts at the ends keep the exact sum's windows short.
        p = np.linspace(0.0, 1.0, 2_000_001)
        log_w = trapezoid_log_weights(p)
        n, counts = 20_000, [0, 1, 2, 20_000]
        spy = NumpySpy()
        monkeypatch.setattr(numerics, "np", spy)
        got = log_binomial_mixture(p, log_w, n, counts)
        monkeypatch.undo()
        table = [math.prod(shape) for _, shape in spy.calls if len(shape) == 2]
        assert max(table, default=0) <= numerics._BLOCK_CELLS
        exact = log_binomial_mixture_exact(p, log_w, n, counts)
        assert np.abs(got - exact).max() <= MIXTURE_TOL

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from maxent_evalues.numerics import (
    FFT_CLAMP,
    FFT_THRESHOLD,
    NEG_INF,
    GridDensity,
    Pmf,
    binomial_pmf,
    convolve,
    convolve_all,
    log_beta_fn,
    log_binomial_mixture,
    log_binomial_row,
    log_sum_exp,
    trapezoid_log_weights,
)
from maxent_evalues.priors import PriorSpec, induced_group_pmf
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
        assert d.step == pytest.approx(0.01)

    def test_normalization_enforced(self):
        g = np.linspace(0, 1, 11)
        with pytest.raises(ValueError, match="not normalized"):
            GridDensity(g, np.zeros(11) + 0.5)

    def test_nonuniform_grid_rejected(self):
        g = np.array([0.0, 0.1, 0.3, 1.0])
        with pytest.raises(ValueError):
            GridDensity.from_density(g, np.ones(4))

    def test_trapezoid_weights_integrate(self):
        g = np.linspace(0, 1, 51)
        d = GridDensity.from_density(g, np.ones(51))
        lw = trapezoid_log_weights(d)
        assert np.exp(lw).sum() == pytest.approx(1.0, abs=1e-12)


def cellwise_binomial_mixture(p, log_w, n, counts):
    """log_binomial_mixture as one matrix of cellwise xlogy terms: the
    reference its in-place chunks must equal bit for bit."""
    c = np.asarray(counts, dtype=np.int64)
    ll = (
        xlogy(c[:, None], p[None, :])
        + xlogy((n - c)[:, None], 1.0 - p[None, :])
        + log_w[None, :]
    )
    m = ll.max(axis=1, keepdims=True)
    m[m == NEG_INF] = 0.0
    with np.errstate(divide="ignore"):
        return m[:, 0] + np.log(np.exp(ll - m).sum(axis=1)) + log_binomial_row(n)[c]


class TestLogBinomialMixture:
    # The 20001-point grid takes 49 counts a chunk, so n = 120 spans three.
    @pytest.mark.parametrize("n, grid", [(1, 5), (7, 5), (120, 20_001)])
    def test_matches_cellwise_xlogy(self, n, grid):
        rng = np.random.default_rng(n)
        p = np.linspace(0.0, 1.0, grid)  # both ends, where the logs are -inf
        log_w = rng.normal(size=grid)
        log_w[1] = NEG_INF
        log_w[-2] = NEG_INF
        counts = np.r_[np.arange(n + 1), [n, 0, n // 2]]
        got = log_binomial_mixture(p, log_w, n, counts)
        assert np.array_equal(got, cellwise_binomial_mixture(p, log_w, n, counts))

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

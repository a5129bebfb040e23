import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft
from scipy.integrate import quad
from scipy.special import gammaln, xlogy
from scipy.stats import betabinom

from maxent_evalues import priors
from maxent_evalues.numerics import (
    FFT_THRESHOLD,
    GridDensity,
    Pmf,
    convolve_all,
    log_beta_fn,
    log_binomial_row,
    log_sum_exp,
)
from maxent_evalues.priors import (
    DEFAULT_DENSITY_GRID,
    MAX_PSEUDO_POINTS,
    PriorSpec,
    _folded_irfft,
    _induced_log_weights,
    induced_group_pmf,
    null_optimal_prior,
    pseudo_null_density,
)
from oracles import (
    delta_pmf,
    direct_convolution_density,
    discrete_gaussian_approx,
    moments,
    one_pass_convolution,
    uniform_convolution_closed_form,
    uniform_pmf,
)


class TestPriorSpec:
    def test_beta_validation(self):
        with pytest.raises(ValueError):
            PriorSpec.from_beta(0.0, 1.0)
        with pytest.raises(ValueError):
            PriorSpec.from_beta(1.0, -2.0)
        # NaN fails every comparison, so it needs its own case.
        for a, b, shown in ((math.nan, 1.0, "(nan, 1.0)"), (2.0, math.inf, "(2.0, inf)")):
            with pytest.raises(ValueError, match="finite") as info:
                PriorSpec.from_beta(a, b)
            assert shown in str(info.value)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            PriorSpec("gaussian")

    def test_describe(self):
        assert PriorSpec.uniform().describe() == "uniform"
        assert PriorSpec.from_beta(1.5, 2.0).describe() == "beta(1.5,2)"


class TestInducedGroupPmf:
    def test_uniform(self):
        p = induced_group_pmf(PriorSpec.uniform(), 4)
        assert p.weights() == pytest.approx([0.2] * 5)

    def test_beta11_is_uniform(self):
        p = induced_group_pmf(PriorSpec.from_beta(1, 1), 7)
        assert p.weights() == pytest.approx([1 / 8] * 8, abs=1e-14)

    def test_beta22_small_oracle(self):
        # Beta-binomial(2; 2, 2) has pmf (0.3, 0.4, 0.3).
        p = induced_group_pmf(PriorSpec.from_beta(2, 2), 2)
        assert p.weights() == pytest.approx([0.3, 0.4, 0.3], abs=1e-14)

    @given(
        st.integers(min_value=1, max_value=30),
        st.floats(min_value=0.2, max_value=5),
        st.floats(min_value=0.2, max_value=5),
    )
    @settings(max_examples=40)
    def test_beta_matches_scipy(self, n, a, b):
        p = induced_group_pmf(PriorSpec.from_beta(a, b), n)
        ref = betabinom.pmf(np.arange(n + 1), n, a, b)
        assert p.weights() == pytest.approx(ref, abs=1e-11)

    def test_nml_small_oracle(self):
        # n=1: two equal maximized likelihoods, so the pmf is (1/2, 1/2).
        p = induced_group_pmf(PriorSpec.nml(), 1)
        assert p.weights() == pytest.approx([0.5, 0.5], abs=1e-14)
        # n=2: (1, 1/2, 1) normalized by 2.5.
        p2 = induced_group_pmf(PriorSpec.nml(), 2)
        assert p2.weights() == pytest.approx([0.4, 0.2, 0.4], abs=1e-14)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            induced_group_pmf(PriorSpec.uniform(), 0)


def formula_group_pmf(spec, n):
    """The induced pmf as written out term by term, with log C(n, j) from
    three log-gamma arrays: the reference induced_group_pmf must equal bit
    for bit."""
    j = np.arange(n + 1)
    if spec.kind == "uniform":
        return uniform_pmf(n)
    log_binom = gammaln(n + 1) - gammaln(j + 1) - gammaln(n - j + 1)
    if spec.kind == "beta":
        a, b = spec.alpha, spec.beta
        return Pmf.from_log_weights(
            log_binom + gammaln(j + a) + gammaln(n - j + b) - gammaln(n + a + b)
            - log_beta_fn(a, b)
        )
    lw = log_binom + xlogy(j, j / n) + xlogy(n - j, 1.0 - j / n)
    return Pmf(lw - log_sum_exp(lw))


GROUP_PRIORS = [
    PriorSpec.uniform(),
    PriorSpec.from_beta(1, 1),
    PriorSpec.from_beta(2.5, 2.5),
    PriorSpec.from_beta(0.5, 3),
    PriorSpec.from_beta(1, 2.5),
    PriorSpec.nml(),
]


class TestInducedLogWeights:
    @pytest.mark.parametrize("spec", GROUP_PRIORS, ids=PriorSpec.describe)
    @pytest.mark.parametrize("n", [1, 7, 1000])
    def test_pmf_matches_formula(self, spec, n):
        got = induced_group_pmf(spec, n).log_weights
        assert np.array_equal(got, formula_group_pmf(spec, n).log_weights)

    @pytest.mark.parametrize("spec", GROUP_PRIORS[1:], ids=PriorSpec.describe)
    @pytest.mark.parametrize("n", [1, 7, 1000, 20_000])
    def test_in_place_sums_match_the_plain_expression(self, spec, n):
        # The weights are formed in place to hold fewer arrays of n + 1
        # points; the out-of-place expression must give the same bits.
        j = np.arange(n + 1)
        if spec.kind == "beta":
            a, b = spec.alpha, spec.beta
            lg = {x: gammaln(j + x) for x in {1, a, b}}
            lw = gammaln(n + 1) - lg[1] - lg[1][::-1] + lg[a] + lg[b][::-1]
            want = lw - gammaln(n + a + b) - log_beta_fn(a, b)
        else:
            want = log_binomial_row(n) + xlogy(j, j / n) + xlogy(n - j, 1.0 - j / n)
        assert np.array_equal(_induced_log_weights(spec, n), want)

    @pytest.mark.parametrize("spec", GROUP_PRIORS, ids=PriorSpec.describe)
    def test_high_resolution_weights(self, spec):
        # What pseudo_null_density transforms, normalized only at the end.
        lw = _induced_log_weights(spec, 20_000)
        w = np.exp(lw - lw.max())
        np.testing.assert_allclose(
            w / w.sum(), induced_group_pmf(spec, 20_000).weights(), rtol=1e-12, atol=0
        )


class TestNullOptimalPrior:
    def test_triangular_8_10(self):
        # Convolution of uniforms on 0..8 and 0..10: flat-top triangle over
        # 0..18 with plateau value 9/99.
        pmfs = [
            induced_group_pmf(PriorSpec.uniform(), 8),
            induced_group_pmf(PriorSpec.uniform(), 10),
        ]
        w0 = null_optimal_prior(pmfs)
        w = w0.weights()
        assert w0.support_size == 19
        for n1 in range(19):
            assert w[n1] == pytest.approx(
                uniform_convolution_closed_form([8, 10], n1), abs=1e-15
            )

    def test_symmetry(self):
        pmfs = [induced_group_pmf(PriorSpec.from_beta(2, 2), n) for n in (4, 6)]
        w = null_optimal_prior(pmfs).weights()
        assert w == pytest.approx(w[::-1], abs=1e-13)


class TestStarsAndBars:
    def test_known_point(self):
        assert uniform_convolution_closed_form([8, 10], 9) == pytest.approx(9 / 99)

    def test_out_of_range_zero(self):
        assert uniform_convolution_closed_form([3, 3], 7) == 0.0
        assert uniform_convolution_closed_form([3, 3], -1) == 0.0

    def test_equal_sizes_path(self):
        # k=3 equal sizes uses the single-sum branch; compare to convolution.
        pmfs = [uniform_pmf(4)] * 3
        w = null_optimal_prior(pmfs).weights()
        for n1 in range(13):
            assert uniform_convolution_closed_form([4, 4, 4], n1) == pytest.approx(
                w[n1], abs=1e-12
            )

    def test_too_many_groups(self):
        with pytest.raises(ValueError, match="numeric convolution"):
            uniform_convolution_closed_form([1] * 21, 5)

    def test_empty(self):
        with pytest.raises(ValueError, match="no groups"):
            uniform_convolution_closed_form([], 0)

    @given(
        st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=4)
    )
    @settings(max_examples=30)
    def test_matches_convolution(self, sizes):
        w = null_optimal_prior([uniform_pmf(n) for n in sizes]).weights()
        for n1 in range(sum(sizes) + 1):
            assert uniform_convolution_closed_form(sizes, n1) == pytest.approx(
                w[n1], abs=1e-12
            )


class TestGaussianApprox:
    def test_moments_match(self):
        pmfs = [induced_group_pmf(PriorSpec.uniform(), 10)] * 8
        mean, variance = moments(discrete_gaussian_approx(pmfs))
        assert mean == pytest.approx(40.0, abs=1e-6)
        assert variance == pytest.approx(8 * 120 / 12, rel=1e-3)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            discrete_gaussian_approx([delta_pmf(1, 2), delta_pmf(0, 2)])

    def test_needs_two_groups(self):
        with pytest.raises(ValueError):
            discrete_gaussian_approx([uniform_pmf(5)])


class TestPseudoNullDensity:
    def test_two_uniforms_triangle(self):
        pd = pseudo_null_density([PriorSpec.uniform()] * 2, [4, 4], scale=500)
        g = pd.density
        mid = g.grid.size // 2
        assert np.exp(g.log_density)[mid] == pytest.approx(2.0, abs=0.01)
        # Triangle shape: linear rise on [0, 1/2].
        q = g.grid.size // 4
        assert np.exp(g.log_density)[q] == pytest.approx(1.0, abs=0.01)

    def test_resampling(self):
        pd = pseudo_null_density(
            [PriorSpec.uniform()] * 2, [4, 4], scale=1000, grid_size=501
        )
        assert pd.density.grid.size == 501

    def test_boundary_clipping_for_small_beta(self):
        pd = pseudo_null_density(
            [PriorSpec.from_beta(0.5, 0.5)] * 2, [3, 3], scale=200
        )
        # Endpoint cells dropped: grid excludes 0 and 1 exactly.
        assert pd.density.grid[0] > 0
        assert pd.density.grid[-1] < 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            pseudo_null_density([PriorSpec.uniform()], [3, 3], scale=100)

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError, match="no groups"):
            pseudo_null_density([], [], scale=100)
        with pytest.raises(ValueError, match="at least 1"):
            pseudo_null_density([PriorSpec.uniform()] * 2, [-5, 3], scale=100)

    def test_small_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            pseudo_null_density([PriorSpec.uniform()] * 2, [3, 3], scale=5)

    def test_too_large_rejected_before_building(self):
        # 2e10 points: without the guard this fails at allocation.
        assert 2 * 10**10 > MAX_PSEUDO_POINTS
        with pytest.raises(ValueError, match="points"):
            pseudo_null_density([PriorSpec.uniform()] * 2, [10**6] * 2)

    def test_unresampled_build_refused_past_its_limit(self, monkeypatch):
        # About 56 bytes a point without a resample against 20 with one: a
        # build that keeps every one of 1e7 points would hold about 560 MB.
        def built(*args):
            raise AssertionError("built before the size was checked")

        monkeypatch.setattr(priors, "_one_pass_spectrum", built)
        specs, sizes = [PriorSpec.uniform()] * 2, [500, 500]
        assert priors._MAX_UNRESAMPLED_POINTS < 10**7 + 1 <= MAX_PSEUDO_POINTS
        for grid_size in (None, 10**7 + 1):
            with pytest.raises(ValueError, match="without a resample"):
                pseudo_null_density(specs, sizes, grid_size=grid_size)
        # A resampled build of the same design is admitted.
        with pytest.raises(AssertionError, match="built"):
            pseudo_null_density(specs, sizes, grid_size=DEFAULT_DENSITY_GRID)

    @pytest.mark.parametrize("grid_size", [None, 501, DEFAULT_DENSITY_GRID])
    def test_flat_beta_builds_as_the_uniform_prior(self, grid_size):
        # beta(1,1) is the uniform prior; its high-resolution weights are the
        # exact constant ones, not gammaln's round-off of them.
        flat, uniform = [PriorSpec.from_beta(1, 1)] * 2, [PriorSpec.uniform()] * 2
        for sizes in ([6, 6], [3, 8]):
            got = pseudo_null_density(flat, sizes, 1000, grid_size).density
            ref = pseudo_null_density(uniform, sizes, 1000, grid_size).density
            assert np.array_equal(got.grid, ref.grid)
            assert np.array_equal(got.log_density, ref.log_density)

    @pytest.mark.parametrize(
        "spec, sizes, scale, grid_size",
        [
            # Folded: every resampled point on one residue mod 16.
            (PriorSpec.uniform(), [4, 4], 1000, 501),
            (PriorSpec.from_beta(0.5, 0.5), [3, 5], 10, 7),
            (PriorSpec.nml(), [3], 10, 30),
            (PriorSpec.from_beta(0.5, 2), [3], 10, 28),
            # Not resampled: every high-resolution point is kept.
            (PriorSpec.from_beta(0.5, 2), [3], 10, 29),
            (PriorSpec.uniform(), [4, 6], 10, None),
            # Folded, with the beta(<1) end cells clipped: indices 1 + 6i.
            (PriorSpec.from_beta(0.5, 0.5), [4, 4], 1000, 1334),
            # Folded: residues 0, 4 and 5 mod 9.
            (PriorSpec.uniform(), [3, 3, 3], 1000, 2001),
        ],
    )
    def test_resample_matches_full_grid(self, spec, sizes, scale, grid_size):
        # The resample computes only the high-resolution points that bracket
        # a resampled point; np.interp over the whole inverse transform is the
        # reference.
        specs = [spec] * len(sizes)
        pd = pseudo_null_density(specs, sizes, scale=scale, grid_size=grid_size)
        total = scale * sum(sizes)
        weights = one_pass_convolution(specs, sizes, scale, total)
        grid = np.arange(total + 1) / total
        if spec.kind == "beta" and min(spec.alpha, spec.beta) < 1:
            grid, weights = grid[1:-1], weights[1:-1]
        resampled = grid_size is not None and grid.size > grid_size
        if resampled:
            points = np.linspace(grid[0], grid[-1], grid_size)
            grid, weights = points, np.interp(points, grid, weights)
        expected = GridDensity.from_density(grid, weights)
        assert np.array_equal(pd.density.grid, expected.grid)
        if not resampled:
            assert np.array_equal(pd.density.log_density, expected.log_density)
            return
        # Resampled points are read with linear weights at integer positions,
        # from a folded inverse where the period allows: equal up to round-off,
        # the tolerance of test_one_pass_matches_left_fold.
        ref = np.exp(expected.log_density)
        np.testing.assert_allclose(
            np.exp(pd.density.log_density), ref, rtol=1e-9, atol=1e-12 * ref.max()
        )

    def test_non_smooth_period_takes_the_whole_inverse(self):
        # 12 + 17 = 29: the points read repeat every 29 indices, and 29 * Q
        # is never a fast length, so the whole inverse runs; its points are
        # read with the same linear weights, bit for bit.
        specs, sizes, scale, grid_size = [PriorSpec.uniform()] * 2, [12, 17], 1000, 2001
        total = scale * 29
        weights = one_pass_convolution(specs, sizes, scale, total)
        steps = grid_size - 1
        a, f = np.divmod(np.arange(grid_size) * total, steps)
        b = a + (f > 0)
        expected = weights[a] + (weights[b] - weights[a]) * (f / steps)
        got = pseudo_null_density(specs, sizes, scale, grid_size).density
        ref = GridDensity.from_density(np.linspace(0, 1, grid_size), expected)
        assert np.array_equal(got.grid, ref.grid)
        assert np.array_equal(got.log_density, ref.log_density)

    def test_fixed_n_design_runs_no_whole_length_inverse(self, monkeypatch):
        # (64, 64) at scale 1e4 reads every 64th of its 1.28e6 indices onto
        # the default grid: only inverse transforms of about 2e4 points run.
        lengths = []
        for name in ("irfft", "ifft"):
            inverse = getattr(priors.fft, name)

            def spy(x, n=None, *args, _inverse=inverse, **kwargs):
                lengths.append(n if n is not None else np.shape(x)[-1])
                return _inverse(x, n, *args, **kwargs)

            monkeypatch.setattr(priors.fft, name, spy)
        specs, sizes = [PriorSpec.uniform()] * 2, [64, 64]
        pd = pseudo_null_density(specs, sizes, grid_size=DEFAULT_DENSITY_GRID)
        monkeypatch.undo()
        total = 10_000 * 128
        assert lengths and max(lengths) < total / 50
        points = np.linspace(0, 1, DEFAULT_DENSITY_GRID)
        ref = np.exp(GridDensity.from_density(
            points,
            np.interp(points, np.arange(total + 1) / total,
                      one_pass_convolution(specs, sizes, 10_000, total)),
        ).log_density)
        np.testing.assert_allclose(
            np.exp(pd.density.log_density), ref, rtol=1e-9, atol=1e-12 * ref.max()
        )

    def test_limit_admits_fixed_n_cells(self):
        # n = 1024 at the default scale: criterion 6 and the gap benchmark.
        assert 10_000 * 1024 + 1 <= MAX_PSEUDO_POINTS

    @pytest.mark.parametrize(
        "specs, sizes, scale",
        [
            # Repeated (prior, size) pairs of unequal sizes, past FFT_THRESHOLD.
            (
                [PriorSpec.uniform(), PriorSpec.uniform(), PriorSpec.from_beta(2, 3),
                 PriorSpec.uniform(), PriorSpec.from_beta(2, 3), PriorSpec.nml()],
                [3, 3, 5, 3, 5, 4],
                500,
            ),
            # Below FFT_THRESHOLD, where the left fold sums in log space.
            ([PriorSpec.uniform(), PriorSpec.from_beta(2, 3), PriorSpec.uniform()],
             [3, 5, 3], 10),
            # Beta(<1) priors: the endpoint cells are clipped.
            ([PriorSpec.from_beta(0.5, 0.5)] * 3, [4, 4, 6], 500),
        ],
    )
    def test_one_pass_matches_left_fold(self, specs, sizes, scale):
        pmfs = [induced_group_pmf(s, scale * n) for s, n in zip(specs, sizes)]
        conv = convolve_all(pmfs)
        total = conv.support_size - 1
        assert (total + 1 > FFT_THRESHOLD) == (scale > 10)
        grid = np.arange(total + 1) / total
        density = conv.weights() * total
        if any(s.kind == "beta" and min(s.alpha, s.beta) < 1 for s in specs):
            grid, density = grid[1:-1], density[1:-1]
        ref = GridDensity.from_density(grid, density)
        got = pseudo_null_density(specs, sizes, scale=scale).density
        np.testing.assert_array_equal(got.grid, ref.grid)
        # Pointwise relative, except in tails near FFT_CLAMP of the peak,
        # where both routes are at the FFT round-off floor.
        ref = np.exp(ref.log_density)
        np.testing.assert_allclose(
            np.exp(got.log_density), ref, rtol=1e-9, atol=1e-12 * ref.max()
        )


class TestFoldedIrfft:
    @pytest.mark.parametrize(
        "length, period, residues",
        [
            (96, 8, [0, 3, 7]),  # even period
            (90, 9, [0, 4, 8]),  # odd period, even length
            (45, 9, [1, 5, 8]),  # odd period, odd length
            # Phases of many turns: e^{2 pi i 511 k2/512} loses 1e-13 unless
            # 511 k2 is reduced mod 512 first.
            (65536, 512, [0, 255, 511]),
            (90, 9, [-1]),  # wraps: index 9q - 1 mod 90
        ],
    )
    def test_matches_irfft_at_the_sampled_indices(self, length, period, residues):
        rng = np.random.default_rng(length + period)
        spectrum = fft.rfft(rng.random(length))
        full = fft.irfft(spectrum, length)
        got = _folded_irfft(spectrum, length, period, residues)
        q = np.arange(length // period)
        expected = np.array([full[(period * q + r) % length] for r in residues])
        # An FFT route's error: a few units of round-off of the peak per
        # level of the transform.
        tol = 4 * np.log2(length) * np.finfo(float).eps * np.abs(full).max()
        np.testing.assert_allclose(got, expected, rtol=0, atol=tol)


class TestDirectConvolutionDensity:
    def test_matches_high_resolution_for_betas(self):
        specs = [PriorSpec.from_beta(2, 2)] * 2
        hr = pseudo_null_density(specs, [5, 5], scale=2000, grid_size=2001)
        dc = direct_convolution_density(specs, grid_size=2001)
        interp = np.interp(dc.grid, hr.density.grid, np.exp(hr.density.log_density))
        assert np.max(np.abs(interp - np.exp(dc.log_density))) < 0.02

    def test_mean_density_integrates_to_one(self):
        dc = direct_convolution_density(
            [PriorSpec.from_beta(1, 1), PriorSpec.from_beta(3, 2)], grid_size=4001
        )
        assert np.trapezoid(np.exp(dc.log_density), dc.grid) == pytest.approx(
            1.0, abs=1e-8
        )

    def test_unbounded_rejected(self):
        with pytest.raises(ValueError, match="unbounded"):
            direct_convolution_density(
                [PriorSpec.from_beta(0.5, 0.5)] * 2, grid_size=101
            )

    def test_non_beta_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            direct_convolution_density([PriorSpec.nml()] * 2, grid_size=101)

    def test_single_group_rejected(self):
        with pytest.raises(ValueError):
            direct_convolution_density([PriorSpec.from_beta(1, 1)], grid_size=101)


import math
import tracemalloc
from collections import Counter

import mpmath
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
    FFT_CLAMP,
    FFT_THRESHOLD,
    MAX_BYTES,
    Pmf,
    convolve_all,
    log_beta_fn,
    log_binomial_row,
    log_sum_exp,
)
from maxent_evalues.priors import (
    DEFAULT_DENSITY_GRID,
    DEFAULT_SCALE,
    PriorSpec,
    _folded_irfft,
    _induced_log_weights,
    induced_group_pmf,
    pseudo_atoms,
)
from oracles import (
    assert_quadrature_of,
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

    def test_large_parameters_refused_past_their_precision(self):
        # At the bound the induced log weights of beta(a, a) at n = 50 are
        # within 1e-8 of their 40-digit values; just past it the prior is
        # refused, and far past it (1e300) the pmf was silently wrong.
        n, a = 50, 1e6
        got = _induced_log_weights(PriorSpec.from_beta(a, a), n)
        with mpmath.workdps(40):
            a_ = mpmath.mpf(a)
            exact = [mpmath.log(mpmath.binomial(n, j)) + mpmath.log(mpmath.beta(j + a_, n - j + a_))
                     - mpmath.log(mpmath.beta(a_, a_)) for j in range(n + 1)]
        err = max(abs(float(e - g)) for e, g in zip(exact, got))
        assert err < 1e-8
        for params in ((math.nextafter(a, math.inf), 2.0), (2.0, 1e300)):
            with pytest.raises(ValueError, match="above 1e6"):
                PriorSpec.from_beta(*params)

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

    @pytest.mark.parametrize("spec", GROUP_PRIORS[1:], ids=PriorSpec.describe)
    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 1001])
    def test_blocks_match_the_whole_array(self, monkeypatch, spec, n):
        # Built in blocks of 3 points, each with its mirror, into a slice of
        # a longer buffer: the same bits as the build in one block.
        want = _induced_log_weights(spec, n)
        monkeypatch.setattr(priors, "_BLOCK_POINTS", 3)
        buf = np.zeros(n + 5)
        got = _induced_log_weights(spec, n, out=buf[: n + 1])
        assert np.shares_memory(got, buf)
        assert np.array_equal(buf[: n + 1], want)
        assert not buf[n + 1 :].any()

    @pytest.mark.parametrize("spec", GROUP_PRIORS, ids=PriorSpec.describe)
    def test_high_resolution_weights(self, spec):
        # What pseudo_atoms transforms, normalized only at the end.
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
        w0 = convolve_all(pmfs)
        w = w0.weights()
        assert w0.support_size == 19
        for n1 in range(19):
            assert w[n1] == pytest.approx(
                uniform_convolution_closed_form([8, 10], n1), abs=1e-15
            )

    def test_symmetry(self):
        pmfs = [induced_group_pmf(PriorSpec.from_beta(2, 2), n) for n in (4, 6)]
        w = convolve_all(pmfs).weights()
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
        w = convolve_all(pmfs).weights()
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
        w = convolve_all([uniform_pmf(n) for n in sizes]).weights()
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
        # The mean of two uniforms has the triangle density 4 min(p, 1 - p),
        # peak 2; the atoms carry it within 0.01 everywhere.
        atoms = pseudo_atoms([PriorSpec.uniform()] * 2, [4, 4], 500, None)
        grid = np.arange(4001) / 4000
        assert_quadrature_of(atoms, grid, 4 * np.minimum(grid, 1 - grid), atol=0.005)

    def test_resampling(self):
        grid, log_w = pseudo_atoms([PriorSpec.uniform()] * 2, [4, 4], 1000, 501)
        assert grid.size == log_w.size == 501

    def test_atoms_are_a_trapezoid_rule(self):
        # The weights sum to 1, and where the density is flat (one uniform
        # group, whole or resampled) each end atom carries half an interior
        # atom's weight.
        for spec, sizes, scale, grid_size, flat in [
            (PriorSpec.uniform(), [3], 10, None, True),
            (PriorSpec.uniform(), [4], 1000, 501, True),
            (PriorSpec.from_beta(2, 3), [4, 6], 1000, 2001, False),
            (PriorSpec.nml(), [5, 5], 10, None, False),
        ]:
            _, log_w = pseudo_atoms([spec] * len(sizes), sizes, scale, grid_size)
            w = np.exp(log_w)
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
            if flat:
                np.testing.assert_allclose(2 * w[[0, -1]], w[1], rtol=1e-13)
                np.testing.assert_allclose(w[1:-1], w[1], rtol=1e-13)

    @pytest.mark.parametrize("value", [0.0, math.inf, math.nan])
    def test_a_zero_or_non_finite_integral_refused(self, monkeypatch, value):
        # The closed count read as value at every point: no atom has a
        # finite weight, so the atoms are refused.
        monkeypatch.setattr(priors, "_box_counts",
                            lambda boxes, length: lambda points: np.full(points.shape, value))
        with pytest.raises(ValueError, match="^density integrates to zero$"):
            pseudo_atoms([PriorSpec.uniform()] * 2, [3, 3], 100, None)

    def test_boundary_clipping_for_small_beta(self):
        grid, _ = pseudo_atoms([PriorSpec.from_beta(0.5, 0.5)] * 2, [3, 3], 200, None)
        # Endpoint cells dropped: grid excludes 0 and 1 exactly.
        assert grid[0] > 0
        assert grid[-1] < 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            pseudo_atoms([PriorSpec.uniform()], [3, 3], 100, None)

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError, match="no groups"):
            pseudo_atoms([], [], 100, None)
        with pytest.raises(ValueError, match="at least 1"):
            pseudo_atoms([PriorSpec.uniform()] * 2, [-5, 3], 100, None)

    def test_small_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            pseudo_atoms([PriorSpec.uniform()] * 2, [3, 3], 5, None)

    def test_too_large_rejected_before_building(self):
        # 2e10 points: without the budget this fails at allocation.
        with pytest.raises(ValueError, match="of 20000000001 points .* past the budget"):
            pseudo_atoms([PriorSpec.uniform()] * 2, [10**6] * 2, DEFAULT_SCALE, None)

    def test_unresampled_build_refused_past_its_limit(self, monkeypatch):
        # 80 bytes a point without a resample against 56 with one: 1.4e7
        # points resampled pass the budget, kept whole they do not.
        def built(*args):
            raise AssertionError("built before the size was checked")

        specs, sizes = [PriorSpec.uniform()] * 2, [700, 700]
        assert 56 * (14 * 10**6 + 1) < MAX_BYTES < 80 * (14 * 10**6 + 1)
        with monkeypatch.context() as patch:
            # Neither route may start: not the spectrum, not the closed form.
            patch.setattr(priors, "_one_pass_spectrum", built)
            patch.setattr(priors, "_box_counts", built)
            for grid_size in (None, 14 * 10**6 + 1):
                with pytest.raises(ValueError, match="past the budget.*--density-grid"):
                    pseudo_atoms(specs, sizes, DEFAULT_SCALE, grid_size)
        # A resampled build of a design of 1e7 points is admitted, and returns
        # its atoms on the default grid.
        grid, log_w = pseudo_atoms(specs, [500, 500], DEFAULT_SCALE, DEFAULT_DENSITY_GRID)
        assert np.array_equal(grid, np.linspace(0, 1, DEFAULT_DENSITY_GRID))
        assert np.isfinite(log_w).all()

    @pytest.mark.parametrize("grid_size", [None, 501, DEFAULT_DENSITY_GRID])
    def test_flat_beta_builds_as_the_uniform_prior(self, grid_size):
        # beta(1,1) is the uniform prior; its high-resolution weights are the
        # exact constant ones, not gammaln's round-off of them.
        # Ten groups are transformed rather than counted: both spellings
        # build alike on that route too.
        flat, uniform = PriorSpec.from_beta(1, 1), PriorSpec.uniform()
        for sizes in ([6, 6], [3, 8], [1] * 10):
            got = pseudo_atoms([flat] * len(sizes), sizes, 1000, grid_size)
            ref = pseudo_atoms([uniform] * len(sizes), sizes, 1000, grid_size)
            assert np.array_equal(got[0], ref[0])
            assert np.array_equal(got[1], ref[1])

    @pytest.mark.parametrize(
        "spec, sizes, scale, grid_size",
        [
            # Folded: every resampled point on one residue mod 16.
            (PriorSpec.uniform(), [4, 4], 1000, 501),
            (PriorSpec.from_beta(0.5, 0.5), [3, 5], 10, 7),
            (PriorSpec.nml(), [3], 10, 30),
            (PriorSpec.from_beta(0.5, 2), [3], 10, 28),
            # Not resampled: every high-resolution point is kept. Beta(2,2),
            # which goes through rfft as the oracle does, so that the grid is
            # read bit for bit; uniform groups take their closed form
            # (test_uniform_density_matches_exact_counts).
            (PriorSpec.from_beta(0.5, 2), [3], 10, 29),
            (PriorSpec.from_beta(2, 2), [4, 6], 10, None),
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
        atoms = pseudo_atoms(specs, sizes, scale, grid_size)
        total = scale * sum(sizes)
        weights = one_pass_convolution(specs, sizes, scale, total)
        grid = np.arange(total + 1) / total
        if spec.kind == "beta" and min(spec.alpha, spec.beta) < 1:
            grid, weights = grid[1:-1], weights[1:-1]
        resampled = grid_size is not None and grid.size > grid_size
        if resampled:
            points = np.linspace(grid[0], grid[-1], grid_size)
            grid, weights = points, np.interp(points, grid, weights)
        if not resampled:
            assert_quadrature_of(atoms, grid, weights)
            return
        # Resampled points are read with linear weights at integer positions,
        # from a folded inverse where the period allows: equal up to round-off,
        # the tolerance of test_one_pass_matches_left_fold.
        assert_quadrature_of(atoms, grid, weights, rtol=1e-9, atol=1e-12)

    def test_non_smooth_period_takes_the_whole_inverse(self):
        # 12 + 17 = 29: the points read repeat every 29 indices, and 29 * Q
        # is never a fast length, so the whole inverse runs; its points are
        # read with the same linear weights, bit for bit. Beta(2,2) goes
        # through rfft as the oracle does.
        specs, sizes, scale = [PriorSpec.from_beta(2, 2)] * 2, [12, 17], 1000
        grid_size = 2001
        total = scale * 29
        weights = one_pass_convolution(specs, sizes, scale, total)
        steps = grid_size - 1
        a, f = np.divmod(np.arange(grid_size) * total, steps)
        b = a + (f > 0)
        expected = weights[a] + (weights[b] - weights[a]) * (f / steps)
        got = pseudo_atoms(specs, sizes, scale, grid_size)
        assert_quadrature_of(got, np.linspace(0, 1, grid_size), expected)

    def test_fixed_n_design_runs_no_whole_length_inverse(self, monkeypatch):
        # (64, 64) at scale 1e4 reads 2 x 20001 of its 1.28e6 indices onto
        # the default grid: they are counted in closed form, and no inverse
        # transform runs, of any length.
        lengths = []
        for name in ("irfft", "ifft"):
            inverse = getattr(priors.fft, name)

            def spy(x, n=None, *args, _inverse=inverse, **kwargs):
                lengths.append(n if n is not None else np.shape(x)[-1])
                return _inverse(x, n, *args, **kwargs)

            monkeypatch.setattr(priors.fft, name, spy)
        specs, sizes = [PriorSpec.uniform()] * 2, [64, 64]
        atoms = pseudo_atoms(specs, sizes, DEFAULT_SCALE, DEFAULT_DENSITY_GRID)
        monkeypatch.undo()
        total = 10_000 * 128
        assert lengths == []
        points = np.linspace(0, 1, DEFAULT_DENSITY_GRID)
        weights = np.interp(points, np.arange(total + 1) / total,
                            one_pass_convolution(specs, sizes, 10_000, total))
        assert_quadrature_of(atoms, points, weights, rtol=1e-9, atol=1e-12)

    def test_limit_admits_fixed_n_cells(self):
        # n = 1024 at the default scale and grid: criterion 6 and the gap
        # benchmark, up to eight groups of distinct priors.
        specs = [PriorSpec.from_beta(0.5, 3), PriorSpec.nml()] * 4
        for k in (1, 2, 4, 8):
            *_, resample = priors._lattice(specs[:k], [1024 // k] * k, DEFAULT_SCALE,
                                           DEFAULT_DENSITY_GRID)
            assert resample

    @pytest.mark.parametrize(
        "sizes, scale, grid_size",
        [
            ([4, 6], 10, None),
            ([4, 6], 10, 51),
            ([12, 17], 1000, None),
            ([12, 17], 1000, 2001),  # the whole inverse
            ([3, 3, 3], 1000, None),
            ([3, 3, 3], 1000, 2001),  # folded
            ([1] * 8, 10_000, None),
            ([1] * 8, 10_000, DEFAULT_DENSITY_GRID),  # 8 equal groups
            ([2, 1], 10_000, 2001),  # two to one
            # Ten equal groups, too many for the closed count: transformed.
            ([1] * 10, 1000, None),
            ([1] * 10, 1000, 2001),
        ],
    )
    def test_uniform_density_matches_exact_counts(self, sizes, scale, grid_size):
        # Uniform groups are boxes of ones, counted in closed form
        # (_box_counts) or transformed as any other group; the oracle counts
        # them exactly in integers.
        scaled = [scale * n for n in sizes]
        total = sum(scaled)
        exact = np.array([uniform_convolution_closed_form(scaled, c) for c in range(total + 1)])
        # Cells below FFT_CLAMP of the peak are zeroed, as the FFT route
        # zeroes them: 432 of the 80001 cells of eight groups.
        clamped = exact < FFT_CLAMP * exact.max()
        grid = np.arange(total + 1) / total
        if grid_size is not None and total + 1 > grid_size:
            points = np.linspace(0, 1, grid_size)
            grid, exact = points, np.interp(points, grid, exact)
        got = pseudo_atoms([PriorSpec.uniform()] * len(sizes), sizes, scale, grid_size)
        # The bound of TestFoldedIrfft: an FFT route's round-off of the peak.
        length = fft.next_fast_len(total + 1, real=True)
        assert_quadrature_of(got, grid, exact, atol=4 * np.log2(length) * np.finfo(float).eps)
        # The closed count zeroes exactly the cells the oracle puts below the
        # clamp; the FFT route's round-off can move a cell across it.
        counted = priors._box_counts(Counter(n + 1 for n in scaled), length) is not None
        if grid_size is None and counted:
            assert np.array_equal(np.isneginf(got[1]), clamped)

    @pytest.mark.parametrize(
        "sizes, scale, closed",
        [
            ([64, 64], 10_000, True),
            ([2, 1], 10_000, True),
            ([1] * 8, 10_000, True),
            # Two more equal groups: the alternating sum at the centre
            # cancels too much (terms 35 times the peak, against 16 at 8).
            ([1] * 10, 10_000, False),
            # test_uniform_whole_inverse_holds_its_spectrum_and_inverse.
            ([24, 34] * 5, 10_000, False),
            # test_many_groups_stay_finite's uniform case.
            ([1] * 120, 1000, False),
            # test_uniform_density_matches_exact_counts's ten groups.
            ([1] * 10, 1000, False),
        ],
    )
    def test_route_follows_the_rounding_bound(self, monkeypatch, sizes, scale, closed):
        # The closed form runs where its rounding bound at the centre is
        # within the FFT route's, 4 log2(L) eps of the peak; otherwise the
        # spectrum runs.
        routes = []
        for name in ("_box_counts", "_one_pass_spectrum"):
            builder = getattr(priors, name)

            def spy(*args, _name=name, _builder=builder):
                result = _builder(*args)
                routes.append((_name, result is not None))
                return result

            monkeypatch.setattr(priors, name, spy)
        pseudo_atoms([PriorSpec.uniform()] * len(sizes), sizes, scale, DEFAULT_DENSITY_GRID)
        if closed:
            assert routes == [("_box_counts", True)]
        else:
            assert routes == [("_box_counts", False), ("_one_pass_spectrum", True)]

    def test_non_uniform_designs_take_the_spectrum(self, monkeypatch):
        def counted(*args):
            raise AssertionError("a non-uniform design was counted as boxes")

        monkeypatch.setattr(priors, "_box_counts", counted)
        beta = PriorSpec.from_beta(2, 2)
        for specs in ([beta] * 2, [PriorSpec.uniform(), beta], [PriorSpec.nml()] * 2):
            pseudo_atoms(specs, [4, 4], 1000, 501)

    def test_rfft_runs_once_per_non_uniform_pair(self, monkeypatch):
        calls = []
        rfft = priors.fft.rfft

        def spy(x, *args, **kwargs):
            calls.append(np.shape(x))
            return rfft(x, *args, **kwargs)

        monkeypatch.setattr(priors.fft, "rfft", spy)
        flat, beta, nml = PriorSpec.from_beta(1, 1), PriorSpec.from_beta(2, 2), PriorSpec.nml()
        # Counted: no transform runs.
        pseudo_atoms([PriorSpec.uniform(), flat, PriorSpec.uniform()], [3, 5, 4], 100, None)
        assert calls == []
        # (uniform, 3) twice, beta(1,1) being uniform, (beta, 4) twice,
        # (nml, 4) and (beta, 5): four distinct pairs, each transformed once
        # at the final length.
        specs = [PriorSpec.uniform(), beta, beta, nml, beta, flat]
        pseudo_atoms(specs, [3, 4, 4, 4, 5, 3], 100, None)
        length = fft.next_fast_len(100 * 23 + 1, real=True)
        assert calls == [(length,)] * 4

    @staticmethod
    def _traced_peak(sizes, scale):
        tracemalloc.start()
        try:
            pseudo_atoms([PriorSpec.uniform()] * len(sizes), sizes, scale, DEFAULT_DENSITY_GRID)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("sizes", [(512, 512), (683, 341), (120, 170)])
    def test_uniform_build_holds_only_its_spectrum(self, sizes):
        # Counted in closed form at the 2 x 20001 points the resample reads,
        # whatever their period: no full-length array is built (1.84 MiB
        # traced, 0.19 bytes a point at (512, 512)), where an rfft of each
        # distinct size would hold 16 and 24.
        assert self._traced_peak(sizes, 10_000) < 10_000 * sum(sizes) + 1

    def test_uniform_whole_inverse_holds_its_spectrum_and_inverse(self):
        # Ten groups, whose alternating sum cancels too much for the closed
        # count, are transformed. 5 x (24 + 34) = 290: the points read repeat
        # every 145 indices, and 145 * Q is never a fast length, so the whole
        # inverse runs. Two distinct pairs: the product of spectra, 8 bytes a
        # point, the second pair's zero-padded buffer, 8, and its spectrum, 8;
        # the inverse then writes 8 over the spent buffers (24.36 traced).
        # One more full-length array would add 8.
        points = 10_000 * 290 + 1
        assert self._traced_peak((24, 34) * 5, 10_000) < 25 * points

    @pytest.mark.parametrize("spec", [PriorSpec.from_beta(2, 2), PriorSpec.nml()],
                             ids=PriorSpec.describe)
    def test_one_group_build_holds_its_buffer_and_spectrum(self, spec):
        # The log weights are built in blocks in the rfft's zero-padded
        # buffer, so the peak is that buffer and its spectrum, 16 bytes a
        # point; whole-array weights took 24 (beta) and 32 (NML).
        points = 10_000 * 1024 + 1
        tracemalloc.start()
        try:
            pseudo_atoms([spec], [1024], DEFAULT_SCALE, DEFAULT_DENSITY_GRID)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 18 * points

    @pytest.mark.parametrize(
        "spec, groups, scale",
        [
            (PriorSpec.uniform(), 120, 1000),
            (PriorSpec.from_beta(2, 2), 120, 1000),
            # 1200 equal NML groups: scaled by a power of two, the factor's
            # k = 0 term is still 2^0.22, whose 1200th power overflows.
            (PriorSpec.nml(), 1200, 10),
        ],
    )
    def test_many_groups_stay_finite(self, spec, groups, scale):
        # Unscaled, the product's k = 0 term is the product of the groups'
        # weight sums, about 1001^120 for uniform groups at scale 1000, past
        # the largest float.
        got = pseudo_atoms([spec] * groups, [1] * groups, scale, None)
        assert np.isfinite(np.exp(got[1])).all()
        total = groups * scale
        conv = convolve_all([induced_group_pmf(spec, scale)] * groups)
        # The tolerance of test_one_pass_matches_left_fold.
        assert_quadrature_of(got, np.arange(total + 1) / total, conv.weights() * total,
                             rtol=1e-9, atol=1e-12)

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
        got = pseudo_atoms(specs, sizes, scale, None)
        # Pointwise relative, except in tails near FFT_CLAMP of the peak,
        # where both routes are at the FFT round-off floor.
        assert_quadrature_of(got, grid, density, rtol=1e-9, atol=1e-12)


FOLD_CASES = [
    (96, 8, [0, 3, 7]),  # even period
    (90, 9, [0, 4, 8]),  # odd period, even length
    (45, 9, [1, 5, 8]),  # odd period, odd length
    # Phases of many turns: e^{2 pi i 511 k2/512} loses 1e-13 unless 511 k2
    # is reduced mod 512 first.
    (65536, 512, [0, 255, 511]),
    (90, 9, [-1]),  # wraps: index 9q - 1 mod 90
    # Eight residues, the most the folded inverse takes.
    (194400, 32, [0, 3, 4, 9, 16, 22, 27, 31]),
]


def _check_fold(spectrum, length, period, residues):
    full = fft.irfft(spectrum, length)
    got = _folded_irfft(spectrum, length, period, residues)
    q = np.arange(length // period)
    expected = np.array([full[(period * q + r) % length] for r in residues])
    # An FFT route's error: a few units of round-off of the peak per level of
    # the transform.
    tol = 4 * np.log2(length) * np.finfo(float).eps * np.abs(full).max()
    np.testing.assert_allclose(got, expected, rtol=0, atol=tol)


class TestPower:
    @staticmethod
    def spectrum(points):
        rng = np.random.default_rng(30)
        return rng.standard_normal(points) + 1j * rng.standard_normal(points)

    @pytest.mark.parametrize("count", [1, 2, 3, 5, 10, 16])
    def test_within_round_off_of_repeated_multiplication(self, count):
        x = self.spectrum(4096)
        expected = x.copy()
        for _ in range(count - 1):
            expected *= x
        got = priors._power(x, count)
        assert got is x
        # Each product rounds a complex multiply, a few eps, at most count
        # times over.
        np.testing.assert_allclose(got, expected, rtol=4 * count * np.finfo(float).eps)

    @pytest.mark.parametrize("count", [3, 5, 10, 16])
    def test_holds_no_second_full_length_array(self, count):
        x = self.spectrum(1 << 20)
        tracemalloc.start()
        try:
            priors._power(x, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes / 8


class TestFoldedIrfft:
    @pytest.mark.parametrize("length, period, residues", FOLD_CASES)
    def test_matches_irfft_at_the_sampled_indices(self, length, period, residues):
        rng = np.random.default_rng(length + period)
        _check_fold(fft.rfft(rng.random(length)), length, period, residues)


class TestDirectConvolutionDensity:
    def test_matches_high_resolution_for_betas(self):
        specs = [PriorSpec.from_beta(2, 2)] * 2
        # Both on the same 2001-point grid; the density peaks at 2.4, so the
        # atoms carry it within 0.02.
        hr = pseudo_atoms(specs, [5, 5], 2000, 2001)
        assert_quadrature_of(hr, *direct_convolution_density(specs, grid_size=2001),
                             atol=0.02 / 2.4)

    def test_mean_density_integrates_to_one(self):
        grid, density = direct_convolution_density(
            [PriorSpec.from_beta(1, 1), PriorSpec.from_beta(3, 2)], grid_size=4001
        )
        assert np.trapezoid(density, grid) == pytest.approx(1.0, abs=1e-8)

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


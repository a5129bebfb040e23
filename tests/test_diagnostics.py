import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxent_evalues.diagnostics import (
    cells_n_fixed,
    cells_power_law,
    e_powers,
    fit_log_slope,
    gap_r,
    gap_r_prime,
    regret,
    regret_curve,
    theorem1_diagnostic,
    worst_case_r_prime,
)
from maxent_evalues import diagnostics, evariables
from maxent_evalues.cli import main
from maxent_evalues.evariables import Statistic, e_power
from maxent_evalues.numerics import MAX_BYTES, binomial_pmf
from maxent_evalues.priors import (
    DEFAULT_DENSITY_GRID,
    DEFAULT_SCALE,
    PriorSpec,
    induced_group_pmf,
    null_optimal_prior,
    parse_prior,
)
from oracles import (
    gaussian_approx_tv,
    kl_divergence,
    pseudo_e_power,
    pseudo_null_quadrature,
    redundancy,
)


# The pseudo density's scale in these tests: a fifth of the default.
SCALE = 2000


def reference_worst_case_r_prime(specs, sizes, scale, grid_step=0.02,
                                 bounds=(0.02, 0.98)):
    """The worst-case search as a recursion over the grid, one convolution
    and one dot product a point: the arithmetic worst_case_r_prime must
    reproduce bit for bit."""
    lo, hi = bounds
    sizes = list(sizes)
    k = len(sizes)
    _, gap = diagnostics._count_term_gap(specs, sizes, scale, DEFAULT_DENSITY_GRID)
    axis = np.arange(lo, hi + grid_step / 2, grid_step)
    best = -np.inf
    best_point = ()
    per_group = [[binomial_pmf(n, p).weights() for p in axis] for n in sizes]

    def recurse(depth, conv, point):
        nonlocal best, best_point
        if depth == k:
            val = float(np.dot(conv, gap))
            if val > best:
                best = val
                best_point = point
            return
        for p, w in zip(axis, per_group[depth]):
            recurse(depth + 1, np.convolve(conv, w), point + (float(p),))

    recurse(0, np.array([1.0]), ())
    return best, best_point


class TestGapR:
    def test_nonnegative(self):
        priors = [PriorSpec.uniform()] * 2
        assert gap_r(priors, (8, 8), SCALE) >= -1e-10

    def test_equals_epower_difference(self):
        priors = [PriorSpec.from_beta(2, 2)] * 2
        sizes = (5, 5)
        r = gap_r(priors, sizes, SCALE)
        gp = [induced_group_pmf(s, n) for s, n in zip(priors, sizes)]
        mic = e_power(Statistic.mic(sizes, priors), gp)
        pse = pseudo_e_power(priors, sizes, gp, SCALE)
        assert r == pytest.approx(pse - mic, abs=1e-10)

    def test_decreases_with_m(self):
        priors = [PriorSpec.uniform()] * 2
        values = []
        for m in (10, 20, 40):
            sizes = (m, m)
            values.append(gap_r(priors, sizes, SCALE))
        assert values[0] > values[1] > values[2]

    def test_report_metadata(self, capsys):
        # gap_r returns r alone; the gap command's report carries its inputs.
        code = main(["gap", "--sizes", "4,6", "--prior", "uniform", "nml",
                     "--scale", "2000"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["sizes"] == [4, 6]
        assert payload["priors"] == ["uniform", "nml"]
        priors = [PriorSpec.uniform(), PriorSpec.nml()]
        assert payload["r"] == gap_r(priors, (4, 6), SCALE)


# ROADMAP finding 4's ledger: gap_r at the default scale and density grid
# against r from the pseudo null's 2-D quadrature (oracles). Measured
# relative errors: uniform (10, 10) +2.1e-4, beta(3,3) (60, 40) +2.4e-3,
# NML (10, 10) -0.67% and NML (40, 40) -0.92%.
NML_BIAS = pytest.mark.xfail(strict=True, reason=(
    "ROADMAP finding 4: the pseudo density reads NML's Beta(1/2, 1/2) limit "
    "pointwise at its end cells and its log singularity, so r is 0.67-0.92% "
    "low; item 10 (exact cell masses) is the mend"))
GAP_LEDGER = [
    pytest.param("uniform", (10, 10), 3e-4, id="uniform-10,10"),
    pytest.param("beta:3,3", (60, 40), 3e-3, id="beta33-60,40"),
    pytest.param("nml", (10, 10), 1e-3, id="nml-10,10", marks=NML_BIAS),
    pytest.param("nml", (40, 40), 1e-3, id="nml-40,40", marks=NML_BIAS),
]


class TestGapLedger:
    @pytest.mark.parametrize("label, sizes, bound", GAP_LEDGER)
    def test_r_against_the_quadrature(self, label, sizes, bound):
        specs = [parse_prior(label)] * 2
        log_w0 = Statistic.mic(sizes, specs).null
        oracle = float(np.dot(np.exp(log_w0), log_w0 - pseudo_null_quadrature(specs, sizes)))
        assert abs(gap_r(specs, sizes) / oracle - 1) <= bound


# The nine cells of acceptance criterion 4.
SANDWICH_CELLS = [((m, m), label) for label in ("beta:1,1", "beta:3,3", "nml")
                  for m in (5, 10, 20)]


class TestPseudoIsMicPlusTheGap:
    """ROADMAP finding 8: the pseudo null goes with mic's group terms, so its
    e-power is mic's plus r under the Bayes marginal and mic's plus r'(p)
    under a point alternative p. The oracle sums the pseudo statistic as one
    statistic, as the library did before it read pseudo this way."""

    @pytest.mark.parametrize("sizes, label", SANDWICH_CELLS,
                             ids=[f"{m}-{label}" for (m, _), label in SANDWICH_CELLS])
    def test_gap_r_is_the_e_power_gain(self, sizes, label):
        priors = [parse_prior(label)] * 2
        gp = [induced_group_pmf(s, n) for s, n in zip(priors, sizes)]
        oracle = pseudo_e_power(priors, sizes, gp)
        got = e_power(Statistic.mic(sizes, priors), gp) + gap_r(priors, sizes)
        assert abs(got - oracle) <= 1e-12 * abs(oracle)

    def test_e_powers_reads_pseudo_as_mic_plus_r(self):
        priors, sizes = [PriorSpec.nml()] * 2, (4, 6)
        powers, _ = e_powers(priors, sizes, grid_size=101, tol=1e-8)
        assert powers["pseudo"] == powers["mic"] + gap_r(priors, sizes)
        gp = [induced_group_pmf(s, n) for s, n in zip(priors, sizes)]
        oracle = pseudo_e_power(priors, sizes, gp)
        assert abs(powers["pseudo"] - oracle) <= 1e-12 * abs(oracle)

    def test_regret_reads_pseudo_as_mic_plus_r_prime(self):
        p_alt, priors, sizes = (0.3, 0.6), [PriorSpec.from_beta(3, 3)] * 2, (6, 9)
        value = regret(p_alt, priors, sizes, "pseudo", grid_size=101, tol=1e-8)
        binomials = [binomial_pmf(n, p) for n, p in zip(sizes, p_alt)]
        point = e_power(Statistic.point(sizes, p_alt, grid_size=101, tol=1e-8), binomials)
        oracle = pseudo_e_power(priors, sizes, binomials)
        assert abs(value - (point - oracle)) <= 1e-12 * max(abs(point), abs(oracle))

    def test_e_power_sees_only_e_variables(self, monkeypatch):
        kinds = []
        real = diagnostics.e_power

        def spy(statistic, group_pmfs):
            kinds.append(statistic.kind)
            return real(statistic, group_pmfs)

        monkeypatch.setattr(diagnostics, "e_power", spy)
        priors, sizes, ripr = [PriorSpec.nml()] * 2, (4, 6), {"grid_size": 101, "tol": 1e-8}
        e_powers(priors, sizes, **ripr)
        assert kinds == ["gro_mic", "gro_can"]
        for candidate, kind in (("gro_mic", "gro_mic"), ("gro_can", "gro_can"),
                                ("pseudo", "gro_mic")):
            kinds.clear()
            regret((0.3, 0.6), priors, sizes, candidate, **ripr)
            assert kinds == ["gro_point", kind], candidate


class TestGapRPrime:
    def test_interior_value_decreases_with_m(self):
        priors = [PriorSpec.uniform()] * 2
        vals = []
        for m in (20, 80):
            sizes = (m, m)
            vals.append(gap_r_prime((0.5, 0.5), priors, sizes, SCALE))
        assert vals[1] < vals[0]

    def test_arity(self):
        priors = [PriorSpec.uniform()] * 2
        with pytest.raises(ValueError):
            gap_r_prime((0.5,), priors, (4, 4), SCALE)


class TestChecksBeforeTheDensity:
    """Each diagnostic builds its own pseudo density, after its cheap checks."""

    @pytest.fixture
    def builds(self, monkeypatch):
        builds = []

        def built(*args, **kwargs):
            builds.append(args)
            raise AssertionError("pseudo density built")

        monkeypatch.setattr(evariables, "pseudo_atoms", built)
        return builds

    @pytest.mark.parametrize("call, error", [
        (lambda priors: worst_case_r_prime(priors, (1000, 1000), bounds=(0.9, 0.1)),
         "bounds must satisfy 0 < lo < hi < 1"),
        (lambda priors: worst_case_r_prime(priors, (1000, 1000), grid_step=0.0),
         "grid_step must be positive"),
        (lambda priors: gap_r_prime((0.5, 1.5), priors, (1000, 1000)),
         r"mean parameters must lie in \[0, 1\]"),
        (lambda priors: gap_r_prime((math.nan, 0.5), priors, (1000, 1000)),
         r"mean parameters must lie in \[0, 1\]"),
        (lambda priors: gap_r_prime((0.5,) * 3, priors, (1000, 1000)),
         "expected 2 parameters, got 3"),
    ], ids=["worst-case-bounds", "worst-case-step", "palt-range", "palt-nan", "palt-arity"])
    def test_refused_before_the_density_is_built(self, builds, call, error):
        with pytest.raises(ValueError, match=error):
            call([PriorSpec.nml()] * 2)
        assert builds == []

    def test_the_density_follows_the_settings(self, monkeypatch):
        seen = []
        build = evariables.pseudo_atoms

        def spy(specs, sizes, scale, grid_size):
            seen.append((list(sizes), scale, grid_size))
            return build(specs, sizes, scale, grid_size)

        monkeypatch.setattr(evariables, "pseudo_atoms", spy)
        priors = [PriorSpec.uniform()] * 2
        gap_r(priors, (4, 6), SCALE, 501)
        gap_r_prime((0.3, 0.6), priors, (4, 6))
        assert seen == [([4, 6], SCALE, 501), ([4, 6], DEFAULT_SCALE, DEFAULT_DENSITY_GRID)]


class TestWorstCaseRPrime:
    def test_nonnegative_and_bounded_grid(self):
        priors = [PriorSpec.uniform()] * 2
        sizes = (10, 10)
        value, argmax = worst_case_r_prime(priors, sizes, SCALE)
        assert value >= 0
        assert all(0.02 <= p <= 0.98 for p in argmax)

    def test_dominates_interior_point(self):
        priors = [PriorSpec.uniform()] * 2
        sizes = (10, 10)
        value, _ = worst_case_r_prime(priors, sizes, SCALE)
        assert value >= gap_r_prime((0.5, 0.5), priors, sizes, SCALE) - 1e-12

    def test_deterministic(self):
        priors = [PriorSpec.uniform()] * 2
        sizes = (6, 6)
        a = worst_case_r_prime(priors, sizes, SCALE, grid_step=0.1, bounds=(0.1, 0.9))
        b = worst_case_r_prime(priors, sizes, SCALE, grid_step=0.1, bounds=(0.1, 0.9))
        assert a == b

    def test_bad_bounds(self):
        priors = [PriorSpec.uniform()] * 2
        with pytest.raises(ValueError):
            worst_case_r_prime(priors, (4, 4), SCALE, bounds=(0.0, 0.9))

    @pytest.mark.parametrize("step", [0.0, -0.1, float("nan"), float("inf")])
    def test_bad_grid_step(self, step):
        priors = [PriorSpec.uniform()] * 2
        with pytest.raises(ValueError, match="grid_step must be positive"):
            worst_case_r_prime(priors, (4, 4), SCALE, grid_step=step)

    @pytest.mark.parametrize(
        "sizes, step",
        [
            ((4, 4), 1e-6),  # 960,001^2 points
            ((4,) * 6, 0.02),  # 49^6 = 1.4e10
            ((4,), 1e-5),  # one group of 96,001 points counts as 96,001^2
            ((4, 4), 5e-324),  # the span overflows to inf
            # 9,601^2 points pass, but 9,601 x 100,001 weights (7.2 GiB) do not.
            ((100_000,), 1e-4),
            # Two distinct sizes at 9,601 points: 9,601 x 12,003 weights and
            # 9,601 x 6,001 cells to contract, 1.4 GB; one size's weights
            # alone would pass.
            ((6_000, 6_001), 1e-4),
        ],
    )
    def test_refuses_a_grid_beyond_the_limit(self, monkeypatch, sizes, step):
        def built(*args):
            raise AssertionError("built before the grid was checked")

        monkeypatch.setattr(diagnostics, "binomial_log_pmfs", built)
        monkeypatch.setattr(diagnostics, "_count_term_gap", built)
        priors = [PriorSpec.uniform()] * len(sizes)
        with pytest.raises(ValueError, match="worst-case grid"):
            worst_case_r_prime(priors, sizes, grid_step=step)

    def test_one_weight_matrix_per_distinct_size(self, monkeypatch):
        calls = []
        kernel = diagnostics.binomial_log_pmfs

        def spy(n, ps):
            calls.append((n, len(ps)))
            return kernel(n, ps)

        def pmf(*args):
            raise AssertionError("a Pmf built per point")

        monkeypatch.setattr(diagnostics, "binomial_log_pmfs", spy)
        monkeypatch.setattr(diagnostics, "binomial_pmf", pmf)
        monkeypatch.setattr(evariables, "binomial_pmf", pmf)
        priors = [PriorSpec.uniform()] * 3
        options = {"grid_step": 0.1, "bounds": (0.1, 0.9)}
        value = worst_case_r_prime(priors, (7, 19, 7), SCALE, **options)
        assert calls == [(7, 9), (19, 9)]
        monkeypatch.undo()
        assert value == reference_worst_case_r_prime(priors, (7, 19, 7), SCALE, **options)

    def test_equal_groups_share_their_weights_in_the_limit(self, monkeypatch):
        # 9,601 x 5,001 weights for both groups and as many cells to contract,
        # 800 MB: the budget admits them and the search goes on to the
        # density. A weight matrix a group would be 1.2 GB.
        def density(*args):
            raise RuntimeError("checks passed")

        monkeypatch.setattr(diagnostics, "_count_term_gap", density)
        with pytest.raises(RuntimeError, match="checks passed"):
            worst_case_r_prime([PriorSpec.uniform()] * 2, (5_000, 5_000), grid_step=1e-4)

    def test_refuses_the_first_contraction_past_the_limit(self, monkeypatch):
        # Four groups of 700,000 at scale 10 on the default 49-point axis:
        # the 49 x 700,001 = 3.4e7 weights (274 MB) pass the budget alone,
        # but contracting the last group into the other 2,100,000 trials
        # takes 49 x 2,100,001 = 1.0e8 cells (823 MB) more.
        def built(*args, **kwargs):
            raise AssertionError("built before the contraction was checked")

        monkeypatch.setattr(diagnostics, "_count_term_gap", built)
        monkeypatch.setattr(diagnostics, "binomial_log_pmfs", built)
        assert 8 * 49 * 700_001 < MAX_BYTES
        with pytest.raises(ValueError, match=r"102900049 cells to contract.*--grid-step"):
            worst_case_r_prime([PriorSpec.uniform()] * 4, [700_000] * 4, scale=10)

    def test_admits_the_default_axis_up_to_five_groups(self):
        assert 49**5 <= diagnostics.MAX_WORST_CASE_POINTS < 49**6

    @pytest.mark.parametrize(
        "prior, sizes, scale, options",
        [
            # Six permutations tie in exact arithmetic; the recursion reports
            # the one whose float is largest, not the first.
            (PriorSpec.uniform(), (10, 10, 10), DEFAULT_SCALE, {}),
            (PriorSpec.uniform(), (20, 20), 2000, {}),
            (PriorSpec.uniform(), (7, 19), 2000, {}),
            (PriorSpec.nml(), (4, 9, 6), 2000, {}),
            (PriorSpec.from_beta(2, 3), (8, 12), 2000, {"grid_step": 0.01}),
            (PriorSpec.uniform(), (3, 5, 4, 6), 2000,
             {"grid_step": 0.1, "bounds": (0.15, 0.85)}),
            # The first contraction step, 1 x 1000 x 1001 cells, runs in blocks.
            (PriorSpec.from_beta(2, 2), (999, 1000), 100,
             {"grid_step": 0.05, "bounds": (0.3, 0.7)}),
        ],
        ids=["uniform-10-10-10", "uniform-20-20", "uniform-7-19", "nml-4-9-6",
             "beta-step-0.01", "uniform-k4-bounds", "large-groups"],
    )
    def test_matches_recursion_bit_for_bit(self, prior, sizes, scale, options):
        priors = [prior] * len(sizes)
        expected = reference_worst_case_r_prime(priors, sizes, scale, **options)
        assert worst_case_r_prime(priors, sizes, scale, **options) == expected

    @pytest.mark.parametrize("block_cells", [None, 2000, 1])
    def test_blocks_match_recursion_at_k5(self, monkeypatch, block_cells):
        # At 2000 cells the leading groups run in blocks of prefixes, at 1
        # cell every point is its own block; no block exceeds the limit.
        if block_cells is not None:
            monkeypatch.setattr(diagnostics, "_BLOCK_CELLS", block_cells)
        blocks = []
        leaf_values = diagnostics._leaf_values

        def spy(per_group, gap):
            for start, values in leaf_values(per_group, gap):
                blocks.append(values.size)
                yield start, values

        monkeypatch.setattr(diagnostics, "_leaf_values", spy)
        priors = [PriorSpec.uniform()] * 5
        sizes = (3, 4, 2, 5, 3)
        options = {"grid_step": 0.1, "bounds": (0.05, 0.95)}
        expected = reference_worst_case_r_prime(priors, sizes, SCALE, **options)
        assert worst_case_r_prime(priors, sizes, SCALE, **options) == expected
        assert sum(blocks) == 10**5
        if block_cells is None:
            assert blocks == [10**5]
        else:
            assert len(blocks) > 1
            assert max(blocks) <= block_cells

    def test_large_groups_convolve_one_prefix_a_point_of_the_first(self, monkeypatch):
        # Two groups of about 1000 need 1 x 1000 x 1001 cells to contract the
        # last group in one step, past _BLOCK_CELLS; it is contracted in
        # blocks of counts, so only the first group's P points remain as
        # prefixes, one convolution each, not P^2 pairs.
        axis = np.arange(0.3, 0.71, 0.05)
        per_group = [np.array([binomial_pmf(n, p).weights() for p in axis])
                     for n in (999, 1000)]
        gap = np.random.default_rng(0).standard_normal(2000)
        assert 1000 * 1001 > diagnostics._BLOCK_CELLS
        calls = []
        convolve = np.convolve

        def spy(a, b):
            calls.append(b.size)
            return convolve(a, b)

        monkeypatch.setattr(np, "convolve", spy)
        blocks = list(diagnostics._leaf_values(per_group, gap))
        monkeypatch.undo()
        assert len(calls) <= axis.size
        values = np.concatenate([v for _, v in blocks])
        assert [start for start, _ in blocks] == list(
            np.cumsum([0] + [v.size for _, v in blocks[:-1]]))
        expected = [float(np.dot(np.convolve(a, b), gap))
                    for a, b in itertools.product(*per_group)]
        np.testing.assert_allclose(values, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "step, bounds, axis",
        [(0.3, (0.1, 0.9), (0.1, 0.4, 0.7)), (0.4, (0.3, 0.99), (0.3, 0.7))],
    )
    def test_grid_stops_at_hi(self, step, bounds, axis):
        # np.arange(lo, hi + step / 2, step) runs up to half a step past hi,
        # here to p = 1.0000000000000002 and 1.1; those points are dropped.
        priors = [PriorSpec.uniform()] * 2
        sizes = (5, 5)
        value, argmax = worst_case_r_prime(
            priors, sizes, SCALE, grid_step=step, bounds=bounds
        )
        assert max(argmax) <= bounds[1]
        assert all(any(p == pytest.approx(a) for a in axis) for p in argmax)
        assert value == pytest.approx(max(
            gap_r_prime(q, priors, sizes, SCALE)
            for q in itertools.product(axis, repeat=2)), rel=1e-12)


class TestRegret:
    def test_point_gro_candidate_is_zero(self):
        # Regret of the point-GRO against itself: the gro_can candidate with
        # target equal to the point law reproduces it, so use the identity
        # path via matching solutions.
        p_alt = (0.3, 0.7)
        specs = [PriorSpec.from_beta(1.5, 1.5)] * 2
        value = regret(p_alt, specs, (30, 30), "gro_mic")
        assert value >= -1e-8

    def test_bounded_by_redundancy(self):
        p_alt = (0.3, 0.7)
        specs = [PriorSpec.from_beta(1.5, 1.5)] * 2
        for m in (20, 50):
            reg = regret(p_alt, specs, (m, m), "gro_mic")
            red = redundancy(p_alt, specs, (m, m))
            assert red - reg >= -1e-8

    def test_candidate_kinds(self):
        p_alt = (0.4, 0.6)
        specs = [PriorSpec.uniform()] * 2
        sizes = (15, 15)
        r_mic = regret(p_alt, specs, sizes, "gro_mic")
        r_can = regret(p_alt, specs, sizes, "gro_can")
        r_pse = regret(p_alt, specs, sizes, "pseudo")
        # mic and pseudo share their numerator, so the regret difference is
        # exactly the pointwise gap r' at this alternative (both at the
        # default scale and grid).
        assert r_mic - r_pse == pytest.approx(gap_r_prime(p_alt, specs, sizes), abs=1e-10)
        # The canonical statistic differs from mic only through the null
        # mass at the total count; under an interior alternative the two
        # regrets agree closely.
        assert abs(r_can - r_mic) < 0.01

    def test_unknown_candidate(self):
        with pytest.raises(ValueError, match="candidate"):
            regret((0.5, 0.5), [PriorSpec.uniform()] * 2, (5, 5), "other")


class TestRedundancy:
    def test_is_sum_of_group_divergences(self):
        specs = [PriorSpec.uniform(), PriorSpec.from_beta(2, 2)]
        sizes = (6, 9)
        p_alt = (0.3, 0.8)
        expect = sum(
            kl_divergence(binomial_pmf(n, p), induced_group_pmf(s, n))
            for n, p, s in zip(sizes, p_alt, specs)
        )
        assert redundancy(p_alt, specs, sizes) == pytest.approx(expect, rel=1e-12)

    def test_bic_like_growth(self):
        # Redundancy grows like (d1/2) log m with d1 = 2 for k = 2.
        specs = [PriorSpec.from_beta(1, 1)] * 2
        points = [
            (m, redundancy((0.4, 0.6), specs, (m, m)))
            for m in (100, 200, 400, 800, 1600)
        ]
        a, _, _ = fit_log_slope(points)
        assert 0.75 <= a <= 1.25


class TestFitLogSlope:
    def test_exact_line(self):
        pts = [(m, 0.5 * math.log(m) + 1.0) for m in (10, 20, 40)]
        a, b, resid = fit_log_slope(pts)
        assert a == pytest.approx(0.5, abs=1e-12)
        assert b == pytest.approx(1.0, abs=1e-12)
        assert resid == pytest.approx(0.0, abs=1e-12)

    def test_constant(self):
        a, b, _ = fit_log_slope([(10, 3.0), (100, 3.0), (1000, 3.0)])
        assert a == pytest.approx(0.0, abs=1e-12)
        assert b == pytest.approx(3.0, abs=1e-12)

    def test_known_coefficients(self):
        pts = [(m, 2 * math.log(m) - 3) for m in (10, 100, 1000)]
        a, b, _ = fit_log_slope(pts)
        assert (a, b) == pytest.approx((2.0, -3.0), abs=1e-10)

    def test_degenerate(self):
        with pytest.raises(ValueError):
            fit_log_slope([(10, 1.0), (10, 2.0), (10, 3.0)])


class TestRegretCurve:
    def test_too_few_m_fails_before_solving(self, monkeypatch):
        def solve(*args, **kwargs):
            pytest.fail("ripr_solve called before the m values were checked")

        monkeypatch.setattr(evariables, "ripr_solve", solve)
        with pytest.raises(ValueError, match="at least 3 distinct m values"):
            regret_curve((0.3, 0.6), PriorSpec.uniform(), (10, 20, 20))

    def test_largest_cell_refused_before_solving(self, solves):
        # No cell is solved or built before the largest is refused, by the
        # statement of its design.
        with pytest.raises(ValueError, match=r"a design of 12000000 trials in 2 group\(s\) "
                                             r"needs \d+ bytes, past the budget.*--m-list"):
            regret_curve((0.4, 0.6), PriorSpec.uniform(), (2, 3, 6_000_000), "gro_can")
        assert solves == []
        assert not evariables._designs

    def test_curve_and_fit(self):
        curve = regret_curve((0.4, 0.6), PriorSpec.from_beta(1.5, 1.5), (20, 40, 80))
        assert [m for m, _ in curve.points] == [20, 40, 80]
        assert all(np.isfinite(v) for _, v in curve.points)
        assert np.isfinite(curve.fitted_a)

    def test_curves_share_the_design_memo(self, solves, capsys):
        # The can projection depends on m and the prior, not on the
        # alternative: the second curve finds all three in the design memo.
        prior, ms, alts = PriorSpec.from_beta(3, 3), (20, 40, 80), ((0.2, 0.8), (0.3, 0.7))
        assert main(["regret", "--prior", "beta:3,3", "--candidate", "gro_can",
                     "--palt", "0.2,0.8", "0.3,0.7", "--m-list", "20,40,80"]) == 0
        assert len(json.loads(capsys.readouterr().out)["points"]) == 6

        def target(group_pmfs):
            return null_optimal_prior(group_pmfs).log_weights

        want = []
        for m in ms:
            want += [target([induced_group_pmf(prior, m)] * 2),
                     target([binomial_pmf(m, p) for p in alts[0]])]
        want += [target([binomial_pmf(m, p) for p in alts[1]]) for m in ms]
        assert len(solves) == len(want) == 9
        assert all(np.array_equal(s.log_weights, w) for s, w in zip(solves, want))


class TestTheorem1:
    def test_uniform_matches_aggregation_error(self):
        for m in (40, 200):
            tv = theorem1_diagnostic(PriorSpec.from_beta(1, 1), m, 20)
            assert tv <= 1 / (m + 1) + 1e-12

    def test_beta22_rate(self):
        tv50 = theorem1_diagnostic(PriorSpec.from_beta(2, 2), 50, 20)
        tv400 = theorem1_diagnostic(PriorSpec.from_beta(2, 2), 400, 20)
        assert tv400 < tv50

    def test_nml_interior_agreement_with_jeffreys(self):
        tv = theorem1_diagnostic(PriorSpec.nml(), 400, 20)
        assert tv < 0.05

    def test_bins_validation(self):
        with pytest.raises(ValueError):
            theorem1_diagnostic(PriorSpec.uniform(), 5, 7)
        with pytest.raises(ValueError):
            theorem1_diagnostic(PriorSpec.uniform(), 5, 0)


class TestGaussianTv:
    def test_improves_with_k(self):
        tv5 = gaussian_approx_tv(PriorSpec.uniform(), [10] * 5)
        tv50 = gaussian_approx_tv(PriorSpec.uniform(), [10] * 50)
        assert tv50 < tv5


class TestSweep:
    def test_cell_helpers(self):
        assert cells_n_fixed((2, 4), 16) == ((2, 8), (4, 4))
        with pytest.raises(ValueError):
            cells_n_fixed((3,), 16)
        assert cells_power_law((2, 3)) == ((2, 20), (3, 45))
        # k = 0 divided by zero, and k = -2 built the cell (-2, -4).
        for k in (0, -2):
            with pytest.raises(ValueError, match=f"^k must be at least 1, got {k}$"):
                cells_n_fixed((2, k), 16)
            with pytest.raises(ValueError, match=f"^k must be at least 1, got {k}$"):
                cells_power_law((2, k))

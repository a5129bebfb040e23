import functools
import inspect
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from maxent_evalues import evariables
from maxent_evalues.cli import main
from maxent_evalues.evariables import (
    RIPR_GRID_SIZE,
    RIPR_MAX_ITER,
    RIPR_TOL,
    RiprSolution,
    Statistic,
    decide,
    e_power,
    pseudo_null,
    ripr_solve,
)
from maxent_evalues.models import Table
from maxent_evalues.numerics import (
    MAX_BYTES,
    NEG_INF,
    binomial_pmf,
    convolve_all,
    log_binomial_mixture,
    log_binomial_row,
    log_sum_exp,
)
from maxent_evalues.priors import (
    PriorSpec,
    canonical_priors,
    induced_group_pmf,
    parse_prior,
    pseudo_atoms,
)
from oracles import (
    NETWORK_DYADS,
    NETWORK_PALT,
    TABLE_DESIGNS,
    log_binomial,
    log_equal_uniform_count,
    log_multiplicity,
    log_sup_null_expectation,
    point_alt_count_pmf,
    pseudo_e_power,
    ripr_log_likelihoods,
    trapezoid_atoms,
    uniform_pmf,
)


def exact_null_expectation_micro(sizes, priors, c0):
    """Oracle: E[S | c0] under the uniform distribution on configurations
    with total count c0, by direct enumeration of the group counts."""
    total = 0.0
    for ones in itertools.product(*[range(n + 1) for n in sizes]):
        if sum(ones) != c0:
            continue
        t = Table(tuple(zip(sizes, ones)))
        s = math.exp(Statistic.mic(t.sizes, priors).log_e(t.ones))
        weight = math.exp(
            sum(log_binomial(n, o) for n, o in t.groups)
            - log_binomial(sum(t.sizes), c0)
        )
        total += s * weight
    return total


def log_marginal_alt(table, priors):
    """Bayes marginal log probability of one configuration: the sum of the
    statistics' shared per-group terms."""
    terms = Statistic.mic(table.sizes, priors).group_terms
    return sum(float(a[o]) for a, o in zip(terms, table.ones))


class TestEValueReport:
    """The e-value of one table: Statistic.log_e, and whether its kind is an
    e-variable."""

    def test_log_e_is_difference(self):
        # The decomposed statistic equals the microcanonical ratio of the
        # null and alternative multiplicities times prior masses.
        t = Table(((4, 1), (6, 5)))
        priors = [PriorSpec.from_beta(2, 2)] * 2
        pmfs = [induced_group_pmf(s, n) for s, n in zip(priors, t.sizes)]
        num = log_multiplicity(t, "null") + sum(
            float(p.log_weights[o]) for p, o in zip(pmfs, t.ones)
        )
        den = log_multiplicity(t, "alt") + float(convolve_all(pmfs).log_weights[sum(t.ones)])
        log_e = Statistic.mic(t.sizes, priors).log_e(t.ones)
        assert isinstance(log_e, float)
        assert log_e == pytest.approx(num - den, abs=1e-13)
        assert math.exp(log_e) == pytest.approx(math.exp(num - den), rel=1e-13)

    @pytest.mark.parametrize(
        "ones, group, count", [((-1, 2), 0, -1), ((6, 2), 0, 6), ((2, -3), 1, -3)]
    )
    def test_log_e_refuses_counts_out_of_range(self, ones, group, count):
        # A negative count read the term at the other end of the group's row.
        statistic = Statistic.mic((5, 5), [PriorSpec.uniform()] * 2)
        message = rf"group {group}: count {count} out of range 0\.\.5$"
        with pytest.raises(ValueError, match=message):
            statistic.log_e(ones)

    @pytest.mark.parametrize("counts", [-1, 11, [3, -1]])
    def test_count_term_refuses_totals_out_of_range(self, counts):
        statistic = Statistic.mic((5, 5), [PriorSpec.uniform()] * 2)
        bad = counts[-1] if isinstance(counts, list) else counts
        with pytest.raises(ValueError, match=rf"total count {bad} out of range 0\.\.10$"):
            statistic.count_term(counts)

    @pytest.mark.parametrize("counts, total", [
        (1e30, int(1e30)), ([1e30], int(1e30)), (10**30, 10**30),
    ])
    def test_count_term_names_a_huge_total(self, counts, total):
        # Cast to int64, 1e30 was named as -9223372036854775808 and 10**30
        # as not an integer.
        statistic = Statistic.mic((5, 5), [PriorSpec.uniform()] * 2)
        with pytest.raises(ValueError, match=rf"^total count {total} out of range 0\.\.10$"):
            statistic.count_term(counts)

    @pytest.mark.parametrize("ones, group, bad", [
        ((2.7, 3), 0, 2.7), ((True, 3), 0, True), ((2, 0.5), 1, 0.5), ((2, math.nan), 1, math.nan),
        ((2, "3"), 1, "3"),
    ])
    def test_log_e_refuses_fractional_and_bool_counts(self, ones, group, bad):
        # Read as int(o), 2.7 was the count 2 and True the count 1.
        statistic = Statistic.mic((5, 7), [PriorSpec.uniform()] * 2)
        message = rf"^group {group}: count must be an integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            statistic.log_e(ones)

    @pytest.mark.parametrize("counts, bad", [
        ([2.5], 2.5), (True, True), (np.array([1.0, 2.5]), 2.5), (math.inf, math.inf),
        (["3"], "3"), (np.array([False]), False),
    ])
    def test_count_term_refuses_fractional_and_bool_counts(self, counts, bad):
        # Read as an int64 array, 2.5 was the count 2.
        statistic = Statistic.mic((5, 7), [PriorSpec.uniform()] * 2)
        message = rf"^total count must be an integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            statistic.count_term(counts)

    def test_integral_counts_pass_as_in_a_table(self):
        statistic = Statistic.mic((5, 7), [PriorSpec.uniform()] * 2)
        want = statistic.log_e((2, 3))
        assert statistic.log_e((2.0, np.int64(3))) == want
        assert statistic.log_e((np.float64(2.0), 3)) == want
        assert statistic.count_term([5.0]).tobytes() == statistic.count_term([5]).tobytes()
        assert statistic.count_term(np.arange(13.0)).tobytes() == \
            statistic.count_term(np.arange(13)).tobytes()

    def test_counts_at_the_group_size(self):
        # Two uniform groups of 5: W0 is the law of the sum of two uniforms
        # on 0..5, so S(5, 0) = C(10, 5) / 6^2 / (6 / 6^2) = 42, and S = 1
        # at all ones.
        statistic = Statistic.mic((5, 5), [PriorSpec.uniform()] * 2)
        assert math.exp(statistic.log_e((5, 0))) == pytest.approx(42.0, rel=1e-13)
        assert math.exp(statistic.log_e((5, 5))) == pytest.approx(1.0, rel=1e-13)
        assert statistic.count_term(10)[0] == statistic.count_term(np.arange(11))[10]

    def test_pseudo_not_evariable(self):
        # A Statistic holds e-variables only: its three kinds, and no flag
        # that could call one of them not an e-variable. The pseudo null is a
        # count law (pseudo_null), not a kind.
        for kind in ("gro_mic", "gro_can", "gro_point"):
            assert Statistic(kind, (np.zeros(2),), np.zeros(2)).kind == kind
        for name in ("pseudo", "is_evariable", "log_null_mass"):
            assert not hasattr(Statistic, name), name
        assert not hasattr(evariables, "_EVARIABLE_KINDS")

    def test_unknown_kind(self):
        for kind in ("other", "pseudo"):
            with pytest.raises(ValueError, match=f"unknown statistic kind '{kind}'"):
                Statistic(kind, (np.zeros(2),), np.zeros(2))


class TestMarginalAlt:
    def test_uniform_single_group(self):
        # Beta(1,1) on one group of 2 with one success: 1/(C(2,1)*3) = 1/6.
        value = log_marginal_alt(Table(((2, 1),)), [PriorSpec.from_beta(1, 1)])
        assert math.exp(value) == pytest.approx(1 / 6, rel=1e-13)

    def test_nml_two_singletons(self):
        value = log_marginal_alt(Table(((1, 1), (1, 0))), [PriorSpec.nml()] * 2)
        assert math.exp(value) == pytest.approx(0.25, rel=1e-13)

    def test_uniform_two_groups(self):
        value = log_marginal_alt(
            Table(((2, 2), (2, 0))), [PriorSpec.from_beta(1, 1)] * 2
        )
        assert math.exp(value) == pytest.approx(1 / 9, rel=1e-13)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="priors"):
            log_marginal_alt(Table(((2, 1),)), [PriorSpec.uniform()] * 2)

    @given(
        st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3)
    )
    @settings(max_examples=20)
    def test_sums_to_one_over_configurations(self, sizes):
        priors = [PriorSpec.uniform()] * len(sizes)
        total = 0.0
        for ones in itertools.product(*[range(n + 1) for n in sizes]):
            t = Table(tuple(zip(sizes, ones)))
            mult = sum(log_binomial(n, o) for n, o in t.groups)
            total += math.exp(log_marginal_alt(t, priors) + mult)
        assert total == pytest.approx(1.0, abs=1e-12)


class TestGroMic:
    def test_worked_example(self):
        statistic = Statistic.mic((2, 2), [PriorSpec.uniform()] * 2)
        assert math.exp(statistic.log_e((2, 0))) == pytest.approx(2.0, rel=1e-13)
        assert statistic.kind == "gro_mic"

    def test_all_zeros_is_one(self):
        log_e = Statistic.mic((5, 7), [PriorSpec.uniform()] * 2).log_e((0, 0))
        assert math.exp(log_e) == pytest.approx(1.0, rel=1e-13)

    def test_singletons_identically_one(self):
        for ones in itertools.product((0, 1), repeat=2):
            log_e = Statistic.mic((1, 1), [PriorSpec.uniform()] * 2).log_e(ones)
            assert math.exp(log_e) == pytest.approx(1.0, rel=1e-13)

    def test_depends_only_on_suff_stats(self):
        priors = [PriorSpec.from_beta(2, 2)] * 2
        a = Statistic.mic((4, 4), priors).log_e((1, 3))
        b = Statistic.mic((4, 4), priors).log_e((3, 1))
        assert a == pytest.approx(b, abs=1e-13)

    @given(
        st.lists(st.integers(min_value=1, max_value=7), min_size=2, max_size=3),
        st.sampled_from(["uniform", "nml", "beta"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_micro_unity(self, sizes, kind):
        if kind == "uniform":
            spec = PriorSpec.uniform()
        elif kind == "nml":
            spec = PriorSpec.nml()
        else:
            spec = PriorSpec.from_beta(1.7, 0.8)
        priors = [spec] * len(sizes)
        for c0 in range(sum(sizes) + 1):
            assert exact_null_expectation_micro(sizes, priors, c0) == pytest.approx(
                1.0, abs=1e-10
            )


def exact_mic_equal_uniform(k: int, m: int, c: int) -> float:
    """log e of mic under uniform priors on k groups of m with c ones each:
    log C(km, kc) - k log C(m, c) - log #{u in 0..m, k terms, summing to kc}."""
    return (log_binomial(k * m, k * c) - k * log_binomial(m, c)
            - log_equal_uniform_count(k, m, k * c))


class TestGroMicGrowingK:
    """mic under uniform priors on k equal groups, against the exact count."""

    def test_matches_the_exact_count_where_the_route_is_exact(self):
        exact = exact_mic_equal_uniform(4, 100, 30)
        assert exact == pytest.approx(-5.957463357161, abs=1e-12)
        got = Statistic.mic((100,) * 4, [PriorSpec.uniform()] * 4).log_e((30,) * 4)
        assert got == pytest.approx(exact, rel=1e-12)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP finding 3: FFT_CLAMP zeroes the optimal null prior's tails, "
        "so mic reads +inf; item 2 (exact tilted count laws) is the mend"))
    @pytest.mark.parametrize("k, m, c, exact", [
        (50, 100, 0, 0.0), (50, 100, 1, -19.21312), (50, 100, 5, -48.51048),
        (200, 50, 15, -316.30615),
    ])
    def test_many_groups(self, k, m, c, exact):
        assert exact_mic_equal_uniform(k, m, c) == pytest.approx(exact, abs=1e-5)
        got = Statistic.mic((m,) * k, [PriorSpec.uniform()] * k).log_e((c,) * k)
        assert got == pytest.approx(exact_mic_equal_uniform(k, m, c), rel=1e-10, abs=1e-10)


class TestPseudo:
    def test_uniform_density_gives_uniform_mass(self):
        # Beta(1,1) integral identity: C(n,j) * B(j+1, n-j+1) = 1/(n+1).
        grid = np.linspace(0, 1, 20001)
        pd_vals = log_binomial_mixture(*trapezoid_atoms(grid, np.ones_like(grid)), 10)
        assert np.exp(pd_vals) == pytest.approx(np.full(11, 1 / 11), rel=1e-6)

    def test_beta_density_gives_beta_binomial(self):
        grid = np.linspace(0, 1, 40001)
        dens = grid * (1 - grid) * 6  # Beta(2,2)
        vals = np.exp(log_binomial_mixture(*trapezoid_atoms(grid, dens), 2))
        assert vals == pytest.approx([0.3, 0.4, 0.3], abs=1e-6)

    def test_underflow_refused_when_built(self, builds):
        # On a two-point density grid, {0, 1}, the quadrature underflows at
        # every count but 0 and n. The pseudo null is refused when it is
        # built, naming the first such count and the flag to raise, and is
        # not kept: a second call builds again.
        priors = [PriorSpec.uniform()] * 2
        message = r"^quadrature underflow at total count 1; raise density_grid \(--density-grid\)$"
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                pseudo_null((10, 10), priors, scale=100, density_grid=2)
        assert builds.count("pseudo_atoms") == builds.count("log_binomial_mixture") == 2
        assert evariables._designs == {}
        log_w0 = log_binomial_mixture(*pseudo_atoms(priors, (10, 10), 100, 2), 20)
        assert np.isfinite(log_w0[[0, 20]]).all() and (log_w0[1:20] == NEG_INF).all()

    def test_pseudo_kind_and_not_evariable(self):
        # The pseudo null is a count law, log W_ps at every count, finite and
        # read-only, and no Statistic kind: nothing hands it the e-variable
        # guarantee.
        priors = [PriorSpec.uniform()] * 2
        null = pseudo_null((3, 3), priors, scale=200)
        assert null.shape == (7,) and np.isfinite(null).all()
        assert not null.flags.writeable
        with pytest.raises(ValueError, match="unknown statistic kind 'pseudo'"):
            Statistic("pseudo", Statistic.mic((3, 3), priors).group_terms, null)

    def test_matches_mic_when_density_exact(self, tmp_path, capsys):
        # A very fine high-resolution density converges to the exact prior
        # slowly; instead check the identity form directly: the pseudo value
        # the CLI reports shares mic's numerator, so their ratio is the ratio
        # of null masses.
        priors = [PriorSpec.uniform()] * 2
        sizes = (4, 4)
        atoms = pseudo_atoms(priors, sizes, 10_000, 20_001)  # the CLI's defaults
        w0 = convolve_all(
            [induced_group_pmf(s, n) for s, n in zip(priors, sizes)]
        )
        t = Table(((4, 2), (4, 3)))
        path = tmp_path / "t.json"
        path.write_text('{"groups":[{"n":4,"ones":2},{"n":4,"ones":3}]}')
        assert main(["test", "--table", str(path), "--statistic", "pseudo"]) == 0
        pse = json.loads(capsys.readouterr().out)["log_e"]
        mic = Statistic.mic(t.sizes, priors).log_e(t.ones)
        c0 = sum(t.ones)
        expect = float(w0.log_weights[c0] - log_binomial_mixture(*atoms, sum(t.sizes))[c0])
        assert pse - mic == pytest.approx(expect, abs=1e-12)


def reference_ripr_solve(target, n, grid_size=RIPR_GRID_SIZE, tol=RIPR_TOL,
                         max_iter=RIPR_MAX_ITER):
    """ripr_solve written the plain way: the likelihood matrix cellwise with
    xlogy (ripr_log_likelihoods), np.clip for the floors, np.linalg.norm for
    the step, and every mixture formed afresh. ripr_solve must agree with it
    bit for bit. Also returns the 350-nat mask of grid points kept."""
    t = target.weights()
    keep = t > t.max() * 1e-60
    c0 = np.arange(n + 1)[keep]
    t = t[keep]
    t = t / t.sum()
    p = np.linspace(0.0, 1.0, grid_size)
    logL = ripr_log_likelihoods(p, c0, n)
    col_max = logL.max(axis=0)
    active = col_max > col_max.max() - 350.0
    L = np.exp(logL[:, active])
    log_t = np.log(t)

    def em_step(weights):
        q = L @ weights
        np.clip(q, 1e-300, None, out=q)
        nxt = weights * (L.T @ (t / q))
        return nxt / nxt.sum()

    def objective(weights):
        q = L @ weights
        np.clip(q, 1e-300, None, out=q)
        return float(np.dot(t, log_t - np.log(q)))

    w = np.full(int(active.sum()), 1.0 / int(active.sum()))
    kl = objective(w)
    converged = False
    active_idx = np.flatnonzero(active)
    for it in range(1, max_iter + 1):
        if it % 100 == 0:
            live = w > w.max() * 1e-20
            if live.sum() < w.size:
                w = w[live]
                w /= w.sum()
                L = L[:, live]
                active_idx = active_idx[live]
                kl = objective(w)
        w1 = em_step(w)
        w2 = em_step(w1)
        r = w1 - w
        v = w2 - w1 - r
        norm_v = float(np.linalg.norm(v))
        if norm_v == 0.0:
            cand = w2
        else:
            step = -float(np.linalg.norm(r)) / norm_v
            cand = w - 2.0 * step * r + step * step * v
            np.clip(cand, 0.0, None, out=cand)
            total = cand.sum()
            cand = w2 if total <= 0.0 else em_step(cand / total)
        kl_cand = objective(cand)
        if not np.isfinite(kl_cand) or kl_cand > kl:
            cand = w2
            kl_cand = objective(w2)
        if kl - kl_cand <= tol * max(abs(kl_cand), 1.0):
            w, kl = cand, kl_cand
            converged = True
            break
        w, kl = cand, kl_cand
    full = np.full(grid_size, NEG_INF)
    with np.errstate(divide="ignore"):
        lw = np.log(w)
    full[active_idx] = lw - log_sum_exp(lw)
    return full, kl, it, converged, active


def _benchmark_targets():
    """The can and point targets of the benchmark's table designs and network."""
    designs = {name: (sizes, [parse_prior(prior)] * len(sizes), palt)
               for name, (sizes, prior, palt) in TABLE_DESIGNS.items()}
    designs["network"] = (NETWORK_DYADS, [PriorSpec.uniform()] * 15, NETWORK_PALT)
    for name, (sizes, priors, palt) in designs.items():
        yield pytest.param(sizes, priors, None, id=f"{name}-can")
        yield pytest.param(sizes, None, palt, id=f"{name}-point")


_FRESH = """
import json, sys
from maxent_evalues import diagnostics, evariables, priors

def status():
    with open("/proc/self/status") as f:
        fields = dict(line.split(":", 1) for line in f)
    return {k: int(fields[k].split()[0]) * 1024 for k in ("VmHWM", "VmRSS")}

# The bytes of every statement checked against the budget, in order.
stated = []
for module in (diagnostics, evariables, priors):
    def spy(nbytes, what, advice, check=module._within_budget):
        stated.append(nbytes)
        check(nbytes, what, advice)
    module._within_budget = spy
report = {}
setup, run, finish = sys.argv[1:]
exec(setup)
del stated[:]
before = status()
try:
    exec(run)
except ValueError as exc:
    report["refused"] = str(exc)
after = status()
exec(finish)
report.update(growth=after["VmHWM"] - before["VmRSS"], left=after["VmRSS"] - before["VmRSS"],
              stated=stated)
print(json.dumps(report))
"""


def _in_a_fresh_process(setup, run, finish=""):
    """Memory of the Python source run, read from /proc/self/status in a
    fresh process after setup has run: growth is the peak resident set past
    the resident set before run, left what stays resident after it, stated
    the bytes of each statement run checked against the budget, and refused
    the message of a ValueError run raised. finish runs after the reading,
    and may add keys to the report dict."""
    if not os.path.exists("/proc/self/status"):
        pytest.skip("no /proc/self/status")
    src = str(Path(evariables.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _FRESH, setup, run, finish],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    return json.loads(done.stdout)


_SOLVE_SETUP = """
import mmap
import numpy as np
from maxent_evalues.numerics import convolve_all
from maxent_evalues.priors import induced_group_pmf, parse_prior
prior, sizes = {!r}, {!r}
target = convolve_all([induced_group_pmf(parse_prior(prior), m) for m in sizes])
built = []
bands = evariables._likelihood_bands
def spy(*args):
    cells, maxima, extent = bands(*args)
    built.append((cells.shape, extent.copy()))
    return cells, maxima, extent
evariables._likelihood_bands = spy
"""

_SOLVE_FINISH = """
assert solved.converged and len(built) == 1
(rows, cols), extent = built[0]
# Each row's extent rounded out to whole pages.
first = 8 * (np.arange(rows) * cols + extent[:, 0])
last = 8 * (np.arange(rows) * cols + extent[:, 1]) - 1
pages = (last // mmap.PAGESIZE - first // mmap.PAGESIZE + 1)[first <= last].sum()
report.update(shape=[rows, cols], written_pages=int(pages) * mmap.PAGESIZE)
"""


def _solve_in_a_fresh_process(prior, sizes):
    """ripr_solve's memory on mic's null for one prior over groups of these
    sizes (_in_a_fresh_process), with the shape of its matrix and
    written_pages, the bytes of the pages the band fill wrote."""
    return _in_a_fresh_process(_SOLVE_SETUP.format(prior, list(sizes)),
                               "solved = evariables.ripr_solve(target, sum(sizes))",
                               _SOLVE_FINISH)


class TestLikelihoodBands:
    """ripr_solve's banded likelihood matrix against the cellwise build."""

    @staticmethod
    def assert_matches_cellwise(p, counts, n):
        cells, maxima, extent = evariables._likelihood_bands(
            p, counts, n, log_binomial_row(n)[counts])
        assert cells.shape == (p.size, counts.size)
        assert cells.flags.c_contiguous
        # Every nonzero cell lies inside its row's written extent.
        assert extent.shape == (p.size, 2)
        rows, cols = np.nonzero(cells)
        assert ((extent[rows, 0] <= cols) & (cols < extent[rows, 1])).all()
        # A slice of the grid at a time, so that the reference's logs stay small.
        full = np.empty(p.size)
        for start in range(0, p.size, 256):
            logs = ripr_log_likelihoods(p[start:start + 256], counts, n)
            assert np.exp(logs).T.tobytes() == cells[start:start + 256].tobytes()
            full[start:start + 256] = logs.max(axis=0)
        # The 350-nat mask, and every maximum it can turn on, keep their bits.
        assert np.array_equal(maxima > maxima.max() - 350.0, full > full.max() - 350.0)
        above = full > 1.0 - evariables._BAND_NATS
        assert np.array_equal(maxima[above], full[above])
        return cells, full

    # The default grid and --ripr-grid 51; both hold p = 0 and p = 1.
    @pytest.mark.parametrize("grid_size", [RIPR_GRID_SIZE, 51])
    @pytest.mark.parametrize("sizes, priors, palt", _benchmark_targets())
    def test_benchmark_targets(self, sizes, priors, palt, grid_size):
        if palt is None:
            target = convolve_all([induced_group_pmf(s, m) for s, m in zip(priors, sizes)])
        else:
            target = point_alt_count_pmf(sizes, palt)
        t = target.weights()
        counts = np.flatnonzero(t > t.max() * 1e-60)
        self.assert_matches_cellwise(np.linspace(0.0, 1.0, grid_size), counts, sum(sizes))

    @pytest.mark.parametrize("n, counts", [
        (56, np.arange(0, 29)),
        (56, np.arange(28, 57)),
        (56, np.array([0, 1, 5, 20, 21, 22, 50, 56])),
        # The grid points between the two runs have no count in their band.
        (8778, np.r_[0:200, 8600:8779]),
    ], ids=["from-0", "to-n", "scattered", "two-runs"])
    def test_kept_sets(self, n, counts):
        cells, _ = self.assert_matches_cellwise(np.linspace(0.0, 1.0, RIPR_GRID_SIZE), counts, n)
        # p = 0 and p = 1 put all their mass on counts 0 and n.
        assert cells[0, 0] == (counts[0] == 0)
        assert cells[-1, -1] == (counts[-1] == n)

    @pytest.mark.parametrize("block_cells", [1, evariables._BAND_CELLS])
    def test_every_count_where_the_band_cannot_tell_the_mask(self, monkeypatch, block_cells):
        # A grid far coarser than the binomial's spread: the largest cell,
        # at p = 0.4, is -500 nats, and p = 0.6 is within 350 nats of it
        # (-847) with no count in its band. So every count is taken. With
        # blocks of one row, each block is its row's band alone.
        monkeypatch.setattr(evariables, "_BAND_CELLS", block_cells)
        n = 100_000
        _, full = self.assert_matches_cellwise(np.linspace(0.0, 1.0, 6),
                                               np.array([44_900, 53_600]), n)
        assert full.max() < 351.0 - evariables._BAND_NATS
        assert np.flatnonzero(full > full.max() - 350.0).tolist() == [2, 3]


@st.composite
def banded_rows(draw):
    """A C-order matrix whose rows are 0.0 outside their extents (some
    written nowhere), with a mask of rows to keep."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 9))
    a = np.zeros((rows, cols))
    extent = np.empty((rows, 2), dtype=np.int64)
    for i in range(rows):
        lo = draw(st.integers(0, cols))
        hi = draw(st.integers(lo, cols)) if draw(st.booleans()) else lo
        extent[i] = (lo, hi) if lo < hi else (cols, 0)
        a[i, lo:hi] = draw(st.lists(st.floats(), min_size=hi - lo, max_size=hi - lo))
    mask = np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))
    return a, extent, mask


class TestCompactRows:
    """ripr_solve's in-place compaction against fancy indexing."""

    @staticmethod
    def assert_compacts(a, extent, mask):
        want, want_extent = a[mask].tobytes(), extent[mask]
        kept, kept_extent = evariables._compact_rows(a, extent, mask)
        assert kept.tobytes() == want
        assert np.array_equal(kept_extent, want_extent)
        assert kept.flags.c_contiguous and kept.ctypes.data == a.ctypes.data

    @settings(max_examples=300, deadline=None)
    @given(banded_rows())
    def test_matches_fancy_indexing(self, drawn):
        self.assert_compacts(*drawn)

    def test_wider_destinations_and_rows_in_place(self):
        # Row 0 stays; row 2 moves onto row 1, whose extent is wider than
        # its own, and row 4 onto row 2; row 3, written nowhere, onto no row.
        a = np.zeros((5, 6))
        extent = np.array([[0, 2], [0, 6], [2, 4], [6, 0], [3, 6]])
        for row, (lo, hi) in enumerate(extent):
            a[row, lo:hi] = np.arange(1, hi - lo + 1) + 10 * row
        self.assert_compacts(a, extent, np.array([True, False, True, False, True]))


class TestRipr:
    @pytest.mark.parametrize("target, n, masked", [
        (convolve_all([induced_group_pmf(PriorSpec.nml(), 4)] * 2), 8, False),
        (convolve_all([induced_group_pmf(PriorSpec.from_beta(3, 3), 5)] * 2), 10, False),
        (convolve_all([induced_group_pmf(PriorSpec.from_beta(3, 3), m)
                             for m in (6, 13)]), 19, False),
        (point_alt_count_pmf((10, 30), (0.2, 0.6)), 40, False),
        # Counts 0 to 21 and 379 to 400 fall below 1e-60 of the peak, so the
        # mask drops p = 0 and p = 1 and every kept grid row moves down; the
        # solve runs 149 iterations, and the pruning at the 100th moves rows
        # again.
        (convolve_all([induced_group_pmf(PriorSpec.from_beta(200, 200), 200)] * 2),
         400, True),
    ], ids=["4,4-nml", "5,5-beta33", "6,13-beta33", "10,30-point", "200,200-beta200"])
    def test_matches_reference_bit_for_bit(self, target, n, masked):
        # Where SQUAREM stops depends on the last bits of every mixture, and
        # those on the order BLAS sums L @ w in, which depends on L's memory
        # layout; so this pins the layout as well as the arithmetic.
        # The solution is the reference's atoms: the grid points that kept
        # weight, with their log weights.
        log_w, kl, iterations, converged, active = reference_ripr_solve(target, n)
        assert active.all() != masked
        sol = ripr_solve(target, n)
        assert sol.iterations == iterations
        assert sol.converged == converged
        assert sol.achieved_kl == kl
        atoms = log_w > NEG_INF
        assert np.array_equal(sol.grid, np.linspace(0.0, 1.0, RIPR_GRID_SIZE)[atoms])
        assert np.array_equal(sol.log_weights, log_w[atoms])

    def test_holds_one_likelihood_matrix(self):
        # The mask and the pruning compact the grid x counts matrix in its
        # own buffer, so the solve's resident growth is the pages the band
        # fill wrote; a masked copy, or whole-row copies, would add pages.
        # 2509 counts are kept on the default grid, 64% of the cells written.
        used = _solve_in_a_fresh_process("beta:50,50", (1400, 1400))
        assert used["shape"] == [RIPR_GRID_SIZE, 2509]
        assert used["growth"] <= used["written_pages"] + 4 * 2**20
        assert used["written_pages"] + 4 * 2**20 < 8 * RIPR_GRID_SIZE * 2509
        assert used["left"] < 4 * 2**20

    def test_network_solve_peaks_at_its_matrix(self):
        # The network's band fill writes 39% of its 126 MiB matrix; the
        # pages it never writes stay unbacked while BLAS reads them. The
        # target keeps 8,265 counts under numpy's AVX-512 kernels and 8,267
        # under its AVX2 ones, so the count is read from the solve.
        used = _solve_in_a_fresh_process("uniform", NETWORK_DYADS)
        grid, kept = used["shape"]
        assert grid == RIPR_GRID_SIZE and 8000 < kept < 8500
        assert used["growth"] <= used["written_pages"] + 4 * 2**20
        assert used["growth"] < 0.5 * 8 * grid * kept
        assert used["left"] < 4 * 2**20

    def test_target_inside_family(self):
        sol = ripr_solve(binomial_pmf(10, 0.3), 10, grid_size=501)
        assert sol.converged
        assert sol.achieved_kl < 1e-4
        # Mass concentrates near p = 0.3.
        w = np.exp(sol.log_weights)
        mean_p = float(np.dot(sol.grid, w))
        assert mean_p == pytest.approx(0.3, abs=0.02)

    def test_achieved_kl_beats_pseudo(self):
        priors = [PriorSpec.uniform()] * 2
        sizes = (10, 10)
        w0 = convolve_all(
            [induced_group_pmf(s, n) for s, n in zip(priors, sizes)]
        )
        sol = ripr_solve(w0, 20)
        log_pseudo = log_binomial_mixture(*pseudo_atoms(priors, sizes, 10_000, None), 20)
        kl_pseudo = float(np.dot(w0.weights(), w0.log_weights - log_pseudo))
        assert sol.achieved_kl <= kl_pseudo + 1e-12

    def test_monotone_objective(self):
        # Re-run with increasing iteration caps: the objective never rises.
        target = convolve_all([uniform_pmf(6), uniform_pmf(6)])
        kls = []
        for cap in (1, 2, 5, 10, 50, 200):
            sol = ripr_solve(target, 12, grid_size=201, tol=1e-16, max_iter=cap)
            kls.append(sol.achieved_kl)
        assert all(a >= b - 1e-15 for a, b in zip(kls, kls[1:]))

    def test_stationarity_of_solution(self):
        target = convolve_all([uniform_pmf(6), uniform_pmf(6)])
        n = 12
        sol = ripr_solve(target, n, grid_size=201)
        assert sol.converged
        # Moving 1% of mass to any single point of the whole grid, atom or
        # not, must not reduce the objective by more than the tolerance scale.
        w = np.exp(sol.log_weights)
        grid = np.linspace(0.0, 1.0, 201)
        L = np.array(
            [binomial_pmf(n, p).weights() for p in grid]
        ).T  # (n+1, grid)
        q = L[:, np.searchsorted(grid, sol.grid)] @ w
        t = target.weights()
        base = float(np.dot(t, np.log(t) - np.log(q)))
        for j in range(0, 201, 10):
            q_pert = 0.99 * q + 0.01 * L[:, j]
            kl_pert = float(np.dot(t, np.log(t) - np.log(q_pert)))
            assert kl_pert >= base - 1e-6

    def test_marginal_count_pmf_rows(self):
        # The mixture's law of the total count has a row at every count
        # 0..n, and it is normalized.
        n = 12
        sol = ripr_solve(convolve_all([uniform_pmf(6), uniform_pmf(6)]), n,
                         grid_size=201)
        full = log_binomial_mixture(sol.grid, sol.log_weights, n)
        assert full.shape == (n + 1,) and np.isfinite(full).all()
        assert np.exp(full).sum() == pytest.approx(1.0, abs=1e-12)

    def test_bad_target_support(self):
        with pytest.raises(ValueError):
            ripr_solve(binomial_pmf(5, 0.5), 7)

    def test_solution_refuses_a_dead_atom(self):
        # A solution is its atoms; test_matches_reference_bit_for_bit checks
        # that ripr_solve returns only those.
        with pytest.raises(ValueError, match="the weights finite"):
            RiprSolution(np.array([0.0, 1.0]), np.array([0.0, NEG_INF]), 0.0, 1, True)

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            ripr_solve(binomial_pmf(5, 0.5), 5, grid_size=10)


_PRIORS = "from maxent_evalues.priors import parse_prior as prior\n"


class TestMemoryBudget:
    """Each route's stated bytes bound what it holds, in a fresh process."""

    @pytest.mark.parametrize("setup, run", [
        # mic: one group, convolved by nothing, and the FFT fold over 2, 15
        # and 60 groups.
        ("", "evariables.Statistic.mic([500_000], [prior('uniform')])"),
        ("", "evariables.Statistic.mic([250_000] * 2, [prior('nml')] * 2)"),
        ("", "evariables.Statistic.mic([33_000] * 15, [prior('beta:2,3')] * 15)"),
        ("", "evariables.Statistic.mic([8_000] * 60, [prior('uniform')] * 60)"),
        # can and point: the fold, the projection's matrix and the mixture.
        ("", f"evariables.Statistic.can({list(NETWORK_DYADS)}, [prior('uniform')] * 15)"),
        ("", f"evariables.Statistic.point({list(NETWORK_DYADS)}, {list(NETWORK_PALT)})"),
        # The pseudo lattice counted, transformed with one and two distinct
        # (prior, size) pairs, and unresampled, counted and transformed.
        ("", "priors.pseudo_atoms([prior('uniform')] * 2, [512, 512], 10_000, 20_001)"),
        ("", "priors.pseudo_atoms([prior('beta:2,2')], [400], 10_000, 20_001)"),
        ("", "priors.pseudo_atoms([prior('beta:2,2'), prior('nml')], [200, 200], "
             "10_000, 20_001)"),
        ("", "priors.pseudo_atoms([prior('uniform')] * 2, [100, 100], 10_000, None)"),
        ("", "priors.pseudo_atoms([prior('nml')] * 2, [100, 100], 10_000, None)"),
        # The pseudo null: its lattice and the quadrature over every count.
        ("", "evariables.pseudo_null([200_000, 100_000], [prior('uniform')] * 2, 10, 2001)"),
        # The worst-case search, its density and mic's null built first.
        ("diagnostics._count_term_gap([prior('nml')], [10_000], 10, 2001)",
         "diagnostics.worst_case_r_prime([prior('nml')], [10_000], 10, 2001, 5e-4)"),
    ], ids=["mic-1", "mic-2", "mic-15", "mic-60", "can", "point", "pseudo-counted",
            "pseudo-transformed", "pseudo-two-pairs", "pseudo-unresampled-counted",
            "pseudo-unresampled-transformed", "pseudo-null", "worst-case"])
    def test_statement_holds(self, setup, run):
        # Measured growth is at most the statements the build checked plus a
        # fixed slack for the interpreter's own allocations.
        used = _in_a_fresh_process(_PRIORS + setup, run)
        assert "refused" not in used and used["stated"]
        assert used["growth"] <= sum(used["stated"]) + 8 * 2**20

    def test_transforms_leave_no_plans_resident(self):
        # Criterion 5's NML pseudo nulls, each at its own transform lengths,
        # after one warm build: scipy.fft kept a plan of each length resident
        # (42 MiB left after these five), numpy.fft keeps none (9 MiB).
        used = _in_a_fresh_process(
            _PRIORS + "evariables.pseudo_null([8, 8], [prior('nml')] * 2)",
            "for m in (10, 14, 20, 28, 40):\n"
            "    evariables.pseudo_null([m, m], [prior('nml')] * 2)")
        assert used["left"] < 16 * 2**20

    def test_a_design_just_over_the_budget_is_refused_at_once(self):
        # One group stated one trial past the budget: refused before anything
        # of its size is built.
        n = (MAX_BYTES - 2048) // 104 + 1
        assert evariables._design_bytes(n, 1) > MAX_BYTES >= evariables._design_bytes(n - 1, 1)
        used = _in_a_fresh_process(_PRIORS, f"evariables.Statistic.mic([{n}], [prior('nml')])")
        assert "past the budget" in used["refused"]
        assert used["growth"] < 16 * 2**20


class TestGroCan:
    def test_unconverged_rejected(self):
        priors = [PriorSpec.uniform()] * 2
        with pytest.raises(ValueError, match="refine solver"):
            Statistic.can((5, 5), priors, max_iter=1, tol=1e-16)

    def test_report_fields(self):
        priors = [PriorSpec.uniform()] * 2
        statistic = Statistic.can((5, 5), priors, grid_size=501)
        assert math.isfinite(statistic.log_e((3, 1)))
        assert statistic.kind == "gro_can"
        assert statistic.achieved_kl is not None

    def test_target_inside_null_gives_unit(self):
        # One uniform group: its Bayes marginal, uniform on 0..n, is the
        # uniform mixture of binomials, so the target lies in the null family
        # and the canonical GRO is ~1.
        sizes = (6,)
        specs = [PriorSpec.uniform()]
        # Tables in the bulk of the null law; extreme tails magnify the
        # residual solver error and are checked by the exact-tail tests.
        for ones in ((2,), (3,), (4,), (1,)):
            log_e = Statistic.can(sizes, specs, grid_size=501).log_e(ones)
            # Residual solver KL leaves sub-percent deviations from unity.
            assert math.exp(log_e) == pytest.approx(1.0, abs=2e-2)

    @pytest.mark.parametrize("build, design", [
        (Statistic.can, [PriorSpec.uniform()] * 2), (Statistic.point, (0.2, 0.8)),
    ])
    def test_builds_its_own_null(self, build, design):
        # W0 is the projection of the statistic's own design, never one passed
        # in, so the null expectation is at most 1 by exact summation, up to
        # the solver's residual (5e-6 for can here). The projection of the
        # (10, 10) design, once accepted, took can on (5, 5) to 1.023.
        assert "solution" not in inspect.signature(build).parameters
        sizes = (5, 5)
        statistic = build(sizes, design, grid_size=501)
        for p0 in np.linspace(0.05, 0.95, 7):
            total = 0.0
            for ones in itertools.product(range(6), repeat=2):
                lp = sum(float(binomial_pmf(n, p0).log_weights[o]) for n, o in zip(sizes, ones))
                total += math.exp(lp + statistic.log_e(ones))
            assert total <= 1.0 + 1e-4


class TestGroPoint:
    def test_alternative_inside_null(self):
        log_e = Statistic.point((5, 5), (0.5, 0.5), grid_size=501).log_e((2, 3))
        assert math.exp(log_e) == pytest.approx(1.0, abs=5e-3)

    def test_is_evariable_exactly(self):
        # E_{p0}[S] <= 1 under every null by exact summation.
        sizes = (4, 4)
        p_alt = (0.2, 0.8)
        reports = {}
        for ones in itertools.product(range(5), repeat=2):
            reports[ones] = Statistic.point(sizes, p_alt, grid_size=501).log_e(ones)
        for p0 in np.linspace(0.05, 0.95, 7):
            total = 0.0
            for ones, log_e in reports.items():
                lp = sum(
                    float(binomial_pmf(n, p0).log_weights[o])
                    for n, o in zip(sizes, ones)
                )
                total += math.exp(lp + log_e)
            assert total <= 1.0 + 1e-6

    @pytest.mark.parametrize("sizes, p_alt", [
        ((10, 30), (0.2, 0.6)), ((4, 7, 3), (0.0, 0.35, 1.0)),
    ])
    def test_canonical_over_binomial_laws(self, solves, sizes, p_alt):
        # point is can with each group's law the binomial at its parameter:
        # the projected target is the alternative's count law bit for bit,
        # and the group terms are the Bernoulli log-likelihoods to round-off
        # (-inf where a boundary parameter cannot reach the count).
        statistic = Statistic.point(sizes, p_alt, grid_size=201)
        assert len(solves) == 1
        want = point_alt_count_pmf(sizes, p_alt).log_weights
        assert np.array_equal(solves[0].log_weights, want)
        for n, p, a in zip(sizes, p_alt, statistic.group_terms):
            c = np.arange(n + 1)
            np.testing.assert_allclose(a, xlogy(c, p) + xlogy(n - c, 1.0 - p),
                                       rtol=1e-13, atol=1e-13)

    def test_symmetric_alternative_projects_to_center(self):
        sol = ripr_solve(point_alt_count_pmf((10, 10), (0.2, 0.8)), 20)
        w = np.exp(sol.log_weights)
        assert float(np.dot(sol.grid, w)) == pytest.approx(0.5, abs=0.01)

    def test_arity(self):
        with pytest.raises(ValueError):
            Statistic.point((5, 5), (0.5,))


# The functions evariables calls to build a statistic: the group laws, the
# count law, the projection, the pseudo null's atoms and the binomial mixture.
BUILDERS = ("induced_group_pmf", "binomial_pmf", "convolve_all", "ripr_solve",
            "pseudo_atoms", "log_binomial_mixture")


@pytest.fixture
def builds(monkeypatch):
    """The names of the builders that evariables calls, in call order."""
    calls = []
    for name in BUILDERS:
        def spy(*args, _real=getattr(evariables, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(evariables, name, spy)
    return calls


def read_at(built, ones) -> float:
    """A statistic's log e-value at one table, or a pseudo null's log mass
    at the table's total count."""
    return built[sum(ones)] if isinstance(built, np.ndarray) else built.log_e(ones)


def held_arrays(built) -> list:
    """The arrays a memo entry holds: a statistic's group terms, null and
    projection atoms, or a pseudo null itself."""
    if isinstance(built, np.ndarray):
        return [built]
    held = [*built.group_terms, built.null]
    if built.projection is not None:
        held += [built.projection.grid, built.projection.log_weights]
    return held


def held_sizes():
    """The group sizes of each design the memo holds, least recent first."""
    return [key[1] for key in evariables._designs]


class TestProjectionMemo:
    """The design memo: every statistic, and every pseudo null, is built
    once per process and design, and the memo is bounded by the bytes it
    holds."""

    SIZES = (5, 7)
    PRIORS = (PriorSpec.uniform(), PriorSpec.uniform())
    RIPR = {"grid_size": 101, "tol": 1e-8, "max_iter": 20_000}
    DENSITY = {"scale": 100, "density_grid": 501}

    def designs(self):
        """One build of each kind, and of the pseudo null, on SIZES."""
        return {
            "mic": lambda: Statistic.mic(self.SIZES, self.PRIORS),
            "can": lambda: Statistic.can(self.SIZES, self.PRIORS, **self.RIPR),
            "point": lambda: Statistic.point(self.SIZES, (0.2, 0.7), **self.RIPR),
            "pseudo": lambda: pseudo_null(self.SIZES, self.PRIORS, **self.DENSITY),
        }

    @pytest.mark.parametrize("build", [
        lambda: Statistic.mic((), ()),
        lambda: Statistic.can((), ()),
        lambda: Statistic.point((), ()),
        lambda: pseudo_null((), ()),
    ], ids=["mic", "can", "point", "pseudo"])
    def test_no_groups(self, build, builds):
        # Every kind refuses an empty design in the memo, before any build.
        with pytest.raises(ValueError, match="^no groups$"):
            build()
        assert builds == []

    def test_one_solve_per_design(self, builds):
        # A second table of a design builds no group law, convolves no count
        # law, solves no projection, and builds no pseudo null's atoms and
        # takes no mixture.
        first_builders = {
            "mic": ["convolve_all"],
            "can": ["convolve_all", "ripr_solve", "log_binomial_mixture"],
            "point": ["convolve_all", "ripr_solve", "log_binomial_mixture"],
            "pseudo": ["pseudo_atoms", "log_binomial_mixture"],
        }
        for kind, build in self.designs().items():
            first = read_at(build(), (3, 1))
            assert [b for b in builds if b in first_builders[kind]] == first_builders[kind], kind
            builds.clear()
            log_es = [read_at(build(), ones) for ones in ((3, 1), (0, 5))]
            assert builds == [], kind
            assert log_es[0] == first
            assert log_es[0] != log_es[1]

    def test_each_key_part_misses(self, builds):
        uniform = PriorSpec.uniform()
        settings = [{**self.RIPR, key: value}
                    for key, value in (("grid_size", 151), ("tol", 1e-9), ("max_iter", 20_001))]
        designs = [
            *self.designs().values(),
            lambda: Statistic.mic((5, 8), self.PRIORS),
            lambda: Statistic.mic((7, 5), self.PRIORS),
            lambda: Statistic.mic(self.SIZES, (uniform, PriorSpec.nml())),
            lambda: Statistic.can((7, 5), self.PRIORS, **self.RIPR),
            lambda: Statistic.can(self.SIZES, (uniform, PriorSpec.from_beta(2, 2)), **self.RIPR),
            lambda: Statistic.point(self.SIZES, (0.2, 0.6), **self.RIPR),
            lambda: Statistic.point(self.SIZES, (0.7, 0.2), **self.RIPR),
            *(functools.partial(Statistic.can, self.SIZES, self.PRIORS, **r) for r in settings),
            *(functools.partial(Statistic.point, self.SIZES, (0.2, 0.7), **r) for r in settings),
            lambda: pseudo_null(self.SIZES, self.PRIORS, scale=101, density_grid=501),
            lambda: pseudo_null(self.SIZES, self.PRIORS, scale=100, density_grid=601),
            lambda: pseudo_null((7, 5), self.PRIORS, **self.DENSITY),
        ]
        for _ in range(2):
            for build in designs:
                build()
        # Each design reached its count law or its pseudo null's atoms once,
        # on its first build, and its mixture once: 12 projections and 4
        # pseudo nulls.
        assert builds.count("convolve_all") == 16
        assert builds.count("pseudo_atoms") == 4
        assert builds.count("log_binomial_mixture") == 16
        assert len(designs) == 20
        # A build that fails is not kept: both calls reach ripr_solve.
        builds.clear()
        for _ in range(2):
            with pytest.raises(ValueError, match="must be finite and positive"):
                Statistic.can(self.SIZES, self.PRIORS, tol=math.nan)
        assert builds.count("ripr_solve") == 2

    def test_both_spellings_of_the_uniform_prior_share_the_pseudo_design(
        self, builds, tmp_path, capsys
    ):
        flat = pseudo_null(self.SIZES, [PriorSpec.from_beta(1, 1)] * 2, **self.DENSITY)
        uniform = pseudo_null(self.SIZES, self.PRIORS, **self.DENSITY)
        assert uniform is flat
        assert builds.count("pseudo_atoms") == builds.count("log_binomial_mixture") == 1
        # The CLI's pseudo value takes mic's group terms under the canonical
        # priors too, so both spellings print the same bits; on (10, 10)
        # mic's beta(1,1) group terms differ from the uniform's in the last
        # bits.
        path = tmp_path / "t.json"
        path.write_text('{"groups":[{"n":10,"ones":2},{"n":10,"ones":5}]}')
        log_es = set()
        for prior in ("beta:1,1", "uniform"):
            argv = ["test", "--table", str(path), "--statistic", "pseudo", "--prior", prior,
                    "--scale", "100", "--density-grid", "501"]
            assert main(argv) == 0
            log_es.add(json.loads(capsys.readouterr().out)["log_e"])
        assert len(log_es) == 1

    def test_hit_equals_fresh_solve(self):
        n = sum(self.SIZES)
        for kind, build in self.designs().items():
            built = build()
            hit = build()
            evariables._designs.clear()
            fresh = build()
            assert hit is built and fresh is not built, kind
            if kind == "pseudo":
                assert hit.tobytes() == fresh.tobytes() and not hit.flags.writeable
                continue
            assert hit.kind == fresh.kind and hit.achieved_kl == fresh.achieved_kl
            for a, b in zip(hit.group_terms, fresh.group_terms, strict=True):
                assert a.tobytes() == b.tobytes()
                assert not a.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 0.0
            counts = np.arange(n + 1)
            assert hit.count_term(counts).tobytes() == fresh.count_term(counts).tobytes()

    def test_null_is_what_the_statistic_holds(self):
        # Every kind holds log W0 at every count, read-only: mic its count
        # law's log weights, can and point the binomial mixture of their
        # projection, which they keep for its achieved_kl. The pseudo null is
        # its quadrature alone. The memo counts an entry as exactly those
        # arrays and the group terms, plus 2 KB.
        n = sum(self.SIZES)
        designs = self.designs()
        group_pmfs = {
            "mic": [induced_group_pmf(s, m) for s, m in zip(self.PRIORS, self.SIZES)],
            "can": [induced_group_pmf(s, m) for s, m in zip(self.PRIORS, self.SIZES)],
            "point": [binomial_pmf(m, p) for m, p in zip(self.SIZES, (0.2, 0.7))],
        }
        mic = designs["mic"]()
        assert mic.null.tobytes() == convolve_all(group_pmfs["mic"]).log_weights.tobytes()
        pseudo = designs["pseudo"]()
        atoms = pseudo_atoms(self.PRIORS, self.SIZES, *self.DENSITY.values())
        assert pseudo.tobytes() == log_binomial_mixture(*atoms, n).tobytes()
        assert mic.achieved_kl is None and mic.projection is None
        for kind in ("can", "point"):
            statistic = designs[kind]()
            fresh = ripr_solve(convolve_all(group_pmfs[kind]), n, **self.RIPR)
            solved = statistic.projection
            assert solved.grid.tobytes() == fresh.grid.tobytes()
            assert solved.log_weights.tobytes() == fresh.log_weights.tobytes()
            assert statistic.achieved_kl == solved.achieved_kl == fresh.achieved_kl
            read = log_binomial_mixture(fresh.grid, fresh.log_weights, n)
            assert statistic.null.tobytes() == read.tobytes()
        for built, size in evariables._designs.values():
            null = built if isinstance(built, np.ndarray) else built.null
            assert null.shape == (n + 1,) and not null.flags.writeable
            assert size == 2048 + sum(a.nbytes for a in held_arrays(built))
        assert len(evariables._designs) == 4

    @pytest.mark.parametrize("kind, build", [
        ("mic", lambda: Statistic.mic((5.0, 7.0), TestProjectionMemo.PRIORS)),
        ("mic", lambda: Statistic.mic((5, np.float64(7)), TestProjectionMemo.PRIORS)),
        ("pseudo", lambda: pseudo_null((5, 7), TestProjectionMemo.PRIORS, scale=100.0,
                                       density_grid=501)),
        ("pseudo", lambda: pseudo_null((5, 7), TestProjectionMemo.PRIORS, scale=100,
                                       density_grid=501.0)),
        ("can", lambda: Statistic.can((5, 7), TestProjectionMemo.PRIORS,
                                      **{**TestProjectionMemo.RIPR, "grid_size": 101.0})),
        ("can", lambda: Statistic.can((5, 7), TestProjectionMemo.PRIORS,
                                      **{**TestProjectionMemo.RIPR, "max_iter": 20_000.0})),
        ("point", lambda: Statistic.point((5.0, 7), (0.2, 0.7), **TestProjectionMemo.RIPR)),
    ])
    def test_float_sizes_and_settings_refused_on_hit_and_miss(self, kind, build):
        # The key compared numbers by value, so a float size or integer
        # setting read the entry its integer had built, though a fresh build
        # with it raised.
        with pytest.raises(TypeError, match="float.* object cannot be interpreted as an integer"):
            build()
        assert evariables._designs == {}
        self.designs()[kind]()
        with pytest.raises(TypeError, match="float.* object cannot be interpreted as an integer"):
            build()
        assert len(evariables._designs) == 1

    def test_unconverged_refused_at_build_and_not_kept(self, solves):
        # The memo keeps only successful builds: a repeated request for an
        # unconverged projection solves again, and is refused again.
        for _ in range(2):
            with pytest.raises(ValueError, match="did not converge in 1 iterations"):
                Statistic.can(self.SIZES, self.PRIORS, max_iter=1, tol=1e-16)
        assert len(solves) == 2 and evariables._designs == {}

    def test_bounded_and_tracer_visible(self, monkeypatch):
        # A tracer wraps what inspect.isfunction accepts, so the builders
        # must stay plain functions.
        for name in BUILDERS:
            assert inspect.isfunction(getattr(evariables, name)), name
        assert evariables._designs == {}
        uniform = self.PRIORS[:1]
        for m in (8, 9, 10):
            Statistic.mic((m,), uniform)
        # mic on one group of m keeps its group terms and its count law, 8(m+1)
        # bytes each, and is counted with 2 KB for its objects.
        entries = {key[1][0]: size for key, (_, size) in evariables._designs.items()}
        assert entries == {m: 2048 + 16 * (m + 1) for m in (8, 9, 10)}
        # Room for the three and what the fourth adds beyond the second.
        monkeypatch.setattr(evariables, "_DESIGN_BYTES", sum(entries.values()) + 32)
        Statistic.mic((8,), uniform)  # a hit, now the most recent
        Statistic.mic((11,), uniform)
        # The least recent entry went first, and only it.
        assert held_sizes() == [(10,), (8,), (11,)]
        assert sum(size for _, size in evariables._designs.values()) <= evariables._DESIGN_BYTES
        # An entry larger than the whole budget is returned but not kept, and
        # drops nothing.
        big = Statistic.mic((1000,), uniform)
        assert big.sizes == (1000,)
        assert held_sizes() == [(10,), (8,), (11,)]
        assert Statistic.mic((1000,), uniform) is not big

    def test_reused_projection_survives_many_designs(self, solves):
        # An epower cell keeps three entries (mic, can and the pseudo null); twelve
        # small cells overflowed a memo of 32 entries, which dropped the
        # first cell's projection and solved it again.
        designs = [(m, m + 1) for m in range(2, 14)]
        priors = self.PRIORS
        for sizes in designs:
            Statistic.mic(sizes, priors)
            Statistic.can(sizes, priors, **self.RIPR)
            pseudo_null(sizes, priors, **self.DENSITY)
        assert len(solves) == len(designs) and len(evariables._designs) == 36
        Statistic.can(designs[0], priors, **self.RIPR)
        assert len(solves) == len(designs)

    @pytest.mark.parametrize("kind", ["mic", "can", "point", "pseudo"])
    def test_entry_within_its_byte_bound(self, kind):
        # What an entry keeps, traced: at most 8(n+k) bytes of group terms,
        # its null, log W0 at every count, 8(n+1), a projection's atoms, 16
        # grid_size, and about 2 KB of objects, as the comment of
        # _DESIGN_BYTES states. A projection does not keep the count law it
        # was solved from, which would add another 8(n+1), 16 KB here. A
        # pseudo null's entry is that null, 8(n+1), and 2 KB: it keeps no
        # group terms and not its density, 20,001 points.
        grid_size = 301

        def design(sizes):
            """The build of this kind on sizes, the least it keeps, and the
            bytes of arrays it may keep."""
            n, k = sum(sizes), len(sizes)
            priors = [PriorSpec.from_beta(2, 2)] * k
            alt = (0.3, 0.4, 0.5, 0.6)[:k]
            terms, null = 8 * (n + k), 8 * (n + 1)
            return {
                "mic": (lambda: Statistic.mic(sizes, priors), terms, terms + null),
                "can": (lambda: Statistic.can(sizes, priors, grid_size, tol=1e-8),
                        terms, terms + null + 16 * grid_size),
                "point": (lambda: Statistic.point(sizes, alt, grid_size, tol=1e-8),
                          terms, terms + null + 16 * grid_size),
                "pseudo": (lambda: pseudo_null(sizes, priors, scale=100), 8 * n, null),
            }[kind]

        # One untraced build of another design of the kind first, so that the
        # traced bytes are the entry's, not the process's first-use
        # allocations, which the tests run before this one used to make.
        design((30, 50, 20))[0]()
        evariables._designs.clear()
        build, least, most = design((400, 600, 800, 200))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            build()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert least < kept <= most + 4096
        (_, size), = evariables._designs.values()
        assert least + 2048 < size <= most + 2048


def enumerated_e_power(log_e_fn, group_pmfs) -> float:
    """Oracle: the expected log statistic by enumerating the product support;
    log_e_fn takes a tuple of per-group one-counts."""
    log_ws = [p.log_weights for p in group_pmfs]
    total = 0.0
    for idx in itertools.product(*[range(p.support_size) for p in group_pmfs]):
        lp = sum(float(lw[i]) for lw, i in zip(log_ws, idx))
        if lp == NEG_INF:
            continue
        total += math.exp(lp) * log_e_fn(idx)
    return total


def count_only_statistic(sizes, h):
    """A statistic with zero group terms and the count term h over 0..n."""
    return Statistic("gro_point", tuple(np.zeros(n + 1) for n in sizes),
                     log_binomial_row(sum(sizes)) - h)


# The nine cells of acceptance criterion 4, a three-group cell and two
# unequal two-group cells.
ORACLE_CELLS = [
    *[((m, m), spec) for spec in ("beta:1,1", "beta:3,3", "nml") for m in (5, 10, 20)],
    ((5, 5, 5), "beta:3,3"),
    ((3, 8), "beta:1,1"),
    ((12, 4), "nml"),
]


class TestEPower:
    def test_constant_statistic(self):
        gp = [binomial_pmf(3, 0.4), binomial_pmf(3, 0.6)]
        assert e_power(count_only_statistic((3, 3), np.zeros(7)), gp) == pytest.approx(0.0)

    def test_vanishing_statistic_rejected(self):
        gp = [binomial_pmf(2, 0.5)]
        with pytest.raises(ValueError, match="vanishes"):
            e_power(count_only_statistic((2,), np.array([0.0, NEG_INF, 0.0])), gp)

    def test_sizes_must_match(self):
        with pytest.raises(ValueError, match="sizes"):
            e_power(count_only_statistic((2,), np.zeros(3)), [binomial_pmf(3, 0.5)])

    def test_gro_mic_beats_other_evariables(self):
        # The mic statistic maximizes e-power among the tested e-variables
        # under the marginal alternative it was built for.
        sizes = (4, 4)
        priors = [PriorSpec.from_beta(2, 1)] * 2
        gp = [induced_group_pmf(s, n) for s, n in zip(priors, sizes)]
        mic = e_power(Statistic.mic(sizes, priors), gp)
        # Competitor: mic statistic built for the wrong priors; it remains
        # an e-variable but has lower e-power.
        other = e_power(Statistic.mic(sizes, [PriorSpec.uniform()] * 2), gp)
        assert mic >= other - 1e-12

    @pytest.mark.parametrize(
        "sizes, label", ORACLE_CELLS,
        ids=[f"{','.join(map(str, sizes))}-{label}" for sizes, label in ORACLE_CELLS],
    )
    def test_matches_enumeration(self, sizes, label):
        priors = [parse_prior(label)] * len(sizes)
        gp = [induced_group_pmf(s, n) for s, n in zip(priors, sizes)]
        # Any converged projection serves: the check is of the decomposition.
        # The oracle asks for the statistic at each table, as the CLI does;
        # the design memo returns the one built first.
        cases = [
            lambda: Statistic.mic(sizes, priors),
            lambda: Statistic.can(sizes, priors, grid_size=501),
        ]
        for build in cases:
            statistic = build()
            oracle = enumerated_e_power(lambda ones: build().log_e(ones), gp)
            assert e_power(statistic, gp) == pytest.approx(oracle, abs=1e-10), (
                statistic.kind
            )
        # The pseudo e-power, summed as one statistic (tests/oracles.py),
        # against mic's group terms and W_ps at each table's total count.
        mic = Statistic.mic(sizes, canonical_priors(priors))
        log_w_ps = pseudo_null(sizes, priors)

        def pseudo_log_e(ones):
            return mic.log_e(ones) + float(mic.null[sum(ones)] - log_w_ps[sum(ones)])

        oracle = enumerated_e_power(pseudo_log_e, gp)
        assert pseudo_e_power(priors, sizes, gp) == pytest.approx(oracle, abs=1e-10)


class TestIdentities:
    """Identities of the statistics that hold whatever the projection's
    solver returns, or that it should meet (ROADMAP findings 5 and 6)."""

    @pytest.mark.parametrize(
        "sizes, label",
        [((5, 5), "beta:3,3"), ((6, 6, 6), "beta:3,3"), ((8, 16), "beta:3,3"), ((4, 4), "nml")],
    )
    def test_can_gains_its_achieved_kl_over_mic(self, sizes, label):
        # Finding 6: can and mic share their group terms, so under the Bayes
        # marginal can's e-power exceeds mic's by sum_c Q(c) log(Q(c)/W0(c)),
        # the projection's achieved KL, for any W0.
        priors = [parse_prior(label)] * len(sizes)
        gp = [induced_group_pmf(s, n) for s, n in zip(priors, sizes)]
        can = Statistic.can(sizes, priors)
        gain = e_power(can, gp) - e_power(Statistic.mic(sizes, priors), gp)
        assert abs(gain - can.achieved_kl) <= 1e-12

    @pytest.mark.xfail(
        strict=True,
        reason="finding 5: SQUAREM stops short of the one-atom projection (2.3e-6); "
        "ROADMAP item 3",
    )
    def test_point_inside_the_null_has_no_e_power(self):
        # Equal alternative parameters make the count law Binomial(40, 0.5),
        # a one-atom binomial mixture: W0 should be that law, S = 1 at every
        # table, and the e-power 0.
        statistic = Statistic.point((20, 20), (0.5, 0.5))
        assert abs(e_power(statistic, [binomial_pmf(20, 0.5)] * 2)) <= 1e-12


class TestNullExpectationLedger:
    """ROADMAP finding 1's ledger. Under iid Bernoulli(p) nulls a statistic
    has E_p[S] = sum_c Binom(n, p)(c) Q(c)/W0(c), Q the design's exact count
    law (mic's null) and W0 the statistic's own null, so it is an e-variable
    only if the supremum over p is at most 1 (oracles.log_sup_null_expectation)."""

    @pytest.mark.parametrize("design", TABLE_DESIGNS)
    def test_mic_reads_one(self, design):
        sizes, label, _ = TABLE_DESIGNS[design]
        mic = Statistic.mic(sizes, [parse_prior(label)] * len(sizes))
        assert abs(math.expm1(log_sup_null_expectation(mic.null, mic.null))) <= 1e-12

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP finding 1: SQUAREM stops on KL, which cannot see the tails, so "
        "can's sup_p E_p[S] is 1.00026, 1.000113, 1.00071 and 1.5567 on these "
        "designs; item 14 (a certified, deflated e-value) is the mend"))
    @pytest.mark.parametrize("design", TABLE_DESIGNS)
    def test_can_reads_at_most_one(self, design):
        sizes, label, _ = TABLE_DESIGNS[design]
        priors = [parse_prior(label)] * len(sizes)
        q = Statistic.mic(sizes, priors).null
        can = Statistic.can(sizes, priors)
        assert log_sup_null_expectation(q, can.null) <= math.log1p(1e-9)


class TestCombineAndDecide:
    """Optional continuation multiplies independent e-values: `continue` sums
    their logs."""

    def combined(self, capsys, *evalues):
        assert main(["continue", *evalues]) == 0
        return json.loads(capsys.readouterr().out)

    def test_product(self, capsys):
        payload = self.combined(capsys, "2", "3")
        assert payload["log_e"] == pytest.approx(math.log(6.0))
        assert payload["components"] == 2

    def test_identity_element(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text('{"log_e": 1.234, "is_evariable": true}')
        assert self.combined(capsys, str(path), "1")["log_e"] == pytest.approx(1.234)

    def test_empty(self, capsys):
        # argparse refuses a `continue` with nothing to combine.
        with pytest.raises(SystemExit) as info:
            main(["continue"])
        assert info.value.code == 2

    def test_decide_threshold(self):
        assert decide(math.log(25), 0.05) == "reject"
        assert decide(math.log(19.9), 0.05) == "continue"
        assert decide(math.log(20), 0.05) == "reject"

    def test_decide_validation(self):
        with pytest.raises(ValueError):
            decide(0.0, 0.0)
        with pytest.raises(ValueError):
            decide(float("nan"), 0.05)

    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=-5, max_value=5),
    )
    def test_decide_consistent_with_inequality(self, alpha, log_e):
        expected = "reject" if log_e >= -math.log(alpha) else "continue"
        assert decide(log_e, alpha) == expected

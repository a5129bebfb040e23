import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from maxent_evalues.models import Table, canonical_loglik, log_multiplicity
from maxent_evalues.numerics import NEG_INF


def table_strategy(max_k=4, max_n=10):
    def build(sizes):
        return st.tuples(
            *[st.integers(min_value=0, max_value=n) for n in sizes]
        ).map(lambda ones: Table(tuple(zip(sizes, ones))))

    return st.lists(
        st.integers(min_value=1, max_value=max_n), min_size=1, max_size=max_k
    ).flatmap(build)


class TestTable:
    def test_properties(self):
        t = Table(((3, 1), (5, 4)))
        assert t.k == 2
        assert t.sizes == (3, 5)
        assert t.ones == (1, 4)
        assert t.n == 8
        assert t.n1 == 5

    def test_invalid_rows(self):
        with pytest.raises(ValueError, match="invalid table row"):
            Table(((3, 4),))
        with pytest.raises(ValueError, match="invalid table row"):
            Table(((3, -1),))

    def test_empty(self):
        with pytest.raises(ValueError, match="no groups"):
            Table(())


class TestMultiplicity:
    def test_null_is_total_binomial(self):
        t = Table(((2, 2), (2, 0)))
        assert np.exp(log_multiplicity(t, "null")) == pytest.approx(6.0, rel=1e-13)

    def test_alt_is_product(self):
        t = Table(((4, 2), (3, 1)))
        assert np.exp(log_multiplicity(t, "alt")) == pytest.approx(18.0, rel=1e-13)

    def test_unknown_hypothesis(self):
        with pytest.raises(ValueError):
            log_multiplicity(Table(((2, 1),)), "other")

    @given(table_strategy())
    def test_alt_never_exceeds_null(self, t):
        # Configurations realizing the per-group counts are a subset of those
        # realizing the total count.
        assert log_multiplicity(t, "alt") <= log_multiplicity(t, "null") + 1e-12


class TestCanonicalLoglik:
    def test_null_vs_alt_consistency(self):
        t = Table(((4, 2), (3, 1)))
        assert canonical_loglik(t, 0.4, "null") == pytest.approx(
            canonical_loglik(t, [0.4, 0.4], "alt"), rel=1e-13
        )

    def test_boundary_zero_convention(self):
        t = Table(((4, 0), (3, 0)))
        assert canonical_loglik(t, 0.0, "null") == pytest.approx(0.0, abs=1e-15)

    def test_boundary_contradiction(self):
        t = Table(((4, 1), (3, 0)))
        assert canonical_loglik(t, 0.0, "null") == NEG_INF
        assert canonical_loglik(t, 1.0, "null") == NEG_INF

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            canonical_loglik(Table(((2, 1),)), 1.2, "null")

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            canonical_loglik(Table(((2, 1), (2, 1))), [0.3], "alt")

    @given(table_strategy(), st.floats(min_value=0.01, max_value=0.99))
    def test_matches_direct_formula(self, t, p):
        expect = sum(
            o * math.log(p) + (n - o) * math.log(1 - p) for n, o in t.groups
        )
        assert canonical_loglik(t, p, "null") == pytest.approx(expect, rel=1e-10)

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from maxent_evalues.models import Table, log_multiplicity


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

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from maxent_evalues.models import Table
from oracles import log_multiplicity


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

    def test_invalid_rows(self):
        with pytest.raises(ValueError, match="invalid table row"):
            Table(((3, 4),))
        with pytest.raises(ValueError, match="invalid table row"):
            Table(((3, -1),))

    def test_empty(self):
        with pytest.raises(ValueError, match="no groups"):
            Table(())

    def test_integer_and_integral_counts_accepted(self):
        t = Table(((np.int64(10), 3.0), (np.float32(12), np.uint8(1))))
        assert t.groups == ((10, 3), (12, 1))
        assert all(type(x) is int for row in t.groups for x in row)

    @pytest.mark.parametrize("groups, message", [
        (((10.7, 3), (12, 1)), "table row 0: n must be an integer, got 10.7"),
        (((10, 3), (12, True)), "table row 1: ones must be an integer, got True"),
        (((10, np.float64(2.5)),), "table row 0: ones must be an integer, got np.float64(2.5)"),
        (((np.bool_(True), 0),), "table row 0: n must be an integer, got np.True_"),
        ((("10", 3),), "table row 0: n must be an integer, got '10'"),
        (((10, float("nan")),), "table row 0: ones must be an integer, got nan"),
    ])
    def test_fractional_and_bool_counts_refused(self, groups, message):
        # One count rule for every caller: the API refuses what it used to
        # truncate, with the message parse_table gives for the same value.
        with pytest.raises(ValueError) as info:
            Table(groups)
        assert str(info.value) == message


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

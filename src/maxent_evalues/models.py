"""2xk binary contingency-table data model and configuration counts.

All computations work on sufficient statistics (per-group one-counts); raw
binary sequences are never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

from .numerics import log_binomial


@dataclass(frozen=True)
class Table:
    """Per-group (size, one-count) pairs of a 2xk binary table."""

    groups: tuple[tuple[int, int], ...]

    def __post_init__(self):
        groups = tuple((int(n), int(ones)) for n, ones in self.groups)
        object.__setattr__(self, "groups", groups)
        if len(groups) < 1:
            raise ValueError("no groups")
        for i, (n, ones) in enumerate(groups):
            if n < 1:
                raise ValueError(f"table row {i}: group size must be at least 1")
            if not 0 <= ones <= n:
                raise ValueError(f"invalid table row {i}: n={n}, ones={ones}")

    @property
    def k(self) -> int:
        return len(self.groups)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.groups)

    @property
    def ones(self) -> tuple[int, ...]:
        return tuple(o for _, o in self.groups)

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def n1(self) -> int:
        return sum(self.ones)


def log_multiplicity(t: Table, hypothesis: str) -> float:
    """Log count of configurations realizing the table's sufficient statistic.

    Null: C(n, n1). Alternative: product of per-group C(n_i, ones_i).
    """
    if hypothesis == "null":
        return log_binomial(t.n, t.n1)
    if hypothesis == "alt":
        return sum(log_binomial(n, o) for n, o in t.groups)
    raise ValueError(f"unknown hypothesis {hypothesis!r}")

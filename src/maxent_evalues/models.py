"""2xk binary contingency-table data model.

All computations work on sufficient statistics (per-group one-counts); raw
binary sequences are never materialized.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass


def _count(value, row: int, field: str) -> int:
    """One count of a table: a Python or NumPy integer, or an integral float.
    A bool or a fraction is refused rather than truncated."""
    if not isinstance(value, bool):
        if isinstance(value, numbers.Integral):
            return int(value)
        if isinstance(value, numbers.Real) and float(value).is_integer():
            return int(value)
    raise ValueError(f"table row {row}: {field} must be an integer, got {value!r}")


@dataclass(frozen=True)
class Table:
    """Per-group (size, one-count) pairs of a 2xk binary table."""

    groups: tuple[tuple[int, int], ...]

    def __post_init__(self):
        groups = tuple(
            (_count(n, i, "n"), _count(ones, i, "ones")) for i, (n, ones) in enumerate(self.groups)
        )
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

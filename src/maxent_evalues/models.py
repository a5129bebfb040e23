"""2xk binary contingency-table data model and likelihoods.

All computations work on sufficient statistics (per-group one-counts); raw
binary sequences are never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .numerics import NEG_INF, log_binomial


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


def canonical_loglik(t: Table, params, hypothesis: str) -> float:
    """Log-likelihood of one configuration under the product-Bernoulli model.

    Boundary parameters use the 0^0 = 1 convention; a count contradicting a
    degenerate parameter yields -inf.
    """
    p = np.atleast_1d(np.asarray(params, dtype=float))
    if ((p < 0) | (p > 1)).any():
        raise ValueError("mean parameters must lie in [0, 1]")
    if hypothesis == "null":
        if p.size != 1:
            raise ValueError("null hypothesis takes a single parameter")
        p = np.repeat(p, t.k)
    elif hypothesis == "alt":
        if p.size != t.k:
            raise ValueError(f"expected {t.k} parameters, got {p.size}")
    else:
        raise ValueError(f"unknown hypothesis {hypothesis!r}")
    total = 0.0
    for (n, ones), pi in zip(t.groups, p):
        if (pi == 0.0 and ones > 0) or (pi == 1.0 and ones < n):
            return NEG_INF
        total += float(xlogy(ones, pi) + xlogy(n - ones, 1.0 - pi))
    return total

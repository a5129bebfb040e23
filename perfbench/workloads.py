"""Inputs of the three benchmark workloads.

Every workload is a list of strata. A stratum owns a pool of items (an item
is a list of ops) drawn once from a fixed pool seed with the standard
library's `random` (stable across Python and numpy versions), so that every
pooled op has a reference output recorded in `references.json`. Each
stratum also states how many of its items a round runs (`per_round`), and
deals them out round after round without replacement (see `run_plan`): a
stratum whose pool is `per_round` times the round count runs every item
once per run. The seed changes which inputs a run draws, never how many ops
of each stratum it runs.

Alternatives are local (Le Cam contiguous): group rates differ from the
common rate by about two standard errors, which is where a test's outcome
is in doubt. Half of the pooled tables and networks are drawn under the
null, half under such an alternative.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

POOL_SEED = 20250901
WORKLOADS = ("tables", "epower", "gap")


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output is checked against."""

    key: str  # pool key, also the references.json key
    kind: str  # op type, e.g. "test.mic" or "gap"
    argv: tuple[str, ...]  # CLI arguments; "{dir}" is the input directory
    files: dict = field(default_factory=dict, compare=False)  # name -> text
    oracle: dict | None = field(default=None, compare=False)

    def resolved_argv(self, directory: str) -> list[str]:
        return [a.replace("{dir}", directory) for a in self.argv]


@dataclass(frozen=True)
class Stratum:
    """A pool of items and how many of them each round runs."""

    name: str
    items: list  # each item is a list of ops, run one after another
    per_round: int


def _binomial(rng: random.Random, n: int, p: float) -> int:
    return sum(rng.random() < p for _ in range(n))


def _local_alternative(rng: random.Random, p0: float, sizes) -> list[float]:
    out = []
    for n in sizes:
        p = p0 + 2.0 * rng.gauss(0.0, 1.0) * math.sqrt(p0 * (1.0 - p0) / n)
        out.append(min(0.99, max(0.01, p)))
    return out


def _fmt(values) -> str:
    return ",".join(f"{v:.4f}" for v in values)


# --- tables -----------------------------------------------------------------

# Each table stratum is one design: k, group sizes (drawn once, per group,
# from the range, so most tables have unequal groups), prior and the planned
# point alternative. Its pool items are the observed data: one-counts drawn
# under the null or under a local alternative, each put through mic, can and
# point. The cost of the three statistics depends on the design and not on
# the data, so a round costs the same whichever items the seed deals. n runs
# from 30 to about 2000. A round tests one table of each design.
TABLE_STRATA = (
    ("t2-uniform", 2, (15, 40), "uniform"),
    ("t4-nml", 4, (40, 80), "nml"),
    ("t8-uniform", 8, (150, 250), "uniform"),
    ("t16-beta22", 16, (30, 60), "beta:2,2"),
)
TABLE_POOL = 16
STATISTICS = ("mic", "can", "point")
# SBM networks: the node count and block partition are the design, the edges
# are the data. 130 to 150 nodes and 3 to 5 blocks give about 1e4 dyads, past
# numerics.FFT_THRESHOLD, so the optimal null prior is an FFT convolution. A
# round puts one network through can and point. mic is not run on them: at
# this size it takes the FFT route of numerics.convolve, whose linear-space
# round-off is off the exact value by up to 1.2e-5 in log_e on 3 of the 18
# pooled networks, and the benchmark keeps to ops that pass their checks.
# test_perfbench.test_fft_route_mic_matches_the_exact_oracle keeps that error
# in view.
NETWORK_NODES = (130, 150)
NETWORK_POOL = 18
NETWORK_STATISTICS = ("can", "point")


def _table_json(sizes, ones) -> str:
    return json.dumps({"groups": [{"n": n, "ones": o} for n, o in zip(sizes, ones)]})


def _draw_rates(rng, sizes):
    p0 = rng.uniform(0.1, 0.9)
    return [p0] * len(sizes) if rng.random() < 0.5 else _local_alternative(rng, p0, sizes)


def _statistic_ops(name, idx, kind, source, fname, text, prior, palt, groups,
                   statistics=STATISTICS):
    ops = []
    for stat in statistics:
        argv = [*source, "--statistic", stat]
        argv += ["--palt", _fmt(palt)] if stat == "point" else ["--prior", prior]
        oracle = {"mic_uniform": groups} if stat == "mic" and prior == "uniform" else None
        ops.append(Op(f"tables/{name}/{idx:02d}/{stat}", f"{kind}.{stat}",
                      tuple(argv), {fname: text}, oracle))
    return ops


def _table_stratum(name, k, size_range, prior):
    rng = random.Random(f"{POOL_SEED}/{name}")
    sizes = [rng.randint(*size_range) for _ in range(k)]
    palt = _local_alternative(rng, rng.uniform(0.1, 0.9), sizes)
    items = []
    for idx in range(TABLE_POOL):
        ones = [_binomial(rng, n, p) for n, p in zip(sizes, _draw_rates(rng, sizes))]
        fname = f"{name}-{idx:02d}.json"
        items.append(_statistic_ops(name, idx, "test", ["test", "--table", "{dir}/" + fname],
                                    fname, _table_json(sizes, ones), prior, palt,
                                    list(zip(sizes, ones))))
    return Stratum(name, items, 1)


def network_stratum(statistics=NETWORK_STATISTICS) -> Stratum:
    """The pooled networks, each put through `statistics`."""
    name = "net-large"
    rng = random.Random(f"{POOL_SEED}/{name}")
    nodes = rng.randint(*NETWORK_NODES)
    blocks = rng.randint(3, 5)
    labels = [i % blocks for i in range(nodes)]
    rng.shuffle(labels)
    members = [labels.count(b) for b in range(blocks)]
    # Group i of the reduced table is the i-th block pair in sorted label
    # order; labels "b0".."b4" sort like their indices.
    pairs = [(a, b) for a in range(blocks) for b in range(a, blocks)]
    dyads = [members[a] * (members[a] - 1) // 2 if a == b else members[a] * members[b]
             for a, b in pairs]
    palt = _local_alternative(rng, rng.uniform(0.05, 0.3), dyads)
    partition = {f"v{i}": f"b{labels[i]}" for i in range(nodes)}
    items = []
    for idx in range(NETWORK_POOL):
        p0 = rng.uniform(0.05, 0.3)
        rates = [p0] * len(pairs) if rng.random() < 0.5 else _local_alternative(rng, p0, dyads)
        rate = dict(zip(pairs, rates))
        counts = dict.fromkeys(pairs, 0)
        edges = []
        for i in range(nodes):
            for j in range(i + 1, nodes):
                pair = (min(labels[i], labels[j]), max(labels[i], labels[j]))
                if rng.random() < rate[pair]:
                    edges.append([f"v{i}", f"v{j}"])
                    counts[pair] += 1
        fname = f"{name}-{idx:02d}.json"
        text = json.dumps({"edges": edges, "partition": partition})
        source = ["net-test", "--network", "{dir}/" + fname, "--mode", "sbm_vs_er_undirected"]
        groups = [(d, counts[p]) for p, d in zip(pairs, dyads)]
        items.append(_statistic_ops(name, idx, "net-test", source, fname, text, "uniform", palt,
                                    groups, statistics))
    return Stratum(name, items, 1)


def _tables_pool():
    strata = [_table_stratum(*design) for design in TABLE_STRATA]
    return strata + [network_stratum()]


# --- epower -----------------------------------------------------------------

# Cells under the priors of acceptance criterion 4. A cell's cost depends on
# its sizes and prior, not on the seed, and jumps with m: ripr_solve at tiny n
# takes thousands of iterations, erratically. Pools of three cells with one
# per round run each cell once in a run of three rounds.
# (stratum, prior, cells, per round):
EPOWER_STRATA = (
    # beta(1,1) costs 2.5 to 7 s a cell; criterion 4's middle m only.
    ("uniform-k2", "beta:1,1", ((10, 10),), 1),
    # criterion 4's beta(3,3) row.
    ("beta33-k2", "beta:3,3", ((5, 5), (10, 10), (20, 20)), 1),
    ("beta33-k3", "beta:3,3", ((3, 3, 3), (4, 4, 4), (5, 5, 5), (6, 6, 6)), 4),
    # criterion 4's NML m = 5 cell and two cheaper ones (1 to 2.5 s); its
    # m = 10 and 20 cells take 2 to 5 s.
    ("nml", "nml", ((4, 4), (5, 5), (3, 3, 3)), 1),
)
# Unequal k=2 beta(3,3) cells with sizes 4 to 16, drawn from the pool seed.
# Their costs (0.1 to 1 s) grow with the (a+1)(b+1) tables e_power sums
# over, so the cells are split by that count into UNEQUAL_TIERS tiers of like
# cost, and each round deals one cell of each tier: the seed picks the cells
# without changing what a run costs much.
UNEQUAL_SIZES = (4, 16)
UNEQUAL_POOL = 16
UNEQUAL_TIERS = 4


def _epower_op(sizes, prior):
    text = ",".join(map(str, sizes))
    return [Op(f"epower/{text}/{prior}", "epower", ("epower", "--sizes", text, "--prior", prior))]


def _epower_pool():
    strata = [Stratum(name, [_epower_op(sizes, prior) for sizes in cells], per_round)
              for name, prior, cells, per_round in EPOWER_STRATA]
    rng = random.Random(f"{POOL_SEED}/epower-unequal")
    cells = []
    while len(cells) < UNEQUAL_POOL:
        a, b = rng.randint(*UNEQUAL_SIZES), rng.randint(*UNEQUAL_SIZES)
        if a != b and (a, b) not in cells:
            cells.append((a, b))
    cells.sort(key=lambda c: (c[0] + 1) * (c[1] + 1))
    width = UNEQUAL_POOL // UNEQUAL_TIERS
    for tier in range(UNEQUAL_TIERS):
        tier_cells = cells[tier * width:(tier + 1) * width]
        strata.append(Stratum(f"unequal-{tier + 1}",
                              [_epower_op(c, "beta:3,3") for c in tier_cells], 1))
    return strata


# --- gap --------------------------------------------------------------------

# Frozen r values of acceptance criterion 5 (scale 1e4, 20001-point grid),
# for m = 10, 20, 40, 80, 160, 320.
FROZEN_M = (10, 20, 40, 80, 160, 320)
CRITERION5 = {
    "equal-uniform": ("beta:1,1", lambda m: (m, m), (
        1.592241e-03, 6.483266e-04, 2.518505e-04,
        9.484996e-05, 3.499750e-05, 1.273876e-05)),
    "two-to-one-uniform": ("beta:1,1", lambda m: (2 * m, m), (
        5.906357e-04, 2.453263e-04, 9.625112e-05,
        3.640543e-05, 1.345721e-05, 4.901945e-06)),
    "equal-nml": ("nml", lambda m: (m, m), (
        3.340842e-02, 2.423083e-02, 1.640608e-02,
        1.062516e-02, 6.685950e-03, 4.130626e-03)),
}
# m = 80 to 320 take 1 to 4.5 s each. m = 14 and 28 sit between criterion 5's
# 10, 20 and 40, so that the sweep's costs, and the latency percentiles that
# fall among them, run smoothly rather than in three steps.
CRITERION5_M = (10, 14, 20, 28, 40)
# The fixed-n cells take 4 to 10 s each, more than the rest of a round
# together; one a round runs each of them once in a run of three rounds, and
# so does a third of the criterion 5 sweep.
FIXED_N = 1024
FIXED_N_K = (2, 4, 8)
GAP_POOL = 12
PALT_M = 50
PSEUDO_SIZES = ((12, 17), (5, 8, 11, 15))


def _gap_pool():
    """Every cell is fixed; the seed draws the alternatives of rprime --palt
    and the observed tables of the pseudo tests, which leave a cell's cost
    unchanged. A round runs a third of the sweep of criterion 5 cells, both
    worst-case searches, one fixed-n cell, one rprime --palt and one pseudo
    test of each size."""
    c5 = []
    for tag, (prior, sizes_of, frozen) in CRITERION5.items():
        for m in CRITERION5_M:
            sizes = ",".join(map(str, sizes_of(m)))
            oracle = {"frozen_r": frozen[FROZEN_M.index(m)]} if m in FROZEN_M else None
            c5.append([Op(f"gap/c5/{tag}/{m}", "gap", ("gap", "--sizes", sizes, "--prior", prior),
                          oracle=oracle)])
    fixed = [[Op(f"gap/fixed-n/{k}", "gap",
                 ("gap", "--k", str(k), "--m", str(FIXED_N // k), "--prior", "beta:1,1"))]
             for k in FIXED_N_K]
    worst = [[Op(f"gap/worst/{k}/{m}", "rprime.worst",
                 ("rprime", "--k", str(k), "--m", str(m), "--worst-case"))]
             for k, m in ((2, 20), (3, 10))]
    rng = random.Random(f"{POOL_SEED}/gap-palt")
    palts = [[Op(f"gap/palt/{i:02d}", "rprime.palt",
                 ("rprime", "--k", "2", "--m", str(PALT_M), "--palt",
                  _fmt([rng.uniform(0.1, 0.9) for _ in range(2)])))]
             for i in range(GAP_POOL)]
    strata = [Stratum("criterion5", c5, len(c5) // len(FIXED_N_K)), Stratum("fixed-n", fixed, 1),
              Stratum("worst-case", worst, len(worst)), Stratum("palt", palts, 1)]
    for sizes in PSEUDO_SIZES:
        name = "pseudo-" + "-".join(map(str, sizes))
        rng = random.Random(f"{POOL_SEED}/{name}")
        items = []
        for i in range(GAP_POOL):
            ones = [_binomial(rng, n, p) for n, p in zip(sizes, _draw_rates(rng, sizes))]
            fname = f"{name}-{i:02d}.json"
            items.append([Op(f"gap/{name}/{i:02d}", "test.pseudo",
                             ("test", "--table", "{dir}/" + fname, "--statistic", "pseudo",
                              "--prior", "uniform"), {fname: _table_json(sizes, ones)})])
        strata.append(Stratum(name, items, 1))
    return strata


_POOLS = {"tables": _tables_pool, "epower": _epower_pool, "gap": _gap_pool}


def pool(workload: str) -> list[Stratum]:
    if workload not in _POOLS:
        raise ValueError(f"unknown workload {workload!r}")
    return _POOLS[workload]()


def all_ops(strata: list[Stratum]) -> list[Op]:
    """Every distinct op of the pool."""
    ops = {op.key: op for s in strata for item in s.items for op in item}
    return list(ops.values())


# About the seconds one round of each workload takes on the 2-core machine
# the benchmark was tuned on. A run is --seconds / ROUND_S rounds, rounded to
# the nearest whole count: 2 tables rounds and 3 epower and gap rounds at 30
# s. A count that followed the clock would change the mix as the shared
# machine's speed drifts. A tables round costs the same whichever tables it
# deals; the epower and gap rounds differ, and three of them cover every
# cell whose cost differs.
ROUND_S = {"tables": 13.5, "epower": 9.5, "gap": 10.0}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, math.floor(seconds / ROUND_S[workload] + 0.5))


def run_plan(strata: list[Stratum], seed: int, rounds: int) -> list[list[Op]]:
    """The ops of each round of a run with this seed. Every stratum deals its
    next `per_round` items a round. A stratum the run draws only part of is
    dealt from a seeded shuffle of its pool, so the seed picks the inputs; a
    stratum the run draws whole is dealt in pool order, since there the seed
    would only change the order, and the order alone moved peak RSS by up to
    12% (through the heap left by earlier ops)."""
    plan = [[] for _ in range(rounds)]
    for s in strata:
        order = list(range(len(s.items)))
        if s.per_round * rounds < len(s.items):
            random.Random(f"{seed}/{s.name}").shuffle(order)
        for index, ops in enumerate(plan):
            for slot in range(index * s.per_round, (index + 1) * s.per_round):
                ops.extend(s.items[order[slot % len(order)]])
    return plan


def warmup_op(workload: str) -> Op:
    """A cheap op on the workload's main route, run once during set-up."""
    if workload == "tables":
        return Op("warmup/tables", "warmup", ("test", "--table", "{dir}/warmup.json",
                                              "--statistic", "can", "--prior", "beta:2,2"),
                  {"warmup.json": json.dumps({"groups": [{"n": 40, "ones": 12},
                                                         {"n": 40, "ones": 20}]})})
    if workload == "epower":
        return Op("warmup/epower", "warmup", ("epower", "--sizes", "2,2", "--prior", "beta:3,3"))
    return Op("warmup/gap", "warmup", ("gap", "--sizes", "10,10", "--prior", "beta:1,1"))

"""Table ingestion and network-to-table adapters.

Two network reductions are supported: block-model against Erdos-Renyi
(groups are block pairs, sizes are dyad counts) and bipartite
configuration-model against bipartite Erdos-Renyi (groups are the
constrained-layer nodes, sizes the opposite-layer count).
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

from .models import Table

NETWORK_MODES = (
    "sbm_vs_er_undirected",
    "sbm_vs_er_directed",
    "pcm_vs_er_bipartite",
)


def parse_table(path, format: str | None = None) -> Table:
    """Read a table from JSON ({"groups":[{"n":..,"ones":..},..]}) or CSV
    (rows group_id,n,ones). Format inferred from the extension if omitted."""
    path = Path(path)
    if format is None:
        format = "json" if path.suffix.lower() == ".json" else "csv"
    text = path.read_text()
    return parse_table_text(text, format)


def parse_table_text(text: str, format: str) -> Table:
    if format == "json":
        payload = json.loads(text)
        if not isinstance(payload, dict) or "groups" not in payload:
            raise ValueError("expected a JSON object with a 'groups' list")
        rows = payload["groups"]
        if not isinstance(rows, list):
            raise ValueError("no groups")
        groups = []
        for i, row in enumerate(rows):
            if not isinstance(row, dict) or "n" not in row or "ones" not in row:
                raise ValueError("each group needs 'n' and 'ones'")
            groups.append((_count(row["n"], i, "n"), _count(row["ones"], i, "ones")))
        return Table(tuple(groups))
    if format == "csv":
        groups = []
        for row in csv.reader(io.StringIO(text)):
            if not row or not "".join(row).strip():
                continue
            if row[0].strip() == "group_id":  # tolerated header line
                continue
            if len(row) != 3:
                raise ValueError(f"expected 3 columns, got {len(row)}")
            i = len(groups)
            groups.append((_count(row[1], i, "n"), _count(row[2], i, "ones")))
        return Table(tuple(groups))
    raise ValueError(f"unknown format {format!r}")


def _count(value, row: int, field: str):
    """A count as read: the text of an integer becomes an int. Any other value
    is left for Table, which holds the rule for counts."""
    if not isinstance(value, str):
        return value
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"table row {row}: {field} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class NetworkInput:
    """Edge list with a node partition and the reduction mode."""

    edges: tuple[tuple[str, str], ...]
    partition: dict
    mode: str
    constrained_block: str | None = None

    def __post_init__(self):
        if self.mode not in NETWORK_MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        edges = tuple((str(a), str(b)) for a, b in self.edges)
        partition = {str(k): str(v) for k, v in self.partition.items()}
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "partition", partition)
        for a, b in edges:
            if a not in partition or b not in partition:
                raise ValueError(f"edge endpoint outside partition: ({a}, {b})")


def _block_members(partition) -> dict:
    members: dict = {}
    for node, block in partition.items():
        members.setdefault(block, set()).add(node)
    return members


def network_to_table(net: NetworkInput) -> Table:
    """Reduce a network test to a 2xk table of (possible, realized) link counts.

    Zero-size groups carry no dyads and are dropped with a warning.
    """
    if net.mode == "pcm_vs_er_bipartite":
        return _bipartite_table(net)
    directed = net.mode == "sbm_vs_er_directed"
    members = _block_members(net.partition)
    blocks = sorted(members)
    seen = set()
    counts: dict = {}
    for a, b in net.edges:
        if a == b:
            raise ValueError(f"self-loop at node {a}")
        key = (a, b) if directed else (min(a, b), max(a, b))
        if key in seen:
            raise ValueError("multigraph unsupported")
        seen.add(key)
        pa, pb = net.partition[a], net.partition[b]
        pair = (pa, pb) if directed else (min(pa, pb), max(pa, pb))
        counts[pair] = counts.get(pair, 0) + 1
    groups = []
    if directed:
        pairs = [(x, y) for x in blocks for y in blocks]
    else:
        pairs = [(x, y) for i, x in enumerate(blocks) for y in blocks[i:]]
    for x, y in pairs:
        sx, sy = len(members[x]), len(members[y])
        if x == y:
            size = sx * (sx - 1) if directed else sx * (sx - 1) // 2
        else:
            size = sx * sy
        ones = counts.get((x, y), 0)
        if size == 0:
            if ones:
                raise ValueError(f"edges in zero-dyad block pair ({x}, {y})")
            warnings.warn(f"dropping zero-size group ({x}, {y})")
            continue
        groups.append((size, ones))
    return Table(tuple(groups))


def _bipartite_table(net: NetworkInput) -> Table:
    members = _block_members(net.partition)
    if len(members) != 2:
        raise ValueError("bipartite mode requires exactly two block labels")
    blocks = sorted(members)
    constrained = net.constrained_block if net.constrained_block is not None else blocks[0]
    if constrained not in members:
        raise ValueError(f"unknown constrained block {constrained!r}")
    other = blocks[1] if constrained == blocks[0] else blocks[0]
    degree = {node: 0 for node in members[constrained]}
    seen = set()
    for a, b in net.edges:
        pa, pb = net.partition[a], net.partition[b]
        if pa == pb:
            raise ValueError(f"edge inside one layer: ({a}, {b})")
        key = (a, b) if pa == constrained else (b, a)
        if key in seen:
            raise ValueError("multigraph unsupported")
        seen.add(key)
        degree[key[0]] += 1
    size = len(members[other])
    return Table(tuple((size, degree[node]) for node in sorted(degree)))


def parse_network(path, mode: str, constrained_block: str | None = None) -> NetworkInput:
    """Read a network from JSON: {"edges":[[a,b],..], "partition":{node:block,..}}."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or "edges" not in payload or "partition" not in payload:
        raise ValueError("expected JSON with 'edges' and 'partition'")
    edges, partition = payload["edges"], payload["partition"]
    if not isinstance(partition, dict):
        raise ValueError("'partition' must be a JSON object mapping nodes to blocks")
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 for e in edges
    ):
        raise ValueError("'edges' must be a list of two-element [a, b] lists")
    return NetworkInput(
        edges=tuple((a, b) for a, b in edges),
        partition=partition,
        mode=mode,
        constrained_block=constrained_block,
    )

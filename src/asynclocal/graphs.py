"""Communication graphs: construction, validation, hashing and file I/O.

A graph is a finite simple connected graph whose nodes carry distinct
identifiers from ``{1, ..., id_bound}``.  Adjacency lists are kept sorted
ascending so that snapshot order, serialization and hashing are all
canonical.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from functools import cached_property

__all__ = [
    "Graph",
    "GraphError",
    "build_graph",
    "random_tree",
    "load_graph",
    "dump_graph",
    "parse_graph_spec",
]


class GraphError(ValueError):
    """Raised for malformed graph specifications."""


@dataclass(frozen=True)
class Graph:
    """Simple connected graph with identifier-carrying nodes.

    ``adj`` maps each node identifier to its neighbors in ascending order.
    ``id_bound`` is the public bound N on identifiers (processes only know
    that identifiers are distinct values in ``[1, N]``).  The derived views
    (``nodes``, ``node_set``, ``edges``, ``max_degree``) are computed on
    first use and kept, which is sound because a graph never changes.
    """

    id_bound: int
    adj: dict[int, tuple[int, ...]]
    kind: str = "explicit"
    _hash: str = field(init=False, default="", repr=False, compare=False)

    def __post_init__(self) -> None:
        _validate(self.id_bound, self.adj)
        object.__setattr__(self, "_hash", _canonical_hash(self.id_bound, self.adj))

    @cached_property
    def nodes(self) -> tuple[int, ...]:
        return tuple(sorted(self.adj))

    @cached_property
    def node_set(self) -> frozenset[int]:
        return frozenset(self.adj)

    @property
    def n(self) -> int:
        return len(self.adj)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (u, v) for u in sorted(self.adj) for v in self.adj[u] if u < v
        )

    @cached_property
    def max_degree(self) -> int:
        return max(len(nbrs) for nbrs in self.adj.values())

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    @property
    def hash(self) -> str:
        """Hex digest of the canonical (id_bound, adjacency) encoding."""
        return self._hash

    def to_dict(self) -> dict:
        return {
            "id_bound": self.id_bound,
            "nodes": [{"id": v, "neighbors": self.adj[v]} for v in sorted(self.adj)],
        }

    @classmethod
    def from_dict(cls, data: dict, kind: str = "explicit") -> "Graph":
        try:
            id_bound = int(data["id_bound"])
            adj = {
                int(entry["id"]): tuple(sorted(int(u) for u in entry["neighbors"]))
                for entry in data["nodes"]
            }
        except (KeyError, TypeError) as exc:
            raise GraphError(f"malformed graph record: {exc}") from exc
        return cls(id_bound=id_bound, adj=adj, kind=kind)


def _validate(id_bound: int, adj: dict[int, tuple[int, ...]]) -> None:
    if not adj:
        raise GraphError("graph has no nodes")
    nodes = set(adj)
    if len(nodes) != len(adj):
        raise GraphError("duplicate node identifiers")
    for v in nodes:
        if not (1 <= v <= id_bound):
            raise GraphError(f"identifier {v} outside [1, {id_bound}]")
    for v, nbrs in adj.items():
        if v in nbrs:
            raise GraphError(f"self-loop at node {v}")
        if len(set(nbrs)) != len(nbrs):
            raise GraphError(f"duplicate edge at node {v}")
        if tuple(sorted(nbrs)) != tuple(nbrs):
            raise GraphError(f"adjacency of node {v} not sorted")
        for u in nbrs:
            if u not in nodes:
                raise GraphError(f"edge {v}-{u} points outside the node set")
            if v not in adj[u]:
                raise GraphError(f"edge {v}-{u} not symmetric")
    # connectivity (the model assumes a connected communication graph)
    start = next(iter(nodes))
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    if seen != nodes:
        raise GraphError("graph is not connected")


def _canonical_hash(id_bound: int, adj: dict[int, tuple[int, ...]]) -> str:
    payload = json.dumps(
        {"id_bound": id_bound, "adj": {str(v): adj[v] for v in sorted(adj)}},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _ring_adjacency(ids: list[int], close: bool) -> dict[int, tuple[int, ...]]:
    n = len(ids)
    adj: dict[int, set[int]] = {v: set() for v in ids}
    last = n if close else n - 1
    for i in range(last):
        u, v = ids[i], ids[(i + 1) % n]
        adj[u].add(v)
        adj[v].add(u)
    return {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}


def build_graph(
    spec: str,
    ids: list[int] | None = None,
    id_bound: int | None = None,
) -> Graph:
    """Build a named graph family member.

    ``spec`` is one of ``cycle:n``, ``path:n``, ``clique:n`` or
    ``circulant:n,k`` (nodes ``u_0..u_{n-1}`` with ``u_i ~ u_{i+-1..k}``,
    requires ``n > 2k``).  Identifiers default to ``1..n`` in construction
    order; ``ids`` overrides them positionally (e.g. a cycle with ids
    ``(3,5,4,1,6)`` lists consecutive ring positions).  ``id_bound``
    defaults to ``max(n, max(ids))``.
    """
    kind, n, k = parse_graph_spec(spec)
    if ids is None:
        ids = list(range(1, n + 1))
    if len(ids) != n:
        raise GraphError(f"{spec} needs {n} identifiers, got {len(ids)}")
    if len(set(ids)) != n:
        dup = sorted({v for v in ids if ids.count(v) > 1})
        raise GraphError(f"duplicate identifiers {dup}")
    if id_bound is None:
        id_bound = max(n, max(ids))

    if kind == "cycle":
        if n < 3:
            raise GraphError("cycle needs at least 3 nodes")
        adj = _ring_adjacency(ids, close=True)
    elif kind == "path":
        if n < 1:
            raise GraphError("path needs at least 1 node")
        adj = _ring_adjacency(ids, close=False) if n > 1 else {ids[0]: ()}
    elif kind == "clique":
        adj = {v: tuple(sorted(u for u in ids if u != v)) for v in ids}
    elif kind == "circulant":
        if n <= 2 * k:
            raise GraphError(f"circulant:{n},{k} requires n > 2k")
        adj_sets: dict[int, set[int]] = {v: set() for v in ids}
        for i in range(n):
            for off in range(1, k + 1):
                u, v = ids[i], ids[(i + off) % n]
                adj_sets[u].add(v)
                adj_sets[v].add(u)
        adj = {v: tuple(sorted(nbrs)) for v, nbrs in adj_sets.items()}
    else:  # pragma: no cover - parse_graph_spec filters kinds
        raise GraphError(f"unknown graph kind {kind!r}")
    return Graph(id_bound=id_bound, adj=adj, kind=kind)


def parse_graph_spec(spec: str) -> tuple[str, int, int]:
    """Parse ``kind:args`` into ``(kind, n, k)`` (k only for circulant)."""
    kind, _, args = spec.partition(":")
    kind = kind.strip()
    if kind not in {"cycle", "path", "clique", "circulant"}:
        raise GraphError(f"unknown graph spec {spec!r}")
    try:
        parts = [int(p) for p in args.split(",") if p.strip()]
    except ValueError as exc:
        raise GraphError(f"bad graph spec {spec!r}") from exc
    if kind == "circulant":
        if len(parts) != 2:
            raise GraphError("circulant spec needs n,k")
        n, k = parts
    else:
        if len(parts) != 1:
            raise GraphError(f"{kind} spec needs a single size")
        n, k = parts[0], 0
    if n < 1 or (kind == "circulant" and k < 1):
        raise GraphError(f"bad sizes in graph spec {spec!r}")
    return kind, n, k


def random_tree(n: int, max_degree: int, seed: int) -> Graph:
    """Seeded random tree on ``n`` nodes with all degrees <= ``max_degree``.

    Built by random attachment: each new node joins a uniformly chosen
    existing node that still has spare degree, which keeps the draw
    deterministic for a given ``(n, max_degree, seed)``.
    """
    if n < 1:
        raise GraphError("tree needs at least one node")
    if n > 1 and max_degree < 1:
        raise GraphError("max_degree must allow at least one edge")
    if max_degree == 1 and n > 2:
        raise GraphError("max_degree 1 only supports trees on <= 2 nodes")
    rng = random.Random(seed)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    adj: dict[int, set[int]] = {order[0]: set()}
    for v in order[1:]:
        open_nodes = [u for u in adj if len(adj[u]) < max_degree]
        u = rng.choice(open_nodes)
        adj[u].add(v)
        adj[v] = {u}
    return Graph(
        id_bound=n,
        adj={v: tuple(sorted(nbrs)) for v, nbrs in adj.items()},
        kind="tree",
    )


def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GraphError(f"{path}: not valid JSON ({exc})") from exc
    return Graph.from_dict(data)


def dump_graph(graph: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")

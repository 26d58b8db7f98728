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
from dataclasses import dataclass
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
    (``nodes``, ``node_set``, ``edges``, ``max_degree`` and ``hash``) are
    computed on first use and kept, which is sound because a graph never
    changes.
    ``nodes`` is ascending, and every configuration keeps its registers in
    that order.
    """

    id_bound: int
    adj: dict[int, tuple[int, ...]]
    kind: str = "explicit"

    def __post_init__(self) -> None:
        _validate(self.id_bound, self.adj)

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

    @cached_property
    def hash(self) -> str:
        """Hex digest of the canonical (id_bound, adjacency) encoding."""
        payload = json.dumps(
            {"id_bound": self.id_bound, "adj": {str(v): self.adj[v] for v in self.nodes}},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def to_dict(self) -> dict:
        return {
            "id_bound": self.id_bound,
            "nodes": [{"id": v, "neighbors": self.adj[v]} for v in sorted(self.adj)],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Graph":
        try:
            id_bound = _json_int(data["id_bound"])
            adj = {}
            for entry in data["nodes"]:
                v = _json_int(entry["id"])
                if v in adj:  # a dict would keep the later entry silently
                    raise GraphError(f"duplicate node identifier {v}")
                adj[v] = tuple(sorted(_json_int(u) for u in entry["neighbors"]))
        except (KeyError, TypeError) as exc:
            raise GraphError(f"malformed graph record: {exc}") from exc
        return cls(id_bound=id_bound, adj=adj)


def _json_int(value) -> int:
    if type(value) is not int:  # exact: 3.5 and "3" are refused, not truncated; true is no integer
        raise GraphError(f"malformed graph record: {value!r} is not an integer")
    return value


def _validate(id_bound: int, adj: dict[int, tuple[int, ...]]) -> None:
    if not adj:
        raise GraphError("graph has no nodes")
    nodes = set(adj)
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


def _band_adjacency(ids: list[int], k: int, close: bool) -> dict[int, tuple[int, ...]]:
    """Join position i to positions i+1..i+k, taken mod n when ``close`` (needs n > 2k)."""
    n = len(ids)
    adj: dict[int, list[int]] = {v: [] for v in ids}
    for i, u in enumerate(ids):
        for j in range(i + 1, i + k + 1 if close else min(i + k + 1, n)):
            v = ids[j % n]
            adj[u].append(v)
            adj[v].append(u)
    return {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}


def build_graph(
    spec: str,
    ids: list[int] | None = None,
    id_bound: int | None = None,
) -> Graph:
    """Build a named graph family member from a spec.

    ``spec`` is one of ``cycle:n`` (needs ``n >= 3``), ``path:n``,
    ``clique:n``, ``circulant:n,k`` (nodes ``u_0..u_{n-1}`` with
    ``u_i ~ u_{i+-1..k}``, needs ``n > 2k``) or ``tree:n,d,seed`` (the
    ``random_tree(n, d, seed)``).  Identifiers default to ``1..n`` in
    construction order; ``ids`` overrides them positionally (e.g. a cycle
    with ids ``(3,5,4,1,6)`` lists consecutive ring positions), and a tree,
    whose ids are drawn, refuses them.  ``id_bound`` defaults to
    ``max(n, max(ids))``; a given one below the largest id raises.
    """
    kind, n, *args = parse_graph_spec(spec)
    if kind == "tree":
        if ids is not None:
            raise GraphError(f"graph spec {spec!r} draws its own identifiers; ids do not apply")
        tree = random_tree(n, *args)
        return tree if id_bound is None else Graph(id_bound=id_bound, adj=tree.adj, kind=kind)
    if ids is None:
        ids = list(range(1, n + 1))
    if len(ids) != n:
        raise GraphError(f"{spec} needs {n} identifiers, got {len(ids)}")
    if len(set(ids)) != n:
        dup = sorted({v for v in ids if ids.count(v) > 1})
        raise GraphError(f"duplicate identifiers {dup}")
    if id_bound is None:
        id_bound = max(n, max(ids))

    if kind == "clique":
        adj = {v: tuple(sorted(u for u in ids if u != v)) for v in ids}
    else:
        k = args[0] if kind == "circulant" else 1
        close = kind != "path"
        if close and n <= 2 * k:
            raise GraphError(f"graph spec {spec!r} needs n > {2 * k}")
        adj = _band_adjacency(ids, k, close)
    return Graph(id_bound=id_bound, adj=adj, kind=kind)


_SPEC_FIELDS = {"cycle": "n", "path": "n", "clique": "n", "circulant": "n,k", "tree": "n,d,seed"}


def parse_graph_spec(spec: str) -> tuple:
    """Parse ``kind:args`` into its kind and integers, refusing ``n < 1``.

    ``cycle``, ``path``, ``clique`` and ``circulant`` give ``(kind, n, k)``,
    with ``k`` the circulant's band width and 0 for the other three;
    ``tree:n,d,seed`` gives ``("tree", n, d, seed)``.
    """
    kind, _, args = spec.partition(":")
    kind = kind.strip()
    if kind not in _SPEC_FIELDS:
        raise GraphError(f"unknown graph spec {spec!r}")
    try:
        parts = [int(p) for p in args.split(",") if p.strip()]
    except ValueError as exc:
        raise GraphError(f"bad graph spec {spec!r}") from exc
    fields = _SPEC_FIELDS[kind]
    if len(parts) != fields.count(",") + 1:
        raise GraphError(f"graph spec {spec!r} needs {kind}:{fields}")
    if parts[0] < 1 or (kind == "circulant" and parts[1] < 1):
        raise GraphError(f"bad sizes in graph spec {spec!r}")
    if len(parts) == 1:
        parts.append(0)
    return (kind, *parts)


def random_tree(n: int, max_degree: int, seed: int) -> Graph:
    """Seeded random tree on ``n`` nodes with all degrees <= ``max_degree``.

    The ids ``1..n`` are shuffled into a join order; each later node joins
    a uniformly chosen earlier node that still has spare degree.  The open
    nodes are kept in join order as they join and fill up, so the draw is
    deterministic for a given ``(n, max_degree, seed)``.  ``id_bound`` is
    ``n``; ``build_graph("tree:n,d,seed")`` builds the same tree.
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
    open_nodes = [order[0]]
    for v in order[1:]:
        u = rng.choice(open_nodes)
        adj[u].add(v)
        adj[v] = {u}
        if len(adj[u]) == max_degree:
            open_nodes.remove(u)
        if max_degree > 1:
            open_nodes.append(v)
    return Graph(
        id_bound=n,
        adj={v: tuple(sorted(nbrs)) for v, nbrs in adj.items()},
        kind="tree",
    )


def _read_lines(path, keepends: bool = False) -> list[bytes]:
    """Every line of the file at ``path``, as bytes, the file read once.

    Lines break where text mode breaks them (LF, CR LF and CR, as
    :meth:`bytes.splitlines` does), so line ``n`` is item ``n - 1``; with
    ``keepends`` each line keeps its break.  Every reader of graph, trace,
    scheduling and family files reads through here, and :func:`_decoded`
    decodes a line when it is parsed.
    """
    with open(path, "rb") as fh:
        return fh.read().splitlines(keepends)


def _decoded(path, lineno: int, line: bytes) -> str:
    """Line ``lineno`` of ``path`` as text; bytes that are no UTF-8 raise ValueError naming it."""
    try:
        return line.decode("utf-8")
    except UnicodeDecodeError:
        raise ValueError(f"{path}: bytes that are no UTF-8 on line {lineno}") from None


def load_graph(path) -> Graph:
    """Read a graph file written by :func:`dump_graph`.

    Bytes that are no UTF-8 raise :class:`GraphError` naming ``path`` and
    the line that holds them, as does text that is no JSON.  The JSON error
    counts positions in the text that text mode reads, where every line
    break is one LF.
    """
    try:
        lines = [_decoded(path, n, line) for n, line in enumerate(_read_lines(path, True), 1)]
    except ValueError as exc:
        raise GraphError(str(exc)) from None
    text = "".join(lines).replace("\r\n", "\n").replace("\r", "\n")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"{path}: not valid JSON ({exc})") from exc
    return Graph.from_dict(data)


def dump_graph(graph: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")

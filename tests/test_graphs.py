import random
import re

import pytest

from asynclocal.graphs import (
    Graph,
    GraphError,
    build_graph,
    dump_graph,
    load_graph,
    parse_graph_spec,
    random_tree,
)


class TestFamilies:
    def test_cycle_with_permuted_ids(self):
        g = build_graph("cycle:5", ids=(3, 5, 4, 1, 6))
        assert g.neighbors(3) == (5, 6)
        assert g.neighbors(1) == (4, 6)
        assert g.id_bound == 6
        assert g.max_degree == 2

    def test_cycle_default_ids(self):
        g = build_graph("cycle:4")
        assert g.nodes == (1, 2, 3, 4)
        assert g.edges == ((1, 2), (1, 4), (2, 3), (3, 4))

    def test_clique_one_is_a_single_isolated_node(self):
        g = build_graph("clique:1")
        assert g.nodes == (1,)
        assert g.neighbors(1) == ()
        assert g.edges == ()

    def test_clique_adjacency(self):
        g = build_graph("clique:4")
        assert all(g.neighbors(v) == tuple(u for u in (1, 2, 3, 4) if u != v) for v in g.nodes)

    def test_circulant_7_2(self):
        g = build_graph("circulant:7,2")
        assert g.max_degree == 4
        # node u_0 is adjacent to u_1, u_2, u_5, u_6
        assert g.neighbors(1) == (2, 3, 6, 7)

    def test_circulant_requires_n_over_2k(self):
        with pytest.raises(GraphError):
            build_graph("circulant:4,2")

    def test_path(self):
        g = build_graph("path:3")
        assert g.neighbors(2) == (1, 3)
        assert g.neighbors(1) == (2,)

    def test_duplicate_identifiers(self):
        with pytest.raises(GraphError, match="duplicate identifiers"):
            build_graph("cycle:5", ids=[1, 2, 3, 4, 4])

    def test_ids_length_mismatch(self):
        with pytest.raises(GraphError):
            build_graph("cycle:5", ids=(1, 2, 3))


class TestSpecParsing:
    def test_parse(self):
        assert parse_graph_spec("cycle:12") == ("cycle", 12, 0)
        assert parse_graph_spec("circulant:7,2") == ("circulant", 7, 2)
        assert parse_graph_spec("tree:12,4,2") == ("tree", 12, 4, 2)

    @pytest.mark.parametrize("bad", ["ring:5", "cycle:", "cycle:a", "circulant:7", "cycle:0"])
    def test_rejects(self, bad):
        with pytest.raises(GraphError):
            parse_graph_spec(bad)


class TestValidation:
    def test_id_outside_bound(self):
        with pytest.raises(GraphError):
            Graph(id_bound=2, adj={1: (3,), 3: (1,)})

    def test_asymmetric_adjacency(self):
        with pytest.raises(GraphError):
            Graph(id_bound=3, adj={1: (2,), 2: ()})

    def test_self_loop(self):
        with pytest.raises(GraphError):
            Graph(id_bound=2, adj={1: (1, 2), 2: (1,)})

    def test_disconnected(self):
        with pytest.raises(GraphError):
            Graph(id_bound=4, adj={1: (2,), 2: (1,), 3: (4,), 4: (3,)})

    def test_unsorted_adjacency(self):
        with pytest.raises(GraphError):
            Graph(id_bound=3, adj={1: (3, 2), 2: (1,), 3: (1,)})


class TestRandomTree:
    def test_shape_and_degree_cap(self):
        for seed in range(5):
            g = random_tree(12, 4, seed)
            assert g.n == 12
            assert len(g.edges) == 11
            assert g.max_degree <= 4

    def test_deterministic(self):
        assert random_tree(10, 3, 7).adj == random_tree(10, 3, 7).adj

    def test_seeds_vary(self):
        trees = {random_tree(10, 3, s).hash for s in range(10)}
        assert len(trees) > 1


def test_json_round_trip(tmp_path):
    g = build_graph("circulant:7,2")
    path = tmp_path / "g.json"
    dump_graph(g, path)
    g2 = load_graph(path)
    assert g2.adj == g.adj
    assert g2.id_bound == g.id_bound
    assert g2.hash == g.hash


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize(
    "body, final_break, detail",
    [
        (b' "nodes": [', False, "Expecting value: line 2 column 12 (char 27)"),
        (b' "nodes": [', True, "Expecting value: line 3 column 1 (char 28)"),
        (b' "nodes": "ab', False, "Unterminated string starting at: line 2 column 11 (char 26)"),
        (b' "nodes": "ab', True, "Invalid control character at: line 2 column 14 (char 29)"),
    ],
    ids=["open-list", "open-list-final-break", "open-string", "open-string-final-break"],
)
def test_a_graph_file_that_is_no_json_is_refused_with_text_mode_positions(
    tmp_path, newline, body, final_break, detail
):
    # every line break counts as one "\n", as in text mode, and a final break is part of the text
    path = tmp_path / "g.json"
    path.write_bytes(b'{"id_bound": 2,' + newline + body + (newline if final_break else b""))
    with pytest.raises(GraphError) as info:
        load_graph(path)
    assert str(info.value) == f"{path}: not valid JSON ({detail})"


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("padding", [0, 9000], ids=["first-chunk", "past-a-chunk"])
def test_a_graph_file_with_bytes_that_are_no_utf8_names_its_line(tmp_path, newline, padding):
    # the bad byte sits on line 4, after `padding` spaces on line 3
    lines = [b"{", b'"id_bound": 2,', b" " * padding + b'"nodes": [', b'{"id": 1, "neighbors": [\xff]}]}']
    path = tmp_path / "g.json"
    path.write_bytes(newline.join(lines) + newline)
    with pytest.raises(GraphError) as info:
        load_graph(path)
    assert str(info.value) == f"{path}: bytes that are no UTF-8 on line 4"


@pytest.mark.parametrize(
    "path_to, value",
    [
        (("id_bound",), 3.5),
        (("id_bound",), "3"),
        (("id_bound",), True),
        (("nodes", 0, "id"), 1.5),
        (("nodes", 0, "id"), "1"),
        (("nodes", 1, "neighbors", 0), 1.0),
        (("nodes", 1, "neighbors"), "1"),
    ],
)
def test_graph_record_numbers_must_be_exact_integers(path_to, value):
    data = build_graph("path:2").to_dict()
    data["nodes"] = [dict(entry, neighbors=list(entry["neighbors"])) for entry in data["nodes"]]
    *parents, last = path_to
    target = data
    for key in parents:
        target = target[key]
    target[last] = value
    with pytest.raises(GraphError, match=f"malformed graph record: {value!r} is not an integer"):
        Graph.from_dict(data)


REPEATED_NODE = {
    "id_bound": 3,
    "nodes": [{"id": 1, "neighbors": [2]}, {"id": 2, "neighbors": [1]}, {"id": 1, "neighbors": [2]}],
}


def test_a_graph_record_listing_a_node_twice_is_refused():
    with pytest.raises(GraphError, match=r"^duplicate node identifier 1$"):
        Graph.from_dict(REPEATED_NODE)


def test_hash_tracks_structure():
    a = build_graph("cycle:5")
    b = build_graph("cycle:5")
    c = build_graph("cycle:5", ids=(2, 1, 3, 4, 5))
    assert a.hash == b.hash
    assert a.hash != c.hash


def test_cached_views_keep_the_graph_immutable_and_comparable():
    g = build_graph("cycle:5", ids=(3, 5, 4, 1, 6))
    assert g.nodes is g.nodes  # computed once
    assert g.edges == ((1, 4), (1, 6), (3, 5), (3, 6), (4, 5))
    assert g.max_degree == 2
    assert g.node_set == frozenset(g.nodes)
    for attr, value in (("nodes", (1,)), ("id_bound", 9), ("adj", {})):
        with pytest.raises(AttributeError):
            setattr(g, attr, value)
    assert g.nodes == (1, 3, 4, 5, 6)
    fresh = build_graph("cycle:5", ids=(3, 5, 4, 1, 6))
    assert g == fresh and fresh == g
    assert g.hash == fresh.hash
    assert g != build_graph("cycle:5")


# -- reference builders: copies of the constructions before cycle, path and
# circulant were folded into one band, and of the random tree's first loop.


def _reference_ring(ids, close):
    n = len(ids)
    adj = {v: set() for v in ids}
    last = n if close else n - 1
    for i in range(last):
        u, v = ids[i], ids[(i + 1) % n]
        adj[u].add(v)
        adj[v].add(u)
    return {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}


def _reference_graph(kind, n, k, ids):
    if kind == "cycle":
        if n < 3:
            raise GraphError("cycle needs at least 3 nodes")
        adj = _reference_ring(ids, close=True)
    elif kind == "path":
        if n < 1:
            raise GraphError("path needs at least 1 node")
        adj = _reference_ring(ids, close=False) if n > 1 else {ids[0]: ()}
    elif kind == "clique":
        adj = {v: tuple(sorted(u for u in ids if u != v)) for v in ids}
    else:
        if n <= 2 * k:
            raise GraphError(f"circulant:{n},{k} requires n > 2k")
        adj_sets = {v: set() for v in ids}
        for i in range(n):
            for off in range(1, k + 1):
                u, v = ids[i], ids[(i + off) % n]
                adj_sets[u].add(v)
                adj_sets[v].add(u)
        adj = {v: tuple(sorted(nbrs)) for v, nbrs in adj_sets.items()}
    return Graph(id_bound=max([n, *ids]), adj=adj, kind=kind)


def _reference_tree_adjacency(n, max_degree, seed):
    rng = random.Random(seed)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    adj = {order[0]: set()}
    for v in order[1:]:
        open_nodes = [u for u in adj if len(adj[u]) < max_degree]
        u = rng.choice(open_nodes)
        adj[u].add(v)
        adj[v] = {u}
    return {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}


def _sweep(family):
    """Yield (spec, kind, n, k, ids) for one family of the graph-hash sweep."""
    kind, _, order = family.partition("/")
    if kind == "circulant":
        sizes = [(f"circulant:{n},{k}", n, k) for n in range(1, 25) for k in range(1, 6)]
    else:
        sizes = [(f"{kind}:{n}", n, 0) for n in range(25)]
    for spec, n, k in sizes:
        ids = list(range(1, n + 1))
        if order == "shuffled":
            ids = random.Random(n * 10 + k).sample(range(1, 2 * n + 1), n)
        yield spec, kind, n, k, ids


@pytest.mark.parametrize(
    "family",
    [f"{kind}/{order}" for kind in ("cycle", "path", "clique", "circulant")
     for order in ("default", "shuffled")] + ["tree"],
)
def test_every_graph_hashes_as_the_reference_construction(family):
    if family == "tree":
        for n, d, seed in [(1, 0, 0), (2, 1, 3), (7, 2, 1), (60, 3, 5), (200, 4, 7), (1000, 4, 11)]:
            graph = build_graph(f"tree:{n},{d},{seed}")
            reference = Graph(id_bound=n, adj=_reference_tree_adjacency(n, d, seed), kind="tree")
            assert (graph.kind, graph.hash) == ("tree", reference.hash)
        return
    built = refused = 0
    for spec, kind, n, k, ids in _sweep(family):
        try:
            reference = _reference_graph(kind, n, k, ids)
        except GraphError:
            with pytest.raises(GraphError):
                build_graph(spec, ids=ids)
            refused += 1
            continue
        graph = build_graph(spec, ids=ids)
        assert (graph.kind, graph.id_bound, graph.hash) == (kind, reference.id_bound, reference.hash), spec
        built += 1
    assert built and refused  # the sweep reaches both sides of every size check


def test_random_tree_draws_the_trees_of_the_rebuilt_open_list():
    cases = [(n, d, seed) for n in range(1, 61) for d in range(1, 6) if d > 1 or n <= 2 for seed in range(8)]
    cases += [(1000, d, seed) for d in (2, 4) for seed in (0, 1)] + [(1, 0, 0)]
    for n, d, seed in cases:
        assert random_tree(n, d, seed).adj == _reference_tree_adjacency(n, d, seed), (n, d, seed)


class TestTreeSpec:
    @pytest.mark.parametrize("n, d, seed", [(1, 3, 0), (2, 1, 4), (12, 4, 2), (200, 3, 9)])
    def test_builds_the_random_tree(self, n, d, seed):
        graph, tree = build_graph(f"tree:{n},{d},{seed}"), random_tree(n, d, seed)
        assert (graph.adj, graph.id_bound, graph.kind, graph.hash) == (
            tree.adj, tree.id_bound, tree.kind, tree.hash
        )

    def test_an_explicit_id_bound_is_applied(self):
        graph = build_graph("tree:6,2,1", id_bound=9)
        assert graph.id_bound == 9
        assert graph.adj == random_tree(6, 2, 1).adj

    def test_an_id_bound_below_the_largest_id_raises(self):
        with pytest.raises(GraphError, match=r"outside \[1, 5\]"):
            build_graph("tree:6,2,1", id_bound=5)

    def test_ids_are_refused(self):
        with pytest.raises(GraphError, match="ids do not apply"):
            build_graph("tree:3,2,1", ids=[1, 2, 3])


@pytest.mark.parametrize(
    "spec", ["tree:5", "tree:a,b,c", "tree:0,2,1", "cycle:2", "circulant:4,2", "path:0"]
)
def test_a_refused_spec_is_named(spec):
    with pytest.raises(GraphError, match=re.escape(repr(spec))):
        build_graph(spec)

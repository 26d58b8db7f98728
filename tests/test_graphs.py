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

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asynclocal.algorithms import (
    ALGORITHM_NAMES,
    AlgorithmViolation,
    BuggyFive,
    Identity,
    LinialReduction,
    SaveColors,
    SaveOneMoreColor,
    SixColoring,
    Composed,
    _special_views,
    _split_by_order,
    make_algorithm,
    mex,
)
from asynclocal.engine import execute
from asynclocal.graphs import build_graph, random_tree
from asynclocal.schedulers import make_scheduling
from asynclocal.verify import check_palette, check_proper


def R(payload):
    return ("R", payload)


def test_mex():
    assert mex(set()) == 0
    assert mex({0, 1, 3}) == 2
    assert mex({1, 2}) == 0
    assert mex({0, 1, 2}) == 3


class TestCycleSix:
    def test_update_against_a_fresh_and_a_bottom_neighbor(self):
        assert SixColoring().next((3, 0, 0), [R((5, 0, 0)), None]) == ("R", (3, 1, 0))

    def test_no_visible_neighbor_terminates_immediately(self):
        assert SixColoring().next((1, 0, 0), [None, None]) == ("T", (0, 0), (1, 0, 0))

    def test_reads_frozen_payloads_of_terminated_neighbors(self):
        snaps = [("T", (0, 0), (1, 0, 0)), ("T", (1, 0), (3, 1, 0))]
        assert SixColoring().next((6, 0, 1), snaps) == ("T", (0, 1), (6, 0, 1))

    def test_palette_never_leaves_the_six_pairs(self):
        graph = build_graph("cycle:7")
        for seed in range(30):
            trace = execute(
                graph, make_algorithm("six"), make_scheduling(f"random:seed={seed}", graph)
            )
            assert trace.complete
            assert check_proper(trace).ok
            assert all(a + b <= 2 for a, b in trace.decisions.values())


class TestSaveColors:
    def test_no_visible_neighbors(self):
        assert SaveColors(2).next((7, 0, 0), [None, None]) == ("T", (0, 0), (7, 0, 0))

    def test_matches_the_identifier_rule_on_cycles(self):
        # with x = id and delta = 2 the transitions coincide with the six rule
        graph = build_graph("cycle:5", ids=(3, 5, 4, 1, 6))
        sched = [(1, 3, 5), (4, 5), (3, 4), (6,), (6,)]
        six = execute(graph, make_algorithm("six"), sched)
        save = execute(graph, SaveColors(2), sched, inputs={v: v for v in graph.nodes})
        assert save.decisions == six.decisions
        assert save.decision_steps == six.decision_steps

    def test_global_minimum_on_a_path_gets_b_zero(self):
        graph = build_graph("path:3")
        trace = execute(
            graph, SaveColors(2), make_scheduling("sync", graph), inputs={1: 2, 2: 1, 3: 3}
        )
        assert trace.complete
        a, b = trace.decisions[2]
        assert b == 0 and a <= 2
        assert check_proper(trace).ok
        assert all(x + y <= 2 for x, y in trace.decisions.values())

    def test_improper_inputs_rejected(self):
        graph = build_graph("path:2")
        with pytest.raises(ValueError):
            execute(graph, SaveColors(1), [(1, 2)], inputs={1: 4, 2: 4})

    def test_delta_below_degree_rejected(self):
        with pytest.raises(ValueError):
            execute(build_graph("clique:4"), SaveColors(2), [(1,)])


class TestSave1Decisions:
    # payload layout: (a, b, x, flipped_ids, alpha, beta, z); no neighbor shows a clash
    def test_the_special_pair_decides_its_image(self):
        payload = (2, 0, 4, (), False, False, 40)
        assert SaveOneMoreColor(2).next(payload, [None, None]) == ("T", (0, 2), payload)

    @pytest.mark.parametrize("pair, delta", [((0, 2), 2), ((1, 1), 2), ((0, 0), 3)])
    def test_every_other_pair_decides_itself(self, pair, delta):
        payload = (*pair, 4, (), False, False, 40)
        assert SaveOneMoreColor(delta).next(payload, [None] * delta) == ("T", pair, payload)

    def test_a_neighbor_at_the_special_pair_clashes_with_its_image(self):
        neighbor = R((2, 0, 9, (), False, False, 41))
        state = SaveOneMoreColor(2).next((0, 2, 4, (), False, False, 40), [neighbor, None])
        assert state[0] == "R"


class TestSplitByOrder:
    # payload layout: (a, b, x, flipped_ids, alpha, beta, z); returns (larger_a, smaller_b)
    smaller = (1, 2, 3, (), False, False, 51)
    larger = (3, 4, 7, (), False, False, 52)

    def test_plain_comparison(self):
        assert _split_by_order(5, (), 50, [self.smaller, self.larger]) == ({3}, {2})

    def test_flip_in_the_nodes_set_reverses_one_comparison(self):
        assert _split_by_order(5, (52,), 50, [self.smaller, self.larger]) == (set(), {2, 4})

    def test_flip_in_the_neighbors_set_reverses_one_comparison(self):
        flipped = (3, 4, 7, (50,), False, False, 52)
        assert _split_by_order(5, (), 50, [self.smaller, flipped]) == (set(), {2, 4})

    def test_unwritten_and_equal_neighbors_count_as_neither(self):
        equal = (3, 4, 5, (), False, False, 53)
        assert _split_by_order(5, (), 50, [None, equal, None]) == (set(), set())


class TestSpecialTermination:
    s = (1, 1, 5, (), True, True, 10)
    views = [(0, 0, 3, (), True, True, 11), (0, 1, 4, (), True, True, 12)]

    def test_full_neighborhood_with_small_values(self):
        assert _special_views(self.s, self.views)

    def test_any_bottom_view_fails(self):
        assert not _special_views(self.s, [self.views[0], None])

    def test_a_at_delta_fails(self):
        assert not _special_views((2, 1, 5, (), True, True, 10), self.views)

    def test_a_neighbor_at_delta_fails(self):
        assert not _special_views(self.s, [self.views[0], (2, 0, 4, (), True, True, 12)])

    def test_non_maximum_does_not_specially_terminate(self):
        assert not _special_views(self.s, [self.views[0], (0, 1, 9, (), True, True, 12)])

    def test_a_neighbor_without_the_flag_it_would_not_raise_fails(self):
        # the neighbor sees the node as larger, so its alpha (has had a smaller neighbor) must be up
        assert not _special_views(self.s, [self.views[0], (0, 1, 4, (), False, True, 12)])


class TestSaveOneMore:
    def test_lone_node_terminates_with_zero_pair(self):
        payload = (0, 0, 7, (), False, False, 1)
        assert SaveOneMoreColor(2).next(payload, [None, None]) == ("T", (0, 0), payload)

    def test_a_local_maximum_with_a_special_neighborhood_decides_zero_delta(self):
        # (0, 1) clashes with the first neighbor; both are smaller, so the node
        # moves to (0, 0) with both flags up, and terminates specially
        snaps = [R((0, 1, 3, (), True, False, 11)), ("T", (1, 1), (1, 1, 4, (), True, False, 12))]
        state = SaveOneMoreColor(2).next((0, 1, 5, (), False, True, 10), snaps)
        assert state == ("T", (0, 2), (0, 0, 5, (), True, True, 10))

    def test_the_same_move_below_a_larger_neighbor_keeps_running(self):
        snaps = [R((0, 1, 3, (), True, False, 11)), ("T", (1, 1), (1, 1, 9, (), True, False, 12))]
        state = SaveOneMoreColor(2).next((0, 1, 5, (), False, True, 10), snaps)
        assert state == ("R", (0, 0, 5, (), True, True, 10))

    def test_extremal_pairs_flip_instead_of_terminating(self):
        ext = (2, 0, 4, (), False, False, 40)
        opp = (0, 2, 9, (), False, False, 41)
        state = SaveOneMoreColor(2).next(ext, [R(opp), None])
        assert state[0] == "R"
        assert 41 in state[1][3]  # the neighbor's tag joined the flipped set

    def test_forbidden_pair_never_decided(self):
        graph = build_graph("cycle:4")
        algo = SaveOneMoreColor(2)
        for seed in range(200):
            trace = execute(
                graph,
                algo,
                make_scheduling(f"random:seed={seed},p=0.6,crash=0.1", graph),
                record=False,
            )
            for pair in trace.decisions.values():
                assert pair in {(0, 0), (0, 1), (1, 0), (1, 1), (0, 2)}
            assert trace.support_forever <= set(trace.decisions)


class TestLinial:
    def test_single_round_on_small_bound(self):
        algo = LinialReduction(100, 2)
        assert algo.rounds == 1
        assert len(algo.palette) == 25

    def test_no_round_needed_at_the_fixed_point(self):
        algo = LinialReduction(25, 2)
        assert algo.rounds == 0
        assert algo.init(1, 17) == ("T", 17, (17,))

    def test_equal_parameters_share_one_schedule(self):
        algo = LinialReduction(1000, 2)
        assert make_algorithm("linial+save1", id_bound=1000, delta=2).phase1.schedule is algo.schedule
        assert LinialReduction(1000, 3).schedule is not algo.schedule
        for bad in ((1, 2), (10, 0)):
            for _ in range(2):  # a failed build is not remembered
                with pytest.raises(ValueError):
                    LinialReduction(*bad)

    def test_input_outside_bound_rejected(self):
        with pytest.raises(ValueError):
            LinialReduction(10, 2).init(1, 11)

    def test_two_adjacent_nodes_get_distinct_colors(self):
        graph = build_graph("path:2")
        trace = execute(graph, LinialReduction(2, 1), make_scheduling("sync", graph))
        assert trace.complete
        assert trace.decisions[1] != trace.decisions[2]

    def test_isolated_node_keeps_a_palette_color(self):
        graph = build_graph("clique:1")
        algo = LinialReduction(6, 2)
        trace = execute(graph, algo, make_scheduling("sync", graph))
        assert trace.decisions[1] in algo.palette

    def test_sync_cycle_is_proper_within_palette(self):
        graph = build_graph("cycle:100")
        algo = LinialReduction(10_000, 2)
        trace = execute(graph, algo, make_scheduling("sync", graph))
        assert trace.complete
        assert trace.step_count == algo.rounds
        assert check_proper(trace).ok
        assert all(1 <= c <= 25 for c in trace.decisions.values())

    def test_async_schedules_stay_proper(self):
        graph = build_graph("cycle:8")
        algo = LinialReduction(64, 2)
        for seed in range(50):
            trace = execute(
                graph, algo, make_scheduling(f"random:seed={seed},p=0.4,crash=0.0", graph)
            )
            assert trace.complete
            assert check_proper(trace).ok


class TestComposition:
    def test_identity_phase_two_behaves_as_phase_one(self):
        graph = build_graph("cycle:5", ids=(3, 5, 4, 1, 6))
        sched = [(1, 3, 5), (4, 5), (3, 4), (6,), (6,)]
        plain = execute(graph, make_algorithm("six"), sched)
        composed = execute(graph, Composed(make_algorithm("six"), Identity()), sched)
        assert composed.decisions == plain.decisions
        assert composed.decision_steps == plain.decision_steps
        assert composed.runtimes == plain.runtimes

    def test_sync_cycle_twelve(self):
        graph = build_graph("cycle:12")
        for name, palette in (("linial+save", 6), ("linial+save1", 5)):
            algo = make_algorithm(name, id_bound=12, delta=2)
            trace = execute(graph, algo, make_scheduling("sync", graph))
            assert trace.complete
            assert check_proper(trace).ok
            assert len(set(trace.decisions.values())) <= palette
            assert check_palette(trace).ok

    def test_phase_transition_costs_one_activation(self):
        # phase 1 decides at its own deciding step; phase 2 starts on the next one
        graph = build_graph("path:2")
        algo = Composed(Identity(), SaveColors(1))
        trace = execute(graph, algo, make_scheduling("sync", graph))
        # identity decides at init, so save runs from the first activation
        assert trace.complete
        assert trace.decisions[1] != trace.decisions[2]

    def test_names_and_params(self):
        algo = make_algorithm("linial+save1", id_bound=9, delta=2)
        assert algo.name == "linial+save1"
        assert algo.params() == {
            "phase1_id_bound": 9,
            "phase1_delta": 2,
            "phase2_delta": 2,
        }


def reference_linial_next(payload, snaps, schedule):
    """A round on the sets themselves: the least element of the node's set outside its neighbors' sets."""
    S = payload
    r = S.index(None)
    fam = schedule.families[r - 1]
    cand = set(fam.set_for(S[r - 1]))
    for t in snaps:
        if t is not None and t[-1][r - 1] is not None:
            cand -= fam.set_for(t[-1][r - 1])
    if not cand:
        raise AlgorithmViolation(f"round {r}: all of color {S[r - 1]}'s set excluded by neighbors")
    S2 = S[:r] + (min(cand),) + S[r + 1 :]
    if r == len(S) - 1:
        return ("T", S2[r], S2)
    return ("R", S2)


def outcome(transition, *args):
    """The state a transition returns, or the text of the violation it raises."""
    try:
        return transition(*args)
    except AlgorithmViolation as exc:
        return ("violation", str(exc))


class TestLinialMasks:
    @pytest.mark.parametrize("id_bound, delta", [(10**6, 2), (10**6, 4), (10**12, 2)])
    def test_a_round_matches_the_set_formula(self, id_bound, delta):
        algo = LinialReduction(id_bound, delta)
        schedule = algo.schedule
        sizes, rounds = schedule.palette_sizes, schedule.rounds
        rng = random.Random(id_bound + delta)

        def reached(upto, prefix=()):
            """A payload whose colors of rounds 0..upto-1 are set, starting with ``prefix``."""
            drawn = tuple(rng.randint(1, sizes[i]) for i in range(len(prefix), upto))
            return prefix + drawn + (None,) * (rounds + 1 - upto)

        seen = {"unwritten": 0, "behind": 0, "ahead": 0, "violation": 0}
        for _ in range(3000):
            r = rng.randint(1, rounds)
            payload = reached(r)
            snaps = []
            for _ in range(rng.randint(0, delta)):
                roll = rng.random()
                if roll < 0.15:
                    snaps.append(None)
                    seen["unwritten"] += 1
                    continue
                if roll < 0.25:  # the node's own round-(r-1) color: its whole set is excluded
                    p = reached(min(r + rng.randint(0, 1), rounds + 1), payload[:r])
                else:
                    p = reached(rng.randint(1, rounds + 1))
                seen["behind"] += p[r - 1] is None
                seen["ahead"] += p[r] is not None
                snaps.append(("T", p[-1], p) if p[-1] is not None else ("R", p))
            expected = outcome(reference_linial_next, payload, snaps, schedule)
            seen["violation"] += expected[0] == "violation"
            assert outcome(algo.next, payload, snaps) == expected
        assert min(seen.values()) > 0, seen


def reference_composed_next(algo, payload, snaps):
    """Composition that hands each phase inner states ``("R", inner payload)`` and calls its ``next``."""

    def enter_phase2(node, p1_final):
        st = algo.phase2.init(node, p1_final[1])
        if st[0] == "T":
            return ("T", st[1], (2, node, st[2], p1_final))
        return ("R", (2, node, st[1], p1_final))

    inner = []
    if payload[0] == 1:
        for t in snaps:
            if t is None:
                inner.append(None)
            else:
                q = t[-1]
                inner.append(("R", q[2]) if q[0] == 1 else q[3])
        st = algo.phase1.next(payload[2], inner)
        if st[0] == "T":
            return enter_phase2(payload[1], st)
        return ("R", (1, payload[1], st[1]))
    for t in snaps:
        if t is None:
            inner.append(None)
        else:
            q = t[-1]
            inner.append(None if q[0] == 1 else ("R", q[2]))
    st = algo.phase2.next(payload[2], inner)
    if st[0] == "T":
        return ("T", st[1], (2, payload[1], st[2], payload[3]))
    return ("R", (2, payload[1], st[1], payload[3]))


class TestComposedViews:
    @pytest.mark.parametrize(
        "make, graph, spec, phases",
        [
            (
                lambda g: make_algorithm("linial+save", id_bound=g.id_bound, delta=g.max_degree),
                build_graph("tree:150,4,5"),
                "random:seed=8,p=0.5,crash=0.1",
                {1, 2},
            ),
            (
                lambda g: make_algorithm("linial+save1", id_bound=g.id_bound, delta=g.max_degree),
                build_graph("cycle:60", id_bound=10**12),
                "random:seed=8,p=0.5,crash=0.1",
                {1, 2},
            ),
            (
                lambda g: Composed(make_algorithm("six"), Identity()),
                build_graph("cycle:5", ids=(3, 5, 4, 1, 6)),
                "random:seed=3,p=0.5,crash=0.1",
                {1},
            ),
            (
                lambda g: Composed(Identity(), SaveColors(1)),
                build_graph("path:2"),
                "random:seed=4,p=0.5",
                {2},
            ),
        ],
        ids=["linial+save-tree:150,4,5", "linial+save1-cycle:60", "six+identity", "identity+save"],
    )
    def test_every_activation_matches_the_inner_state_wrapper(self, make, graph, spec, phases):
        algo = make(graph)
        seen = []

        def checked_next(payload, snaps):
            got = Composed.next(algo, payload, snaps)
            assert got == reference_composed_next(algo, payload, snaps)
            seen.append(payload[0])
            return got

        algo.next = checked_next
        trace = execute(graph, algo, make_scheduling(spec, graph), max_steps=1000, record=True)
        assert len(seen) == sum(trace.runtimes.values())
        assert set(seen) == phases


class TestBuggyFive:
    def test_first_table_step(self):
        assert BuggyFive().next((3, 0, 0), [R((4, 0, 0)), None]) == ("R", (3, 1, 1))

    def test_second_table_step(self):
        # register contents after {1,3,4}: node 4 shows (4,0,1), node 1 shows (1,0,0)
        assert BuggyFive().next((3, 1, 1), [R((4, 0, 1)), R((1, 0, 0))]) == ("R", (3, 2, 2))

    def test_lone_node_takes_color_zero(self):
        assert BuggyFive().next((5, 0, 0), [None, None]) == ("T", 0, (5, 0, 0))

    def test_outputs_stay_within_five_colors(self):
        graph = build_graph("cycle:5")
        for seed in range(40):
            trace = execute(
                graph,
                make_algorithm("buggy5"),
                make_scheduling(f"random:seed={seed}", graph),
                max_steps=500,
                record=False,
            )
            assert all(c in range(5) for c in trace.decisions.values())


class TestRegistry:
    def test_names(self):
        assert set(ALGORITHM_NAMES) == {
            "six",
            "linial",
            "save",
            "save1",
            "buggy5",
            "linial+save",
            "linial+save1",
        }

    def test_missing_parameters(self):
        with pytest.raises(ValueError):
            make_algorithm("save")
        with pytest.raises(ValueError):
            make_algorithm("linial", delta=2)
        with pytest.raises(ValueError):
            make_algorithm("no-such-algo")

    def test_degree_guards(self):
        with pytest.raises(ValueError):
            execute(build_graph("clique:4"), make_algorithm("six"), [(1,)])
        with pytest.raises(ValueError):
            execute(build_graph("clique:4"), make_algorithm("buggy5"), [(1,)])

    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_every_name_rejects_a_graph_above_its_degree_bound(self, name):
        graph = build_graph("clique:4")  # degree 3
        algo = make_algorithm(name, id_bound=graph.id_bound, delta=2)
        with pytest.raises(ValueError, match=r"requires degree <= 2, graph has degree 3"):
            execute(graph, algo, [(1,)])
        execute(build_graph("cycle:4"), algo, [(1,)])  # degree 2 is accepted

    @pytest.mark.parametrize("name", ["save", "save1", "linial", "linial+save", "linial+save1"])
    def test_a_degree_bound_above_max_n_2_is_refused(self, name):
        for spec, bound in (("cycle:5", 5), ("clique:1", 2), ("path:2", 2)):
            graph = build_graph(spec)
            execute(graph, make_algorithm(name, id_bound=5, delta=bound), [(1,)])
            algo = make_algorithm(name, id_bound=5, delta=bound + 1)
            want = rf"requires delta <= max\(n, 2\) = {bound}, got {bound + 1}$"
            with pytest.raises(ValueError, match=want):
                execute(graph, algo, [(1,)])

    @pytest.mark.parametrize("name", ["save", "save1", "linial", "linial+save", "linial+save1"])
    def test_coloring_inputs_must_be_proper(self, name):
        graph = build_graph("path:3")
        algo = make_algorithm(name, id_bound=3, delta=2)
        with pytest.raises(ValueError, match="input colors must differ across edges"):
            execute(graph, algo, [(1,)], inputs={1: 1, 2: 2, 3: 2})
        execute(graph, algo, [(1,)], inputs={1: 1, 2: 2, 3: 1})


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(4, 9),
    seed=st.integers(0, 10_000),
    p=st.sampled_from([0.3, 0.5, 0.8, 1.0]),
)
def test_six_random_cycles_random_schedules_proper(n, seed, p):
    graph = build_graph(f"cycle:{n}")
    trace = execute(
        graph,
        make_algorithm("six"),
        make_scheduling(f"random:seed={seed},p={p!r},crash=0.0", graph),
        record=False,
    )
    assert trace.complete
    for u, v in graph.edges:
        assert trace.decisions[u] != trace.decisions[v]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 5000), tree_seed=st.integers(0, 50))
def test_save_on_random_trees_respects_the_pair_bound(seed, tree_seed):
    graph = random_tree(9, 3, tree_seed)
    algo = SaveColors(3)
    trace = execute(
        graph,
        algo,
        make_scheduling(f"random:seed={seed}", graph),
        inputs={v: v for v in graph.nodes},
        record=False,
    )
    assert trace.complete
    for a, b in trace.decisions.values():
        assert a + b <= 3
    for u, v in graph.edges:
        assert trace.decisions[u] != trace.decisions[v]

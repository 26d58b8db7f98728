import dataclasses
import gc
import hashlib
import itertools
import json
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asynclocal import engine, schedulers
from asynclocal.algorithms import ALGORITHM_NAMES, Identity, SixColoring, make_algorithm
from asynclocal.engine import (
    DEFAULT_MAX_STEPS,
    Configuration,
    ConfigurationSpace,
    EngineError,
    Scheduling,
    SchedulingError,
    detect_livelock,
    execute,
    explicit_scheduling,
    initial_configuration,
    state_from_json,
    step,
)
from asynclocal.graphs import build_graph
from asynclocal.schedulers import enumerate_schedulings, make_scheduling
from asynclocal.wsb import ConstantOutput, OutputAfterSeeing, Trimmed, toy_algorithms


def six_on_table_cycle():
    return build_graph("cycle:5", ids=(3, 5, 4, 1, 6)), make_algorithm("six")


class TestStep:
    def test_initial_configuration(self):
        graph, algo = six_on_table_cycle()
        cfg = initial_configuration(graph, algo, {v: v for v in graph.nodes})
        assert all(cfg.old[v] is None for v in graph.nodes)
        assert cfg.new[3] == ("R", (3, 0, 0))

    def test_publish_then_snapshot_within_a_block(self):
        # same-block writers see each other's writes from this very step
        graph = build_graph("path:2")
        algo = make_algorithm("six")
        cfg = initial_configuration(graph, algo, {1: 1, 2: 2})
        cfg = step(graph, algo, cfg, (1, 2))
        assert cfg.new[1] == ("R", (1, 1, 0))
        assert cfg.new[2] == ("R", (2, 0, 1))

    def test_table_step_reads(self):
        graph, algo = six_on_table_cycle()
        cfg = initial_configuration(graph, algo, {v: v for v in graph.nodes})
        cfg = step(graph, algo, cfg, (1, 3, 5))
        assert cfg.new[3] == ("R", (3, 1, 0))
        assert cfg.new[1] == ("T", (0, 0), (1, 0, 0))
        assert cfg.old[4] is None

    def test_terminated_node_is_a_no_op(self):
        graph, algo = six_on_table_cycle()
        cfg = initial_configuration(graph, algo, {v: v for v in graph.nodes})
        cfg = step(graph, algo, cfg, (1, 3, 5))  # node 1 decides here
        before = cfg.copy()
        after = step(graph, algo, cfg, (1,))
        assert after.old == before.old
        assert after.new == before.new
        assert after.step_index == before.step_index + 1

    def test_rejects_bad_blocks(self):
        graph, algo = six_on_table_cycle()
        cfg = initial_configuration(graph, algo, {v: v for v in graph.nodes})
        with pytest.raises(SchedulingError):
            step(graph, algo, cfg, ())
        with pytest.raises(SchedulingError):
            step(graph, algo, cfg, (2,))  # not a node of this graph
        with pytest.raises(SchedulingError):
            step(graph, algo, cfg, (1, 2))
        with pytest.raises(SchedulingError):
            step(graph, algo, cfg, [9, 9])

    def test_step_is_pure(self):
        graph, algo = six_on_table_cycle()
        cfg = initial_configuration(graph, algo, {v: v for v in graph.nodes})
        step(graph, algo, cfg, (1, 3, 5))
        assert cfg.new[3] == ("R", (3, 0, 0))
        assert cfg.step_index == 0


class TestExecute:
    def test_table_one_decisions_and_runtimes(self):
        graph, algo = six_on_table_cycle()
        trace = execute(graph, algo, [(1, 3, 5), (4, 5), (3, 4), (6,), (6,)])
        assert trace.complete
        assert trace.decisions == {1: (0, 0), 3: (1, 0), 4: (1, 1), 5: (0, 1), 6: (0, 1)}
        assert trace.runtimes == {1: 1, 3: 2, 4: 2, 5: 2, 6: 2}
        assert trace.decision_steps == {1: 1, 5: 2, 3: 3, 4: 3, 6: 5}
        assert trace.max_runtime == 2

    def test_sync_stops_once_everyone_decides(self):
        graph, algo = six_on_table_cycle()
        trace = execute(graph, algo, make_scheduling("sync", graph))
        assert trace.complete
        assert trace.step_count < 20

    def test_decided_at_init_consumes_no_steps(self):
        graph = build_graph("cycle:3")
        trace = execute(graph, Identity(), make_scheduling("sync", graph))
        assert trace.complete
        assert trace.step_count == 0
        assert trace.decision_steps == {1: 0, 2: 0, 3: 0}
        assert trace.runtimes == {1: 0, 2: 0, 3: 0}

    def test_exhausted_blocks_leave_an_incomplete_trace(self):
        graph, algo = six_on_table_cycle()
        trace = execute(graph, algo, [(3, 5)])
        assert not trace.complete
        assert trace.decisions == {}

    def test_lone_appearance_decides_and_completes(self):
        # nodes that never appear count as crashed at the start, so the
        # one scheduled node deciding makes the execution complete
        graph, algo = six_on_table_cycle()
        trace = execute(graph, algo, [(3,)])
        assert trace.complete
        assert trace.decisions == {3: (0, 0)}

    def test_max_steps_cap(self):
        graph, algo = six_on_table_cycle()
        trace = execute(graph, algo, make_scheduling("sync", graph), max_steps=1)
        assert trace.step_count == 1
        assert not trace.complete

    def test_zero_max_steps_runs_no_step(self):
        graph, algo = six_on_table_cycle()
        trace = execute(graph, algo, make_scheduling("sync", graph), max_steps=0)
        assert (trace.step_count, trace.decisions, trace.complete) == (0, {}, False)

    def test_negative_max_steps_rejected(self):
        graph, algo = six_on_table_cycle()
        with pytest.raises(ValueError, match="max_steps must be non-negative, got -1"):
            execute(graph, algo, make_scheduling("sync", graph), max_steps=-1)

    def test_crashed_nodes_stay_undecided(self):
        graph, algo = six_on_table_cycle()
        sched = make_scheduling("sync:crashes=3@1", graph)
        trace = execute(graph, algo, sched)
        assert 3 not in trace.decisions
        assert not trace.complete  # node 3 appeared once, then crashed undecided
        assert set(trace.decisions) == {1, 4, 5, 6}

    def test_initially_crashed_node_is_invisible(self):
        graph, algo = six_on_table_cycle()
        trace = execute(graph, algo, make_scheduling("sync:crashes=3@0", graph))
        assert trace.complete  # node 3 never appears, so completeness is relative
        assert set(trace.decisions) == {1, 4, 5, 6}
        assert trace.final.old[3] is None

    def test_missing_inputs_rejected(self):
        graph, algo = six_on_table_cycle()
        with pytest.raises(EngineError):
            execute(graph, algo, [(1,)], inputs={1: 1})

    def test_record_false_drops_steps_only(self):
        graph, algo = six_on_table_cycle()
        full = execute(graph, algo, make_scheduling("random:seed=3", graph))
        slim = execute(graph, algo, make_scheduling("random:seed=3", graph), record=False)
        assert slim.steps is None
        assert slim.decisions == full.decisions
        assert slim.runtimes == full.runtimes
        assert slim.step_count == full.step_count


class CountingSix(SixColoring):
    """The 6-coloring, counting its set-up calls."""

    def __init__(self):
        self.validations = self.inits = 0

    def validate(self, graph, inputs):
        self.validations += 1
        super().validate(graph, inputs)

    def init(self, node, value):
        self.inits += 1
        return super().init(node, value)


def trace_bytes(trace):
    return list(trace.jsonl_lines()), trace.final


class TestStartMemo:
    def test_a_run_of_the_instance_before_it_sets_up_nothing(self):
        graph, algo = build_graph("cycle:7"), CountingSix()
        for seed in range(100):
            sched = make_scheduling(f"random:seed={seed}", graph)
            assert execute(graph, algo, sched, record=False).complete
        assert (algo.validations, algo.inits) == (1, graph.n)

    def test_interleaved_instances_run_as_freshly_built_ones(self):
        def instances():
            return [
                (build_graph("cycle:6"), make_algorithm("linial+save1", id_bound=6, delta=2)),
                (build_graph("circulant:7,2"), make_algorithm("linial+save", id_bound=7, delta=4)),
                (build_graph("cycle:4"), Identity()),
            ]

        def run(graph, algo, seed):
            return execute(graph, algo, make_scheduling(f"random:seed={seed},crash=0.2", graph))

        order = [0, 0, 1, 1, 0, 2, 1, 2, 2, 0]
        want = [trace_bytes(run(*instances()[i], seed)) for seed, i in enumerate(order)]
        shared = instances()
        assert [trace_bytes(run(*shared[i], seed)) for seed, i in enumerate(order)] == want

    def test_each_algorithm_object_keeps_its_own_start_and_table(self, monkeypatch):
        builds = []

        def counted(graph, algo, inputs):
            builds.append((id(graph), id(algo)))
            return initial_configuration(graph, algo, inputs)

        monkeypatch.setattr(engine, "initial_configuration", counted)
        first = build_graph("cycle:5"), make_algorithm("six")
        second = build_graph("cycle:6"), make_algorithm("linial+save1", id_bound=6, delta=2)
        built = [(id(graph), id(algo)) for graph, algo in (first, second)]

        def alternate(seeds):
            for seed in seeds:
                for graph, algo in (first, second):
                    execute(graph, algo, make_scheduling(f"random:seed={seed}", graph), record=False)

        # two instances run in turn build one start each
        alternate(range(5))
        assert builds == built
        # a replay on explicit inputs builds a start of its own and evicts neither
        graph, algo = first
        trace = execute(graph, algo, make_scheduling("random:seed=3", graph))
        execute(graph, algo, make_scheduling("random:seed=3", graph), inputs=dict(trace.inputs))
        alternate(range(5, 8))
        assert builds == built + [built[0]]
        # on a second graph the object gets a new start, with the same table
        graph, algo = second
        table = engine._starts[algo].table
        assert table
        other = build_graph("cycle:6")
        execute(other, algo, make_scheduling("sync", other), record=False)
        assert len(builds) == 4 and engine._starts[algo].graph is other
        assert engine._starts[algo].table is table

    def test_explicit_inputs_build_afresh(self):
        graph, algo = build_graph("cycle:4"), CountingSix()
        execute(graph, algo, make_scheduling("sync", graph))
        inputs = {1: 7, 2: 8, 3: 9, 4: 6}
        for k in range(1, 4):
            trace = execute(graph, algo, make_scheduling("sync", graph), inputs=inputs)
            assert trace.inputs == inputs
            assert (algo.validations, algo.inits) == (1 + k, graph.n * (1 + k))
        save = make_algorithm("save", delta=2)
        execute(graph, save, make_scheduling("sync", graph))
        with pytest.raises(ValueError, match="input colors must differ"):
            execute(graph, save, make_scheduling("sync", graph), inputs={1: 1, 2: 1, 3: 2, 4: 2})

    def test_a_failing_validate_raises_on_every_call(self):
        graph, algo = build_graph("clique:4"), make_algorithm("six")
        for _ in range(3):
            with pytest.raises(ValueError, match="six requires degree <= 2"):
                execute(graph, algo, make_scheduling("sync", graph))
            with pytest.raises(ValueError, match="six requires degree <= 2"):
                ConfigurationSpace(graph, algo)

    @pytest.mark.parametrize(
        "algo", [Identity(), make_algorithm("six")], ids=["decided-at-init", "six"]
    )
    def test_changing_a_trace_leaves_the_next_run_alone(self, algo):
        graph = build_graph("cycle:5")
        want = trace_bytes(execute(build_graph("cycle:5"), algo, make_scheduling("sync", graph)))
        trace = execute(graph, algo, make_scheduling("sync", graph))
        space = ConfigurationSpace(graph, algo)
        cfg, before = space.configuration(0), space.configuration(0)
        for states in (trace.inputs, trace.decisions, trace.decision_steps, trace.params,
                       trace.final.old, trace.final.new, cfg.old, cfg.new):
            states[1] = "changed"
        assert trace_bytes(execute(graph, algo, make_scheduling("sync", graph))) == want
        assert space.configuration(0) == ConfigurationSpace(graph, algo).configuration(0) == before


class TestTraceFiles:
    def test_dump_is_replayable_byte_for_byte(self, tmp_path):
        graph, algo = six_on_table_cycle()
        trace = execute(graph, algo, make_scheduling("random:seed=11", graph))
        path = tmp_path / "t.jsonl"
        trace.dump(path)
        lines = path.read_text().splitlines()
        again = execute(graph, algo, make_scheduling("random:seed=11", graph))
        assert list(again.jsonl_lines()) == lines

    def test_header_carries_reproduction_data(self):
        graph, algo = six_on_table_cycle()
        trace = execute(graph, algo, make_scheduling("random:seed=2", graph))
        header = trace.header_json()
        assert header["graph_hash"] == graph.hash
        assert header["algo"] == "six"
        assert header["seed"] == 2
        assert header["sched"].startswith("random:seed=2")

    def test_jsonl_requires_recording(self):
        graph, algo = six_on_table_cycle()
        trace = execute(graph, algo, [(1, 3, 5)], record=False)
        with pytest.raises(EngineError):
            list(trace.jsonl_lines())


state_payloads = st.recursive(
    st.integers(-3, 9) | st.none() | st.booleans(),
    lambda inner: st.tuples(inner, inner) | st.tuples(inner, inner, inner),
    max_leaves=6,
)


def json_round_trip(value):
    """What a trace file gives back for an engine value: json.dumps, then json.loads."""
    return json.loads(json.dumps(value))


class TestStateJson:
    @settings(max_examples=80, deadline=None)
    @given(payload=state_payloads)
    def test_running_round_trip(self, payload):
        state = ("R", payload)
        assert state_from_json(json_round_trip(state)) == state

    @settings(max_examples=80, deadline=None)
    @given(payload=state_payloads, out=st.integers(0, 5))
    def test_terminated_round_trip(self, payload, out):
        state = ("T", out, payload)
        assert state_from_json(json_round_trip(state)) == state

    def test_bottom(self):
        assert json_round_trip(None) is None
        assert state_from_json(None) is None


class TestDetectLivelock:
    def test_terminating_period_has_no_certificate(self):
        graph, algo = six_on_table_cycle()
        assert detect_livelock(graph, algo, [(1, 3, 5), (4, 5)], [(3, 4)]) is None

    def test_single_node_period_on_clique_one(self):
        graph = build_graph("clique:1")
        assert detect_livelock(graph, make_algorithm("six"), [], [(1,)]) is None

    def test_empty_period_rejected(self):
        graph, algo = six_on_table_cycle()
        with pytest.raises(SchedulingError):
            detect_livelock(graph, algo, [], [])

    def test_certificate_shape(self):
        graph = build_graph("cycle:4", ids=(3, 4, 2, 1))
        cert = detect_livelock(
            graph, make_algorithm("buggy5"), [(2, 3, 4), (1, 3, 4)], [(3, 4)]
        )
        assert cert is not None
        assert cert.period_applications == cert.repeat_index - cert.matched_index
        assert cert.undecided == (3, 4)
        assert all(v in (3, 4) for v in cert.undecided)
        data = json_round_trip(cert.to_json())
        assert data["period"] == [[3, 4]]
        assert data["period_applications"] == 2

    def test_a_shared_start_gives_the_one_shot_certificate_and_stays_unchanged(self):
        graph = build_graph("cycle:4", ids=(3, 4, 2, 1))
        algo = make_algorithm("buggy5")
        prefix, period = ((2, 3, 4), (1, 3, 4)), ((3, 4),)
        start = initial_configuration(graph, algo, {v: algo.default_input(v) for v in graph.nodes})
        space = ConfigurationSpace(graph, algo)
        shared = detect_livelock(graph, algo, prefix, period, space=space)
        assert shared is not None
        assert shared.to_json() == detect_livelock(graph, algo, prefix, period).to_json()
        assert space.configuration(0) == start

    def test_a_certificate_does_not_alias_its_space(self):
        graph = build_graph("cycle:4", ids=(3, 4, 2, 1))
        algo = make_algorithm("buggy5")
        prefix, period = ((2, 3, 4), (1, 3, 4)), ((3, 4),)
        start = initial_configuration(graph, algo, {v: algo.default_input(v) for v in graph.nodes})
        space = ConfigurationSpace(graph, algo)
        first = detect_livelock(graph, algo, prefix, period, space=space)
        expected = first.to_json()
        first.configuration.old.clear()
        first.configuration.new[3] = None
        assert detect_livelock(graph, algo, prefix, period, space=space).to_json() == expected
        assert space.configuration(0) == start

    def test_a_space_of_another_algorithm_is_rejected(self):
        graph = build_graph("cycle:4")
        six = make_algorithm("six")
        space = ConfigurationSpace(graph, six, {v: v for v in graph.nodes})
        with pytest.raises(ValueError, match="another graph or algorithm"):
            detect_livelock(graph, make_algorithm("buggy5"), [], [(1,)], space=space)

    def test_a_negative_bound_is_rejected(self):
        graph, algo = build_graph("cycle:4", ids=(3, 4, 2, 1)), make_algorithm("buggy5")
        with pytest.raises(ValueError, match="bound must be non-negative, got -1"):
            detect_livelock(graph, algo, [(2, 3, 4), (1, 3, 4)], [(3, 4)], bound=-1)

    def test_the_bound_caps_the_period_applications(self):
        # the Table-2 configuration repeats after two applications of the period
        graph, algo = build_graph("cycle:4", ids=(3, 4, 2, 1)), make_algorithm("buggy5")
        prefix, period = [(2, 3, 4), (1, 3, 4)], [(3, 4)]
        assert detect_livelock(graph, algo, prefix, period, bound=0) is None
        assert detect_livelock(graph, algo, prefix, period, bound=1) is None
        cert = detect_livelock(graph, algo, prefix, period, bound=2)
        assert (cert.matched_index, cert.repeat_index, cert.undecided) == (0, 2, (3, 4))


class TestConfigurationSpace:
    @pytest.mark.parametrize("inputs", [None, {1: 2, 2: 1, 3: 2, 4: 1}])
    def test_id_0_is_the_initial_configuration_of_the_resolved_inputs(self, inputs):
        graph, algo = build_graph("cycle:4"), make_algorithm("save1", delta=2)
        space = ConfigurationSpace(graph, algo, inputs)
        resolved = inputs or {v: algo.default_input(v) for v in graph.nodes}
        start = initial_configuration(graph, algo, resolved)
        assert space.configuration(0) == start
        assert space.ids == {start.key(): 0}
        cfg = space.configuration(0)
        assert tuple(cfg.old) == tuple(cfg.new) == graph.nodes

    def test_each_configuration_is_held_once_as_its_interned_key(self):
        graph, algo = build_graph("cycle:4"), make_algorithm("six")
        space = ConfigurationSpace(graph, algo)
        for cid in range(40):
            space.children(cid)
        assert len(space) == len(space.keys) == len(space.ids) > 40
        for key, cid in space.ids.items():
            assert space.keys[cid] is key
            assert space.configuration(cid).key() == key

    @pytest.mark.parametrize(
        "inputs, error, match",
        [
            ({1: 1, 2: 2, 3: 3}, EngineError, "missing inputs for nodes \\[4\\]"),
            ({1: 1, 2: 1, 3: 3, 4: 4}, ValueError, "input colors must differ"),
        ],
        ids=["missing", "improper"],
    )
    def test_bad_inputs_raise_when_the_space_is_built(self, inputs, error, match):
        with pytest.raises(error, match=match):
            ConfigurationSpace(build_graph("cycle:4"), make_algorithm("save1", delta=2), inputs)

    def test_undecided_lists_the_running_nodes_in_node_order_once_per_id(self):
        graph = build_graph("cycle:5", ids=(3, 5, 4, 1, 6))
        space = ConfigurationSpace(graph, make_algorithm("six"))
        assert space.undecided(0) == graph.nodes
        # Table 1's first block decides node 1 only
        cid = space.successor(0, (1, 3, 5))
        assert space.undecided(cid) == (3, 4, 5, 6)
        assert space.undecided(cid) is space.undecided(cid)
        assert space.undecided(cid) == tuple(
            v for v in graph.nodes if v not in space.configuration(cid).decided()
        )

    def test_children_are_every_block_of_the_undecided_nodes_in_bit_mask_order(self):
        graph = build_graph("cycle:4", ids=(3, 4, 2, 1))
        space = ConfigurationSpace(graph, make_algorithm("buggy5"))
        kids = space.children(0)
        assert list(kids) == [
            (1,), (2,), (1, 2), (3,), (1, 3), (2, 3), (1, 2, 3),
            (4,), (1, 4), (2, 4), (1, 2, 4), (3, 4), (1, 3, 4), (2, 3, 4), (1, 2, 3, 4),
        ]
        for blk, cid in kids.items():
            cfg = step(graph, space.algo, space.configuration(0), blk)
            assert space.configuration(cid) == Configuration(cfg.old, cfg.new)
        assert space.children(0) == kids and space.children(0) is not kids

    @pytest.mark.parametrize(
        "spec, ids, algo",
        [
            ("cycle:4", (7, 900, 31, 402), make_algorithm("six")),
            ("path:5", (60, 3, 815, 42, 7), make_algorithm("save1", delta=3)),  # padded
        ],
        ids=["six-cycle", "save1-path"],
    )
    def test_every_child_is_the_step_of_its_block_on_spread_ids(self, spec, ids, algo):
        # ids out of node order and far from the positions 0..n-1, so a position read
        # as an id, or an id as a position, gives another configuration or an error
        graph = build_graph(spec, ids=ids)
        assert graph.nodes != ids
        space = ConfigurationSpace(graph, algo)
        cid = edges = 0
        while cid < len(space):  # every id, the ones found on the way included
            cfg = space.configuration(cid)
            for blk, nid in space.children(cid).items():
                want = step(graph, algo, cfg, blk)
                assert space.configuration(nid) == Configuration(want.old, want.new), (cid, blk)
                edges += 1
            cid += 1
        assert edges > len(space) > 100

    def test_children_keep_their_order_whatever_stepped_the_id_first(self):
        graph = build_graph("cycle:5", ids=(3, 5, 4, 1, 6))
        fresh, shared = (ConfigurationSpace(graph, make_algorithm("six")) for _ in range(2))
        cid = shared.successor(0, (1, 3, 5))  # node 1 decides
        assert cid == fresh.successor(0, (1, 3, 5))
        # blocks out of bit-mask order, one holding the decided node 1
        for blk in [(3, 4, 5, 6), (1, 6), (4,)]:
            shared.successor(cid, blk)
        want = fresh.children(cid)
        assert list(want) == [(3,), (4,), (3, 4), (5,), (3, 5), (4, 5), (3, 4, 5), (6,),
                              (3, 6), (4, 6), (3, 4, 6), (5, 6), (3, 5, 6), (4, 5, 6),
                              (3, 4, 5, 6)]
        got = shared.children(cid)
        assert list(got) == list(want)
        assert [shared.configuration(i) for i in got.values()] == [
            fresh.configuration(i) for i in want.values()
        ]
        # the transitions are kept once, in the memo, which still holds the extra block
        memo = {blk: nid for blk, (nid, _, _) in shared.successors[cid].items()}
        assert memo == {**got, (1, 6): shared.successor(cid, (1, 6))}
        shared.successor(cid, (1, 3))  # a block added after the first expansion
        assert shared.children(cid) == got

    def test_a_decided_id_has_no_children(self):
        space = ConfigurationSpace(build_graph("cycle:4"), Identity())  # decides at init
        assert space.undecided(0) == ()
        assert space.children(0) == {}


class TestConfigurationKey:
    def test_every_configuration_iterates_in_node_order(self):
        graph, algo = six_on_table_cycle()
        initial = initial_configuration(graph, algo, {v: v for v in graph.nodes})
        table2 = build_graph("cycle:4", ids=(3, 4, 2, 1))
        cert = detect_livelock(table2, make_algorithm("buggy5"), [(2, 3, 4), (1, 3, 4)], [(3, 4)])
        for g, cfg in [
            (graph, initial),
            (graph, step(graph, algo, initial, [5, 3, 1])),
            (graph, execute(graph, algo, [(6, 4), (5,), (1, 3, 5)]).final),
            (table2, cert.configuration),
        ]:
            assert tuple(cfg.old) == tuple(cfg.new) == g.nodes
            assert cfg.key() == (*(cfg.old[v] for v in g.nodes), *(cfg.new[v] for v in g.nodes))

    @pytest.mark.parametrize("name", ["six", "buggy5", "save1"])
    def test_a_disconnected_block_equals_its_components_in_either_order(self, name):
        graph, algo = build_graph("cycle:4"), make_algorithm(name, delta=2)
        cfg = initial_configuration(graph, algo, {v: algo.default_input(v) for v in graph.nodes})
        cfg = step(graph, algo, cfg, (2,))

        def key_after(*blocks):
            out = cfg
            for blk in blocks:
                out = step(graph, algo, out, blk)
            return out.key()

        together = key_after((1, 3))
        assert together != cfg.key()
        assert key_after((1,), (3,)) == together == key_after((3,), (1,))


class BlockList:
    """A scheduling object from outside the package: its blocks are not trusted."""

    spec = "custom"
    seed = None
    crash_times = {}
    support_forever = frozenset()

    def __init__(self, blocks):
        self._blocks = blocks
        self.support_ever = frozenset(v for b in blocks for v in b)

    def blocks(self):
        return iter(self._blocks)


def hand_built(blocks):
    """A Scheduling made outside the package's constructors: its blocks are not trusted."""
    graph, _ = six_on_table_cycle()
    return Scheduling("custom", graph.nodes, graph.node_set, {}, None, lambda: iter(blocks))


class TestBlockValidation:
    @pytest.mark.parametrize("blocks", [[(1, 3), ()], [(1, 3), (3, 99)]])
    def test_execute_checks_a_plain_list(self, blocks):
        graph, algo = six_on_table_cycle()
        with pytest.raises(SchedulingError):
            execute(graph, algo, blocks)

    @pytest.mark.parametrize(
        "prefix, period", [([()], [(3, 4)]), ([(5,)], [(3, 4)]), ([], [(3, 4), ()]), ([], [(7,)])]
    )
    def test_detect_livelock_checks_its_blocks(self, prefix, period):
        graph = build_graph("cycle:4", ids=(3, 4, 2, 1))
        with pytest.raises(SchedulingError):
            detect_livelock(graph, make_algorithm("buggy5"), prefix, period)

    @pytest.mark.parametrize("source", [BlockList, hand_built])
    @pytest.mark.parametrize("bad", [(), (1, 99)])
    def test_a_foreign_scheduling_object_has_each_block_checked(self, source, bad):
        graph, algo = six_on_table_cycle()
        with pytest.raises(SchedulingError):
            execute(graph, algo, source([(3, 5), bad]))

    @pytest.mark.parametrize("source", [BlockList, hand_built])
    def test_a_foreign_scheduling_object_gets_canonical_blocks(self, source):
        graph, algo = six_on_table_cycle()
        trace = execute(graph, algo, source([[5, 3, 1, 1], (5, 4)]))
        assert [rec.block for rec in trace.steps] == [(1, 3, 5), (4, 5)]
        assert trace.sched_spec == "custom"

    def test_a_scheduling_of_another_graph_is_checked(self):
        graph, algo = six_on_table_cycle()
        other = make_scheduling("sync", build_graph("cycle:9"))
        with pytest.raises(SchedulingError):
            execute(graph, algo, other)

    def test_a_plain_list_gets_a_canonical_explicit_spec(self, tmp_path):
        from asynclocal.verify import verify_trace_file

        graph, algo = six_on_table_cycle()
        trace = execute(graph, algo, [(5, 3, 1), (4, 5), [3, 4], (6,), (6,)])
        assert trace.sched_spec == "explicit:1,3,5/4,5/3,4/6/6"
        path = tmp_path / "t.jsonl"
        trace.dump(path)
        assert [v.ok for v in verify_trace_file(path, ["proper", "palette"])] == [True] * 3

    def test_the_run_stops_once_every_undecided_node_has_crashed(self):
        # node 2 crashes undecided after step 1 and node 1 decides at step 2;
        # the sync stream would go on scheduling node 1 forever
        graph = build_graph("path:2")
        trace = execute(graph, make_algorithm("six"), make_scheduling("sync:crashes=2@1", graph))
        assert trace.step_count == 2
        assert trace.decisions == {1: (1, 0)}
        assert not trace.complete

    def test_a_node_deciding_after_its_crash_step_no_longer_counts_as_crashed(self):
        # a foreign scheduling may still schedule node 1 after its crash step 0;
        # once it decides, the run goes on for node 2, which has not crashed
        graph = build_graph("path:2")
        sched = BlockList([(1,), (2,), (2,)])
        sched.crash_times = {1: 0}
        trace = execute(graph, make_algorithm("six"), sched)
        assert trace.step_count == 3
        assert trace.complete

    def test_foreign_schedulings_keep_their_runs(self):
        # hand-built schedulings whose blocks name nodes past their crash
        # step or outside support_ever; the digest pins every run's outcome
        rng = random.Random(19)
        runs = []
        stopped_on_crashes = decided_after_crash = decided_unscheduled = 0
        for _ in range(400):
            name, spec = rng.choice([("six", "cycle:5"), ("six", "path:4"), ("buggy5", "cycle:4")])
            graph, algo = build_graph(spec), make_algorithm(name)
            nodes = graph.nodes
            support = frozenset(v for v in nodes if rng.random() < 0.7)
            crash_times = {
                v: rng.choice([None, 0, 1, 2, 3, 5]) for v in nodes if rng.random() < 0.6
            }
            blocks = [
                tuple(rng.sample(nodes, rng.randint(1, len(nodes))))
                for _ in range(rng.randint(0, 12))
            ]
            sched = Scheduling("custom", nodes, support, crash_times, None, lambda b=blocks: iter(b))
            trace = execute(graph, algo, sched, max_steps=rng.randint(0, 14))
            stopped_on_crashes += (
                not trace.complete and trace.step_count < min(len(blocks), trace.max_steps)
            )
            decided_after_crash += any(
                crash_times.get(v) is not None and s > crash_times[v]
                for v, s in trace.decision_steps.items()
            )
            decided_unscheduled += not support.issuperset(trace.decisions)
            runs.append(
                (
                    trace.step_count,
                    trace.complete,
                    sorted(trace.decisions.items()),
                    sorted(trace.decision_steps.items()),
                    sorted(trace.runtimes.items()),
                )
            )
        # the set reaches each case the stop rule must get right
        assert min(stopped_on_crashes, decided_after_crash, decided_unscheduled) > 0
        digest = hashlib.sha256(json.dumps(runs).encode()).hexdigest()
        assert digest == "c5e0284db6fc298ed44ff91397d69cdf703a5443b186b321dd40ad6cf7ec1462"


def _run_mix():
    """A seeded mix of runs: (graph, algorithm, a maker of a fresh scheduling, max_steps)."""
    rng = random.Random(20)
    instances = [
        ("six", "cycle:5", None),
        ("buggy5", "cycle:4", None),
        ("save1", "cycle:6", 2),
        ("linial+save1", "cycle:7", 2),
        ("linial+save", "circulant:7,2", 4),
    ]
    runs = []
    for _ in range(60):
        name, spec, delta = rng.choice(instances)
        graph = build_graph(spec)
        nodes = graph.nodes
        algo = make_algorithm(name, id_bound=graph.id_bound, delta=delta)
        seed, p = rng.randrange(10**6), rng.choice([0.3, 0.5, 1.0])
        rate = rng.choice([0.0, 0.0, 0.2, 0.5])
        random_spec = f"random:seed={seed},p={p!r},crash={rate!r}"
        runs.append(
            (graph, algo, lambda g=graph, s=random_spec: make_scheduling(s, g), rng.randint(0, 60))
        )
        crashes = "|".join(f"{v}@{rng.randint(0, 4)}" for v in nodes if rng.random() < 0.4)
        sync_spec = f"sync:crashes={crashes}"
        runs.append((graph, algo, lambda g=graph, s=sync_spec: make_scheduling(s, g), 50))
        blocks = [rng.sample(nodes, rng.randint(1, 3)) for _ in range(rng.randint(0, 10))]
        runs.append((graph, algo, lambda b=blocks, n=nodes: explicit_scheduling(b, n), 20))
        support = frozenset(v for v in nodes if rng.random() < 0.8)
        crash_times = {v: rng.choice([None, 0, 2, 4]) for v in nodes if rng.random() < 0.5}
        foreign = [tuple(rng.sample(nodes, rng.randint(1, 3))) for _ in range(rng.randint(0, 12))]

        def hand_built(b=foreign, n=nodes, s=support, c=crash_times):
            return Scheduling("custom", n, s, c, None, lambda: iter(b))

        runs.append((graph, algo, hand_built, 10))
    c4 = build_graph("cycle:4", ids=(3, 1, 4, 2))
    six = make_algorithm("six")
    for sched in enumerate_schedulings(c4.nodes, 3, graph=c4):
        runs.append((c4, six, lambda s=sched: s, DEFAULT_MAX_STEPS))
    return runs


def _outcome(trace):
    return (
        trace.step_count,
        trace.complete,
        sorted(trace.decisions.items()),
        sorted(trace.decision_steps.items()),
        sorted(trace.runtimes.items()),
        sorted(trace.final.old.items()),
        sorted(trace.final.new.items()),
        sorted(trace.support_forever),
    )


def test_recorded_and_unrecorded_runs_agree_and_keep_their_results():
    outcomes = []
    for graph, algo, make, max_steps in _run_mix():
        full = execute(graph, algo, make(), max_steps=max_steps)
        slim = execute(graph, algo, make(), max_steps=max_steps, record=False)
        assert slim.steps is None and len(full.steps) == full.step_count
        assert _outcome(slim) == _outcome(full)
        outcomes.append(_outcome(slim))
    assert len(outcomes) == 240 + 3615
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == "52b0ff2aeb43390222911ce8561523920026103ab93549032955bec28bb0691d"


# a graph each registered algorithm accepts, and the identifier and degree bounds it
# is built for: the identifier bounds leave Linial a round to run on these small graphs
_REGISTRY_GRAPHS = {
    "six": ("cycle:5", None, None),
    "linial": ("cycle:6", 30, 2),
    "save": ("cycle:6", None, 2),
    "save1": ("cycle:6", None, 2),
    "buggy5": ("cycle:4", None, None),
    "linial+save": ("circulant:7,2", 100, 4),
    "linial+save1": ("cycle:7", 30, 2),
}


def test_unrecorded_runs_through_the_transition_tables_equal_recorded_runs():
    assert set(_REGISTRY_GRAPHS) == set(ALGORITHM_NAMES)
    clique = build_graph("clique:3")
    instances = []
    for name, (spec, id_bound, delta) in _REGISTRY_GRAPHS.items():
        instances.append((build_graph(spec), make_algorithm(name, id_bound=id_bound, delta=delta)))
    toys = [*toy_algorithms(3).values(), Trimmed(make_algorithm("six"), 3), Trimmed(OutputAfterSeeing(2), 3)]
    instances += [(clique, algo) for algo in toys]

    rng = random.Random(21)
    activations = 0
    for _ in range(600):
        graph, algo = rng.choice(instances)
        nodes = graph.nodes
        kind = rng.choice(["random", "sync", "explicit"])
        if kind == "random":
            p, rate = rng.choice([0.3, 0.5, 1.0]), rng.choice([0.0, 0.2])
            sched = make_scheduling(f"random:seed={rng.randrange(10**6)},p={p!r},crash={rate!r}", graph)
        elif kind == "sync":
            crashes = "|".join(f"{v}@{rng.randint(0, 3)}" for v in nodes if rng.random() < 0.3)
            sched = make_scheduling(f"sync:crashes={crashes}", graph)
        else:
            blocks = [rng.sample(nodes, rng.randint(1, len(nodes))) for _ in range(rng.randint(1, 12))]
            sched = explicit_scheduling(blocks, nodes)
        slim = execute(graph, algo, sched, max_steps=60, record=False)
        full = execute(graph, algo, sched, max_steps=60)
        assert _outcome(slim) == _outcome(full), (algo, sched.spec)
        activations += sum(slim.runtimes.values())

    # every object has a table of its own, and more lookups found their key than added it
    algos = [algo for _, algo in instances]
    assert all(engine._starts[algo].table for algo in algos)
    assert sum(len(engine._starts[algo].table) for algo in algos) < activations / 2

    # two objects that meet the same payloads and snapshots but decide differently
    zero, one = ConstantOutput(0), ConstantOutput(1)
    for seed in range(3):
        traces = [
            execute(clique, algo, make_scheduling(f"random:seed={seed}", clique), record=False)
            for algo in (zero, one, zero)
        ]
        assert set(traces[0].decisions.values()) == {0} == set(traces[2].decisions.values())
        assert set(traces[1].decisions.values()) == {1}


def test_a_transition_table_past_its_limit_is_replaced_at_the_next_run():
    graph = build_graph("cycle:1000")
    algo = make_algorithm("linial+save1", id_bound=graph.id_bound, delta=2)
    sizes = []
    for seed in range(8):
        spec = f"random:seed={seed},p=0.5,crash=0.1"
        slim = execute(graph, algo, make_scheduling(spec, graph), record=False)
        size = len(engine._starts[algo].table)
        assert size <= engine._TABLE_LIMIT + sum(slim.runtimes.values())
        sizes.append(size)
        assert _outcome(slim) == _outcome(execute(graph, algo, make_scheduling(spec, graph)))
    assert max(sizes) > engine._TABLE_LIMIT  # the limit was reached
    assert any(b < a for a, b in zip(sizes, sizes[1:]))  # and the table replaced


def test_unrecorded_runs_read_short_and_padded_snapshots_as_recorded_runs():
    # nodes of degree 0 and 1, snapshots padded up to the arity, and one algorithm
    # object alternating between two graphs on the same nodes, so a snapshot reader
    # kept for the other graph reads the wrong registers
    tree = build_graph("tree:12,4,8")
    other_tree = build_graph("tree:12,4,1")
    assert tree.nodes == other_tree.nodes and tree.adj != other_tree.adj
    six, save1 = make_algorithm("six"), make_algorithm("save1", delta=4)
    alone = [
        [(build_graph(spec), make_algorithm("six"))] for spec in ("path:1", "clique:1", "path:2", "path:9")
    ]
    alone += [
        [(build_graph("clique:1"), make_algorithm("save1", delta=2))],
        [(build_graph("path:9"), make_algorithm("save1", delta=2))],
        [(tree, make_algorithm("save1", delta=4))],
        [(tree, make_algorithm("linial+save1", id_bound=tree.id_bound, delta=4))],
    ]
    alternating = [
        [(build_graph("path:9"), six), (build_graph("cycle:9"), six)],
        [(tree, save1), (other_tree, save1)],
    ]
    rng = random.Random(25)
    for instances in alone + alternating:
        for i in range(40):
            graph, algo = instances[i % len(instances)]
            nodes = graph.nodes
            kind = rng.choice(["random", "sync", "explicit"])
            if kind == "random":
                p, rate = rng.choice([0.3, 0.5, 1.0]), rng.choice([0.0, 0.2])
                sched = make_scheduling(f"random:seed={rng.randrange(10**6)},p={p!r},crash={rate!r}", graph)
            elif kind == "sync":
                crashes = "|".join(f"{v}@{rng.randint(0, 3)}" for v in nodes if rng.random() < 0.3)
                sched = make_scheduling(f"sync:crashes={crashes}", graph)
            else:
                blocks = [rng.sample(nodes, rng.randint(1, len(nodes))) for _ in range(rng.randint(1, 12))]
                sched = explicit_scheduling(blocks, nodes)
            slim = execute(graph, algo, sched, max_steps=60, record=False)
            full = execute(graph, algo, sched, max_steps=60)
            assert _outcome(slim) == _outcome(full), (algo, graph.kind, sched.spec)
    # the tables hold the snapshots next saw, each padded up to the arity
    for instances in alone + alternating:
        algo = instances[0][1]
        if algo.arity is not None:
            assert {len(snaps) for _, snaps in engine._starts[algo].table} == {algo.arity}


def _in_order(trace):
    """Every field of ``trace`` but its steps, with each dict in its own order."""
    fields = {f.name: getattr(trace, f.name) for f in dataclasses.fields(trace) if f.name != "steps"}
    return repr({**fields, "final": (trace.final.old, trace.final.new, trace.final.step_index)})


class TestStartSpace:
    """Explicit unrecorded runs on default inputs and small graphs step through the start's space."""

    def test_enumerated_runs_keep_every_field_and_dict_order_of_recorded_runs(self):
        graph = build_graph("cycle:4", ids=(3, 1, 4, 2))
        for algo in (make_algorithm("six"), make_algorithm("buggy5")):
            for sched in enumerate_schedulings(graph.nodes, 3, graph=graph):
                slim = execute(graph, algo, sched, record=False)
                assert _in_order(slim) == _in_order(execute(graph, algo, sched)), sched.spec
            space = engine._starts[algo].space
            assert len(space) > 1
            # equal decided tuples in the memo are one object
            outs = [hit[2] for memo in space.successors for hit in memo.values() if hit[2]]
            assert outs and len(set(outs)) == len({id(out) for out in outs})

    def test_the_space_of_a_start_fills_and_shares_the_object_table(self):
        graph, algo = build_graph("cycle:4"), make_algorithm("six")
        slim = execute(graph, algo, [(1, 3), (2, 4), (1, 2, 3, 4)], record=False)
        start = engine._starts[algo]
        states = {id(st) for st in start.table.values()}
        assert start.table and all(id(slim.final.new[v]) in states for v in graph.nodes)
        # a second space of the start reads the table: no call of next for a known pair
        start.space = None
        calls = []
        algo.next = lambda payload, snaps: calls.append(1) or SixColoring.next(algo, payload, snaps)
        slim = execute(graph, algo, [(1, 3), (2, 4)], record=False)
        assert start.space is not None and calls == []
        assert _in_order(slim) == _in_order(execute(graph, algo, [(1, 3), (2, 4)])) and calls

    def test_only_explicit_unrecorded_default_input_runs_on_small_graphs_build_a_space(self):
        c4, c6 = build_graph("cycle:4"), build_graph("cycle:6")
        explicit = [(1, 2), (3,), (2, 4)]
        runs = [
            (c4, make_scheduling("random:seed=3,p=0.5,crash=0.1", c4), None, False),
            (c4, make_scheduling("random:seed=3", c4), None, False),
            (c4, make_scheduling("sync", c4), None, False),
            (c4, explicit_scheduling(explicit, c4.nodes), None, True),  # recorded
            (c6, explicit_scheduling(explicit, c6.nodes), None, False),  # six nodes
        ]
        for graph, sched, inputs, record in runs:
            algo = make_algorithm("six")
            execute(graph, algo, sched, inputs=inputs, record=record)
            assert engine._starts[algo].space is None, sched.spec
        # explicit inputs keep no start, and leave the kept one's space alone
        algo = make_algorithm("six")
        execute(c4, algo, make_scheduling("sync", c4))
        kept = engine._starts[algo]
        execute(c4, algo, explicit_scheduling(explicit, c4.nodes), inputs={1: 7, 2: 8, 3: 9, 4: 6},
                record=False)
        assert engine._starts[algo] is kept and kept.space is None
        # the run that takes the path builds the space once; later runs share it
        for _ in range(2):
            execute(c4, algo, explicit_scheduling(explicit, c4.nodes), record=False)
            assert engine._starts[algo] is kept and kept.space is not None
        space = kept.space
        execute(c4, algo, [[1], [2, 3]], record=False)
        assert kept.space is space and len(space) > 1
        # one node bound for the path and for enumeration, one size bound for every space
        assert schedulers._SPACE_MAX_NODES == engine._SPACE_MAX_NODES == 5
        assert schedulers._SPACE_LIMIT == engine._SPACE_LIMIT

    def test_a_start_with_a_space_dies_with_its_object(self):
        graph, algo = build_graph("cycle:4"), make_algorithm("six")
        execute(graph, algo, [[1, 3], [2, 4]], record=False)
        space = engine._starts[algo].space
        assert isinstance(space.algo, weakref.ProxyType) and space.algo.name == algo.name
        ref = weakref.ref(algo)
        del algo
        gc.collect()
        assert ref() is None

    def test_a_start_space_past_its_limit_is_replaced_at_the_next_run(self, monkeypatch):
        monkeypatch.setattr(engine, "_SPACE_LIMIT", 8)
        graph, algo = build_graph("cycle:4", ids=(3, 1, 4, 2)), make_algorithm("six")
        spaces, sizes = [], []
        for sched in itertools.islice(enumerate_schedulings(graph.nodes, 3, graph=graph), 0, None, 7):
            slim = execute(graph, algo, sched, record=False)
            space = engine._starts[algo].space
            assert len(space) <= engine._SPACE_LIMIT + slim.step_count
            spaces.append(space)
            sizes.append(len(space))
            assert _outcome(slim) == _outcome(execute(graph, algo, sched))
        assert max(sizes) > engine._SPACE_LIMIT  # the limit was reached
        assert len({id(space) for space in spaces}) > 1  # and the space replaced
        for a, b, size in zip(spaces, spaces[1:], sizes):
            assert (b is a) == (size <= engine._SPACE_LIMIT)

    @pytest.mark.parametrize(
        "spec, ids, name, blocks, max_steps",
        [
            ("cycle:5", (3, 5, 4, 1, 6), "six", [(1, 3, 5), (3, 5), (4, 6)], 0),
            ("cycle:5", (3, 5, 4, 1, 6), "six", [(1, 3, 5), (3, 5), (4, 6)], 1),
            ("cycle:5", (3, 5, 4, 1, 6), "six", [], DEFAULT_MAX_STEPS),
            # node 1 decides in the first block, so the second runs no node
            ("cycle:5", (3, 5, 4, 1, 6), "six", [(1, 3, 5), (1,), (1,), (3, 4)], DEFAULT_MAX_STEPS),
            # Table 2's prefix, then its period again and again: nodes 3 and 4 never decide
            ("cycle:4", (3, 4, 2, 1), "buggy5", [(2, 3, 4), (1, 3, 4)] + [(3, 4)] * 40, 30),
            ("cycle:4", (3, 4, 2, 1), "buggy5", [(2, 3, 4), (1, 3, 4)] + [(3, 4)] * 40, DEFAULT_MAX_STEPS),
        ],
        ids=["max-steps-0", "max-steps-1", "empty", "decided-only", "buggy5-cut", "buggy5-exhausted"],
    )
    def test_edge_runs_through_the_space_equal_recorded_runs(self, spec, ids, name, blocks, max_steps):
        graph, algo = build_graph(spec, ids=ids), make_algorithm(name)
        sched = explicit_scheduling(blocks, graph.nodes)
        slim = execute(graph, algo, sched, max_steps=max_steps, record=False)
        assert engine._starts[algo].space is not None
        assert _in_order(slim) == _in_order(execute(graph, algo, sched, max_steps=max_steps))
        if name == "buggy5":
            assert not slim.complete and slim.step_count == min(max_steps, len(blocks))

    def test_a_block_of_decided_nodes_keeps_the_id(self):
        graph, algo = six_on_table_cycle()
        execute(graph, algo, [(1, 3, 5), (1,)], record=False)
        space = engine._starts[algo].space
        cid = space.successor(0, (1, 3, 5))  # Table 1's first block decides node 1
        assert space.successors[0][(1, 3, 5)][1:] == ((1, 3, 5), ((1, space.configuration(cid).decided()[1]),))
        assert space.successors[cid][(1,)] == (cid, (), ())

    def test_runs_and_certificates_hand_out_copies_of_one_decode(self):
        graph, algo = build_graph("cycle:4", ids=(3, 1, 4, 2)), make_algorithm("six")
        blocks = [(1, 3), (2, 4), (1, 2, 3, 4)]
        expected = execute(graph, algo, blocks).final
        first = execute(graph, algo, blocks, record=False).final
        space = engine._starts[algo].space
        cid = space.ids[first.key()]
        second = execute(graph, algo, blocks, record=False).final
        assert first == second == expected
        assert first.old is not second.old and first.new is not second.new
        first.old[1] = first.new[1] = ("R", "changed")
        first.new.clear()
        assert execute(graph, algo, blocks, record=False).final == expected
        assert space.configuration(cid) == Configuration(expected.old, expected.new)
        assert second == expected
        # a certificate's configuration is a copy of the same decode
        graph, algo = build_graph("cycle:4", ids=(3, 4, 2, 1)), make_algorithm("buggy5")
        prefix, period = ((2, 3, 4), (1, 3, 4)), ((3, 4),)
        space = ConfigurationSpace(graph, algo)
        one = detect_livelock(graph, algo, prefix, period, space=space)
        two = detect_livelock(graph, algo, prefix, period, space=space)
        cid = space.ids[one.configuration.key()]
        want = space.configuration(cid)
        assert one.configuration == two.configuration == want
        assert one.configuration.old is not two.configuration.old
        assert one.configuration.new is not two.configuration.new
        one.configuration.old[3] = one.configuration.new[3] = None
        assert detect_livelock(graph, algo, prefix, period, space=space).configuration == want
        assert space.configuration(cid) == want == two.configuration
        assert space.configuration(cid).old is not want.old

    def test_enumerated_schedulings_share_the_node_tuple_of_the_graph_they_cover(self):
        graph = build_graph("cycle:4", ids=(3, 1, 4, 2))
        algo = make_algorithm("six")
        for nodes, shared in (((4, 2, 3, 1), True), ((3, 1), False)):
            for sched in enumerate_schedulings(nodes, 3, graph=graph):
                assert (sched.nodes is graph.nodes) == shared
                assert sched.nodes == tuple(sorted(nodes))
                # the blocks run as they come, with no check per block
                assert engine._block_source(graph, sched)[1].__class__ is iter(()).__class__
                slim = execute(graph, algo, sched, record=False)
                assert _in_order(slim) == _in_order(execute(graph, algo, sched)), sched.spec
        assert engine._starts[algo].space is not None

    @pytest.mark.parametrize(
        "blocks, max_steps, complete",
        [
            ([(1, 3), (2, 4)] * 6, 4, True),  # nodes 2 and 4 decide in block 4
            ([(1, 3), (2, 4)] * 6, 3, False),
            ([(1,), (2,), (3,), (4,)] * 4, 8, True),  # node 4 decides last, in block 8
            ([(1,), (2,), (3,), (4,)] * 4, 7, False),
        ],
        ids=["last-decision-at-max-steps", "cut-before-it", "sequential-at-max-steps", "sequential-cut"],
    )
    def test_max_steps_and_the_last_decision_stop_space_runs_as_recorded_runs(self, blocks, max_steps, complete):
        graph, algo = build_graph("cycle:4", ids=(3, 1, 4, 2)), make_algorithm("six")
        full = execute(graph, algo, blocks, max_steps=max_steps)
        # more blocks follow, so a complete run of max_steps blocks decided last in the last one
        assert full.complete == complete and full.step_count == max_steps < len(blocks)
        slim = execute(graph, algo, blocks, max_steps=max_steps, record=False)
        assert engine._starts[algo].space is not None
        assert (slim.step_count, slim.complete) == (full.step_count, full.complete)
        assert slim.decisions == full.decisions and slim.decision_steps == full.decision_steps
        assert slim.final == full.final
        assert _in_order(slim) == _in_order(full)

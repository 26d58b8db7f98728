import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asynclocal.algorithms import Identity, make_algorithm
from asynclocal.engine import (
    Configuration,
    ConfigurationSpace,
    EngineError,
    Scheduling,
    SchedulingError,
    detect_livelock,
    execute,
    initial_configuration,
    state_from_json,
    step,
)
from asynclocal.graphs import build_graph
from asynclocal.schedulers import make_scheduling


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


class TestConfigurationSpace:
    @pytest.mark.parametrize("inputs", [None, {1: 2, 2: 1, 3: 2, 4: 1}])
    def test_id_0_is_the_initial_configuration_of_the_resolved_inputs(self, inputs):
        graph, algo = build_graph("cycle:4"), make_algorithm("save1", delta=2)
        space = ConfigurationSpace(graph, algo, inputs)
        resolved = inputs or {v: algo.default_input(v) for v in graph.nodes}
        start = initial_configuration(graph, algo, resolved)
        assert space.configuration(0) == start
        assert space.ids == {start.key(): 0}
        assert tuple(space.pairs[0][0]) == tuple(space.pairs[0][1]) == graph.nodes

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

import json
import re

import pytest

from asynclocal import graphs, schedulers, verify
from asynclocal.algorithms import ALGORITHM_NAMES, Identity, make_algorithm
from asynclocal.engine import Trace, execute
from asynclocal.graphs import build_graph
from asynclocal.schedulers import make_scheduling
from asynclocal.verify import (
    TABLE1_GRAPH,
    TABLE1_RUNTIMES,
    TABLE1_SCHEDULE,
    Verdict,
    algorithm_from_header,
    check_palette,
    check_parity_reduction,
    check_proper,
    load_trace,
    parity_verdict,
    reproduce_table,
    verify_trace_file,
)


def fake_trace(algo_name, params, decisions, graph=None):
    """A minimal trace carrying just what the coloring checks read."""
    graph = graph or build_graph(f"clique:{max(len(decisions), 1)}")
    return Trace(
        graph=graph,
        algo_name=algo_name,
        params=params,
        inputs={},
        sched_spec="sync",
        seed=None,
        step_count=0,
        complete=True,
        decisions=decisions,
        decision_steps={},
        runtimes={},
        final=None,
        palette=algorithm_from_header({"algo": algo_name, "params": params}).palette,
    )


def table1_trace(record=True):
    graph = build_graph("cycle:5", ids=TABLE1_GRAPH["ids"])
    return execute(graph, make_algorithm("six"), list(TABLE1_SCHEDULE), record=record)


class TestVerdict:
    def test_truthiness(self):
        assert Verdict(True, "x")
        assert not Verdict(False, "x")

    def test_render(self):
        assert Verdict(True, "proper", "all nodes decided").render() == (
            "proper: pass (all nodes decided)"
        )
        rendered = Verdict(False, "palette", "bad", witness=(1, (2, 0))).render()
        assert rendered.startswith("palette: FAIL (bad) witness=")


class TestProper:
    def test_pass(self):
        verdict = check_proper(table1_trace())
        assert verdict.ok
        assert "all nodes decided" in verdict.detail

    def test_fail_carries_the_edge(self):
        graph = build_graph("path:2")
        trace = fake_trace("six", {}, {1: (0, 0), 2: (0, 0)}, graph=graph)
        verdict = check_proper(trace)
        assert not verdict.ok
        assert verdict.witness == (1, 2, (0, 0))

    def test_undecided_nodes_pass_vacuously(self):
        graph = build_graph("path:3")
        trace = fake_trace("six", {}, {1: (0, 0)}, graph=graph)
        verdict = check_proper(trace)
        assert verdict.ok
        assert "2 undecided" in verdict.detail


def scan_palette(trace):
    """``check_palette`` by a scan of every decision alone: the reference for its set test."""
    palette = trace.palette
    if palette is None:
        raise ValueError(f"algorithm {trace.algo_name} names no palette to check against")

    def as_tuples(obj):  # lists at every depth, as a trace file's states are read
        return tuple(as_tuples(x) for x in obj) if isinstance(obj, list) else obj

    def outside_palette(out):
        try:
            return as_tuples(out) not in palette
        except TypeError:  # still unhashable: outside
            return True

    outside = sorted(
        ((v, out) for v, out in trace.decisions.items() if outside_palette(out)), key=lambda vo: vo[0]
    )
    if outside:
        v, out = outside[0]
        detail = f"node {v} decided {out!r}, outside the {len(palette)}-value palette"
        return Verdict(False, "palette", detail, witness=(v, out))
    return Verdict(True, "palette", f"{len(trace.decisions)} decisions within {len(palette)} values")


def campaign_traces():
    """Unrecorded adversarial runs of the two composed algorithms, as a campaign makes them."""
    instances = [(build_graph(f"cycle:{n}"), "linial+save1", 2) for n in (4, 7, 12)]
    instances += [(g, "linial+save", 4) for g in (build_graph("circulant:7,2"), graphs.random_tree(12, 4, 3))]
    for graph, name, delta in instances:
        algo = make_algorithm(name, id_bound=graph.id_bound, delta=delta)
        for seed, p, rate in ((1, 0.3, 0.0), (2, 0.5, 0.25), (3, 1.0, 0.25), (4, 0.8, 0.1)):
            sched = make_scheduling(f"random:seed={seed},p={p},crash={rate}", graph)
            yield execute(graph, algo, sched, record=False)


class TestPalette:
    def test_six_pairs(self):
        pal = make_algorithm("six").palette
        assert pal == {(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)}

    def test_save_one_more_drops_the_special_pair(self):
        assert make_algorithm("save1", delta=2).palette == {
            (0, 0),
            (0, 1),
            (0, 2),
            (1, 0),
            (1, 1),
        }
        assert len(make_algorithm("save1", delta=3).palette) == 9

    def test_linial_palette_follows_the_reduction(self):
        assert make_algorithm("linial", id_bound=100, delta=2).palette == set(range(1, 26))

    def test_buggy_five(self):
        assert make_algorithm("buggy5").palette == {0, 1, 2, 3, 4}

    def test_unknown_algorithm(self):
        # an algorithm that names no palette leaves check_palette nothing to check
        trace = execute(build_graph("path:2"), Identity(), [(1, 2)])
        assert trace.palette is None
        with pytest.raises(ValueError, match="identity names no palette"):
            check_palette(trace)

    def test_table_decisions_pass(self):
        assert check_palette(table1_trace()).ok

    def test_special_pair_rejected_for_save_one_more(self):
        trace = fake_trace("save1", {"delta": 2}, {1: (2, 0)})
        verdict = check_palette(trace)
        assert not verdict.ok
        assert verdict.witness == (1, (2, 0))

    def test_the_lowest_offender_is_named_whatever_the_decision_order(self):
        # decisions in descending node order, the lowest offender last
        decisions = {5: (2, 0), 4: (0, 0), 3: (0, 2), 2: (1, 1), 1: (2, 0)}
        verdict = check_palette(fake_trace("save1", {"delta": 2}, decisions))
        assert not verdict.ok
        assert verdict.witness == (1, (2, 0))
        assert verdict.detail == "node 1 decided (2, 0), outside the 5-value palette"

    def test_pair_sum_bound(self):
        trace = fake_trace(
            "linial+save", {"phase1_id_bound": 9, "phase1_delta": 2, "phase2_delta": 2}, {1: (2, 1)}
        )
        assert not check_palette(trace).ok

    def test_decisions_arriving_as_lists_are_coerced(self):
        trace = fake_trace("six", {}, {1: [0, 1]})
        assert check_palette(trace).ok

    def test_the_set_test_and_the_scan_agree(self):
        save1 = {"delta": 2}
        traces = list(campaign_traces())
        assert all(trace.decisions for trace in traces)
        traces += [
            fake_trace("save1", save1, {3: (0, 0), 1: (1, 1), 2: (2, 0)}),  # one outside
            fake_trace("save1", save1, {5: (2, 0), 4: (0, 0), 3: (7, 7), 2: (1, 1), 1: (2, 0)}),
            fake_trace("six", {}, {1: [0, 1], 2: (1, 0)}),  # list outputs inside the palette
            fake_trace("save1", save1, {2: [0, 0], 3: [2, 0], 1: (0, 2)}),  # and outside it
            fake_trace("buggy5", {}, {1: 0, 2: 4, 3: 5, 4: 1.0}),
            fake_trace("save1", save1, {1: (0, [0]), 2: (0, 2)}),  # a list inside a tuple: outside
            fake_trace("six", {}, {2: [0, [1]], 1: [[0], 1]}),  # lists at two depths, read as tuples
            fake_trace("six", {}, {3: {"c": 0}, 2: (1, 0), 1: (0, {0})}),  # unhashable outputs
        ]
        verdicts = [check_palette(trace) for trace in traces]
        assert verdicts == [scan_palette(trace) for trace in traces]
        assert [v.witness for v in verdicts if not v.ok] == [
            (2, (2, 0)), (1, (2, 0)), (3, [2, 0]), (3, 5), (1, (0, [0])), (1, [[0], 1]), (1, (0, {0})),
        ]
        none = execute(build_graph("path:2"), Identity(), [(1, 2)])
        for check in (check_palette, scan_palette):
            with pytest.raises(ValueError, match="identity names no palette"):
                check(none)

    @pytest.mark.parametrize(
        "name, graph_spec",
        [("six", "cycle:5"), ("buggy5", "cycle:4"), ("save", "clique:4"), ("save1", "cycle:6"),
         ("linial", "cycle:50"), ("linial+save", "circulant:7,2"), ("linial+save1", "cycle:12")],
    )
    def test_each_algorithm_carries_its_palette(self, name, graph_spec):
        graph = build_graph(graph_spec)
        algo = make_algorithm(name, id_bound=graph.id_bound, delta=graph.max_degree)
        trace = execute(graph, algo, make_scheduling("random:seed=4,crash=0.2", graph))
        assert trace.palette is algo.palette  # built once per algorithm
        assert algorithm_from_header(trace.header_json()).palette == algo.palette
        assert check_palette(trace).ok

    def test_the_trace_algorithm_palette_decides(self):
        trace = table1_trace()
        trace.decisions[1] = (2, 0)  # a six-coloring pair, but outside save1's palette
        assert check_palette(trace).ok
        trace.palette = make_algorithm("save1", delta=2).palette
        verdict = check_palette(trace)
        assert not verdict.ok
        assert verdict.witness == (1, (2, 0))


class TestParity:
    def test_both_parities_present(self):
        graph = build_graph("cycle:5")
        assert parity_verdict(graph, {1: 0, 2: 1, 3: 0, 4: 1, 5: 2}).ok

    def test_all_even_fails(self):
        graph = build_graph("cycle:5")
        verdict = parity_verdict(graph, {1: 0, 2: 2, 3: 0, 4: 2, 5: 0})
        assert not verdict.ok
        assert "even" in verdict.detail

    def test_all_odd_fails(self):
        graph = build_graph("cycle:3")
        verdict = parity_verdict(graph, {1: 1, 2: 3, 3: 1})
        assert not verdict.ok
        assert "odd" in verdict.detail

    def test_mixed_small_cycle(self):
        graph = build_graph("cycle:3")
        assert parity_verdict(graph, {1: 1, 2: 2, 3: 3}).ok

    def test_even_cycle_out_of_scope(self):
        graph = build_graph("cycle:4")
        with pytest.raises(ValueError):
            parity_verdict(graph, {1: 0, 2: 1, 3: 0, 4: 1})

    def test_path_out_of_scope(self):
        graph = build_graph("path:3")
        with pytest.raises(ValueError):
            parity_verdict(graph, {1: 0, 2: 1, 3: 0})

    def test_missing_decision(self):
        graph = build_graph("cycle:3")
        with pytest.raises(ValueError):
            parity_verdict(graph, {1: 0, 2: 1})

    def test_color_out_of_range(self):
        graph = build_graph("cycle:3")
        with pytest.raises(ValueError):
            parity_verdict(graph, {1: 0, 2: 1, 3: 4})

    def test_engine_runs_of_the_flawed_rule_satisfy_it(self):
        graph = build_graph("cycle:5")
        algo = make_algorithm("buggy5")
        checked = 0
        for seed in range(60):
            trace = execute(
                graph, algo, make_scheduling(f"random:seed={seed}", graph), max_steps=400
            )
            if not trace.complete or not check_proper(trace).ok:
                continue
            if any(c > 3 for c in trace.decisions.values()):
                continue
            assert check_parity_reduction(trace).ok
            checked += 1
        assert checked > 0


class TestRuntime:
    def test_table_runtimes(self):
        trace = table1_trace()
        assert trace.runtimes == TABLE1_RUNTIMES
        assert trace.max_runtime == 2
        assert trace.complete

    def test_recount_matches_engine_counters(self):
        # a node's runtime is the number of steps it read in: the blocks that
        # held it while it was undecided, the deciding block included
        for name, graph_spec in (
            ("six", "cycle:7"), ("buggy5", "cycle:5"), ("save1", "cycle:6"),
            ("linial+save", "circulant:7,2"), ("linial+save1", "cycle:12"),
        ):
            graph = build_graph(graph_spec)
            algo = make_algorithm(name, id_bound=graph.id_bound, delta=graph.max_degree)
            for seed in range(25):
                sched = make_scheduling(f"random:seed={seed},p=0.4,crash=0.2", graph)
                recorded = execute(graph, algo, sched, max_steps=300)
                recount = dict.fromkeys(graph.nodes, 0)
                for rec in recorded.steps:
                    for v in rec.reads:
                        recount[v] += 1
                assert recount == recorded.runtimes
                bare = execute(graph, algo, sched, max_steps=300, record=False)
                assert bare.steps is None
                assert bare.runtimes == recorded.runtimes

    def test_single_activation(self):
        graph = build_graph("clique:1")
        trace = execute(graph, make_algorithm("six"), [(1,)])
        assert trace.runtimes == {1: 1}


class TestGoldenFixtures:
    def test_table_one_reproduces(self):
        verdict = reproduce_table("table1")
        assert verdict.ok, verdict.render()

    def test_table_two_reproduces(self):
        verdict = reproduce_table("table2")
        assert verdict.ok, verdict.render()

    def test_unknown_table(self):
        with pytest.raises(ValueError):
            reproduce_table("table9")


class TestTraceFiles:
    def run_and_dump(self, tmp_path, sched="random:seed=4"):
        graph = build_graph("cycle:6")
        trace = execute(graph, make_algorithm("six"), make_scheduling(sched, graph))
        path = tmp_path / "run.jsonl"
        trace.dump(path)
        return trace, path

    def test_round_trip_verifies(self, tmp_path):
        _, path = self.run_and_dump(tmp_path)
        verdicts = verify_trace_file(path, checks=["proper", "palette"])
        assert [v.name for v in verdicts] == ["replay", "proper", "palette"]
        assert all(v.ok for v in verdicts)
        assert "reproduced exactly" in verdicts[0].detail

    def test_tampered_line_is_caught(self, tmp_path):
        _, path = self.run_and_dump(tmp_path)
        lines = path.read_text().splitlines()
        assert '"complete":true' in lines[-1]
        lines[-1] = lines[-1].replace('"complete":true', '"complete":false')
        path.write_text("\n".join(lines) + "\n")
        verdicts = verify_trace_file(path)
        assert len(verdicts) == 1
        assert not verdicts[0].ok
        assert verdicts[0].name == "replay"
        assert verdicts[0].witness is not None

    def test_deleted_step_record_is_caught_at_that_record(self, tmp_path):
        _, path = self.run_and_dump(tmp_path)
        lines = path.read_text().splitlines()
        middle = len(lines) // 2
        assert '"type":"step"' in lines[middle]
        path.write_text("\n".join(lines[:middle] + lines[middle + 1:]) + "\n")
        [verdict] = verify_trace_file(path, checks=["proper"])
        assert not verdict.ok
        assert verdict.detail == f"re-execution diverges from the file at record {middle}"
        assert verdict.witness == (lines[middle + 1], lines[middle])

    def test_step_record_after_the_end_is_caught_at_the_replay_length(self, tmp_path):
        _, path = self.run_and_dump(tmp_path)
        lines = path.read_text().splitlines()
        assert '"type":"step"' in lines[-2]
        path.write_text("\n".join(lines + [lines[-2]]) + "\n")
        [verdict] = verify_trace_file(path)
        assert not verdict.ok
        assert verdict.detail == f"re-execution diverges from the file at record {len(lines)}"
        assert verdict.witness == (lines[-2], "<missing>")

    def test_loaded_header_fields(self, tmp_path):
        trace, path = self.run_and_dump(tmp_path)
        loaded = load_trace(path)
        assert loaded.header["algo"] == "six"
        assert loaded.header["sched"] == trace.sched_spec
        assert loaded.header["format"] == 1
        assert loaded.graph.hash == trace.graph.hash
        assert len(loaded.lines) == trace.step_count + 2

    def test_duplicate_header_rejected(self, tmp_path):
        _, path = self.run_and_dump(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0]] + lines) + "\n")
        with pytest.raises(ValueError, match="duplicate header"):
            load_trace(path)

    def test_unknown_record_type_rejected(self, tmp_path):
        _, path = self.run_and_dump(tmp_path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "comment"}\n')
        with pytest.raises(ValueError, match="unknown record type"):
            load_trace(path)

    def test_missing_end_rejected(self, tmp_path):
        _, path = self.run_and_dump(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="header and end"):
            load_trace(path)

    def test_non_json_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="not a JSON record"):
            load_trace(path)

    def test_json_line_that_is_no_object_rejected(self, tmp_path):
        _, path = self.run_and_dump(tmp_path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("[1]\n")
        with pytest.raises(ValueError, match="not a JSON record"):
            load_trace(path)

    @pytest.mark.parametrize("key", ["x", "", "1.5", "--1", " 1"])
    def test_an_input_keyed_by_no_integer_is_refused_by_name(self, tmp_path, key):
        _, path = self.run_and_dump(tmp_path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["inputs"][key] = 3
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        field = f"inputs[{json.dumps(key)}]"
        with pytest.raises(ValueError) as err:
            load_trace(path)
        assert str(err.value) == f"{path}: trace header {field} must be keyed by an integer node"

    def test_a_header_naming_a_scheduling_file_is_refused_unread(self, tmp_path, monkeypatch):
        _, path = self.run_and_dump(tmp_path)
        sched = tmp_path / "sched.txt"
        sched.write_text("1 2 3 4 5 6\n")  # a valid one-block file
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["sched"] = f"replay:{sched}"
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")

        opened, built = [], []

        def spy(file, *args):
            opened.append(file)
            return open(file, *args)

        monkeypatch.setattr(graphs, "open", spy, raising=False)  # the shared line reader
        monkeypatch.setattr(schedulers, "make_scheduling", lambda *a: built.append(a))
        message = f"{path}: trace header sched may not name a file, got 'replay:{sched}'"
        for fn in (verify_trace_file, load_trace):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                fn(path)
        assert opened == [path, path]
        assert built == []

    def test_a_replay_stops_one_step_past_the_file(self, tmp_path, monkeypatch):
        graph = build_graph("cycle:4", ids=(3, 4, 2, 1))
        sched = make_scheduling("sync:crashes=1@1|2@1", graph)
        path = tmp_path / "run.jsonl"
        execute(graph, make_algorithm("buggy5"), sched, max_steps=20).dump(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 22
        header = json.loads(lines[0])
        header["max_steps"] = 10**9
        lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")

        uncapped = execute(graph, make_algorithm("buggy5"), sched, max_steps=5000)
        uncapped.max_steps = 10**9
        assert uncapped.step_count == 5000
        record, pair = next(
            (i, pair) for i, pair in enumerate(zip(lines, uncapped.jsonl_lines())) if pair[0] != pair[1]
        )

        replays = []

        def spy(*args, **kwargs):
            trace = execute(*args, **kwargs)
            replays.append(trace.step_count)
            return trace

        monkeypatch.setattr(verify, "execute", spy)
        [verdict] = verify_trace_file(path)
        assert replays == [21]
        assert verdict.detail == f"re-execution diverges from the file at record {record}"
        assert verdict.witness == pair
        assert record == 21  # the file's end record against the replay's step 21


class TestAlgorithmFromHeader:
    @pytest.mark.parametrize(
        "name,params",
        [
            ("six", {}),
            ("buggy5", {}),
            ("save", {"delta": 2}),
            ("save1", {"delta": 3}),
            ("linial", {"id_bound": 30, "delta": 2}),
            ("linial+save", {"phase1_id_bound": 12, "phase1_delta": 2, "phase2_delta": 2}),
            ("linial+save1", {"phase1_id_bound": 12, "phase1_delta": 2, "phase2_delta": 2}),
        ],
    )
    def test_registry_round_trip(self, name, params):
        algo = algorithm_from_header({"algo": name, "params": params})
        assert algo.name == name
        assert algo.params() == params

    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_trace_header_rebuilds_the_algorithm(self, name):
        graph = build_graph("cycle:9")
        algo = make_algorithm(name, id_bound=graph.id_bound, delta=graph.max_degree)
        trace = execute(graph, algo, make_scheduling("sync", graph), max_steps=20)
        again = algorithm_from_header(trace.header_json())
        assert again.name == algo.name
        assert again.params() == algo.params()
        assert again.palette == algo.palette


def test_unknown_check_name_is_refused_before_the_file_is_read(tmp_path):
    with pytest.raises(ValueError, match="unknown check 'bogus'"):
        verify_trace_file(tmp_path / "absent.jsonl", ["bogus"])

import itertools
import random

import pytest

from asynclocal import schedulers
from asynclocal.engine import (
    TERMINATED,
    Configuration,
    LivelockCertificate,
    SchedulingError,
    detect_livelock,
    execute,
    explicit_scheduling,
    initial_configuration,
    step,
)
from asynclocal.graphs import build_graph
from asynclocal.schedulers import (
    GUARD_ENV,
    SEARCH_PROPERTIES,
    Scheduling,
    _seeded_spec,
    adversary_search,
    enumerate_schedulings,
    make_scheduling,
    read_scheduling,
    write_scheduling,
)
from asynclocal.algorithms import make_algorithm
from asynclocal.verify import TABLE2_GRAPH, check_proper
from asynclocal.wsb import ConstantOutput


def certificate_json(cert):
    return None if cert is None else cert.to_json()


def take(sched, n):
    return list(itertools.islice(sched.blocks(), n))


def reference_livelock(graph, algo, prefix, period, bound=64):
    """The periodic loop in straight lines: fresh configurations through ``step``, keys hashed
    at every period boundary.  Returns the certificate's JSON, or None."""
    cfg = initial_configuration(graph, algo, {v: algo.default_input(v) for v in graph.nodes})
    for blk in prefix:
        cfg = step(graph, algo, cfg, blk)
    seen = {cfg.key(): 0}
    for k in range(1, bound + 1):
        for blk in period:
            cfg = step(graph, algo, cfg, blk)
        key = cfg.key()
        if key in seen:
            support = sorted(set().union(*period))
            undecided = tuple(v for v in support if cfg.new[v][0] != TERMINATED)
            if not undecided:
                return None
            cert = LivelockCertificate(
                prefix, period, seen[key], k, undecided, Configuration(cfg.old, cfg.new)
            )
            return cert.to_json()
        seen[key] = k
    return None


def table2_ring():
    return build_graph("cycle:4", ids=TABLE2_GRAPH["ids"])


def periodic_spaces(monkeypatch):
    """Record, for each periodic probe, the space it ran on and its size before the call."""
    calls = []

    def recording(graph, algo, prefix, period, space=None):
        calls.append((space, len(space)))
        return detect_livelock(graph, algo, prefix, period, space=space)

    monkeypatch.setattr(schedulers, "detect_livelock", recording)
    return calls


class TestSync:
    def test_full_blocks_forever(self):
        graph = build_graph("cycle:4")
        sched = make_scheduling("sync", graph)
        assert sched.spec == "sync"
        assert sched.seed is None
        assert take(sched, 3) == [(1, 2, 3, 4)] * 3
        assert sched.support_ever == frozenset({1, 2, 3, 4})
        assert sched.support_forever == frozenset({1, 2, 3, 4})
        assert sched.crash_times == {1: None, 2: None, 3: None, 4: None}

    def test_crashes_shrink_the_blocks(self):
        graph = build_graph("path:3")
        sched = make_scheduling("sync:crashes=2@0|3@2", graph)
        assert take(sched, 4) == [(1, 3), (1, 3), (1,), (1,)]
        assert sched.support_ever == frozenset({1, 3})
        assert sched.support_forever == frozenset({1})
        assert sched.crash_times == {1: None, 2: 0, 3: 2}

    def test_crash_argument_merges_into_the_spec(self):
        graph = build_graph("path:3")
        sched = make_scheduling("sync", graph, crashes={3: 2, 2: 0})
        assert sched.spec == "sync:crashes=2@0|3@2"
        assert take(sched, 3) == [(1, 3), (1, 3), (1,)]

    def test_all_crashed_ends_the_stream(self):
        graph = build_graph("path:2")
        sched = make_scheduling("sync:crashes=1@1|2@2", graph)
        assert list(sched.blocks()) == [(1, 2), (2,)]
        assert sched.support_forever == frozenset()

    def test_crash_for_unknown_node(self):
        graph = build_graph("path:2")
        with pytest.raises(SchedulingError):
            make_scheduling("sync", graph, crashes={9: 1})

    def test_unknown_parameter(self):
        graph = build_graph("path:2")
        with pytest.raises(SchedulingError):
            make_scheduling("sync:speed=2", graph)

    @pytest.mark.parametrize("spec", ["sync:crashes=9@1", "random:seed=1,crashes=1@2|9@1"])
    def test_crash_for_unknown_node_in_the_spec(self, spec):
        graph = build_graph("cycle:5")
        with pytest.raises(SchedulingError, match="unknown node 9"):
            make_scheduling(spec, graph)

    @pytest.mark.parametrize(
        "spec, crashes",
        [("sync:crashes=1@-3", None), ("random:seed=1,crashes=2@1|1@-1", None), ("sync", {1: -3})],
    )
    def test_a_negative_crash_step_is_rejected(self, spec, crashes):
        # a node that crashes before step 0 would count as scheduled yet never run
        with pytest.raises(SchedulingError, match="crash step of node 1 must be non-negative"):
            make_scheduling(spec, build_graph("cycle:4"), crashes=crashes)

    @pytest.mark.parametrize("crashes", [{}, {2: 1}, {1: 3, 4: 1}, {1: 2, 2: 2, 3: 2, 4: 5}, {3: 0}])
    def test_blocks_match_the_per_step_definition(self, crashes):
        graph = build_graph("cycle:4")
        sched = make_scheduling("sync", graph, crashes=crashes)
        want = []
        for step in range(1, 9):
            blk = tuple(v for v in graph.nodes if crashes.get(v) is None or crashes[v] >= step)
            if not blk:
                break
            want.append(blk)
        assert take(sched, 8) == want


class TestRandom:
    def test_spec_is_canonicalized(self):
        graph = build_graph("cycle:4")
        sched = make_scheduling("random:seed=5", graph)
        assert sched.spec == "random:seed=5,p=0.5,crash=0.0"
        assert sched.seed == 5

    def test_deterministic_and_restartable(self):
        graph = build_graph("cycle:5")
        a = make_scheduling("random:seed=11,p=0.4,crash=0.1", graph)
        b = make_scheduling("random:seed=11,p=0.4,crash=0.1", graph)
        first = take(a, 30)
        assert first == take(b, 30)
        assert first == take(a, 30)  # blocks() restarts from the beginning

    def test_different_seeds_differ(self):
        graph = build_graph("cycle:5")
        streams = {tuple(take(make_scheduling(f"random:seed={s}", graph), 15)) for s in range(6)}
        assert len(streams) > 1

    def test_probability_one_without_crashes_is_sync(self):
        graph = build_graph("cycle:4")
        sched = make_scheduling("random:seed=3,p=1.0,crash=0.0", graph)
        assert take(sched, 5) == [(1, 2, 3, 4)] * 5
        assert sched.support_forever == frozenset(graph.nodes)

    def test_crash_rate_kills_some_nodes(self):
        graph = build_graph("cycle:6")
        found = False
        for seed in range(20):
            sched = make_scheduling(f"random:seed={seed},p=0.5,crash=0.3", graph)
            if sched.support_forever < frozenset(graph.nodes):
                found = True
                crashed = set(graph.nodes) - sched.support_forever
                for v in crashed:
                    t = sched.crash_times[v]
                    assert t is not None
                    for i, blk in enumerate(take(sched, 50), start=1):
                        assert v not in blk or i <= t
        assert found

    def test_blocks_match_the_per_step_definition(self):
        # the definition: crash draws, then a block seed, then one draw per
        # alive node (in node order) per try, an empty block being redrawn
        for spec_seed, p, rate in itertools.product(range(40), (0.3, 0.5, 1.0), (0.0, 0.25)):
            graph = build_graph("cycle:7")
            rng = random.Random(spec_seed)
            ct = {}
            for v in graph.nodes:
                faulty = rng.random() < rate
                t = 0
                while rng.random() >= 0.3:
                    t += 1
                ct[v] = t if faulty else None
            block_rng = random.Random(rng.randrange(2**63))
            want = []
            for step in range(1, 31):
                alive = [v for v in graph.nodes if ct[v] is None or ct[v] >= step]
                if not alive:
                    break
                while True:
                    blk = tuple(v for v in alive if block_rng.random() < p)
                    if blk:
                        break
                want.append(blk)
            sched = make_scheduling(f"random:seed={spec_seed},p={p},crash={rate}", graph)
            assert sched.crash_times == ct
            assert take(sched, 30) == want

    def test_empty_redraws_are_bounded(self, monkeypatch):
        monkeypatch.setattr(schedulers, "_MAX_EMPTY_DRAWS", 3)
        sched = make_scheduling("random:seed=1,p=0.001", build_graph("cycle:5"))
        with pytest.raises(SchedulingError, match="3 empty blocks in a row at step 1"):
            take(sched, 1)

    @pytest.mark.parametrize("p", ["1e-300", "0.0009", "0", "nan"])
    def test_probability_floor(self, p):
        with pytest.raises(SchedulingError, match="activation probability"):
            make_scheduling(f"random:seed=1,p={p}", build_graph("cycle:5"))

    def test_the_least_accepted_probability_runs(self):
        sched = make_scheduling("random:seed=1,p=0.001", build_graph("cycle:5"))
        assert all(len(blk) >= 1 for blk in take(sched, 20))

    def test_missing_seed(self):
        graph = build_graph("path:2")
        with pytest.raises(SchedulingError):
            make_scheduling("random:p=0.5", graph)

    def test_bad_probability(self):
        graph = build_graph("path:2")
        with pytest.raises(SchedulingError):
            make_scheduling("random:seed=1,p=1.5", graph)


class TestExplicitAndReplay:
    def test_explicit_blocks(self):
        graph = build_graph("path:3")
        sched = make_scheduling("explicit:1,3/2", graph)
        assert list(sched.blocks()) == [(1, 3), (2,)]
        assert sched.support_ever == frozenset({1, 2, 3})
        assert (sched.crash_times, sched.support_forever) == ({}, frozenset())

    def test_explicit_unknown_node(self):
        graph = build_graph("path:2")
        with pytest.raises(SchedulingError):
            make_scheduling("explicit:1,5", graph)

    def test_replay_round_trip(self, tmp_path):
        graph = build_graph("cycle:4")
        blocks = [(1, 2), (3,), (2, 4)]
        path = tmp_path / "sched.txt"
        write_scheduling(blocks, path)
        assert read_scheduling(path) == blocks
        sched = make_scheduling(f"replay:{path}", graph)
        assert list(sched.blocks()) == blocks
        assert sched.support_forever == frozenset()
        assert sched.spec == "explicit:1,2/3/2,4"  # the blocks, not the file
        path.write_text("1\n")
        assert list(sched.blocks()) == blocks

    def test_replay_blocks_are_read_as_written_and_canonical_when_run(self, tmp_path):
        path = tmp_path / "sched.txt"
        path.write_text("3 1 3\n\n2\n")
        assert read_scheduling(path) == [(3, 1, 3), (2,)]
        sched = make_scheduling(f"replay:{path}", build_graph("path:3"))
        assert list(sched.blocks()) == [(1, 3), (2,)]
        assert sched.spec == "explicit:1,3/2"

    def test_replay_malformed_line(self, tmp_path):
        path = tmp_path / "sched.txt"
        path.write_text("1 2\nthree\n")
        with pytest.raises(SchedulingError):
            read_scheduling(path)

    def test_unknown_kind(self):
        graph = build_graph("path:2")
        with pytest.raises(SchedulingError):
            make_scheduling("chaotic", graph)


class TestEnumeration:
    def test_depth_one_blocks_in_mask_order(self):
        scheds = list(enumerate_schedulings((1, 2), 1))
        assert [list(s.blocks()) for s in scheds] == [[(1,)], [(2,)], [(1, 2)]]
        assert all(isinstance(s, Scheduling) and s.crash_times == {} for s in scheds)

    def test_depth_two_counts(self):
        scheds = list(enumerate_schedulings((1, 2), 2))
        assert len(scheds) == 3 + 9
        lengths = [len(list(s.blocks())) for s in scheds]
        assert lengths == [1] * 3 + [2] * 9

    def test_single_node(self):
        scheds = list(enumerate_schedulings((1,), 3))
        assert [list(s.blocks()) for s in scheds] == [
            [(1,)],
            [(1,), (1,)],
            [(1,), (1,), (1,)],
        ]

    def test_guards(self):
        with pytest.raises(ValueError):
            list(enumerate_schedulings(tuple(range(1, 7)), 1))
        with pytest.raises(ValueError):
            list(enumerate_schedulings((1, 2), 7))
        with pytest.raises(ValueError):
            list(enumerate_schedulings((), 1))

    def test_guard_override(self, monkeypatch):
        monkeypatch.setenv(GUARD_ENV, "1")
        scheds = list(enumerate_schedulings(tuple(range(1, 7)), 1))
        assert len(scheds) == 63

    @pytest.mark.parametrize("nodes", [(1,), (2, 1), (3, 7, 5)])
    def test_matches_explicit_schedulings(self, nodes):
        ordered = tuple(sorted(nodes))
        subsets = [
            tuple(v for i, v in enumerate(ordered) if mask >> i & 1)
            for mask in range(1, 1 << len(ordered))
        ]
        expected = [
            explicit_scheduling(seq, ordered)
            for length in (1, 2, 3)
            for seq in itertools.product(subsets, repeat=length)
        ]
        got = list(enumerate_schedulings(nodes, 3))
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert a.spec == b.spec
            assert list(a.blocks()) == list(b.blocks())
            assert list(a.blocks()) == list(b.blocks())  # restartable
            assert a.support_ever == b.support_ever
            assert (a.nodes, a._checked) == (b.nodes, b._checked)
            assert (a.support_forever, a.crash_times, a.seed) == (b.support_forever, b.crash_times, b.seed)

    def test_a_node_outside_the_graph_is_rejected(self):
        graph = build_graph("path:2")
        with pytest.raises(ValueError, match="enumerated node 3 not in the graph"):
            enumerate_schedulings((1, 2, 3), 1, graph=graph)
        assert len(list(enumerate_schedulings((2, 1), 1, graph=graph))) == 3
        assert len(list(enumerate_schedulings((1, 2, 3), 1))) == 7  # no graph, no check

    def test_enumerated_schedulings_run(self):
        graph = build_graph("path:2")
        algo = make_algorithm("six")
        for sched in enumerate_schedulings(graph.nodes, 2, graph=graph):
            trace = execute(graph, algo, sched)
            assert trace.step_count <= 2


class TestSearch:
    def test_property_names(self):
        assert SEARCH_PROPERTIES == ("proper", "palette", "periodic-termination")

    def test_seeded_specs_cycle_through_parameters(self):
        assert _seeded_spec(0) == "random:seed=0,p=0.5,crash=0.0"
        assert _seeded_spec(5) == "random:seed=5,p=0.3,crash=0.1"

    def test_proper_holds_for_the_cycle_algorithm(self):
        graph = build_graph("cycle:5")
        result = adversary_search(make_algorithm("six"), graph, property="proper", budget=60)
        assert not result.found
        assert result.examined == 60
        assert result.trace is None

    def test_periodic_livelock_found_for_the_flawed_rule(self):
        graph = build_graph("cycle:4")
        result = adversary_search(
            make_algorithm("buggy5"),
            graph,
            property="periodic-termination",
            budget=5000,
        )
        assert result.found
        assert result.certificate is not None
        assert result.certificate.period
        assert result.examined <= 5000
        assert result.scheduling_spec.startswith("explicit:")

    def test_periodic_absent_for_the_terminating_rule(self):
        graph = build_graph("cycle:3")
        result = adversary_search(
            make_algorithm("six"), graph, property="periodic-termination", budget=200
        )
        assert not result.found
        assert result.examined == 200

    def test_budget_counts_livelock_probes(self):
        graph = build_graph("cycle:3")
        result = adversary_search(
            make_algorithm("six"), graph, property="periodic-termination", budget=7
        )
        assert result.examined == 7

    def test_unknown_property(self):
        with pytest.raises(ValueError):
            adversary_search(make_algorithm("six"), build_graph("cycle:3"), property="magic")

    @pytest.mark.parametrize("prop", ["proper", "periodic-termination"])
    def test_negative_budget_is_rejected(self, prop):
        with pytest.raises(ValueError, match="budget must be non-negative"):
            adversary_search(make_algorithm("six"), build_graph("cycle:3"), property=prop, budget=-5)

    @pytest.mark.parametrize("prop", ["proper", "periodic-termination"])
    def test_zero_budget_examines_nothing(self, prop):
        result = adversary_search(
            make_algorithm("six"), build_graph("cycle:3"), property=prop, budget=0
        )
        assert not result.found
        assert result.examined == 0

    def test_palette_search_finds_nothing_for_the_cycle_algorithm(self):
        graph = build_graph("cycle:4")
        algo = make_algorithm("six")
        result = adversary_search(algo, graph, property="palette", budget=50)
        assert not result.found  # six stays within its own palette
        assert result.examined == 50

    def test_random_scan_records_a_failing_witness(self):
        # two neighbours that both decide 0 on their first activation
        graph = build_graph("path:2")
        result = adversary_search(ConstantOutput(0), graph, property="proper", budget=10)
        assert result.found
        assert result.examined == 1
        assert result.scheduling_spec == _seeded_spec(0)
        witness = result.trace
        assert witness.steps is not None  # recorded, so it can be dumped and replayed
        assert witness.sched_spec == result.scheduling_spec
        assert not check_proper(witness).ok
        assert result.verdict.render() == check_proper(witness).render()

    def test_enumeration_scan_stops_at_the_first_violation(self):
        graph = build_graph("path:2")
        result = adversary_search(ConstantOutput(0), graph, budget=10, sched="enum:depth=2")
        assert result.found
        assert result.examined == 3  # {1}, {2}, then {1,2}
        assert result.scheduling_spec == "explicit:1,2"
        assert [rec.block for rec in result.trace.steps] == [(1, 2)]
        assert not result.verdict.ok

    @pytest.mark.parametrize("budget, examined", [(0, 0), (2, 2), (100, 12)])
    def test_enumeration_scan_stops_at_the_budget(self, budget, examined):
        graph = build_graph("path:2")
        result = adversary_search(
            make_algorithm("six"), graph, budget=budget, sched="enum:depth=2"
        )
        assert (result.found, result.examined) == (False, examined)

    def test_enumeration_scan_rejects_a_negative_budget(self):
        graph = build_graph("path:2")
        with pytest.raises(ValueError, match="budget must be non-negative, got -5"):
            adversary_search(make_algorithm("six"), graph, budget=-5, sched="enum:depth=2")

    def test_enumeration_scan_runs_the_enumeration_in_order(self, monkeypatch):
        graph = build_graph("path:2")
        specs = []

        def recording(graph, algo, sched, **kwargs):
            specs.append(sched.spec)
            return execute(graph, algo, sched, **kwargs)

        # the search looks its callees up on the module, so swapping one reaches it
        monkeypatch.setattr(schedulers, "execute", recording)
        adversary_search(make_algorithm("six"), graph, budget=7, sched="enum:depth=2")
        assert specs == [s.spec for s in itertools.islice(enumerate_schedulings(graph.nodes, 2), 7)]

    def test_periodic_search_probes_every_shape_in_order(self, monkeypatch):
        graph = build_graph("path:2")
        shapes = []

        def recording(graph, algo, prefix, period, space=None):
            shapes.append((prefix, period))
            return None

        monkeypatch.setattr(schedulers, "detect_livelock", recording)
        result = adversary_search(
            make_algorithm("six"), graph, property="periodic-termination", budget=1000
        )
        # (1 + 3 + 9) prefixes of at most two blocks, each with 3 + 9 periods
        assert (result.found, result.examined, len(shapes)) == (False, 156, 156)
        assert shapes[:4] == [
            ((), ((1,),)), ((), ((2,),)), ((), ((1, 2),)), ((), ((1,), (1,))),
        ]
        assert shapes[12] == (((1,),), ((1,),))
        assert shapes[-1] == (((1, 2), (1, 2)), ((1, 2), (1, 2)))

    @pytest.mark.parametrize("graph_spec", ["path:2", "cycle:3"])
    @pytest.mark.parametrize("name", ["six", "save1", "buggy5"])
    def test_periodic_search_from_shared_starts_equals_one_shot_detection(
        self, monkeypatch, name, graph_spec
    ):
        graph = build_graph(graph_spec)
        algo = make_algorithm(name, delta=2)
        results = []

        def both(graph, algo, prefix, period, space=None):
            assert space is not None
            shared = detect_livelock(graph, algo, prefix, period, space=space)
            one_shot = detect_livelock(graph, algo, prefix, period)
            results.append((certificate_json(shared), certificate_json(one_shot)))
            return None  # so the search goes on through every shape

        monkeypatch.setattr(schedulers, "detect_livelock", both)
        result = adversary_search(algo, graph, property="periodic-termination", budget=10**6)
        blocks = 2 ** graph.n - 1
        shapes = (1 + blocks + blocks**2) * (blocks + blocks**2)
        assert result.examined == len(results) == shapes
        assert [shared for shared, _ in results] == [one_shot for _, one_shot in results]
        if (name, graph_spec) == ("buggy5", "cycle:3"):  # it livelocks there, so certificates compare too
            assert any(shared is not None for shared, _ in results)

    @pytest.mark.parametrize("graph_spec", ["path:2", "cycle:3", "table2"])
    @pytest.mark.parametrize("name", ["six", "save1", "buggy5"])
    def test_periodic_search_equals_a_straight_line_reference(self, monkeypatch, name, graph_spec):
        graph = table2_ring() if graph_spec == "table2" else build_graph(graph_spec)
        algo = make_algorithm(name, delta=2)
        budget = 500 if graph_spec == "table2" else 10**6
        results = []

        def checked(graph, algo, prefix, period, space=None):
            got = certificate_json(detect_livelock(graph, algo, prefix, period, space=space))
            results.append((got, reference_livelock(graph, algo, prefix, period)))
            return None  # so the search goes on through every shape

        monkeypatch.setattr(schedulers, "detect_livelock", checked)
        result = adversary_search(algo, graph, property="periodic-termination", budget=budget)
        blocks = 2**graph.n - 1
        shapes = min(budget, (1 + blocks + blocks**2) * (blocks + blocks**2))
        assert result.examined == len(results) == shapes
        assert [got for got, _ in results] == [want for _, want in results]
        if name == "buggy5" and graph_spec != "path:2":  # it livelocks there
            assert any(got is not None for got, _ in results)

    def test_every_memoised_transition_is_a_step(self, monkeypatch):
        graph, algo = build_graph("cycle:4"), make_algorithm("save1", delta=2)
        calls = periodic_spaces(monkeypatch)
        result = adversary_search(algo, graph, property="periodic-termination", budget=241 * 240)
        assert (result.found, result.examined) == (False, 241 * 240)
        spaces = {id(space): space for space, _ in calls}
        assert len(spaces) == 1  # C4 stays far below the limit
        [space] = spaces.values()
        initial = initial_configuration(graph, algo, {v: algo.default_input(v) for v in graph.nodes})
        assert space.configuration(0) == initial
        assert len(space.ids) == len(space) == len(space.successors)
        transitions = 0
        for cid, memo in enumerate(space.successors):
            cfg = space.configuration(cid)
            assert space.ids[cfg.key()] == cid
            for blk, nid in memo.items():
                assert space.configuration(nid).key() == step(graph, algo, cfg, blk).key()
                transitions += 1
        assert transitions > len(space)

    @pytest.mark.parametrize(
        "name, graph_spec, budget, found",
        [("save1", "cycle:4", 2000, (False, 2000)), ("buggy5", "table2", 241 * 240, (True, 42))],
    )
    def test_a_tiny_space_limit_gives_the_same_search(
        self, monkeypatch, name, graph_spec, budget, found
    ):
        graph = table2_ring() if graph_spec == "table2" else build_graph(graph_spec)
        algo = make_algorithm(name, delta=2)

        def search():
            result = adversary_search(algo, graph, property="periodic-termination", budget=budget)
            return result.found, result.examined, certificate_json(result.certificate)

        default = search()
        assert default[:2] == found
        monkeypatch.setattr(schedulers, "_SPACE_LIMIT", 8)
        calls = periodic_spaces(monkeypatch)
        assert search() == default
        assert len({id(space) for space, _ in calls}) > 1
        assert max(size for _, size in calls) <= 8

    def test_a_certificate_does_not_alias_the_search(self):
        graph, algo = table2_ring(), make_algorithm("buggy5")
        first = adversary_search(algo, graph, property="periodic-termination", budget=100)
        expected = first.certificate.to_json()
        cfg = first.certificate.configuration
        cfg.old.clear()
        cfg.new[next(iter(cfg.new))] = None
        second = adversary_search(algo, graph, property="periodic-termination", budget=100)
        assert second.certificate.to_json() == expected

    def test_table2_certificate_of_the_search_re_detects_one_shot(self):
        graph = table2_ring()
        algo = make_algorithm("buggy5")
        result = adversary_search(algo, graph, property="periodic-termination", budget=241 * 240)
        assert (result.found, result.examined) == (True, 42)
        cert = result.certificate
        again = detect_livelock(graph, algo, cert.prefix, cert.period)
        assert again is not None and again.to_json() == cert.to_json()

    def test_periodic_search_guards_the_node_count(self, monkeypatch):
        algo = make_algorithm("six")
        monkeypatch.delenv(GUARD_ENV, raising=False)
        with pytest.raises(ValueError, match="periodic search over 13 nodes is guarded"):
            adversary_search(algo, build_graph("cycle:13"), property="periodic-termination", budget=0)
        result = adversary_search(algo, build_graph("cycle:12"), property="periodic-termination", budget=1)
        assert result.examined == 1
        monkeypatch.setenv(GUARD_ENV, "1")
        result = adversary_search(algo, build_graph("cycle:13"), property="periodic-termination", budget=1)
        assert result.examined == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_steps": -1, "budget": 0},
            {"max_steps": -1, "budget": 0, "sched": "enum:depth=2"},
            {"max_steps": -1, "budget": 3, "property": "periodic-termination"},
        ],
        ids=["seeded", "enum", "periodic"],
    )
    def test_negative_max_steps_is_rejected_in_every_mode(self, kwargs):
        with pytest.raises(ValueError, match="max_steps must be non-negative, got -1"):
            adversary_search(make_algorithm("six"), build_graph("path:2"), **kwargs)

    def test_enumeration_scan_reads_max_steps(self):
        graph = build_graph("path:2")
        # no step runs, so no node decides and nothing violates
        result = adversary_search(ConstantOutput(0), graph, max_steps=0, sched="enum:depth=2")
        assert (result.found, result.examined) == (False, 12)

    def test_periodic_search_takes_no_max_steps(self):
        with pytest.raises(ValueError, match="periodic-termination search takes no max_steps"):
            adversary_search(
                make_algorithm("six"), build_graph("cycle:4"),
                property="periodic-termination", budget=3, max_steps=50,
            )

    @pytest.mark.parametrize(
        "kwargs",
        [{"sched": "enum:depth=2"}, {"property": "periodic-termination"}],
        ids=["enum", "periodic"],
    )
    def test_a_seed_outside_the_seeded_mode_is_rejected(self, kwargs):
        with pytest.raises(ValueError, match="search takes no seed"):
            adversary_search(
                make_algorithm("six"), build_graph("path:2"), budget=2, seed0=99, **kwargs
            )

    def test_unknown_enum_parameters_are_rejected(self):
        with pytest.raises(SchedulingError, match=r"unknown enum parameters \['foo'\]"):
            adversary_search(
                make_algorithm("six"), build_graph("path:2"), sched="enum:depth=2,foo=1"
            )

    @pytest.mark.parametrize("sched", ["enum:depth=x", "enum:", "enum"])
    def test_a_missing_or_malformed_depth_names_the_spec(self, sched):
        with pytest.raises(ValueError, match="enum spec needs depth=D") as info:
            adversary_search(make_algorithm("six"), build_graph("path:2"), sched=sched)
        assert repr(sched) in str(info.value)

    @pytest.mark.parametrize("prop", ["proper-coloring", "termination-under-periodic-schedules"])
    def test_old_property_spellings_are_gone(self, prop):
        with pytest.raises(ValueError, match="unknown property"):
            adversary_search(make_algorithm("six"), build_graph("cycle:3"), property=prop)


def test_scheduling_spec_round_trips():
    graph = build_graph("cycle:4")
    for spec in (
        "sync",
        "sync:crashes=2@0|3@2",
        "random:seed=9,p=0.3,crash=0.1",
        "explicit:1,3/2/4",
    ):
        sched = make_scheduling(spec, graph)
        again = make_scheduling(sched.spec, graph)
        assert take(again, 6) == take(sched, 6)
        assert again.spec == sched.spec

import dataclasses
import itertools
import math

import pytest

from asynclocal.algorithms import Algorithm, make_algorithm
from asynclocal.engine import TERMINATED, ConfigurationSpace, initial_configuration
from asynclocal.engine import step as engine_step
from asynclocal.graphs import build_graph
from asynclocal.schedulers import GUARD_ENV
from asynclocal.wsb import (
    ConstantOutput,
    CountReport,
    EnumerationResult,
    ExecutionRecord,
    IdParity,
    InputFunction,
    OutputAfterSeeing,
    binom_divisibility,
    check_input_family,
    classify,
    conjugate_permutation,
    count_report,
    cycle_input_family,
    enumerate_complete,
    equivalence_class,
    sign,
    toy_algorithms,
    trim,
    univalued_signed_count,
)

# ordered Bell numbers (OEIS A000670): the complete executions on clique(n)
FUBINI = {1: 1, 2: 3, 3: 13, 4: 75, 5: 541, 6: 4683, 7: 47293}


class NeverDecide(Algorithm):
    name = "never"

    def init(self, node, value):
        return ("R", ())

    def next_views(self, payload, views):
        return ("R", payload)


class OddDecideAtInit(Algorithm):
    name = "odd-at-init"

    def init(self, node, value):
        return ("T", 0) if node % 2 else ("R", ())

    def next_views(self, payload, views):
        return ("T", 1)


def record_with_blocks(result, blocks):
    matches = [r for r in result if r.blocks == blocks]
    assert len(matches) == 1
    return matches[0]


def trivial_sigma(n):
    return InputFunction((((), None),) * n)


def enumerated_report(algo, n, step_bound=8):
    """The report read off the list of every complete execution: the DP's reference."""
    result = enumerate_complete(algo, n, step_bound)
    c0 = [r for r in result if set(r.outputs.values()) == {0}]
    c1 = [r for r in result if set(r.outputs.values()) == {1}]
    s0 = sum(r.sign for r in c0)
    s1 = sum(r.sign for r in c1)
    return CountReport(
        algo.name, n, step_bound, len(result), result.truncated,
        len(c0), len(c1), s0, s1, s0 + (-1) ** (n - 1) * s1,
    )


def incremental_census(algo, n, step_bound):
    """The census with each path's decision steps carried down the walk,
    extended by the processes each block makes decide: the reference."""
    space = ConfigurationSpace(build_graph(f"clique:{n}"), algo)
    ds0 = dict.fromkeys(space.configuration(0).decided(), 0)
    records, truncated = [], 0
    stack = [(0, (), ds0)]
    while stack:
        i, blocks, ds = stack.pop()
        if not space.undecided(i):
            records.append(ExecutionRecord(n, blocks, space.configuration(i).decided(), ds))
            continue
        if len(blocks) >= step_bound:
            truncated += 1
            continue
        at = len(blocks) + 1
        for blk, j in reversed(space.children(i).items()):
            left = space.undecided(j)
            newly = {v: at for v in blk if v not in left}
            stack.append((j, blocks + (blk,), {**ds, **newly}))
    return EnumerationResult(records, truncated, step_bound)


def undecided_within(algo, n, below):
    """Keys of the undecided configurations some schedule of fewer than
    ``below`` blocks reaches: exactly the ones a census must step."""
    graph = build_graph(f"clique:{n}")
    cfg = initial_configuration(graph, algo, {v: algo.default_input(v) for v in graph.nodes})
    layer, found = {cfg.key(): cfg}, set()
    for _ in range(below):
        reached = {}
        for key, here in layer.items():
            undecided = [v for v in graph.nodes if here.new[v][0] != TERMINATED]
            if undecided:
                found.add(key)
            for size in range(1, len(undecided) + 1):
                for blk in itertools.combinations(undecided, size):
                    nxt = engine_step(graph, algo, here, blk)
                    reached[nxt.key()] = nxt
        layer = {k: c for k, c in reached.items() if k not in found}
    return found


def closed_under_every_permutation(family, n):
    """Closure by conjugating with all n! permutations: the reference check."""
    fam = frozenset(family)
    for images in itertools.permutations(range(1, n + 1)):
        perm = {i: images[i - 1] for i in range(1, n + 1)}
        if any(f.conjugated(perm) not in fam for f in fam):
            return False
    return True


class TestSign:
    def test_single_pair_block(self):
        assert sign(ExecutionRecord(2, ((1, 2),), {}, {})) == -1

    def test_two_singletons(self):
        assert sign(ExecutionRecord(2, ((1,), (2,)), {}, {})) == 1

    def test_triple_block(self):
        assert sign(ExecutionRecord(3, ((1, 2, 3),), {}, {})) == 1

    def test_mixed(self):
        assert sign(ExecutionRecord(3, ((1, 2), (3,)), {}, {})) == -1

    def test_signs_cancel_over_a_full_census(self):
        # ordered set partitions of [n] weighted by sign sum to +1
        for n in (2, 3):
            result = enumerate_complete(ConstantOutput(0), n)
            assert sum(r.sign for r in result) == 1


class TestEnumeration:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_census_size_is_the_fubini_number(self, n):
        result = enumerate_complete(ConstantOutput(0), n)
        assert len(result) == FUBINI[n]
        assert result.truncated == 0

    def test_guard_and_override(self, monkeypatch):
        with pytest.raises(ValueError):
            enumerate_complete(ConstantOutput(0), 4)
        monkeypatch.setenv(GUARD_ENV, "1")
        assert len(enumerate_complete(ConstantOutput(0), 4)) == FUBINI[4]

    def test_blocks_cover_exactly_the_undecided(self):
        for r in enumerate_complete(ConstantOutput(0), 3):
            decided = set()
            for blk in r.blocks:
                assert not (set(blk) & decided)  # decided nodes never reappear
                decided |= set(blk)  # constants decide at first activation
            assert decided == {1, 2, 3}

    def test_never_deciding_rule_truncates_everything(self):
        result = enumerate_complete(NeverDecide(), 2, step_bound=3)
        assert result.records == []
        assert result.truncated == 3**3

    def test_zero_step_bound_truncates_the_empty_schedule(self):
        result = enumerate_complete(NeverDecide(), 2, step_bound=0)
        assert (result.records, result.truncated) == ([], 1)

    def test_negative_step_bound_rejected(self):
        with pytest.raises(ValueError, match="step_bound must be non-negative, got -1"):
            enumerate_complete(ConstantOutput(0), 3, step_bound=-1)

    def test_decision_steps_recorded(self):
        result = enumerate_complete(ConstantOutput(0), 2)
        r = record_with_blocks(result, ((2,), (1,)))
        assert r.decision_steps == {2: 1, 1: 2}
        assert r.outputs == {1: 0, 2: 0}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_records_equal_an_incremental_walk(self, n):
        rules = [*toy_algorithms(n).values(), NeverDecide()]
        for algo in [*rules, *(trim(a, n) for a in rules), OddDecideAtInit()]:
            step_bound = 3 if algo.name == "never" else 8  # untrimmed, it never halts
            reference = incremental_census(algo, n, step_bound)
            result = enumerate_complete(algo, n, step_bound)
            assert result.truncated == reference.truncated, algo.name
            assert [(r.blocks, r.outputs, r.decision_steps) for r in result] == [
                (r.blocks, r.outputs, r.decision_steps) for r in reference
            ], algo.name


class TestClassify:
    def test_full_first_block_puts_everyone_in_class_one(self):
        result = enumerate_complete(ConstantOutput(0), 3)
        r = record_with_blocks(result, ((1, 2, 3),))
        cls = classify(r)
        assert cls.i_star == 1
        assert cls.classes == {1: 1, 2: 1, 3: 1}
        assert cls.sim == frozenset()

    def test_early_decider_lands_in_class_three(self):
        result = enumerate_complete(ConstantOutput(0), 3)
        r = record_with_blocks(result, ((1,), (2, 3)))
        cls = classify(r)
        assert cls.i_star == 2
        assert cls.classes == {1: 3, 2: 1, 3: 1}
        assert cls.sim == frozenset({1})

    def test_empty_sim_exactly_when_the_first_block_is_full(self):
        for r in enumerate_complete(ConstantOutput(0), 3):
            assert (classify(r).sim == frozenset()) == (r.blocks[0] == (1, 2, 3))

    def test_class_two_needs_a_slow_algorithm(self):
        # the registry toys decide at first activation, so class 2 never
        # occurs for them; a trimmed never-deciding rule produces it:
        # activated before coverage, undecided until coverage
        found = False
        for r in enumerate_complete(trim(NeverDecide(), 3), 3):
            cls = classify(r)
            if 2 in cls.classes.values():
                found = True
                v = next(v for v, c in cls.classes.items() if c == 2)
                assert r.decision_steps[v] >= cls.i_star
                assert v in cls.sim
        assert found
        for r in enumerate_complete(ConstantOutput(0), 3):
            assert 2 not in classify(r).classes.values()

    def test_incomplete_activation_rejected(self):
        with pytest.raises(ValueError):
            classify(ExecutionRecord(2, ((1,),), {1: 0}, {1: 1}))


class TestCounts:
    def test_constant_zero(self):
        report = count_report(ConstantOutput(0), 2)
        assert (report.c0_size, report.c1_size) == (3, 0)
        assert report.count == 1

    def test_constant_one_flips_sign_with_parity(self):
        assert univalued_signed_count(ConstantOutput(1), 2) == -1
        assert univalued_signed_count(ConstantOutput(1), 3) == 1

    @pytest.mark.parametrize(
        "name,n,expected",
        [
            ("const0", 2, 1),
            ("const1", 2, -1),
            ("id-parity", 2, 0),
            ("seen1", 2, 1),
            ("const0", 3, 1),
            ("const1", 3, 1),
            ("id-parity", 3, 0),
            ("seen1", 3, -2),
            ("seen2", 3, 1),
        ],
    )
    def test_registry_counts(self, name, n, expected):
        algo = toy_algorithms(n)[name]
        assert univalued_signed_count(algo, n) == expected

    def test_a_step_bound_beyond_the_recursion_limit(self):
        report = count_report(NeverDecide(), 2, step_bound=2000)
        assert (report.executions, report.truncated, report.count) == (0, 3**2000, 0)

    def test_a_huge_step_bound_on_a_wait_free_rule(self):
        # the pass stops at its first empty layer, not after 10**9 of them
        report = count_report(ConstantOutput(0), 3, 10**9)
        assert report == dataclasses.replace(count_report(ConstantOutput(0), 3), step_bound=10**9)

    def test_an_enumeration_beyond_the_recursion_limit(self):
        result = enumerate_complete(NeverDecide(), 1, step_bound=3000)
        assert (result.records, result.truncated) == ([], 1)

    def test_the_enumeration_lists_its_records_depth_first_in_block_order(self):
        result = enumerate_complete(ConstantOutput(0), 2)
        assert [r.blocks for r in result] == [((1,), (2,)), ((2,), (1,)), ((1, 2),)]

    def test_report_fields(self):
        report = count_report(ConstantOutput(1), 2)
        assert report.algo == "const1"
        assert report.executions == 3
        assert report.truncated == 0
        assert (report.c0_sum, report.c1_sum) == (0, 1)
        assert report.count == report.c0_sum - report.c1_sum

    @pytest.mark.parametrize("n", [2, 3])
    def test_reports_equal_the_enumeration_on_every_toy(self, n):
        for name, algo in toy_algorithms(n).items():
            for a in (algo, trim(algo, n)):
                assert count_report(a, n) == enumerated_report(a, n), a.name

    @pytest.mark.parametrize(
        "algo,n,step_bound",
        [(make_algorithm("buggy5"), 3, b) for b in (0, 1, 5, 8)]
        + [(NeverDecide(), 2, b) for b in (0, 1, 5, 8)]
        + [(trim(NeverDecide(), 3), 3, 5)],  # listing it at step bound 8 takes a second
        ids=lambda x: getattr(x, "name", x),
    )
    def test_truncated_reports_equal_the_enumeration(self, algo, n, step_bound):
        report = count_report(algo, n, step_bound)
        assert report == enumerated_report(algo, n, step_bound)
        assert report.truncated > 0

    def test_buggy5_at_step_bound_thirty(self):
        # listing these 43,585 executions takes seconds; the figures were read off that list
        assert count_report(make_algorithm("buggy5"), 3, 30) == CountReport(
            "buggy5", 3, 30, 43_585, 4_854, 0, 0, 0, 0, 0
        )

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_census_size_is_the_fubini_number(self, n):
        report = count_report(ConstantOutput(0), n)
        assert (report.executions, report.truncated, report.count) == (FUBINI[n], 0, 1)

    @pytest.mark.parametrize(
        "n,seen1,seen2", [(4, 3, -3), (5, -4, 6), (6, 5, -10), (7, -6, 15)]
    )
    def test_seen_counts_beyond_the_enumeration(self, n, seen1, seen2):
        toys = toy_algorithms(n)
        assert univalued_signed_count(toys["seen1"], n) == seen1
        assert univalued_signed_count(toys["seen2"], n) == seen2

    def test_guard_and_override(self, monkeypatch):
        monkeypatch.delenv(GUARD_ENV, raising=False)
        with pytest.raises(ValueError, match="signed counts over clique\\(9\\)"):
            count_report(ConstantOutput(0), 9)
        monkeypatch.setenv(GUARD_ENV, "1")
        assert count_report(ConstantOutput(0), 9, step_bound=0).truncated == 1


# the benchmark's wsb job, plus short bounds at which buggy5 first reaches
# configurations at the bound itself
STEPPED_CENSUSES = (
    [(count_report, make_algorithm("buggy5"), 3, b) for b in (1, 5, 30)]
    + [(count_report, a, 3, 8) for t in toy_algorithms(3).values() for a in (t, trim(t, 3))]
    + [(enumerate_complete, make_algorithm("buggy5"), 3, 5)]
    + [(enumerate_complete, trim(OutputAfterSeeing(2), 3), 3, 8)]
)


@pytest.mark.parametrize(
    "census,algo,n,step_bound",
    STEPPED_CENSUSES,
    ids=[f"{c.__name__}-{a.name}-{b}" for c, a, _, b in STEPPED_CENSUSES],
)
def test_each_transition_is_stepped_once(monkeypatch, census, algo, n, step_bound):
    stepped = []  # the transitions a census's space computes: its successor misses
    successor = ConfigurationSpace.successor

    def recording(space, cid, block):
        if block not in space.successors[cid]:
            stepped.append((space.configuration(cid).key(), block))
        return successor(space, cid, block)

    monkeypatch.setattr(ConfigurationSpace, "successor", recording)
    census(algo, n, step_bound)
    assert len(stepped) == len(set(stepped))
    # nothing first reached at the step bound is expanded, and nothing short of it is missed
    assert {key for key, _ in stepped} == undecided_within(algo, n, step_bound)



def test_count_report_lists_the_children_of_each_id_once(monkeypatch):
    expanded = []  # the keys of the ids whose children the pass asks for, one per call
    children = ConfigurationSpace.children

    def recording(space, cid):
        expanded.append(space.configuration(cid).key())
        return children(space, cid)

    monkeypatch.setattr(ConfigurationSpace, "children", recording)
    algo = make_algorithm("buggy5")
    report = count_report(algo, 3, 30)
    assert len(expanded) == len(set(expanded))
    assert set(expanded) == undecided_within(algo, 3, 30)
    assert report == CountReport("buggy5", 3, 30, 43_585, 4_854, 0, 0, 0, 0, 0)


class TestTrimming:
    @pytest.mark.parametrize("n", [2, 3])
    def test_count_is_invariant_under_trimming(self, n):
        for name, algo in toy_algorithms(n).items():
            plain = univalued_signed_count(algo, n)
            trimmed = univalued_signed_count(trim(algo, n), n)
            assert plain == trimmed, name

    @pytest.mark.parametrize("n", [2, 3])
    def test_trimmed_rules_never_yield_all_ones(self, n):
        # some process always halts at its own first activation with 0
        for name, algo in toy_algorithms(n).items():
            assert count_report(trim(algo, n), n).c1_size == 0, name

    def test_trimming_a_wait_free_rule_keeps_the_census_exhaustive(self):
        result = enumerate_complete(trim(ConstantOutput(0), 3), 3)
        assert result.truncated == 0
        assert len(result) == FUBINI[3]

    def test_trimming_alone_does_not_make_a_rule_wait_free(self):
        # a node scheduled alone can spin below coverage forever, so the
        # bounded census of the trimmed never-deciding rule truncates
        result = enumerate_complete(trim(NeverDecide(), 3), 3)
        assert result.truncated > 0
        assert len(result) > 0
        for r in result:
            assert set(r.outputs) == {1, 2, 3}

    def test_coverage_decision_depends_on_activation_history(self):
        t = trim(NeverDecide(), 2)
        full = [("R", (False, ()))]
        assert t.next((False, ()), full) == ("T", 0, (True, ()))
        assert t.next((True, ()), full) == ("T", 1, (True, ()))

    def test_partial_view_delegates_to_the_inner_rule(self):
        t = trim(ConstantOutput(0), 2)
        state = t.next((False, ()), [None])
        assert state[0] == "T" and state[1] == 0

    def test_a_composed_rule_is_refused_at_once(self):
        # Composed writes its rule on states, so trim could not call its next_views
        algo = make_algorithm("linial+save1", id_bound=3, delta=2)
        with pytest.raises(ValueError, match="^trim wraps a rule written on views, not a Composed$"):
            trim(algo, 3)

    def test_every_toy_still_trims(self):
        for name, algo in toy_algorithms(3).items():
            t = trim(algo, 3)
            assert (t.inner, t.name) == (algo, f"trim:{algo.name}"), name

    def test_name_and_graph_guard(self):
        t = trim(ConstantOutput(0), 2)
        assert t.name == "trim:const0"
        with pytest.raises(ValueError):
            t.validate(build_graph("clique:3"), None)
        with pytest.raises(ValueError):
            t.validate(build_graph("path:3"), None)


class TestConjugation:
    def test_order_preserving_on_both_parts(self):
        perm = conjugate_permutation({2, 4}, 5, {1, 3})
        assert perm == {2: 1, 4: 3, 1: 2, 3: 4, 5: 5}

    def test_identity_when_target_equals_sim(self):
        perm = conjugate_permutation({1, 3}, 4, {1, 3})
        assert perm == {v: v for v in range(1, 5)}

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            conjugate_permutation({1}, 3, {1, 2})

    def test_input_conjugation_moves_entries_and_ids(self):
        f = InputFunction((((2,), "a"), ((1,), "b")))
        g = f.conjugated({1: 2, 2: 1})
        assert g == InputFunction((((2,), "b"), ((1,), "a")))


class TestEquivalenceClasses:
    def test_class_size_is_a_binomial(self):
        result = enumerate_complete(ConstantOutput(0), 3)
        sigma = trivial_sigma(3)
        for r in result:
            members = equivalence_class(r, sigma)
            assert len(members) == math.comb(3, len(classify(r).sim))

    def test_members_share_the_sign_and_include_the_original(self):
        result = enumerate_complete(ConstantOutput(0), 3)
        sigma = trivial_sigma(3)
        r = record_with_blocks(result, ((2,), (1, 3)))
        members = equivalence_class(r, sigma)
        assert all(rec.sign == r.sign for rec, _ in members)
        assert any(rec == r for rec, _ in members)

    def test_renaming_permutes_blocks_pointwise(self):
        r = ExecutionRecord(3, ((2,), (1, 3)), {1: 0, 2: 0, 3: 0}, {2: 1, 1: 2, 3: 2})
        renamed = r.renamed({1: 2, 2: 3, 3: 1})
        assert renamed.blocks == ((3,), (1, 2))

    def test_disagreeing_sizes_rejected(self):
        r = ExecutionRecord(3, ((1, 2, 3),), {}, {})
        with pytest.raises(ValueError):
            equivalence_class(r, trivial_sigma(2))

    def test_guard(self):
        r = ExecutionRecord(7, ((1, 2, 3, 4, 5, 6, 7),), {}, {})
        with pytest.raises(ValueError):
            equivalence_class(r, trivial_sigma(7))


class TestInputFamilies:
    def test_cyclic_orderings(self):
        fam = cycle_input_family(5)
        assert len(fam) == math.factorial(4)
        report = check_input_family(fam, 5)
        assert report.closed
        assert report.prime
        assert not report.divisible_by_n
        assert report.ok

    def test_cyclic_orderings_entries_are_neighbors(self):
        fam = cycle_input_family(3)
        assert len(fam) == 2
        for f in fam:
            for i in range(1, 4):
                (succ, pred), value = f.for_process(i)
                assert value is None
                assert {succ, pred} == {1, 2, 3} - {i}

    def test_too_few_processes(self):
        with pytest.raises(ValueError):
            cycle_input_family(2)

    def test_too_many_processes(self, monkeypatch):
        monkeypatch.delenv(GUARD_ENV, raising=False)
        with pytest.raises(ValueError, match="cyclic orderings of 9 processes"):
            cycle_input_family(9)

    def test_two_hot_inputs_are_closed_but_divisible(self):
        fam = [
            InputFunction(tuple(((), 1 if i in ones else 0) for i in range(1, 6)))
            for ones in itertools.combinations(range(1, 6), 2)
        ]
        report = check_input_family(fam, 5)
        assert report.size == 10
        assert report.closed
        assert report.divisible_by_n
        assert not report.ok

    def test_divisibility_is_harmless_for_composite_n(self):
        fam = [
            InputFunction(tuple(((), 1 if i in ones else 0) for i in range(1, 5)))
            for ones in itertools.combinations(range(1, 5), 2)
        ]
        report = check_input_family(fam, 4)
        assert report.size == 6
        assert not report.prime
        assert report.ok

    def test_leader_family_is_not_closed(self):
        fam = [InputFunction((((1,), "L"), ((), None), ((), None)))]
        report = check_input_family(fam, 3)
        assert not report.closed
        assert not report.ok
        perm, member = report.witness
        assert member.conjugated(perm) not in frozenset(fam)

    def test_family_guard(self):
        with pytest.raises(ValueError):
            check_input_family([trivial_sigma(9)], 9)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_two_generators_decide_closure_like_every_permutation(self, n):
        leader = InputFunction(tuple(((1,), "L") if i == 1 else ((), None) for i in range(1, n + 1)))
        pair = InputFunction(tuple(((), {1: "A", 2: "B"}.get(i)) for i in range(1, n + 1)))
        swap = {i: i for i in range(1, n + 1)}
        swap.update({1: 2, 2: 1} if n >= 2 else {})
        rotate = {i: i % n + 1 for i in range(1, n + 1)}
        rotations = [pair]
        for _ in range(n - 1):
            rotations.append(rotations[-1].conjugated(rotate))
        families = [
            [trivial_sigma(n)],
            [leader],
            {pair, pair.conjugated(swap)},  # closed under (1 2) only
            rotations,  # closed under the n-cycle only
            [
                InputFunction(tuple(((), int(i in ones)) for i in range(1, n + 1)))
                for ones in itertools.combinations(range(1, n + 1), n // 2)
            ],
            cycle_input_family(n) if n >= 3 else [],
            sorted(cycle_input_family(n), key=repr)[1:] if n >= 3 else [leader, trivial_sigma(n)],
        ]
        verdicts = []
        for fam in families:
            closed = closed_under_every_permutation(fam, n)
            report = check_input_family(fam, n)
            assert report.closed == closed
            if not closed:
                perm, member = report.witness
                assert member.conjugated(perm) not in frozenset(fam)
            verdicts.append(closed)
        if n >= 3:
            assert verdicts == [True, False, False, False, True, True, False]


class TestBinomials:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_prime_rows_divide(self, p):
        verdict = binom_divisibility(p)
        assert verdict.ok
        assert verdict.name == "binom"

    @pytest.mark.parametrize("n", [1, 4, 6, 9])
    def test_composite_rows_rejected(self, n):
        with pytest.raises(ValueError):
            binom_divisibility(n)


class TestToys:
    def test_registry_contents(self):
        assert set(toy_algorithms(2)) == {"const0", "const1", "id-parity", "seen1"}
        assert set(toy_algorithms(3)) == {"const0", "const1", "id-parity", "seen1", "seen2"}

    def test_constant(self):
        algo = ConstantOutput(1)
        assert algo.init(5, None) == ("R", ())
        assert algo.next((), [None]) == ("T", 1, ())

    def test_id_parity(self):
        algo = IdParity()
        assert algo.next((4,), [None]) == ("T", 0, (4,))
        assert algo.next((7,), [None]) == ("T", 1, (7,))

    def test_output_after_seeing(self):
        algo = OutputAfterSeeing(1)
        assert algo.next((), [None, None])[1] == 0
        assert algo.next((), [("R", ()), None])[1] == 1
        with pytest.raises(ValueError):
            OutputAfterSeeing(1, value=2)

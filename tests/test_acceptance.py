"""Full-scale release gate for the package.

Each test here covers one numbered end-to-end claim at its stated scale
and prints exactly one ``ACCEPTANCE n: PASS/FAIL`` line (visible with
``pytest tests/test_acceptance.py -s``).  These are deliberately heavier
than the unit suites; the whole file runs in well under a minute.
"""

import itertools
import random
import time

from asynclocal.algorithms import make_algorithm
from asynclocal.coverfree import construct_family, reduction_schedule, verify_coverfree
from asynclocal.engine import execute
from asynclocal.graphs import build_graph, random_tree
from asynclocal.schedulers import _seeded_spec, make_scheduling
from asynclocal.verify import (
    check_parity_reduction,
    check_proper,
    parity_verdict,
    reproduce_table,
)
from asynclocal.wsb import (
    InputFunction,
    binom_divisibility,
    check_input_family,
    classify,
    count_report,
    cycle_input_family,
    enumerate_complete,
    equivalence_class,
    toy_algorithms,
    trim,
    univalued_signed_count,
)
import math


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"acceptance {num} failed: {detail}"


def test_acceptance_1_golden_trace():
    start = time.perf_counter()
    verdict = reproduce_table("table1")
    elapsed = time.perf_counter() - start
    ok = verdict.ok and elapsed < 1.0
    _report(1, ok, f"{verdict.render()} in {elapsed * 1000:.0f} ms")


def test_acceptance_2_livelock_certificate():
    start = time.perf_counter()
    verdict = reproduce_table("table2")
    elapsed = time.perf_counter() - start
    ok = verdict.ok and elapsed < 1.0
    _report(2, ok, f"{verdict.render()} in {elapsed * 1000:.0f} ms")


def test_acceptance_3_five_coloring_cycles():
    palette = {(0, 0), (0, 1), (1, 0), (1, 1), (0, 2)}
    seeds = 10_000
    total = completed = 0
    failure = None
    for n in range(4, 13):
        graph = build_graph(f"cycle:{n}")
        algo = make_algorithm("linial+save1", id_bound=n, delta=2)
        edges = graph.edges
        for seed in range(seeds):
            trace = execute(
                graph, algo, make_scheduling(_seeded_spec(seed), graph), record=False
            )
            total += 1
            completed += trace.complete
            d = trace.decisions
            if any(u in d and v in d and d[u] == d[v] for u, v in edges):
                failure = (n, seed, "improper coloring")
            elif any(out not in palette for out in d.values()):
                failure = (n, seed, "output outside the 5-pair palette")
            elif not trace.support_forever <= d.keys():
                failure = (n, seed, "a forever-scheduled node never decided")
            if failure:
                break
        if failure:
            break
    _report(
        3,
        failure is None,
        failure
        or f"{total} adversarial runs on cycles n=4..12 ({completed} complete), "
        f"all proper, 5 colors, (2,0) never output, no starvation",
    )


def test_acceptance_4_palette_bound():
    delta = 4
    max_pairs = (delta + 1) * (delta + 2) // 2
    instances = [build_graph("circulant:7,2")] + [random_tree(12, delta, s) for s in (0, 1, 2)]
    seeds = 1_000
    total = 0
    failure = None
    palette_seen = set()
    for graph in instances:
        algo = make_algorithm("linial+save", id_bound=graph.id_bound, delta=delta)
        edges = graph.edges
        for seed in range(seeds):
            trace = execute(
                graph, algo, make_scheduling(_seeded_spec(seed), graph), record=False
            )
            total += 1
            d = trace.decisions
            if any(a + b > delta for a, b in d.values()):
                failure = (graph.kind, seed, "pair exceeds a+b <= delta")
            elif any(u in d and v in d and d[u] == d[v] for u, v in edges):
                failure = (graph.kind, seed, "improper coloring")
            if failure:
                break
            palette_seen.update(d.values())
        if failure:
            break
    if failure is None and len(palette_seen) > max_pairs:
        failure = f"{len(palette_seen)} distinct pairs exceed the {max_pairs}-pair palette"
    _report(
        4,
        failure is None,
        failure
        or f"{total} runs on circulant(7,2) and 3 random trees (delta=4): "
        f"a+b<=4, {len(palette_seen)} of {max_pairs} pairs used, proper",
    )


def test_acceptance_5_linial_round_count():
    rng = random.Random(20260823)
    details = []
    ok = True
    for n in (10, 100, 1000):
        id_bound = n * n
        ids = rng.sample(range(1, id_bound + 1), n)
        graph = build_graph(f"cycle:{n}", ids=ids, id_bound=id_bound)
        algo = make_algorithm("linial", id_bound=id_bound, delta=2)
        rounds = reduction_schedule(id_bound, 2).rounds
        trace = execute(graph, algo, make_scheduling("sync", graph))
        good = (
            trace.complete
            and trace.step_count == rounds
            and rounds <= 4
            and all(t == rounds for t in trace.runtimes.values())
            and all(1 <= c <= 81 for c in trace.decisions.values())
            and check_proper(trace).ok
        )
        ok = ok and good
        details.append(f"n={n}: T={rounds}, steps={trace.step_count}")
    _report(5, ok, "synchronous round counts " + "; ".join(details) + "; palette <= 81")


def test_acceptance_6_cover_freeness():
    checked = 0
    failure = None
    for k in (1, 2, 3):
        for m in range(2, 201):
            if not verify_coverfree(construct_family(k, m)):
                failure = f"construct_family({k}, {m}) is not {k}-cover-free"
                break
            checked += 1
        if failure:
            break
    _report(6, failure is None, failure or f"{checked} constructed families verified exhaustively")


def test_acceptance_7_wsb_combinatorics():
    parts = []
    ok = True

    binom_ok = all(binom_divisibility(n).ok for n in (2, 3, 5, 7, 11))
    ok = ok and binom_ok
    parts.append(f"(a) binomial divisibility for n in 2,3,5,7,11: {binom_ok}")

    counts_ok = True
    for n in (2, 3, 5, 7):
        for name, algo in toy_algorithms(n).items():
            if univalued_signed_count(algo, n) != univalued_signed_count(trim(algo, n), n):
                counts_ok = False
    ok = ok and counts_ok
    parts.append(f"(b) count(A) == count(T(A)) for every toy at n=2,3,5,7: {counts_ok}")

    sizes = []
    for n in (5, 7):
        fam = check_input_family(cycle_input_family(n), n)
        fam_ok = fam.ok and fam.size == math.factorial(n - 1) and not fam.divisible_by_n
        ok = ok and fam_ok
        sizes.append(f"n={n} (size {fam.size}): {fam_ok}")
    parts.append(f"(c) cyclic input family at {', '.join(sizes)}")

    sigma = InputFunction((((), None),) * 3)
    classes_ok = True
    for name, algo in toy_algorithms(3).items():
        for record in enumerate_complete(algo, 3):
            sim = classify(record).sim
            # distinct members: a class that lists one member twice is too small
            members = {(r.blocks, inputs) for r, inputs in equivalence_class(record, sigma)}
            if len(members) != math.comb(3, len(sim)):
                classes_ok = False
    ok = ok and classes_ok
    parts.append(f"(d) class sizes C(3,|SIM|) on all executions: {classes_ok}")

    _report(7, ok, "; ".join(parts))


def test_acceptance_8_parity_reduction():
    failure = None
    counts = {}
    for n in (5, 7):
        graph = build_graph(f"cycle:{n}")
        edges = graph.edges
        proper = 0
        for colors in itertools.product(range(4), repeat=n):
            mapping = dict(zip(range(1, n + 1), colors))
            if any(mapping[u] == mapping[v] for u, v in edges):
                continue
            proper += 1
            if not parity_verdict(graph, mapping).ok:
                failure = f"single-parity proper coloring of C{n}: {mapping}"
                break
        counts[n] = proper
        if failure is None and proper != 3**n - 3:
            failure = f"expected {3 ** n - 3} proper <=4-colorings of C{n}, found {proper}"
        if failure:
            break

    produced = 0
    if failure is None:
        graph = build_graph("cycle:5")
        algo = make_algorithm("buggy5")
        for seed in range(300):
            trace = execute(
                graph, algo, make_scheduling(f"random:seed={seed}", graph), max_steps=400
            )
            if (
                trace.complete
                and check_proper(trace).ok
                and all(c <= 3 for c in trace.decisions.values())
            ):
                if not check_parity_reduction(trace).ok:
                    failure = f"engine run at seed {seed} used a single parity"
                    break
                produced += 1
        if failure is None and produced == 0:
            failure = "no engine-produced 4-colorable instance found to check"

    _report(
        8,
        failure is None,
        failure
        or f"all {counts[5]}+{counts[7]} proper <=4-colorings of C5/C7 use both parities; "
        f"{produced} engine-produced instances checked",
    )

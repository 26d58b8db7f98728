"""Signed execution counting on the clique: trimming, equivalence classes,
and the input-family machinery behind the symmetry-breaking lower bound.

Executions here are the engine's block schedules on ``clique:n`` with all
processes participating.  The sign of an execution is the product over its
blocks of (-1)^(|block|+1); the univalued signed count weighs the all-zero
and all-one executions of a binary-output algorithm.  Trimming rewrites an
algorithm so that a process halts the first time it sees every other
process's register: with output 0 when that first sight coincides with its
own first activation, 1 otherwise.  The counting argument needs three
facts, all checkable by brute force at small ``n``: trimming preserves the
count, executions fall into equivalence classes of binomial size, and
binomials C(n, m) vanish mod prime n.

:func:`enumerate_complete` and :func:`count_report` walk one
:class:`~asynclocal.engine.ConfigurationSpace` of the clique per call.
Signed counts come from a forward pass over schedule lengths on it, never
from a list of executions, and input families are checked against two
generators of S_n, so :func:`count_report` and :func:`check_input_family`
reach ``n <= 8``.  Listing the executions themselves, which
:func:`classify` and :func:`equivalence_class` need, grows with their
number (13 at n = 3, 75 at n = 4: the ordered Bell numbers), so
:func:`enumerate_complete` stays at ``n <= 3``.  Each guard lifts with
``ASYNCLOCAL_GUARD_OVERRIDE=1``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Iterable

from .algorithms import Algorithm
from .coverfree import _is_prime
from .engine import TERMINATED, ConfigurationSpace
from .engine import step  # noqa: F401  -- the benchmark harness wraps ``wsb.step`` by name
from .graphs import Graph, build_graph
from .schedulers import _guard, _nonempty_subsets
from .verify import Verdict

__all__ = [
    "sign",
    "ExecutionRecord",
    "EnumerationResult",
    "enumerate_complete",
    "SimClassification",
    "classify",
    "univalued_signed_count",
    "CountReport",
    "count_report",
    "Trimmed",
    "trim",
    "InputFunction",
    "conjugate_permutation",
    "equivalence_class",
    "cycle_input_family",
    "FamilyReport",
    "check_input_family",
    "binom_divisibility",
    "ConstantOutput",
    "OutputAfterSeeing",
    "IdParity",
    "toy_algorithms",
]


# ---------------------------------------------------------------------------
# executions and their signs


@dataclass(frozen=True)
class ExecutionRecord:
    """A complete schedule on clique(n) with its outputs.

    ``decision_steps[v]`` is the 1-based block index at which ``v``
    decided (0 for a decision made before any block ran).
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]
    outputs: dict[int, Any] = field(compare=False)
    decision_steps: dict[int, int] = field(compare=False)

    @property
    def sign(self) -> int:
        return sign(self.blocks)

    def renamed(self, perm: dict[int, int]) -> "ExecutionRecord":
        return ExecutionRecord(
            n=self.n,
            blocks=tuple(tuple(sorted(perm[v] for v in b)) for b in self.blocks),
            outputs={perm[v]: o for v, o in self.outputs.items()},
            decision_steps={perm[v]: s for v, s in self.decision_steps.items()},
        )


def sign(execution) -> int:
    """Product over blocks of (-1)^(|block|+1): even blocks flip the sign."""
    blocks = execution.blocks if isinstance(execution, ExecutionRecord) else execution
    s = 1
    for b in blocks:
        if len(b) % 2 == 0:
            s = -s
    return s


@dataclass
class EnumerationResult:
    """All complete executions found within the step bound.

    ``truncated`` counts schedule prefixes abandoned at the bound with
    processes still undecided; it is zero exactly when the algorithm is
    wait-free within the bound and the census is therefore exhaustive.
    """

    records: list[ExecutionRecord]
    truncated: int
    step_bound: int

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)


class _Undecided(dict):
    """The undecided processes of each id of a space, found on its first lookup."""

    def __init__(self, space: ConfigurationSpace):
        self.pairs = space.pairs

    def __missing__(self, i: int) -> tuple[int, ...]:
        u = self[i] = tuple([v for v, st in self.pairs[i][1].items() if st[0] != TERMINATED])
        return u


def enumerate_complete(algo, n: int, step_bound: int = 8) -> EnumerationResult:
    """Depth-first census of every complete execution on ``clique:n``.

    Blocks are nonempty subsets of the currently undecided processes, so
    a schedule ends exactly when everyone has decided.  The walk runs over
    the ids of one :class:`~asynclocal.engine.ConfigurationSpace` from the
    default inputs, so each block is applied once per configuration; every
    path through it reuses its transitions.  The search keeps its own
    stack, so no step bound meets Python's recursion limit.  A negative
    ``step_bound`` raises :class:`ValueError`.
    """
    if step_bound < 0:
        raise ValueError(f"step_bound must be non-negative, got {step_bound}")
    _guard(n <= 3, f"exhaustive enumeration over clique({n}) explodes")
    space = ConfigurationSpace(build_graph(f"clique:{n}"), algo)
    pairs, successors, successor = space.pairs, space.successors, space.successor
    undecided = _Undecided(space)
    ds0 = {v: 0 for v, st in pairs[0][1].items() if st[0] == TERMINATED}

    records: list[ExecutionRecord] = []
    truncated = 0
    # (id, blocks so far, decision steps), children pushed last first so
    # they pop in block order: the records come out depth first
    stack = [(0, (), ds0)]
    while stack:
        i, blocks, ds = stack.pop()
        if not undecided[i]:
            outputs = {v: st[1] for v, st in pairs[i][1].items()}
            records.append(ExecutionRecord(n, blocks, outputs, ds))
            continue
        if len(blocks) >= step_bound:
            truncated += 1
            continue
        at = len(blocks) + 1
        # i's memoised transitions, filled in block order on its first visit
        out = successors[i] or {b: successor(i, b) for b in _nonempty_subsets(undecided[i])}
        for blk, j in reversed(out.items()):
            new = pairs[j][1]
            newly = {v: at for v in blk if new[v][0] == TERMINATED}
            stack.append((j, blocks + (blk,), {**ds, **newly}))

    return EnumerationResult(records, truncated, step_bound)


# ---------------------------------------------------------------------------
# classification relative to the first full-coverage step


@dataclass(frozen=True)
class SimClassification:
    """Process classes relative to i*, the first step by which every
    process has been activated: class 3 decided before i*, class 1 was
    activated for the first time at i*, class 2 is everyone else.  SIM
    collects classes 2 and 3."""

    classes: dict[int, int]
    sim: frozenset[int]
    i_star: int


def classify(record: ExecutionRecord) -> SimClassification:
    nodes = set(range(1, record.n + 1))
    seen: set[int] = set()
    i_star = None
    for i, blk in enumerate(record.blocks, start=1):
        seen |= set(blk)
        if seen == nodes:
            i_star = i
            break
    if i_star is None:
        raise ValueError("classification needs every process activated at least once")
    first_act: dict[int, int] = {}
    for i, blk in enumerate(record.blocks, start=1):
        for v in blk:
            first_act.setdefault(v, i)
    classes = {}
    for v in sorted(nodes):
        decided_at = record.decision_steps.get(v)
        if decided_at is not None and decided_at < i_star:
            classes[v] = 3
        elif first_act[v] == i_star:
            classes[v] = 1
        else:
            classes[v] = 2
    sim = frozenset(v for v, c in classes.items() if c != 1)
    return SimClassification(classes, sim, i_star)


# ---------------------------------------------------------------------------
# univalued signed counting


def univalued_signed_count(algo, n: int, step_bound: int = 8) -> int:
    """Sum of signs over all-0 executions plus (-1)^(n-1) times the sum
    over all-1 executions."""
    return count_report(algo, n, step_bound).count


@dataclass
class CountReport:
    algo: str
    n: int
    step_bound: int
    executions: int
    truncated: int
    c0_size: int
    c1_size: int
    c0_sum: int
    c1_sum: int
    count: int


def count_report(algo, n: int, step_bound: int = 8) -> CountReport:
    """The census of :func:`enumerate_complete`, counted without listing it.

    A forward pass over schedule lengths on one configuration space: layer
    k maps each configuration reached by k blocks to the number of
    schedules reaching it and the sum of their signs.  A decided
    configuration adds its schedules to the executions, and to the all-0
    or all-1 size and sum; an undecided one in layer ``step_bound`` adds
    them to ``truncated``; any other passes them to its children, each
    with the sign of its block.  The pass stops at the first empty layer,
    so a rule that always decides answers at any step bound, and it keeps
    no stack, so no step bound meets Python's recursion limit.  A negative
    ``step_bound`` raises :class:`ValueError`.
    """
    if step_bound < 0:
        raise ValueError(f"step_bound must be non-negative, got {step_bound}")
    _guard(n <= 8, f"signed counts over clique({n}) explode")
    space = ConfigurationSpace(build_graph(f"clique:{n}"), algo)
    pairs, successors, successor = space.pairs, space.successors, space.successor
    undecided = _Undecided(space)
    executions = truncated = c0_size = c1_size = c0_sum = c1_sum = 0
    layer = {0: (1, 1)}  # id -> (schedules reaching it, their signed sum)
    depth = 0
    while layer:
        below: dict[int, tuple[int, int]] = {}
        for i, (ways, signed) in layer.items():
            if not undecided[i]:
                executions += ways
                outputs = {st[1] for st in pairs[i][1].values()}
                if outputs == {0}:
                    c0_size += ways
                    c0_sum += signed
                elif outputs == {1}:
                    c1_size += ways
                    c1_sum += signed
            elif depth == step_bound:
                truncated += ways
            else:
                out = successors[i] or {b: successor(i, b) for b in _nonempty_subsets(undecided[i])}
                for blk, j in out.items():
                    w, s = below.get(j, (0, 0))
                    below[j] = (w + ways, s + signed if len(blk) % 2 else s - signed)
        layer = below
        depth += 1

    return CountReport(
        algo=algo.name, n=n, step_bound=step_bound, executions=executions, truncated=truncated,
        c0_size=c0_size, c1_size=c1_size, c0_sum=c0_sum, c1_sum=c1_sum,
        count=c0_sum + (-1) ** (n - 1) * c1_sum,
    )


# ---------------------------------------------------------------------------
# trimming


class Trimmed(Algorithm):
    """Stop the wrapped algorithm at first full coverage of the clique.

    A process whose snapshot shows all n-1 other registers halts
    immediately: output 0 if this is its first activation, 1 otherwise.
    Until then it runs the wrapped algorithm's step (and keeps any
    decision that step makes).
    """

    def __init__(self, inner, n: int):
        self.inner = inner
        self.n = n
        self.name = f"trim:{inner.name}"

    def params(self) -> dict[str, Any]:
        return {"inner": self.inner.name, "n": self.n}

    def validate(self, graph: Graph, inputs) -> None:
        if graph.n != self.n or any(len(graph.adj[v]) != self.n - 1 for v in graph.nodes):
            raise ValueError(f"{self.name} runs on clique({self.n}) only")
        self.inner.validate(graph, inputs)

    def default_input(self, node: int):
        return self.inner.default_input(node)

    def init(self, node: int, value):
        st = self.inner.init(node, value)
        if st[0] == TERMINATED:
            return ("T", st[1], (True, st[2]))
        return ("R", (False, st[1]))

    def next(self, payload, snaps):
        activated, inner_payload = payload
        if None not in snaps:
            return ("T", 1 if activated else 0, (True, inner_payload))
        unwrapped = [None if s is None else ("R", s[1][1]) for s in snaps]
        st = self.inner.next(inner_payload, unwrapped)
        if st[0] == TERMINATED:
            return ("T", st[1], (True, st[2]))
        return ("R", (True, st[1]))


def trim(algo, n: int) -> Trimmed:
    return Trimmed(algo, n)


# ---------------------------------------------------------------------------
# input functions and equivalence classes


@dataclass(frozen=True)
class InputFunction:
    """Per-process inputs built from process ids: ``entries[i-1]`` is a
    (ids, value) pair handed to process i."""

    entries: tuple[tuple[tuple[int, ...], Any], ...]

    @property
    def n(self) -> int:
        return len(self.entries)

    def for_process(self, i: int) -> tuple[tuple[int, ...], Any]:
        return self.entries[i - 1]

    def conjugated(self, perm: dict[int, int]) -> "InputFunction":
        """Rename both who receives each entry and the ids inside it."""
        renamed: list = [None] * self.n
        for i in range(1, self.n + 1):
            ids, value = self.entries[i - 1]
            renamed[perm[i] - 1] = (tuple(perm[x] for x in ids), value)
        return InputFunction(tuple(renamed))


def conjugate_permutation(sim: Iterable[int], n: int, target: Iterable[int]) -> dict[int, int]:
    """The unique renaming sending ``sim`` onto ``target`` order-preservingly
    and the complement onto the complement, also order-preservingly."""
    sim_sorted = sorted(sim)
    target_sorted = sorted(target)
    if len(sim_sorted) != len(target_sorted):
        raise ValueError("target must have the same size as SIM")
    rest = sorted(set(range(1, n + 1)) - set(sim_sorted))
    comp = sorted(set(range(1, n + 1)) - set(target_sorted))
    perm = dict(zip(sim_sorted, target_sorted))
    perm.update(zip(rest, comp))
    return perm


def equivalence_class(
    record: ExecutionRecord, sigma: InputFunction
) -> list[tuple[ExecutionRecord, InputFunction]]:
    """All (renamed execution, conjugated input) pairs obtained by moving
    the execution's SIM set onto each same-size subset of the processes.

    The class has exactly C(n, |SIM|) members, one per target subset.
    """
    _guard(record.n <= 6, f"equivalence classes over {record.n} processes explode")
    if sigma.n != record.n:
        raise ValueError("input function and execution disagree on n")
    sim = classify(record).sim
    members = []
    for target in itertools.combinations(range(1, record.n + 1), len(sim)):
        perm = conjugate_permutation(sim, record.n, target)
        members.append((record.renamed(perm), sigma.conjugated(perm)))
    return members


def cycle_input_family(n: int) -> frozenset[InputFunction]:
    """One input function per cyclic ordering of the n processes: process i
    receives its successor and predecessor on the cycle.

    There are (n-1)! cyclic orderings -- for prime n never a multiple of n,
    by Wilson's theorem -- and conjugating a cycle yields another cycle, so
    the family is closed.
    """
    if n < 3:
        raise ValueError("cyclic orderings need at least 3 processes")
    _guard(n <= 8, f"the (n-1)! cyclic orderings of {n} processes explode")
    members = set()
    for rest in itertools.permutations(range(2, n + 1)):
        order = (1,) + rest
        succ = {order[i]: order[(i + 1) % n] for i in range(n)}
        pred = {v: u for u, v in succ.items()}
        members.add(InputFunction(tuple(((succ[i], pred[i]), None) for i in range(1, n + 1))))
    return frozenset(members)


@dataclass
class FamilyReport:
    size: int
    n: int
    prime: bool
    divisible_by_n: bool
    closed: bool
    ok: bool
    witness: Any = None


def check_input_family(family: Iterable[InputFunction], n: int) -> FamilyReport:
    """Size, divisibility by n, and closure under conjugation by all of S_n.

    Closure is checked for the transposition (1 2) and the n-cycle
    (1 2 ... n) only.  They generate S_n, and a permutation that maps a
    finite family into itself maps it onto itself, so its inverse does
    too; closure under both is closure under S_n.  The witness of a
    family that is not closed is one of the two and a member it maps
    outside the family.

    Passes when the family is closed and, for prime n, its size is not a
    multiple of n (the counting argument needs both).
    """
    _guard(n <= 8, f"input family checks over {n} processes explode")
    fam = frozenset(family)
    swap = {1: 2, 2: 1} if n >= 2 else {}
    transposition = {i: swap.get(i, i) for i in range(1, n + 1)}
    n_cycle = {i: i % n + 1 for i in range(1, n + 1)}
    witness = next(
        (
            (perm, f)
            for perm in (transposition, n_cycle)
            for f in fam
            if f.conjugated(perm) not in fam
        ),
        None,
    )
    closed = witness is None
    prime = _is_prime(n)
    divisible = len(fam) % n == 0
    ok = closed and not (prime and divisible)
    return FamilyReport(
        size=len(fam),
        n=n,
        prime=prime,
        divisible_by_n=divisible,
        closed=closed,
        ok=ok,
        witness=witness,
    )


def binom_divisibility(n: int) -> Verdict:
    """C(n, m) is divisible by n for all 0 < m < n; demands prime n."""
    if not _is_prime(n):
        raise ValueError(f"binomial divisibility holds for prime n only, got {n}")
    bad = [m for m in range(1, n) if math.comb(n, m) % n != 0]
    if bad:
        return Verdict(
            False, "binom", f"C({n},m) not divisible by {n} at m={bad}", witness=bad
        )
    return Verdict(True, "binom", f"C({n},m) divisible by {n} for all 0 < m < {n}")


# ---------------------------------------------------------------------------
# toy algorithms for exhaustive checks


class ConstantOutput(Algorithm):
    """Decides a fixed value at its first activation."""

    def __init__(self, value: int):
        self.value = value
        self.name = f"const{value}"

    def params(self) -> dict[str, Any]:
        return {"value": self.value}

    def init(self, node: int, value):
        return ("R", ())

    def next(self, payload, snaps):
        return ("T", self.value, payload)


class IdParity(Algorithm):
    """Decides its own id modulo 2 at its first activation."""

    name = "id-parity"

    def init(self, node: int, value):
        return ("R", (node,))

    def next(self, payload, snaps):
        return ("T", payload[0] % 2, payload)


class OutputAfterSeeing(Algorithm):
    """Decides at its first activation: ``value`` if at least ``k`` other
    registers are already visible, the complementary bit otherwise."""

    def __init__(self, k: int, value: int = 1):
        if value not in (0, 1):
            raise ValueError("output value must be a bit")
        self.k = k
        self.value = value
        self.name = f"seen{k}"

    def params(self) -> dict[str, Any]:
        return {"k": self.k, "value": self.value}

    def init(self, node: int, value):
        return ("R", ())

    def next(self, payload, snaps):
        visible = len(snaps) - snaps.count(None)
        return ("T", self.value if visible >= self.k else 1 - self.value, payload)


def toy_algorithms(n: int) -> dict[str, Algorithm]:
    """The registry of toys exercised by the exhaustive checks at size n."""
    toys: dict[str, Algorithm] = {
        "const0": ConstantOutput(0),
        "const1": ConstantOutput(1),
        "id-parity": IdParity(),
        "seen1": OutputAfterSeeing(1),
    }
    if n >= 3:
        toys["seen2"] = OutputAfterSeeing(2)
    return toys

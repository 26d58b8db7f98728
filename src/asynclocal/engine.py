"""Deterministic execution engine for asynchronous local computation.

Nodes on a communication graph each own a single-writer register readable
by their neighbors.  An execution is driven by a scheduling: a sequence of
nonempty blocks of nodes.  When a block is applied, every not-yet-decided
node in it first publishes its pending state to its register and then
atomically snapshots all neighbor registers (so nodes scheduled together
see each other's fresh writes), computing its next state from the result.
Decided (Terminated) nodes are frozen: scheduling them again is a no-op
and their registers keep the last published Running state.

States are tagged tuples:

* ``None`` -- Bottom: the register was never written.
* ``("R", payload)`` -- Running, with an algorithm-specific payload.
* ``("T", output, payload)`` -- Terminated with a decided output; the
  payload keeps the internal state at decision time.

Everything here is pure and deterministic: replaying the same scheduling
against the same algorithm and graph reproduces a trace bit for bit.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from .graphs import Graph

__all__ = [
    "BOTTOM",
    "RUNNING",
    "TERMINATED",
    "DEFAULT_MAX_STEPS",
    "EngineError",
    "AlgorithmViolation",
    "SchedulingError",
    "Configuration",
    "Scheduling",
    "StepRecord",
    "Trace",
    "LivelockCertificate",
    "ConfigurationSpace",
    "initial_configuration",
    "step",
    "execute",
    "detect_livelock",
    "state_from_json",
]

BOTTOM = None
RUNNING = "R"
TERMINATED = "T"

DEFAULT_MAX_STEPS = 10**6


class EngineError(RuntimeError):
    """Base class for execution failures."""


class AlgorithmViolation(EngineError):
    """An algorithm hit a state its correctness argument rules out.

    Raised, for example, when a color-reduction round finds its candidate
    set empty.  Executions that raise this are failed runs, never silently
    repaired.
    """


class SchedulingError(EngineError):
    """A scheduling block referenced unknown nodes or was empty."""


# ---------------------------------------------------------------------------
# configurations


@dataclass
class Configuration:
    """Register file (``old``) and pending states (``new``) after a step."""

    old: dict[int, Any]
    new: dict[int, Any]
    step_index: int = 0

    def copy(self) -> "Configuration":
        return Configuration(dict(self.old), dict(self.new), self.step_index)

    def key(self) -> tuple:
        """Hashable canonical form (ignores the step counter): every register
        state, then every pending state, as one flat tuple.

        Canonical because both dicts iterate in ``graph.nodes`` order, as every
        configuration the engine builds does: :func:`initial_configuration`
        builds them so, and :meth:`copy` and :func:`step` keep the order.
        """
        return (*self.old.values(), *self.new.values())

    def decided(self) -> dict[int, Any]:
        return {
            v: st[1] for v, st in self.new.items() if st is not None and st[0] == TERMINATED
        }

    def to_json(self) -> dict:
        return {
            "old": {str(v): self.old[v] for v in sorted(self.old)},
            "new": {str(v): self.new[v] for v in sorted(self.new)},
            "step_index": self.step_index,
        }


def initial_configuration(graph: Graph, algo, inputs: dict[int, Any]) -> Configuration:
    """The configuration before any step, its dicts in ``graph.nodes`` order.

    ``algo.validate(graph, inputs)`` runs first, so every execution starts
    from checked inputs.
    """
    algo.validate(graph, inputs)
    nodes = graph.nodes
    init = algo.init
    new = {}
    for v in nodes:
        st = init(v, inputs[v])
        if st is None or st[0] not in (RUNNING, TERMINATED):
            raise EngineError(f"init for node {v} returned invalid state {st!r}")
        new[v] = st
    return Configuration(old=dict.fromkeys(nodes, BOTTOM), new=new, step_index=0)


def _apply_block(adj: dict, nxt, arity: int | None, old: dict, new: dict, block: tuple[int, ...]):
    """Publish-then-snapshot for one valid block, in place.

    ``adj`` is ``graph.adj``, ``nxt`` the algorithm's ``next`` and
    ``arity`` its snapshot length; ``old`` and ``new`` are a configuration's
    dicts, updated in place without changing their key order.  Returns
    ``(reads, decided)`` where
    ``reads`` maps each active node to the snapshot list it consumed and
    ``decided`` maps nodes that decided during this block to their
    outputs.  A node with fewer neighbors than ``arity`` gets its snapshot
    padded with Bottom.
    """
    active = []
    for v in block:
        st = new[v]
        if st[0] != TERMINATED:
            old[v] = st  # publish
            active.append(v)
    reads: dict[int, list] = {}
    decided: dict[int, Any] = {}
    for v in active:
        snaps = []
        for u in adj[v]:  # a plain loop: cheaper than a comprehension on short lists
            snaps.append(old[u])
        if arity is not None and len(snaps) < arity:
            snaps += [BOTTOM] * (arity - len(snaps))
        st = nxt(old[v][1], snaps)
        new[v] = st
        reads[v] = snaps
        if st[0] == TERMINATED:
            decided[v] = st[1]
    return reads, decided


def _check_block(block, nodes: frozenset[int]) -> tuple[int, ...]:
    """The canonical form of a scheduling block: its distinct nodes, ascending.

    Raises :class:`SchedulingError` for an empty block or a node outside
    ``nodes``.  Every block from outside the package passes through here.
    """
    blk = tuple(sorted(set(block)))
    if not blk:
        raise SchedulingError("empty scheduling block")
    if not nodes.issuperset(blk):
        bad = next(v for v in blk if v not in nodes)
        raise SchedulingError(f"scheduled node {bad} not in the graph")
    return blk


def step(graph: Graph, algo, cfg: Configuration, block: Iterable[int]) -> Configuration:
    """Pure single-step transition: returns a fresh configuration."""
    blk = _check_block(block, graph.node_set)
    out = cfg.copy()
    _apply_block(graph.adj, algo.next, algo.arity, out.old, out.new, blk)
    out.step_index = cfg.step_index + 1
    return out


# ---------------------------------------------------------------------------
# schedulings


@dataclass
class Scheduling:
    """A block source plus the crash/support metadata the engine consumes.

    It stores only what its constructors cannot derive.  ``crash_times``
    maps a node to the last step it may appear in (``None``: it never
    crashes) and is empty for an explicit scheduling.

    The constructors in :mod:`asynclocal.schedulers` and
    :func:`explicit_scheduling` make only canonical blocks (distinct nodes
    of ``nodes``, ascending, nonempty) and mark their schedulings
    ``_checked``.  :func:`execute` runs the blocks of a checked scheduling
    as they come on any graph holding ``nodes``, and checks the blocks of
    every other block source, a hand-built ``Scheduling`` included.
    """

    spec: str
    nodes: tuple[int, ...]
    support_ever: frozenset[int]
    crash_times: dict[int, int | None]
    seed: int | None
    _factory: Callable[[], Iterator[tuple[int, ...]]]
    _checked: bool = field(default=False, repr=False)

    @property
    def support_forever(self) -> frozenset[int]:
        """The nodes that never crash: those whose crash time is ``None``."""
        ct = self.crash_times
        if not ct:  # explicit schedulings, enumerated by the thousand, skip the scan
            return frozenset()
        return frozenset([v for v, t in ct.items() if t is None])

    def blocks(self) -> Iterator[tuple[int, ...]]:
        """Fresh block iterator; calling again restarts from the beginning."""
        return self._factory()


def explicit_scheduling(blocks, nodes) -> Scheduling:
    """A finite scheduling of the given blocks over ``nodes``.

    Each block is checked and made canonical here, and the scheduling gets
    the canonical ``explicit:1,3/2`` spec of its blocks.
    """
    node_set = frozenset(nodes)
    blocks = [_check_block(b, node_set) for b in blocks]
    spec = "explicit:" + "/".join(",".join(map(str, blk)) for blk in blocks)
    support = frozenset(v for blk in blocks for v in blk)
    return _explicit(blocks, tuple(nodes), spec, support)


def _explicit(blocks, nodes: tuple[int, ...], spec: str, support: frozenset[int]) -> Scheduling:
    """A checked explicit scheduling of canonical ``blocks``, trusted as given.

    ``spec`` must be the canonical spec of ``blocks`` and ``support`` the
    union of their nodes; callers guarantee both.
    """
    return Scheduling(spec, nodes, support, {}, None, lambda: iter(blocks), _checked=True)


# ---------------------------------------------------------------------------
# traces


@dataclass
class StepRecord:
    index: int
    block: tuple[int, ...]
    reads: dict[int, list]
    new_states: dict[int, Any]
    decided: dict[int, Any]

    def to_json(self) -> dict:
        return {
            "type": "step",
            "i": self.index,
            "block": self.block,
            "reads": {str(v): snaps for v, snaps in self.reads.items()},
            "new": {str(v): s for v, s in self.new_states.items()},
            "decided": {str(v): o for v, o in self.decided.items()},
        }


@dataclass
class Trace:
    """Result of :func:`execute`, replayable from its own contents."""

    graph: Graph
    algo_name: str
    params: dict[str, Any]
    inputs: dict[int, Any]
    sched_spec: str
    seed: int | None
    step_count: int
    complete: bool
    decisions: dict[int, Any]
    decision_steps: dict[int, int]
    runtimes: dict[int, int]
    final: Configuration
    support_forever: frozenset[int] = frozenset()
    steps: list[StepRecord] | None = None
    max_steps: int = DEFAULT_MAX_STEPS
    #: the palette the algorithm names for its decisions (not serialised)
    palette: frozenset | None = field(default=None, repr=False, compare=False)

    @property
    def max_runtime(self) -> int:
        return max(self.runtimes.values(), default=0)

    def header_json(self) -> dict:
        return {
            "type": "header",
            "format": 1,
            "graph": self.graph.to_dict(),
            "graph_hash": self.graph.hash,
            "algo": self.algo_name,
            "params": dict(self.params),
            "inputs": {str(v): self.inputs[v] for v in sorted(self.inputs)},
            "seed": self.seed,
            "sched": self.sched_spec,
            "max_steps": self.max_steps,
        }

    def end_json(self) -> dict:
        return {
            "type": "end",
            "steps": self.step_count,
            "complete": self.complete,
            "decisions": {str(v): o for v, o in sorted(self.decisions.items())},
            "decision_steps": {str(v): s for v, s in sorted(self.decision_steps.items())},
            "runtimes": {str(v): r for v, r in sorted(self.runtimes.items())},
        }

    def jsonl_lines(self) -> Iterator[str]:
        if self.steps is None:
            raise EngineError("trace was executed without step recording")
        yield _dumps(self.header_json())
        for rec in self.steps:
            yield _dumps(rec.to_json())
        yield _dumps(self.end_json())

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.jsonl_lines():
                fh.write(line + "\n")


def _dumps(obj) -> str:
    # Engine values go in as they are: json.dumps writes tuples as arrays.
    # Node keys are passed as text, so sort_keys orders them as text.
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def state_from_json(data):
    """A state as recorded in a trace, back as an engine value (arrays become tuples)."""
    if data is None:
        return BOTTOM
    tag = data[0]
    if tag == "R":
        return ("R", _lists_to_tuples(data[1]))
    return ("T", _lists_to_tuples(data[1]), _lists_to_tuples(data[2]))


def _lists_to_tuples(obj):
    if isinstance(obj, list):
        return tuple(_lists_to_tuples(x) for x in obj)
    return obj


# ---------------------------------------------------------------------------
# execution


def _resolve_inputs(graph: Graph, algo, inputs) -> dict[int, Any]:
    nodes = graph.nodes
    if inputs is None:
        return dict(zip(nodes, map(algo.default_input, nodes)))
    missing = [v for v in nodes if v not in inputs]
    if missing:
        raise EngineError(f"missing inputs for nodes {missing}")
    return {v: inputs[v] for v in nodes}


def _block_source(graph: Graph, scheduling):
    """``(scheduling, blocks)``: a block iterator whose blocks are valid for ``graph``.

    Blocks of a checked :class:`Scheduling` built over nodes of ``graph``
    run as they come; a plain list of blocks becomes an explicit scheduling
    (checked once, here); any other object with a ``blocks()`` method has
    each of its blocks checked as it is drawn.
    """
    if type(scheduling) is Scheduling and scheduling._checked:
        if scheduling.nodes is graph.nodes or graph.node_set.issuperset(scheduling.nodes):
            return scheduling, scheduling.blocks()
    elif not callable(getattr(scheduling, "blocks", None)):
        scheduling = explicit_scheduling(scheduling, graph.nodes)
        return scheduling, scheduling.blocks()
    node_set = graph.node_set
    return scheduling, (_check_block(b, node_set) for b in scheduling.blocks())


def execute(
    graph: Graph,
    algo,
    scheduling,
    inputs: dict[int, Any] | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    record: bool = True,
) -> Trace:
    """Run ``algo`` on ``graph`` under ``scheduling``.

    ``scheduling`` is a :class:`Scheduling`, a plain list of blocks, or
    any object with a ``blocks()`` method and the attributes ``spec``,
    ``seed``, ``support_ever``, ``crash_times`` and ``support_forever``.
    A negative ``max_steps`` raises :class:`ValueError`; 0 runs no step.

    Stops as soon as every node that appears in the scheduling has
    decided, when the scheduling itself is exhausted, when the only
    undecided scheduled nodes have all crashed, or after ``max_steps``
    blocks, whichever comes first.  The returned trace is flagged
    ``complete`` exactly when all appearing nodes decided.

    With ``record=False`` the per-step records are not retained (used for
    large campaigns); decisions, runtimes and the final configuration are
    always kept.
    """
    if max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, got {max_steps}")
    sched, block_iter = _block_source(graph, scheduling)
    ins = _resolve_inputs(graph, algo, inputs)
    cfg = initial_configuration(graph, algo, ins)
    old, new = cfg.old, cfg.new
    adj, nxt, arity = graph.adj, algo.next, algo.arity
    support = frozenset(sched.support_ever)

    decisions: dict[int, Any] = {}
    decision_steps: dict[int, int] = {}
    runtimes: dict[int, int] = dict.fromkeys(graph.nodes, 0)
    for v, st in new.items():
        if st[0] == TERMINATED:
            decisions[v] = st[1]
            decision_steps[v] = 0

    # pending: scheduled nodes still undecided; crashed: those of them whose
    # crash step has passed.  The run stops once the two sets are equal.
    # crashes: the (step, node) crashes still to come, the next one last.
    pending = set(support.difference(decisions))
    crashed: set[int] = set()
    crashes = sorted(
        ((t, v) for v, t in sched.crash_times.items() if t is not None and v in pending),
        reverse=True,
    )

    steps: list[StepRecord] | None = [] if record else None

    step_index = 0
    while step_index < max_steps and pending:
        while crashes and crashes[-1][0] <= step_index:
            v = crashes.pop()[1]
            if v in pending:
                crashed.add(v)
        if crashed and len(crashed) == len(pending):
            break  # every still-undecided scheduled node has crashed
        blk = next(block_iter, None)
        if blk is None:
            break
        step_index += 1
        reads, decided_now = _apply_block(adj, nxt, arity, old, new, blk)
        for v in reads:
            runtimes[v] += 1
        for v, out in decided_now.items():
            decisions[v] = out
            decision_steps[v] = step_index
            pending.discard(v)
            crashed.discard(v)
        if record:
            steps.append(StepRecord(step_index, blk, reads, {v: new[v] for v in reads}, decided_now))

    cfg.step_index = step_index
    return Trace(
        graph=graph,
        algo_name=algo.name,
        params=dict(algo.params()),
        inputs=ins,
        sched_spec=sched.spec,
        seed=sched.seed,
        step_count=step_index,
        complete=support <= decisions.keys(),
        decisions=decisions,
        decision_steps=decision_steps,
        runtimes=runtimes,
        final=cfg,
        support_forever=sched.support_forever,
        steps=steps,
        max_steps=max_steps,
        palette=algo.palette,
    )


# ---------------------------------------------------------------------------
# livelock detection


@dataclass
class LivelockCertificate:
    """Witness that a periodic scheduling never lets some node decide.

    The configuration reached after ``repeat_index`` applications of the
    period equals the one after ``matched_index`` applications, while some
    node scheduled by the period is still undecided -- so the execution
    cycles forever without progress.
    """

    prefix: tuple[tuple[int, ...], ...]
    period: tuple[tuple[int, ...], ...]
    matched_index: int
    repeat_index: int
    undecided: tuple[int, ...]
    configuration: Configuration

    @property
    def period_applications(self) -> int:
        return self.repeat_index - self.matched_index

    def to_json(self) -> dict:
        return {
            "prefix": self.prefix,
            "period": self.period,
            "matched_index": self.matched_index,
            "repeat_index": self.repeat_index,
            "period_applications": self.period_applications,
            "undecided": self.undecided,
            "configuration": self.configuration.to_json(),
        }


class ConfigurationSpace:
    """The configurations reached from one initial configuration, each stored once.

    Built from a graph, an algorithm and its inputs (``None``: the
    defaults), resolved and validated here as :func:`execute` does.  Every
    configuration is interned by its :meth:`Configuration.key` as a dense
    id in ``ids``, the initial one being id 0: ``pairs[i]`` holds its
    ``(old, new)`` dicts, in ``graph.nodes`` order, which nobody may
    change.  ``successors[i]`` memoises the transitions out of id ``i`` as
    ``{block: id}``, so a block is applied to a configuration at most once
    however many executions pass through it (the state caching of
    explicit-state model checkers).  Blocks are trusted to be canonical
    (distinct nodes of ``graph``, ascending).  ``len(space)`` counts the
    configurations; the space never drops one, so a caller that shares it
    across many executions bounds its memory by starting a fresh space.
    """

    def __init__(self, graph: Graph, algo, inputs: dict[int, Any] | None = None):
        start = initial_configuration(graph, algo, _resolve_inputs(graph, algo, inputs))
        self.graph, self.algo = graph, algo
        self.ids: dict[tuple, int] = {start.key(): 0}
        self.pairs: list[tuple[dict, dict]] = [(start.old, start.new)]
        self.successors: list[dict[tuple[int, ...], int]] = [{}]
        self._apply = functools.partial(_apply_block, graph.adj, algo.next, algo.arity)

    def __len__(self) -> int:
        return len(self.pairs)

    def successor(self, cid: int, block: tuple[int, ...]) -> int:
        """The id that ``block`` leads to from id ``cid``, computed on the first call only.

        A miss applies the block to copies of the configuration's dicts and
        interns the result.
        """
        memo = self.successors[cid]
        nid = memo.get(block)
        if nid is None:
            pairs = self.pairs
            old, new = pairs[cid]
            old, new = dict(old), dict(new)
            if not self._apply(old, new, block)[0]:
                nid = cid  # every node of the block had decided: nothing changed
            else:
                # (*old.values(), *new.values()) is Configuration.key(), inlined
                nid = self.ids.setdefault((*old.values(), *new.values()), len(pairs))
                if nid == len(pairs):
                    pairs.append((old, new))
                    self.successors.append({})
            memo[block] = nid
        return nid

    def configuration(self, cid: int) -> Configuration:
        """A fresh copy of id ``cid``'s configuration, with step index 0."""
        old, new = self.pairs[cid]
        return Configuration(dict(old), dict(new))


def detect_livelock(
    graph: Graph,
    algo,
    prefix: Iterable[Iterable[int]],
    period: Iterable[Iterable[int]],
    inputs: dict[int, Any] | None = None,
    bound: int = 64,
    space: ConfigurationSpace | None = None,
) -> LivelockCertificate | None:
    """Search for a configuration repetition under ``prefix + period*``.

    Runs the prefix once, then applies the period up to ``bound`` times,
    every block through the transitions of a :class:`ConfigurationSpace`,
    and compares the configuration's id at every period boundary.  Returns
    a certificate on the first repetition that leaves a node of the
    period's support undecided, and ``None`` if the period's nodes all
    decide (the dynamics then freeze) or no repetition shows up within the
    bound.

    ``space``, when given, must have been built from ``graph`` and
    ``algo`` (checked) and starts from its own inputs, so ``inputs`` is
    not read; its blocks are trusted to be canonical (distinct nodes of
    ``graph``, ascending), as a search's own blocks are.  The space keeps
    every configuration and transition the call adds, so a search can
    share them across all its shapes.  Without ``space`` every block is
    checked and a private space is built from ``inputs``.  The
    certificate's configuration is a fresh copy, in ``graph.nodes`` order,
    with step index 0 either way.
    """
    pre, per = tuple(prefix), tuple(period)
    if not per:
        raise SchedulingError("period must contain at least one block")

    if space is None:
        node_set = graph.node_set
        pre = tuple([_check_block(b, node_set) for b in pre])
        per = tuple([_check_block(b, node_set) for b in per])
        space = ConfigurationSpace(graph, algo, inputs)
    elif space.graph is not graph or space.algo is not algo:
        raise ValueError("the configuration space was built for another graph or algorithm")

    # space.successor, with its hit path inlined in the hot loop
    successors, successor = space.successors, space.successor
    cid = 0
    for blk in pre:
        nid = successors[cid].get(blk)
        cid = successor(cid, blk) if nid is None else nid

    seen = {cid: 0}
    for k in range(1, bound + 1):
        for blk in per:
            nid = successors[cid].get(blk)
            cid = successor(cid, blk) if nid is None else nid
        if cid in seen:
            new = space.pairs[cid][1]
            undecided = tuple(v for v in sorted(set().union(*per)) if new[v][0] != TERMINATED)
            if not undecided:
                return None
            return LivelockCertificate(
                prefix=pre,
                period=per,
                matched_index=seen[cid],
                repeat_index=k,
                undecided=undecided,
                configuration=space.configuration(cid),
            )
        seen[cid] = k
    return None

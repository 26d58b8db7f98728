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
import operator
import weakref
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


@dataclass(slots=True)
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


def _snapshot_reader(nbrs: tuple[int, ...], arity: int | None) -> Callable[[dict], tuple]:
    """A function from a register file to the snapshot of a node with neighbors ``nbrs``.

    The snapshot is a tuple of the registers of ``nbrs`` in order, padded
    with Bottom up to ``arity``.  This is the only place that knows that
    order and padding: every stepping path reads snapshots through it.
    Two or more neighbors are read by one ``itemgetter``.
    """
    pad = (BOTTOM,) * (arity - len(nbrs)) if arity is not None and arity > len(nbrs) else ()
    if len(nbrs) >= 2:
        get = operator.itemgetter(*nbrs)
        return get if not pad else lambda regs: get(regs) + pad
    if nbrs:  # an itemgetter of one key returns the value, not a 1-tuple
        (u,) = nbrs
        return lambda regs: (regs[u], *pad)
    return lambda regs: pad


def _apply_block(readers, nxt, old, new, block: Iterable[int], reads=None):
    """Publish-then-snapshot for one valid block, in place.

    ``readers`` maps each node of ``block`` to its :func:`_snapshot_reader`
    and ``nxt`` is the algorithm's ``next``; ``old`` and ``new`` hold a
    configuration's registers and pending states, updated in place without
    changing their order.  ``readers``, ``old`` and ``new`` are all indexed
    by node id (dicts, in runs and :func:`step`) or all by position in
    ``graph.nodes`` (lists, in :class:`ConfigurationSpace`, whose blocks
    then list positions and whose readers read positions).  Returns
    ``(active, decided)``: ``active`` lists the block's nodes that had not
    decided, which are the ones that ran, and ``decided`` maps those that
    decided during this block to their outputs, or is ``None`` when none
    did.  When ``reads`` is a dict, it gets each active node's snapshot.
    Recorded runs, :func:`step` and :class:`ConfigurationSpace` step
    through here, calling ``nxt`` on every activation; other unrecorded
    runs of :func:`execute` do the same work inline through a transition
    table.
    """
    active = []
    for v in block:
        st = new[v]
        if st[0] != TERMINATED:
            old[v] = st  # publish
            active.append(v)
    decided = None
    for v in active:
        snaps = readers[v](old)
        st = nxt(old[v][1], snaps)
        new[v] = st
        if reads is not None:
            reads[v] = snaps
        if st[0] == TERMINATED:
            if decided is None:
                decided = {}
            decided[v] = st[1]
    return active, decided


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
    readers = {v: _snapshot_reader(graph.adj[v], algo.arity) for v in blk}
    _apply_block(readers, algo.next, out.old, out.new, blk)
    out.step_index = cfg.step_index + 1
    return out


# ---------------------------------------------------------------------------
# schedulings


@dataclass(slots=True)
class Scheduling:
    """A block source plus the crash/support metadata the engine consumes.

    It stores only what its constructors cannot derive, and the nodes
    that never crash (``_forever``), which
    :func:`~asynclocal.schedulers.make_scheduling` works out once when it
    draws the crash times.  ``crash_times`` maps a node to the last step
    it may appear in (``None``: it never crashes) and is empty for an
    explicit scheduling, whose ``_forever`` is the one shared empty set.

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
    _forever: frozenset[int] | None = field(default=None, repr=False)

    @property
    def support_forever(self) -> frozenset[int]:
        """The nodes that never crash: those whose crash time is ``None``.

        The set stored at build, when there is one; otherwise worked out
        from ``crash_times`` on every call.
        """
        if self._forever is not None:
            return self._forever
        return frozenset([v for v, t in self.crash_times.items() if t is None])

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


# The never-crash set of every explicit scheduling: it has no crash times.
_NEVER: frozenset[int] = frozenset()


def _explicit(blocks, nodes: tuple[int, ...], spec: str, support: frozenset[int]) -> Scheduling:
    """A checked explicit scheduling of canonical ``blocks``, trusted as given.

    ``spec`` must be the canonical spec of ``blocks`` and ``support`` the
    union of their nodes; callers guarantee both.  The fields go in by
    position, since :func:`~asynclocal.schedulers.enumerate_schedulings`
    builds tens of thousands of these.
    """
    return Scheduling(spec, nodes, support, {}, None, blocks.__iter__, True, _NEVER)


# ---------------------------------------------------------------------------
# traces


@dataclass(slots=True)
class StepRecord:
    index: int
    block: tuple[int, ...]
    reads: dict[int, tuple]
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


@dataclass(slots=True)
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


# One encoder for every trace line, with the bytes of json.dumps(obj, sort_keys=True,
# separators=(",", ":")).  Engine values go in as they are: tuples are written as
# arrays, and node keys are passed as text, so sort_keys orders them as text.  A
# tuple cannot contain itself, so the per-container cycle check is skipped.
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode


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


@dataclass(slots=True)
class _Start:
    """What every run of one algorithm object on ``graph`` starts from (see :func:`_start`).

    ``dicts`` are the seven dicts a run copies and ``readers`` maps each
    node to its :func:`_snapshot_reader`.  ``table`` is the algorithm's
    transition table for unrecorded runs, ``(payload, snaps) -> state``
    (see :func:`execute`), handed on from each start of the object to the
    next; recorded runs never read it.  ``space`` is the
    :class:`ConfigurationSpace` of the start, built by the first
    unrecorded run that steps through it: one on default inputs, on a graph
    of at most ``_SPACE_MAX_NODES`` nodes, under a scheduling without crash
    times.  It is not handed on, since its configurations belong to
    ``graph``, and it holds the object weakly, so the start still dies with
    its object.
    """

    graph: Graph
    dicts: tuple[dict, ...]
    readers: dict[int, Callable[[dict], tuple]]
    table: dict
    space: ConfigurationSpace | None = None


# The start of each algorithm object's last default-input runs.  Campaigns run a
# few instances thousands of times each, interleaved.  Keyed on the object, not on
# its name or parameters: ``wsb.ConstantOutput(0)`` and ``(1)`` see the same
# payloads and snapshots and decide differently.  A start, with its table, dies
# with its object; it holds its graph, so no other graph can take that graph's id.
_starts: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

# A table holding more entries than this when an unrecorded run starts is
# replaced by a fresh one; a campaign on small graphs holds a few thousand.
_TABLE_LIMIT = 2**14
# A configuration space holding more configurations than this is replaced by a
# fresh one: by a run, at its start, and by the periodic search, before a shape.
# A C4 search or enumeration needs about 1,000, and the bound keeps memory flat.
_SPACE_LIMIT = 2**12
# The most nodes a graph may have for its explicit unrecorded runs to step through
# the start's space, and for enumerate_schedulings to run unguarded.  On a large
# graph a configuration is rarely met twice, and every miss copies and interns a
# key of 2n states: through a space, an explicit run of 300 blocks of 1-3 nodes on
# cycle:1000 took 13 times as long as through the table (34 ms against 2.6 ms).
_SPACE_MAX_NODES = 5


def _start(graph: Graph, algo, inputs) -> _Start:
    """The start every run of ``algo`` on ``graph`` copies its seven dicts from.

    These are the resolved inputs, the outputs decided at ``init`` with
    their decision step 0, a runtime of 0 per node, ``algo.params()``, and
    last the initial registers (all Bottom) and validated pending states,
    both in ``graph.nodes`` order; the start also holds every node's
    snapshot reader and the object's transition table.  On default inputs
    (``inputs`` None) the start kept for ``algo`` is reused while
    ``graph`` is the same object.  Otherwise a new start is built with the
    kept start's table, and kept in its place on default inputs only:
    explicit inputs are never kept.  A failing ``validate`` or ``init``
    stores nothing.  The dicts are shared: callers copy them before
    handing them out and never change them.
    """
    last = _starts.get(algo)
    if inputs is None and last is not None and last.graph is graph:
        return last
    ins = _resolve_inputs(graph, algo, inputs)
    cfg = initial_configuration(graph, algo, ins)
    decisions = cfg.decided()
    decision_steps, runtimes = dict.fromkeys(decisions, 0), dict.fromkeys(graph.nodes, 0)
    dicts = (ins, decisions, decision_steps, runtimes, dict(algo.params()), cfg.old, cfg.new)
    readers = {v: _snapshot_reader(nbrs, algo.arity) for v, nbrs in graph.adj.items()}
    start = _Start(graph, dicts, readers, {} if last is None else last.table)
    if inputs is None:
        _starts[algo] = start
    return start


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
    decided or crashed, when the scheduling itself is exhausted, or after
    ``max_steps`` blocks, whichever comes first.  The returned trace is
    flagged ``complete`` exactly when all appearing nodes decided.

    Every run reads each snapshot through the start's per-node
    :func:`_snapshot_reader`.  With ``record=False`` no per-step record is
    built, snapshots included (used for large campaigns); decisions,
    runtimes and the final configuration are always kept.  Such a run on
    default inputs, on a graph of at most ``_SPACE_MAX_NODES`` nodes, under
    a scheduling without crash times (an explicit, ``replay:`` or
    enumerated one), steps through the :class:`ConfigurationSpace` of its
    start: each block is one memoised transition, computed only where no
    earlier such run of ``algo`` on ``graph`` met it, which gives the
    block's runtimes and new decisions, and the final registers and
    pending states are copies of the space's one decode of the last
    configuration (see :meth:`ConfigurationSpace.configuration`), so no
    trace shares a dict with the space.  Schedules enumerated on a small
    graph share most of their prefixes, so most of their blocks are dict
    lookups; on a large graph a configuration rarely comes back, and a miss
    costs more than the table below.  Every other unrecorded run does each
    block's work in one inline pass: it publishes the block's undecided
    nodes, then for each one looks ``(payload, snapshot)`` up in the
    transition table of the ``algo`` object, and calls ``algo.next`` only
    for a pair that no earlier unrecorded run of ``algo`` met (see
    :class:`~asynclocal.algorithms.Algorithm` for the purity both rely
    on).  Recorded runs step through :func:`_apply_block`, which calls
    ``algo.next`` on every activation and touches neither memo, so they are
    the reference the memos are checked against.  Recorded or not, a run
    takes the same steps to the same results.

    On default inputs the validated start is built once per ``algo``
    object and reused by its default-input runs while they are of the
    same ``graph`` object (see :func:`_start`), with its snapshot readers,
    table and space, so ``algo`` must not change once it has run.  A
    start's space holding more than ``_SPACE_LIMIT`` configurations when a
    run begins is replaced by a fresh one, as a table past
    ``_TABLE_LIMIT`` is.
    """
    if max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, got {max_steps}")
    sched, block_iter = _block_source(graph, scheduling)
    start = _start(graph, algo, inputs)
    support = frozenset(sched.support_ever)
    steps: list[StepRecord] | None = None

    if not (record or sched.crash_times) and inputs is None and graph.n <= _SPACE_MAX_NODES:
        # each dict of the start is copied, so no trace shares a mutable object with it
        ins, decisions, decision_steps, runtimes, params = [d.copy() for d in start.dicts[:5]]
        live = set(support.difference(decisions))  # the scheduled undecided nodes
        space = start.space
        if space is None or len(space.keys) > _SPACE_LIMIT:
            space = start.space = ConfigurationSpace._of_start(start, algo)
        successors, successor = space.successors, space.successor
        cid = step_index = 0
        for blk in block_iter if max_steps and live else ():
            step_index += 1
            hit = successors[cid].get(blk)  # space.successor's hit path, inlined
            if hit is None:
                successor(cid, blk)
                hit = successors[cid][blk]
            cid, active, decided = hit
            for v in active:
                runtimes[v] += 1
            if decided:  # live shrinks only when some node decided
                for v, out in decided:
                    decisions[v] = out
                    decision_steps[v] = step_index
                    live.discard(v)
                if not live:
                    break
            if step_index == max_steps:
                break
        old, new = space._decoded(cid)
        old, new = old.copy(), new.copy()
    else:
        ins, decisions, decision_steps, runtimes, params, old, new = [d.copy() for d in start.dicts]
        nxt = algo.next
        # live: the scheduled nodes that have neither decided nor crashed.
        # crashes: the (step, node) crashes still to come, the next one last.
        live = set(support.difference(decisions))
        crashes = []  # explicit schedulings have no crash times and skip the sort
        if sched.crash_times:
            crashes = [(t, v) for v, t in sched.crash_times.items() if t is not None and v in live]
            crashes.sort(reverse=True)

        readers = start.readers
        if record:
            steps = []
        else:
            table = start.table
            if len(table) > _TABLE_LIMIT:
                table = start.table = {}
        del start  # a start for explicit inputs is in no cache: free its dicts before the run

        step_index = 0
        while step_index < max_steps and live:
            while crashes and crashes[-1][0] <= step_index:
                live.discard(crashes.pop()[1])
            if not live:
                break  # every still-undecided scheduled node has crashed
            blk = next(block_iter, None)
            if blk is None:
                break
            step_index += 1
            if record:
                reads = {}
                active, decided_now = _apply_block(readers, nxt, old, new, blk, reads)
                for v in active:
                    runtimes[v] += 1
                if decided_now:
                    for v, out in decided_now.items():
                        decisions[v] = out
                        decision_steps[v] = step_index
                        live.discard(v)
                states = {v: new[v] for v in active}
                steps.append(StepRecord(step_index, blk, reads, states, decided_now or {}))
                continue
            for v in blk:
                st = new[v]
                if st[0] != TERMINATED:
                    old[v] = st  # publish
            # a block's nodes are distinct, so new[v] is still v's state from before the block
            for v in blk:
                st = new[v]
                if st[0] == TERMINATED:
                    continue
                key = (st[1], readers[v](old))
                st = table.get(key)
                if st is None:
                    st = table[key] = nxt(*key)
                new[v] = st
                runtimes[v] += 1
                if st[0] == TERMINATED:
                    decisions[v] = st[1]
                    decision_steps[v] = step_index
                    live.discard(v)

    # positional, in field order: sixteen keywords would cost about 0.5 us a run
    return Trace(
        graph, algo.name, params, ins, sched.spec, sched.seed, step_index,
        support <= decisions.keys(), decisions, decision_steps, runtimes,
        Configuration(old, new, step_index), sched.support_forever, steps, max_steps, algo.palette,
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


@functools.lru_cache(maxsize=256)
def _nonempty_subsets(nodes: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Every nonempty subset of ``nodes``, in bit-mask order: item ``m - 1`` holds mask ``m``.

    Cached, since :meth:`ConfigurationSpace.children` asks again for every
    configuration with the same undecided nodes.
    """
    out = [()]
    for v in nodes:  # the masks below 2^i, then the same masks with bit i set
        out += [s + (v,) for s in out]
    return tuple(out[1:])


class ConfigurationSpace:
    """The configurations reached from one initial configuration, each stored once.

    Built from a graph, an algorithm and its inputs (``None``: the
    defaults), resolved and validated here as :func:`execute` does.  Every
    configuration is interned by its :meth:`Configuration.key` as a dense
    id in ``ids``, the initial one being id 0, and held only as that key:
    ``keys[i]`` is the very tuple ``ids`` maps to ``i``, and the methods
    read slices of it.  An id's registers and pending states are decoded
    from its key into dicts once, when first asked for, and kept while the
    space lives; :meth:`configuration` and :func:`execute` hand out copies
    of them.  ``successors[i]`` memoises the transitions out of
    id ``i`` as ``{block: (id, active, decided)}``, so a block is applied
    to a configuration at most once (the state caching of explicit-state
    model checkers): ``active`` holds the block's nodes that had not
    decided, which are the ones that ran, and ``decided`` a ``(node,
    output)`` pair for each of them that decided in the block, both in
    block order.  ``active`` is the block itself when every node ran; a
    shorter ``active`` and every ``decided`` are held once per space.  Only
    ``engine`` reads the two; walkers use :meth:`successor`,
    :meth:`undecided`, :meth:`children` and :meth:`configuration`.  Blocks
    are trusted to be canonical (distinct nodes of ``graph``, ascending).
    ``len(space)`` counts the configurations; the space never drops one,
    so a caller that shares it across many executions bounds its memory by
    starting a fresh space.

    Each default-input start of an algorithm object also keeps a space (see
    :class:`_Start`), which the explicit unrecorded runs of :func:`execute`
    on graphs of at most ``_SPACE_MAX_NODES`` nodes step through: a run then
    computes a transition only where no earlier run of the object met it.
    The bound keeps large graphs out, where configurations rarely repeat
    and every miss copies and interns a key of ``2 * graph.n`` states.
    """

    def __init__(self, graph: Graph, algo, inputs: dict[int, Any] | None = None):
        self._set_up(_start(graph, algo, inputs), algo, algo.next)

    @classmethod
    def _of_start(cls, start: _Start, algo) -> "ConfigurationSpace":
        """The space of ``start``, a start of ``algo``, naming ``algo`` through a weak proxy.

        A start is kept in ``_starts`` under its algorithm object, so a
        strong reference from its space would keep the object alive
        forever: its ``algo`` is a weak proxy, and ``next`` is looked up
        through it.  A miss reads the start's transition table first and
        fills it, as the table path of :func:`execute` does, so equal
        states in different configurations are one object; a table
        replaced later is kept until the space is.
        """
        space = cls.__new__(cls)
        proxy = weakref.proxy(algo)
        table = start.table

        def nxt(payload, snaps):
            key = (payload, snaps)
            st = table.get(key)
            if st is None:
                st = table[key] = proxy.next(payload, snaps)
            return st

        space._set_up(start, proxy, nxt)
        return space

    def _set_up(self, start: _Start, algo, nxt) -> None:
        graph = start.graph
        old, new = start.dicts[5:]
        key = (*old.values(), *new.values())  # Configuration.key()
        self.graph, self.algo = graph, algo
        self.ids: dict[tuple, int] = {key: 0}
        self.keys: list[tuple] = [key]
        self.successors: list[dict[tuple[int, ...], tuple]] = [{}]
        self._undecided: dict[int, tuple[int, ...]] = {}
        self._dicts: dict[int, tuple[dict, dict]] = {}  # see _decoded
        self._tuples: dict[tuple, tuple] = {}  # one copy of each memoised active or decided tuple
        # a key holds the nodes by position in graph.nodes, so the space steps lists
        # indexed by position, through readers of the neighbors' positions
        nodes, adj = graph.nodes, graph.adj
        self._pos = pos = {v: i for i, v in enumerate(nodes)}
        readers = [_snapshot_reader(tuple([pos[u] for u in adj[v]]), algo.arity) for v in nodes]
        self._apply = functools.partial(_apply_block, readers, nxt)

    def __len__(self) -> int:
        return len(self.keys)

    def successor(self, cid: int, block: tuple[int, ...]) -> int:
        """The id that ``block`` leads to from id ``cid``, computed on the first call only.

        A miss applies the block to lists of the registers and pending
        states copied from the key of ``cid``, interns the result, and
        memoises the transition with the nodes that ran and decided.
        """
        memo = self.successors[cid]
        hit = memo.get(block)
        if hit is None:
            nodes, pos = self.graph.nodes, self._pos
            old = list(self.keys[cid])  # the registers, then the pending states
            new = old[len(nodes):]
            del old[len(nodes):]
            active, decided = self._apply(old, new, [pos[v] for v in block])
            if not active:
                hit = (cid, (), ())  # every node of the block had decided: nothing changed
            else:
                keys = self.keys
                key = tuple(old + new)  # Configuration.key()
                nid = self.ids.setdefault(key, len(keys))
                if nid == len(keys):
                    keys.append(key)
                    self.successors.append({})
                tuples = self._tuples
                ran = block
                if len(active) < len(block):
                    ran = tuple([nodes[i] for i in active])
                    ran = tuples.setdefault(ran, ran)
                outs = ()
                if decided is not None:  # a loop: a comprehension is a call on every miss
                    for i, out in decided.items():
                        outs += ((nodes[i], out),)
                    outs = tuples.setdefault(outs, outs)
                hit = (nid, ran, outs)
            memo[block] = hit
        return hit[0]

    def undecided(self, cid: int) -> tuple[int, ...]:
        """The undecided nodes of id ``cid`` in ``graph.nodes`` order, found on the first call."""
        u = self._undecided.get(cid)
        if u is None:
            nodes = self.graph.nodes
            new = self.keys[cid][len(nodes):]
            u = self._undecided[cid] = tuple([v for v, st in zip(nodes, new) if st[0] != TERMINATED])
        return u

    def children(self, cid: int) -> dict[tuple[int, ...], int]:
        """``{block: id}`` over every nonempty block of :meth:`undecided`, in bit-mask order.

        Each id comes from :meth:`successor`, so the order does not depend on
        what stepped ``cid`` before, and the transitions are kept in its memo only.
        """
        return {b: self.successor(cid, b) for b in _nonempty_subsets(self.undecided(cid))}

    def _decoded(self, cid: int) -> tuple[dict, dict]:
        """Id ``cid``'s registers and pending states, as two dicts in ``graph.nodes`` order.

        Decoded from the key on the first call and kept while the space
        lives, so each id is decoded once.  The dicts are shared: callers
        hand out copies only.
        """
        d = self._dicts.get(cid)
        if d is None:
            nodes, key = self.graph.nodes, self.keys[cid]
            d = self._dicts[cid] = (dict(zip(nodes, key)), dict(zip(nodes, key[len(nodes):])))
        return d

    def configuration(self, cid: int) -> Configuration:
        """A fresh copy of id ``cid``'s configuration, with step index 0.

        Its dicts are copies of the space's one decode of ``cid``, so changing
        them changes neither the space nor any other configuration it hands out.
        """
        old, new = self._decoded(cid)
        return Configuration(old.copy(), new.copy())


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
    bound.  A negative ``bound`` raises :class:`ValueError`.

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
    if bound < 0:
        raise ValueError(f"bound must be non-negative, got {bound}")
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
        hit = successors[cid].get(blk)
        cid = successor(cid, blk) if hit is None else hit[0]

    seen = {cid: 0}
    for k in range(1, bound + 1):
        for blk in per:
            hit = successors[cid].get(blk)
            cid = successor(cid, blk) if hit is None else hit[0]
        if cid in seen:
            undecided = space.undecided(cid)
            if undecided:  # else every node has decided, as half a search's shapes end
                undecided = tuple(sorted(set().union(*per).intersection(undecided)))
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

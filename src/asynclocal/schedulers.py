"""Scheduling construction: synchronous, random crash adversaries, replay,
exhaustive enumeration, and property-directed adversary search.

A scheduling is a (possibly infinite) sequence of nonempty node blocks
plus crash bookkeeping.  Everything is reproducible: random schedulings
are pure functions of their canonical spec string, and every search hit
is returned together with a spec that regenerates it.

Spec strings:

* ``sync`` -- every step schedules all non-crashed nodes.
* ``random:seed=S,p=P,crash=R`` -- seed S >= 0; each step includes each
  alive node independently with probability P, 0.001 <= P <= 1 (empty
  draws are redrawn); each node is faulty with probability R, and faulty
  nodes stop appearing after a sampled crash step (possibly 0 = never
  appear).
* ``replay:PATH`` -- blocks read from a scheduling file (one line per
  block, sorted ids, space-separated).  The file is read once: the
  scheduling is the explicit one of its blocks, with their
  ``explicit:`` spec, so a trace of it does not depend on the file.
* ``explicit:1,3/2`` -- blocks inline, slash-separated.

Explicit crash times may be appended as ``crashes=2@0|4@3`` (node@step,
step >= 0; a node with crash step t appears in no block after the t-th).

The random stream of ``random:seed=S,p=P,crash=R`` is, in this order:
``_random.Random(S)`` draws, per node in ascending order, one value (the
node is faulty if it is below R) and then values until one is below 0.3
(the crash step is the number drawn before it); then the first
``getrandbits(64)`` value of the same generator below 2**63, which is what
``random.Random(S).randrange(2**63)`` returns, is the block seed.  A second
generator seeded with the block seed makes the blocks: each try of a step
draws once per alive node, in node order, and keeps the nodes whose value
is below P.  Both are ``_random.Random``, the core of ``random.Random``
without its Python seeding wrapper, whose values are the same.  At P = 1
every value is below P, so each block is the alive tuple, as for ``sync``:
no block seed is drawn and no block generator seeded, and with R = 0 as
well no generator is seeded at all.

Every block a scheduling yields is canonical when it is made (nonempty,
distinct nodes of the graph, ascending), so the engine runs the blocks of
a :class:`Scheduling` without checking them again.
"""

from __future__ import annotations

import _random
import functools
import itertools
import os
from dataclasses import dataclass
from typing import Any, Iterator

from . import verify as _verify
from .engine import (
    DEFAULT_MAX_STEPS,
    ConfigurationSpace,
    LivelockCertificate,
    Scheduling,
    SchedulingError,
    Trace,
    _SPACE_LIMIT,
    _SPACE_MAX_NODES,
    _explicit,
    _nonempty_subsets,
    detect_livelock,
    execute,
    explicit_scheduling,
)
from .graphs import Graph, _decoded, _read_lines

__all__ = [
    "GUARD_ENV",
    "Scheduling",
    "make_scheduling",
    "read_scheduling",
    "write_scheduling",
    "enumerate_schedulings",
    "SearchResult",
    "adversary_search",
    "SEARCH_PROPERTIES",
]

GUARD_ENV = "ASYNCLOCAL_GUARD_OVERRIDE"


def _guard(ok: bool, message: str) -> None:
    """Raise ValueError with ``message`` unless ``ok`` or the override is set."""
    if ok or os.environ.get(GUARD_ENV) == "1":
        return
    raise ValueError(f"{message} (set {GUARD_ENV}=1 to override)")


_CRASH_STOP = 0.3  # geometric parameter for sampled crash steps
# Activation probabilities below _MIN_P are rejected.  Each try of a random
# block draws at least one node with probability >= p, so with p >= _MIN_P
# all _MAX_EMPTY_DRAWS tries of one step come out empty with probability
# <= (1 - _MIN_P) ** _MAX_EMPTY_DRAWS < e**-100: the bound only guards the loop.
_MIN_P = 1e-3
_MAX_EMPTY_DRAWS = 100_000


def _parse_params(text: str) -> dict[str, str]:
    params: dict[str, str] = {}
    for part in text.split(","):
        if not part:
            continue
        if "=" not in part:
            raise SchedulingError(f"malformed scheduling parameter {part!r}")
        key, value = part.split("=", 1)
        params[key] = value
    return params


def _parse_crashes(text: str) -> dict[int, int]:
    out: dict[int, int] = {}
    for item in text.split("|"):
        if not item:
            continue
        try:
            node, step = item.split("@")
            out[int(node)] = int(step)
        except ValueError as exc:
            raise SchedulingError(f"malformed crash entry {item!r}") from exc
    return out


def _known_crashes(crashes: dict[int, int], graph: Graph) -> dict[int, int]:
    for v, t in crashes.items():
        if v not in graph.adj:
            raise SchedulingError(f"crash for unknown node {v}")
        if t < 0:
            raise SchedulingError(f"crash step of node {v} must be non-negative, got {t}")
    return crashes


def _block_stream(alive, crash_times, ends, p, block_seed, canon) -> Iterator[tuple[int, ...]]:
    """The blocks of a ``sync`` or ``random`` scheduling, one per step.

    ``alive`` holds the nodes that appear in step 1, and ``ends`` the sorted
    distinct crash steps >= 1: a node with crash step t appears in steps
    1..t only, so the alive nodes change only after a step in ``ends``.  The
    stream stops before the first step with no node alive.  Without
    ``block_seed`` each block is the alive tuple; with it, each try draws
    once per alive node, in node order, from one generator seeded with
    ``block_seed``, and an empty block is redrawn.
    """
    draw = None if block_seed is None else _random.Random(block_seed).random
    step = 0
    for last in ends + [None]:
        if not alive:
            return
        while last is None or step < last:
            step += 1
            if draw is None:
                yield alive
                continue
            blk = tuple([v for v in alive if draw() < p])
            tries = 1
            while not blk:
                if tries == _MAX_EMPTY_DRAWS:
                    raise SchedulingError(f"{canon}: {tries} empty blocks in a row at step {step}")
                blk = tuple([v for v in alive if draw() < p])
                tries += 1
            yield blk
        alive = tuple([v for v in alive if crash_times[v] is None or crash_times[v] > last])


# the parameters each stream kind takes
_STREAM_PARAMS = {"sync": {"crashes"}, "random": {"seed", "p", "crash", "crashes"}}


def make_scheduling(spec: str, graph: Graph, crashes: dict[int, int] | None = None) -> Scheduling:
    """Build a scheduling for ``graph`` from a spec string.

    ``crashes`` adds or overrides explicit crash steps; the returned
    scheduling's ``spec`` is canonical and regenerates it exactly.  A crash
    entry with a step below 0 or for a node outside the graph, in
    ``crashes`` or in the spec's ``crashes=``, raises :class:`SchedulingError`.
    """
    nodes = graph.nodes
    kind, _, rest = spec.partition(":")
    crashes = _known_crashes(crashes, graph) if crashes else {}

    if kind == "replay":
        if not rest:
            raise SchedulingError("replay needs a file path, e.g. replay:sched.txt")
        return explicit_scheduling(read_scheduling(rest), nodes)

    if kind == "explicit":
        try:
            blocks = [{int(x) for x in part.split(",")} for part in rest.split("/") if part]
        except ValueError as exc:
            raise SchedulingError(f"malformed explicit scheduling {spec!r}") from exc
        return explicit_scheduling(blocks, nodes)

    if kind not in _STREAM_PARAMS:
        raise SchedulingError(f"unknown scheduling kind {kind!r}")
    params = _parse_params(rest)
    unknown = set(params) - _STREAM_PARAMS[kind]
    if unknown:
        raise SchedulingError(f"unknown {kind} parameters {sorted(unknown)}")
    seed = None
    p, rate = 1.0, 0.0  # sync: every try keeps every alive node, and no node is faulty
    parts = []
    if kind == "random":
        if "seed" not in params:
            raise SchedulingError("random scheduling needs a seed, e.g. random:seed=7")
        try:
            seed = int(params["seed"])
            p = float(params.get("p", "0.5"))
            rate = float(params.get("crash", "0.0"))
        except ValueError as exc:
            raise SchedulingError(f"malformed random parameters in {spec!r}") from exc
        if seed < 0:  # _random.Random(-s) is _random.Random(s): one stream, two specs
            raise SchedulingError(f"random seed must be non-negative, got {seed}")
        if not _MIN_P <= p <= 1.0:
            raise SchedulingError(f"activation probability must be in [{_MIN_P}, 1], got {p}")
        if not 0.0 <= rate < 1.0:
            raise SchedulingError(f"crash rate must be in [0,1), got {rate}")
        parts = [f"seed={seed}", f"p={p!r}", f"crash={rate!r}"]
    pinned = crashes
    if "crashes" in params:
        pinned = {**_known_crashes(_parse_crashes(params["crashes"]), graph), **crashes}
    if pinned:
        parts.append("crashes=" + "|".join(f"{v}@{t}" for v, t in sorted(pinned.items())))
    canon = kind + (":" + ",".join(parts) if parts else "")

    block_seed = None
    if rate or p < 1.0:  # sync, and p = 1 without crashes, use no value of the stream
        rng = _random.Random(seed)  # random.Random(seed)'s values, without its seeding wrapper
        rnd = rng.random
        ct: dict[int, int | None] = {}
        for v in nodes:  # fixed draw order keeps the stream seed-deterministic
            faulty = rnd() < rate
            t = 0
            while rnd() >= _CRASH_STOP:
                t += 1
            ct[v] = t if faulty else None
        if p < 1.0:  # at p = 1 every draw is below p: the block is the alive tuple
            block_seed = rng.getrandbits(64)  # randrange(2**63): the first 64-bit draw below 2**63
            while block_seed >> 63:
                block_seed = rng.getrandbits(64)
    else:
        ct = dict.fromkeys(nodes)
    # without crash draws or pins no node ever crashes: every node appears in every step
    forever, ends, alive, ever = graph.node_set, [], nodes, graph.node_set
    if rate or pinned:
        ct.update(pinned)
        forever = frozenset([v for v, t in ct.items() if t is None])
        ends = sorted({t for t in ct.values() if t})  # the distinct crash steps >= 1
        if 0 in ct.values():  # crash step 0: the node never appears
            alive = tuple([v for v in nodes if ct[v] != 0])
            ever = frozenset(alive)
    factory = functools.partial(_block_stream, alive, ct, ends, p, block_seed, canon)
    return Scheduling(canon, nodes, ever, ct, seed, factory, _checked=True, _forever=forever)


def read_scheduling(path) -> list[tuple[int, ...]]:
    """Read a scheduling file: one block per line, space-separated node ids.

    Blocks come back as written; :func:`explicit_scheduling` sorts them and
    drops repeated nodes.  The file is read once by the shared line reader
    of :mod:`asynclocal.graphs`, so bytes that are no UTF-8 raise ValueError
    naming their line.
    """
    blocks = []
    for lineno, raw in enumerate(_read_lines(path), start=1):
        line = _decoded(path, lineno, raw).strip()
        if not line:
            continue
        try:
            blocks.append(tuple([int(x) for x in line.split()]))
        except ValueError as exc:
            raise SchedulingError(f"{path}:{lineno}: malformed block {line!r}") from exc
    return blocks


def write_scheduling(blocks, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for blk in blocks:
            fh.write(" ".join(str(v) for v in sorted(blk)) + "\n")


# ---------------------------------------------------------------------------
# bounded exhaustive enumeration


def _block_sequences(blocks, lengths) -> Iterator[tuple]:
    """Every sequence of ``blocks`` of each length in ``lengths``, lexicographic per length."""
    return itertools.chain.from_iterable(itertools.product(blocks, repeat=k) for k in lengths)


def enumerate_schedulings(nodes, depth: int, graph: Graph | None = None) -> Iterator[Scheduling]:
    """All schedulings of 1..depth blocks over ``nodes``, shortest first.

    Within a length, sequences are ordered lexicographically by block
    (blocks themselves ordered {1}, {2}, {1,2}, {3}, ...).  Guarded
    against combinatorial explosion unless the override env var is set.
    Every scheduling equals ``explicit_scheduling(blocks, nodes)``; the
    blocks are canonical by construction, so they skip its checks, and
    each subset's spec fragment and support are made once per call.  With
    ``graph`` given, a node outside it raises :class:`ValueError`.  The
    arguments are checked when it is called, before any scheduling is drawn.
    When ``nodes`` are all of ``graph``'s, the schedulings carry
    ``graph.nodes`` itself as their ``nodes``, so
    :func:`~asynclocal.engine.execute` runs their blocks on ``graph``
    without a subset test.
    """
    nodes = tuple(sorted(set(nodes)))
    if not nodes:
        raise ValueError("enumeration needs at least one node")
    if graph is not None:
        if not graph.node_set.issuperset(nodes):
            bad = next(v for v in nodes if v not in graph.node_set)
            raise ValueError(f"enumerated node {bad} not in the graph")
        if len(nodes) == graph.n:
            nodes = graph.nodes  # ascending, as the sorted tuple is
    if depth < 1:
        raise ValueError(f"depth must be positive, got {depth}")
    _guard(
        len(nodes) <= _SPACE_MAX_NODES and depth <= 6,
        f"enumeration over {len(nodes)} nodes at depth {depth} is guarded "
        f"(limits: {_SPACE_MAX_NODES} nodes, depth 6)",
    )
    return _enumerated(nodes, depth)


def _enumerated(nodes: tuple[int, ...], depth: int) -> Iterator[Scheduling]:
    subsets = _nonempty_subsets(nodes)  # subsets[i] holds the nodes of bit mask i+1
    fragments = [",".join(map(str, blk)) for blk in subsets]
    supports = [frozenset(blk) for blk in subsets]
    # a schedule of k + 1 blocks is one of k, its blocks, spec and mask made once, and one more
    for prefix in _block_sequences(range(len(subsets)), range(depth)):
        blocks = tuple([subsets[i] for i in prefix])
        spec = "explicit:" + "".join([fragments[i] + "/" for i in prefix])
        mask = 0
        for i in prefix:
            mask |= i + 1
        for i, blk in enumerate(subsets):
            support = supports[(mask | i + 1) - 1]
            yield _explicit(blocks + (blk,), nodes, spec + fragments[i], support)


# ---------------------------------------------------------------------------
# adversary search

SEARCH_PROPERTIES = ("proper", "palette", "periodic-termination")

_SEARCH_P = (0.5, 0.3, 0.8, 1.0)
_SEARCH_CRASH = (0.0, 0.1, 0.25)
_PERIODIC_MAX_NODES = 12  # the periodic search lists every nonempty block first: 4,095 at 12


@dataclass
class SearchResult:
    """Outcome of an adversary search: what was examined and what was found."""

    property: str
    examined: int
    found: bool
    trace: Trace | None = None
    certificate: LivelockCertificate | None = None
    scheduling_spec: str | None = None
    verdict: Any = None


def _seeded_spec(seed: int) -> str:
    p = _SEARCH_P[seed % len(_SEARCH_P)]
    rate = _SEARCH_CRASH[(seed // len(_SEARCH_P)) % len(_SEARCH_CRASH)]
    return f"random:seed={seed},p={p!r},crash={rate!r}"


def _enum_depth(sched: str) -> int:
    """The depth D of an ``enum:depth=D`` spec; any other spec raises."""
    kind, _, rest = sched.partition(":")
    if kind != "enum":
        raise ValueError(f"search --sched takes enum:depth=D only, got {sched!r}")
    params = _parse_params(rest)
    unknown = set(params) - {"depth"}
    if unknown:
        raise SchedulingError(f"unknown enum parameters {sorted(unknown)}")
    try:
        return int(params["depth"])
    except (KeyError, ValueError):
        raise ValueError(f"enum spec needs depth=D with an integer D, got {sched!r}") from None


def adversary_search(
    algo,
    graph: Graph,
    property: str = "proper",
    budget: int = 1000,
    seed0: int | None = None,
    max_steps: int | None = None,
    sched: str | None = None,
) -> SearchResult:
    """Search schedulings for a violation of the named property.

    The first ``budget`` candidates are probed in a fixed order, up to the
    first violation.  Trace properties (``proper``, ``palette``) run random
    adversaries in ascending seed order from ``seed0`` (None: 0), so the
    lowest violating seed wins, or, with ``sched="enum:depth=D"``, the
    schedulings of :func:`enumerate_schedulings`.  Each runs for
    ``max_steps`` steps (None: ``DEFAULT_MAX_STEPS``); a violation is run
    again with full recording for a replayable witness.
    ``periodic-termination`` probes prefixes of 0..2 blocks, each with
    periods of 1 and 2 blocks, prefix by prefix, with one
    :func:`detect_livelock` call per shape; it reads no seed and no
    ``max_steps``.  All its shapes share one
    :class:`~asynclocal.engine.ConfigurationSpace` on the default inputs,
    so a block is applied to a configuration once per space however many
    shapes pass through it.  Once the space holds more than 2^12
    configurations the next shape starts a fresh one, which bounds the
    memory on large rings.  It lists all 2^n - 1 blocks first, so it is
    guarded at 12 nodes.  A negative budget, ``seed0`` or ``max_steps``,
    an argument the mode does not read, or a malformed ``sched`` raises
    :class:`ValueError` (an unknown enum parameter,
    :class:`SchedulingError`).
    """
    if property not in SEARCH_PROPERTIES:
        raise ValueError(f"unknown property {property!r} (expected one of {SEARCH_PROPERTIES})")
    depth = None if sched is None else _enum_depth(sched)
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    if seed0 is not None and seed0 < 0:
        raise ValueError(f"seed0 must be non-negative, got {seed0}")
    if max_steps is not None and max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, got {max_steps}")
    periodic = property == "periodic-termination"
    if periodic and depth is not None:
        raise ValueError("exhaustive enumeration searches trace properties only")
    if seed0 is not None and (periodic or depth is not None):
        raise ValueError(f"the {sched or property} search takes no seed")
    if max_steps is not None and periodic:
        raise ValueError(f"the {property} search takes no max_steps")

    # each mode is a candidate stream and a probe that returns the found fields or None
    if periodic:
        _guard(
            graph.n <= _PERIODIC_MAX_NODES,
            f"the periodic search over {graph.n} nodes is guarded: it lists all "
            f"2^n - 1 blocks first (limit: {_PERIODIC_MAX_NODES} nodes)",
        )
        subsets = _nonempty_subsets(graph.nodes)

        def shapes():
            # every shape shares one space, replaced past the limit
            space = ConfigurationSpace(graph, algo)
            for prefix in _block_sequences(subsets, range(3)):
                for period in _block_sequences(subsets, (1, 2)):
                    if len(space) > _SPACE_LIMIT:
                        space = ConfigurationSpace(graph, algo)
                    yield prefix, period, space

        candidates = shapes()

        def probe(shape):
            prefix, period, space = shape
            cert = detect_livelock(graph, algo, prefix, period, space=space)
            if cert is None:
                return None
            spec = explicit_scheduling(prefix + period, graph.nodes).spec
            return {"certificate": cert, "scheduling_spec": spec}

    else:
        if depth is None:
            seeds = itertools.count(0 if seed0 is None else seed0)
            candidates = (make_scheduling(_seeded_spec(seed), graph) for seed in seeds)
        else:
            candidates = enumerate_schedulings(graph.nodes, depth, graph=graph)
        checker = _verify.check_palette if property == "palette" else _verify.check_proper
        steps = DEFAULT_MAX_STEPS if max_steps is None else max_steps

        def probe(candidate):
            if checker(execute(graph, algo, candidate, max_steps=steps, record=False)).ok:
                return None
            # the blocks restart from the first, so the witness is the same run, recorded
            witness = execute(graph, algo, candidate, max_steps=steps)
            verdict = checker(witness)
            return {"trace": witness, "scheduling_spec": candidate.spec, "verdict": verdict}

    examined = 0
    for candidate in itertools.islice(candidates, budget):
        examined += 1
        found = probe(candidate)
        if found is not None:
            return SearchResult(property, examined, True, **found)
    return SearchResult(property, examined, False)

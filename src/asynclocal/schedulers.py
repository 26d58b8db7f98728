"""Scheduling construction: synchronous, random crash adversaries, replay,
exhaustive enumeration, and property-directed adversary search.

A scheduling is a (possibly infinite) sequence of nonempty node blocks
plus crash bookkeeping.  Everything is reproducible: random schedulings
are pure functions of their canonical spec string, and every search hit
is returned together with a spec that regenerates it.

Spec strings:

* ``sync`` -- every step schedules all non-crashed nodes.
* ``random:seed=S,p=P,crash=R`` -- each step includes each alive node
  independently with probability P, 0.001 <= P <= 1 (empty draws are
  redrawn); each node
  is faulty with probability R, and faulty nodes stop appearing after a
  sampled crash step (possibly 0 = never appear).
* ``replay:PATH`` -- blocks read from a scheduling file (one line per
  block, sorted ids, space-separated).  The file is read once: the
  scheduling is the explicit one of its blocks, with their
  ``explicit:`` spec, so a trace of it does not depend on the file.
* ``explicit:1,3/2`` -- blocks inline, slash-separated.

Explicit crash times may be appended as ``crashes=2@0|4@3`` (node@step;
a node with crash step t appears in no block after the t-th).

Every block a scheduling yields is canonical when it is made (nonempty,
distinct nodes of the graph, ascending), so the engine runs the blocks of
a :class:`Scheduling` without checking them again.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from typing import Any, Iterator

from . import verify as _verify
from .engine import (
    DEFAULT_MAX_STEPS,
    LivelockCertificate,
    Scheduling,
    SchedulingError,
    Trace,
    _explicit,
    detect_livelock,
    execute,
    explicit_scheduling,
)
from .graphs import Graph

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


def _crash_body(crashes: dict[int, int]) -> str:
    return "|".join(f"{v}@{t}" for v, t in sorted(crashes.items()))


def _known_crashes(crashes: dict[int, int], graph: Graph) -> dict[int, int]:
    for v in crashes:
        if v not in graph.adj:
            raise SchedulingError(f"crash for unknown node {v}")
    return crashes


def _supports(nodes, crash_times):
    ever = frozenset([v for v in nodes if crash_times.get(v) != 0])
    forever = frozenset([v for v in nodes if crash_times.get(v) is None])
    return ever, forever


def _alive_phases(nodes, crash_times) -> Iterator[tuple[int | None, tuple[int, ...]]]:
    """The non-crashed nodes of each step, as ``(last_step, alive)`` runs.

    A node with crash step t appears in steps 1..t only, so the alive set
    changes only after a crash step: each run ends at one (``None``: never
    ends).  Runs are made as they are reached, and stop before the first
    step with no node alive.
    """
    alive = nodes
    start = 1
    for last in sorted({t for t in crash_times.values() if t is not None and t >= 1}) + [None]:
        alive = tuple([v for v in alive if crash_times[v] is None or crash_times[v] >= start])
        if not alive:
            return
        yield last, alive
        if last is not None:
            start = last + 1


def make_scheduling(spec: str, graph: Graph, crashes: dict[int, int] | None = None) -> Scheduling:
    """Build a scheduling for ``graph`` from a spec string.

    ``crashes`` adds or overrides explicit crash steps; the returned
    scheduling's ``spec`` is canonical and regenerates it exactly.  A crash
    entry for a node outside the graph, in ``crashes`` or in the spec's own
    ``crashes=`` parameter, raises :class:`SchedulingError`.
    """
    nodes = graph.nodes
    kind, _, rest = spec.partition(":")
    crashes = _known_crashes(crashes or {}, graph)

    if kind == "sync":
        params = _parse_params(rest)
        if set(params) - {"crashes"}:
            raise SchedulingError(f"unknown sync parameters {sorted(set(params) - {'crashes'})}")
        pinned = {**_known_crashes(_parse_crashes(params.get("crashes", "")), graph), **crashes}
        ct: dict[int, int | None] = {v: pinned.get(v) for v in nodes}
        canon = "sync" + (f":crashes={_crash_body(pinned)}" if pinned else "")

        def factory():
            step = 0
            for last, alive in _alive_phases(nodes, ct):
                while last is None or step < last:
                    step += 1
                    yield alive

        ever, forever = _supports(nodes, ct)
        finite = None not in ct.values()
        return Scheduling(
            "sync", canon, nodes, finite, ever, forever, ct, None, factory, _checked=True
        )

    if kind == "random":
        params = _parse_params(rest)
        unknown = set(params) - {"seed", "p", "crash", "crashes"}
        if unknown:
            raise SchedulingError(f"unknown random parameters {sorted(unknown)}")
        if "seed" not in params:
            raise SchedulingError("random scheduling needs a seed, e.g. random:seed=7")
        try:
            seed = int(params["seed"])
            p = float(params.get("p", "0.5"))
            rate = float(params.get("crash", "0.0"))
        except ValueError as exc:
            raise SchedulingError(f"malformed random parameters in {spec!r}") from exc
        if not _MIN_P <= p <= 1.0:
            raise SchedulingError(f"activation probability must be in [{_MIN_P}, 1], got {p}")
        if not 0.0 <= rate < 1.0:
            raise SchedulingError(f"crash rate must be in [0,1), got {rate}")
        pinned = {**_known_crashes(_parse_crashes(params.get("crashes", "")), graph), **crashes}

        rng = random.Random(seed)
        rnd = rng.random
        ct = {}
        for v in nodes:  # fixed draw order keeps the stream seed-deterministic
            faulty = rnd() < rate
            t = 0
            while rnd() >= _CRASH_STOP:
                t += 1
            ct[v] = t if faulty else None
        ct.update(pinned)
        block_seed = rng.randrange(2**63)
        canon = f"random:seed={seed},p={p!r},crash={rate!r}"
        if pinned:
            canon += f",crashes={_crash_body(pinned)}"

        def factory():
            draw = random.Random(block_seed).random
            step = 0
            for last, alive in _alive_phases(nodes, ct):
                while last is None or step < last:
                    step += 1
                    blk = ()
                    tries = 0
                    while not blk:  # one draw per alive node, in node order; empty: redraw
                        if tries == _MAX_EMPTY_DRAWS:
                            raise SchedulingError(
                                f"{canon}: {tries} empty blocks in a row at step {step}"
                            )
                        blk = tuple([v for v in alive if draw() < p])
                        tries += 1
                    yield blk

        ever, forever = _supports(nodes, ct)
        finite = None not in ct.values()
        return Scheduling(
            "random", canon, nodes, finite, ever, forever, ct, seed, factory, _checked=True
        )

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

    raise SchedulingError(f"unknown scheduling kind {kind!r}")


def read_scheduling(path) -> list[tuple[int, ...]]:
    """Read a scheduling file: one block per line, space-separated node ids."""
    blocks = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                blocks.append(tuple(sorted({int(x) for x in line.split()})))
            except ValueError as exc:
                raise SchedulingError(f"{path}:{lineno}: malformed block {line!r}") from exc
    return blocks


def write_scheduling(blocks, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for blk in blocks:
            fh.write(" ".join(str(v) for v in sorted(blk)) + "\n")


# ---------------------------------------------------------------------------
# bounded exhaustive enumeration


def _nonempty_subsets(nodes: tuple[int, ...]) -> list[tuple[int, ...]]:
    out = []
    for mask in range(1, 1 << len(nodes)):
        out.append(tuple(nodes[i] for i in range(len(nodes)) if mask >> i & 1))
    return out


def enumerate_schedulings(nodes, depth: int, graph: Graph | None = None) -> Iterator[Scheduling]:
    """All schedulings of 1..depth blocks over ``nodes``, shortest first.

    Within a length, sequences are ordered lexicographically by block
    (blocks themselves ordered {1}, {2}, {1,2}, {3}, ...).  Guarded
    against combinatorial explosion unless the override env var is set.
    Every scheduling equals ``explicit_scheduling(blocks, nodes)``; the
    blocks are canonical by construction, so they skip its checks, and
    each subset's spec fragment and support are made once per call.
    """
    nodes = tuple(sorted(set(nodes)))
    if not nodes:
        raise ValueError("enumeration needs at least one node")
    if depth < 1:
        raise ValueError(f"depth must be positive, got {depth}")
    _guard(
        len(nodes) <= 5 and depth <= 6,
        f"enumeration over {len(nodes)} nodes at depth {depth} is guarded "
        "(limits: 5 nodes, depth 6)",
    )
    subsets = _nonempty_subsets(nodes)  # subsets[i] holds the nodes of bit mask i+1
    fragments = [",".join(map(str, blk)) for blk in subsets]
    supports = [frozenset(blk) for blk in subsets]
    for length in range(1, depth + 1):
        for seq in itertools.product(range(len(subsets)), repeat=length):
            mask = 0
            for i in seq:
                mask |= i + 1
            yield _explicit(
                [subsets[i] for i in seq],
                nodes,
                "explicit:" + "/".join([fragments[i] for i in seq]),
                supports[mask - 1],
            )


# ---------------------------------------------------------------------------
# adversary search

SEARCH_PROPERTIES = (
    "proper",
    "proper-coloring",
    "palette",
    "termination-under-periodic-schedules",
    "periodic-termination",
)

_TRACE_PROPERTIES = ("proper", "proper-coloring", "palette")

_SEARCH_P = (0.5, 0.3, 0.8, 1.0)
_SEARCH_CRASH = (0.0, 0.1, 0.25)


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


def _scan(
    algo, graph: Graph, property: str, schedulings, inputs=None, max_steps: int = DEFAULT_MAX_STEPS
) -> SearchResult:
    """Check a trace property on each scheduling in turn, up to the first violation.

    A violating scheduling is run again with full recording (its blocks
    restart from the first) for a replayable witness.
    """
    checker = _verify.check_palette if property == "palette" else _verify.check_proper
    examined = 0
    for sched in schedulings:
        examined += 1
        trace = execute(graph, algo, sched, inputs=inputs, max_steps=max_steps, record=False)
        if not checker(trace).ok:
            witness = execute(graph, algo, sched, inputs=inputs, max_steps=max_steps)
            return SearchResult(
                property, examined, True, trace=witness,
                scheduling_spec=sched.spec, verdict=checker(witness),
            )
    return SearchResult(property, examined, False)


def adversary_search(
    algo,
    graph: Graph,
    inputs=None,
    property: str = "proper",
    budget: int = 1000,
    seed0: int = 0,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> SearchResult:
    """Search schedulings for a violation of the named property.

    Trace properties (``proper``, ``palette``) scan seeded random
    adversaries in ascending seed order, so the lowest violating seed
    wins; a hit is re-executed with full recording for a replayable
    witness.  ``termination-under-periodic-schedules`` instead enumerates
    short prefix/period shapes and looks for configuration-repetition
    livelocks.  ``budget`` bounds the number of candidates examined; a
    negative budget raises :class:`ValueError`.
    """
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    if property in _TRACE_PROPERTIES:
        schedulings = (make_scheduling(_seeded_spec(seed0 + i), graph) for i in range(budget))
        return _scan(algo, graph, property, schedulings, inputs, max_steps)

    if property in ("termination-under-periodic-schedules", "periodic-termination"):
        subsets = _nonempty_subsets(graph.nodes)
        examined = 0
        prefixes = itertools.chain(
            [()],
            ((b,) for b in subsets),
            itertools.product(subsets, repeat=2),
        )
        for prefix in prefixes:
            for plen in (1, 2):
                for period in itertools.product(subsets, repeat=plen):
                    if examined >= budget:
                        return SearchResult(property, examined, False)
                    examined += 1
                    cert = detect_livelock(graph, algo, prefix, period, inputs=inputs)
                    if cert is not None:
                        spec = explicit_scheduling(prefix + period, graph.nodes).spec
                        return SearchResult(
                            property, examined, True, certificate=cert, scheduling_spec=spec,
                        )
        return SearchResult(property, examined, False)

    raise ValueError(f"unknown property {property!r} (expected one of {SEARCH_PROPERTIES})")

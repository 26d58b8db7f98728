"""Trace checkers, golden-fixture reproduction, and trace file verification.

Checkers consume :class:`~asynclocal.engine.Trace` values and return
:class:`Verdict` objects.  Undecided nodes pass vacuously (partial traces
are first-class because of livelock work); every failing verdict carries
a witness that can be re-checked against the raw trace.

The two embedded golden fixtures pin the engine's step semantics: a full
old/new register grid for a five-node cycle run of the identifier-pair
coloring, and a configuration-repetition certificate for the flawed
5-coloring rule on a four-node cycle.  They are transcribed constants,
not regenerated output, so any drift in the engine is caught.

Trace files and ``replay:`` scheduling files are read once, as bytes, by
one line reader that decodes a line only when it is parsed.  ``load_trace``
checks every record.  ``verify_trace_file`` looks up check names first,
parses only the header on line 1, and compares the other lines with the
replay's bytes, parsing them only when something does not reproduce.  A
replay runs at most one step past the file; a header may not hold ``replay:``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import zip_longest
from typing import Any, Iterable

from .algorithms import Algorithm, make_algorithm
from .engine import (
    Trace,
    _lists_to_tuples,
    detect_livelock,
    execute,
    initial_configuration,
    state_from_json,
    step,
)
from .graphs import Graph, _decoded, _read_lines, build_graph

__all__ = [
    "Verdict",
    "check_proper",
    "check_palette",
    "check_parity_reduction",
    "parity_verdict",
    "reproduce_table",
    "CHECKS",
    "load_trace",
    "LoadedTrace",
    "replay_trace",
    "verify_trace_file",
    "algorithm_from_header",
]


@dataclass(slots=True)
class Verdict:
    """Outcome of a single check; ``witness`` explains any failure."""

    ok: bool
    name: str
    detail: str = ""
    witness: Any = None

    def __bool__(self) -> bool:
        return self.ok

    def render(self) -> str:
        status = "pass" if self.ok else "FAIL"
        out = f"{self.name}: {status}"
        if self.detail:
            out += f" ({self.detail})"
        if not self.ok and self.witness is not None:
            out += f" witness={self.witness!r}"
        return out


# ---------------------------------------------------------------------------
# coloring checks


def check_proper(trace: Trace) -> Verdict:
    """No two adjacent decided nodes share an output."""
    decisions = trace.decisions
    for u, v in trace.graph.edges:
        if u in decisions and v in decisions and decisions[u] == decisions[v]:
            return Verdict(
                False,
                "proper",
                f"adjacent nodes {u} and {v} both decided {decisions[u]!r}",
                witness=(u, v, decisions[u]),
            )
    undecided = len(trace.graph.nodes) - len(decisions)
    detail = "all nodes decided" if not undecided else f"{undecided} undecided (vacuous there)"
    return Verdict(True, "proper", detail)


def _in_palette(out, palette) -> bool:
    """Whether ``out``, its lists read as tuples, is in ``palette``.

    Lists become tuples at every depth, as
    :func:`~asynclocal.engine.state_from_json` reads them; an output that
    is still unhashable (a tuple holding a list, a dict) is outside.
    """
    try:
        return _lists_to_tuples(out) in palette
    except TypeError:
        return False


def check_palette(trace: Trace) -> Verdict:
    """Every decision lies in the palette the algorithm carried into the trace.

    A list output is read as a tuple, at every depth; an output that is
    still unhashable is outside.  Raises ValueError for a trace of an algorithm
    that names no palette.
    """
    palette = trace.palette
    if palette is None:
        raise ValueError(f"algorithm {trace.algo_name} names no palette to check against")
    try:  # one set test passes a trace; only a failing one is scanned, to name a node
        within = palette.issuperset(trace.decisions.values())
    except TypeError:  # an unhashable (list) output: the scan reads it as a tuple
        within = False
    # decisions are scanned unsorted; only the offenders are ordered, to name the lowest
    outside = [] if within else [
        (v, out) for v, out in trace.decisions.items() if not _in_palette(out, palette)
    ]
    if outside:
        v, out = min(outside)  # node ids are distinct: the lowest node wins
        return Verdict(
            False,
            "palette",
            f"node {v} decided {out!r}, outside the {len(palette)}-value palette",
            witness=(v, out),
        )
    return Verdict(True, "palette", f"{len(trace.decisions)} decisions within {len(palette)} values")


def parity_verdict(graph: Graph, colors: dict[int, int]) -> Verdict:
    """Both parities appear among the colors of a fully decided odd cycle.

    Raises ValueError when the instance is out of scope: not an odd
    cycle, not fully decided, or colors outside {0,1,2,3}.
    """
    if any(len(graph.adj[v]) != 2 for v in graph.nodes) or len(graph.nodes) % 2 == 0:
        raise ValueError("parity reduction applies to odd cycles only")
    missing = [v for v in graph.nodes if v not in colors]
    if missing:
        raise ValueError(f"parity reduction needs all nodes decided; missing {missing}")
    bad = {v: c for v, c in colors.items() if not isinstance(c, int) or not 0 <= c <= 3}
    if bad:
        raise ValueError(f"parity reduction needs colors in 0..3, got {bad}")
    parities = {c % 2 for c in colors.values()}
    if parities == {0, 1}:
        return Verdict(True, "parity", "both parities present")
    only = "even" if parities == {0} else "odd"
    return Verdict(False, "parity", f"all colors are {only}", witness=dict(sorted(colors.items())))


def check_parity_reduction(trace: Trace) -> Verdict:
    return parity_verdict(trace.graph, trace.decisions)


# ---------------------------------------------------------------------------
# golden fixtures
#
# Fixture one: the identifier-pair coloring on the 5-cycle with nodes
# 3-5-4-1-6 (in ring order), run under the scheduling
# {1,3,5},{4,5},{3,4},{6},{6}.  The table lists, after every step, each
# node's register (old) and pending state (new); R/T states are written
# as lists, unwritten registers as None.

TABLE1_GRAPH = {"ids": (3, 5, 4, 1, 6), "kind": "cycle"}
TABLE1_SCHEDULE = ((1, 3, 5), (4, 5), (3, 4), (6,), (6,))
TABLE1_GRID = [
    # step 0: initial configuration
    {
        "old": {3: None, 5: None, 4: None, 1: None, 6: None},
        "new": {
            3: ["R", [3, 0, 0]],
            5: ["R", [5, 0, 0]],
            4: ["R", [4, 0, 0]],
            1: ["R", [1, 0, 0]],
            6: ["R", [6, 0, 0]],
        },
    },
    # step 1: block {1,3,5}
    {
        "old": {3: ["R", [3, 0, 0]], 5: ["R", [5, 0, 0]], 4: None, 1: ["R", [1, 0, 0]], 6: None},
        "new": {
            3: ["R", [3, 1, 0]],
            5: ["R", [5, 0, 1]],
            4: ["R", [4, 0, 0]],
            1: ["T", [0, 0], [1, 0, 0]],
            6: ["R", [6, 0, 0]],
        },
    },
    # step 2: block {4,5}
    {
        "old": {
            3: ["R", [3, 0, 0]],
            5: ["R", [5, 0, 1]],
            4: ["R", [4, 0, 0]],
            1: ["R", [1, 0, 0]],
            6: None,
        },
        "new": {
            3: ["R", [3, 1, 0]],
            5: ["T", [0, 1], [5, 0, 1]],
            4: ["R", [4, 1, 1]],
            1: ["T", [0, 0], [1, 0, 0]],
            6: ["R", [6, 0, 0]],
        },
    },
    # step 3: block {3,4}
    {
        "old": {
            3: ["R", [3, 1, 0]],
            5: ["R", [5, 0, 1]],
            4: ["R", [4, 1, 1]],
            1: ["R", [1, 0, 0]],
            6: None,
        },
        "new": {
            3: ["T", [1, 0], [3, 1, 0]],
            5: ["T", [0, 1], [5, 0, 1]],
            4: ["T", [1, 1], [4, 1, 1]],
            1: ["T", [0, 0], [1, 0, 0]],
            6: ["R", [6, 0, 0]],
        },
    },
    # step 4: block {6}
    {
        "old": {
            3: ["R", [3, 1, 0]],
            5: ["R", [5, 0, 1]],
            4: ["R", [4, 1, 1]],
            1: ["R", [1, 0, 0]],
            6: ["R", [6, 0, 0]],
        },
        "new": {
            3: ["T", [1, 0], [3, 1, 0]],
            5: ["T", [0, 1], [5, 0, 1]],
            4: ["T", [1, 1], [4, 1, 1]],
            1: ["T", [0, 0], [1, 0, 0]],
            6: ["R", [6, 0, 1]],
        },
    },
    # step 5: block {6}
    {
        "old": {
            3: ["R", [3, 1, 0]],
            5: ["R", [5, 0, 1]],
            4: ["R", [4, 1, 1]],
            1: ["R", [1, 0, 0]],
            6: ["R", [6, 0, 1]],
        },
        "new": {
            3: ["T", [1, 0], [3, 1, 0]],
            5: ["T", [0, 1], [5, 0, 1]],
            4: ["T", [1, 1], [4, 1, 1]],
            1: ["T", [0, 0], [1, 0, 0]],
            6: ["T", [0, 1], [6, 0, 1]],
        },
    },
]
TABLE1_DECISIONS = {1: (0, 0), 3: (1, 0), 4: (1, 1), 5: (0, 1), 6: (0, 1)}
TABLE1_RUNTIMES = {1: 1, 3: 2, 4: 2, 5: 2, 6: 2}

# Fixture two: the flawed 5-coloring on the 4-cycle with nodes 3-4-2-1
# (ring order).  After the prefix {2,3,4},{1,3,4}, the period {3,4}
# returns to the same configuration every two applications while nodes
# 3 and 4 stay undecided.

TABLE2_GRAPH = {"ids": (3, 4, 2, 1), "kind": "cycle"}
TABLE2_PREFIX = ((2, 3, 4), (1, 3, 4))
TABLE2_PERIOD = ((3, 4),)
TABLE2_PERIOD_APPLICATIONS = 2
TABLE2_UNDECIDED = (3, 4)
TABLE2_REPEATED_STATES = {
    3: {"old": ["R", [3, 1, 1]], "new": ["R", [3, 2, 2]]},
    4: {"old": ["R", [4, 0, 1]], "new": ["R", [4, 0, 2]]},
}


def _reproduce_table1() -> Verdict:
    graph = build_graph("cycle:5", ids=TABLE1_GRAPH["ids"])
    algo = make_algorithm("six")
    cfg = initial_configuration(graph, algo, {v: v for v in graph.nodes})
    for step_index, expected in enumerate(TABLE1_GRID):
        if step_index > 0:
            cfg = step(graph, algo, cfg, TABLE1_SCHEDULE[step_index - 1])
        for field_name, states in (("old", cfg.old), ("new", cfg.new)):
            for node, want_json in expected[field_name].items():
                want = state_from_json(want_json)
                got = states[node]
                if got != want:
                    return Verdict(
                        False,
                        "table1",
                        f"step {step_index}, node {node}, {field_name}: "
                        f"expected {want!r}, engine produced {got!r}",
                        witness=(step_index, node, field_name, want, got),
                    )
    decisions = cfg.decided()
    if decisions != TABLE1_DECISIONS:
        return Verdict(
            False, "table1", "final decisions diverge", witness=(TABLE1_DECISIONS, decisions)
        )
    runtimes = execute(graph, algo, TABLE1_SCHEDULE).runtimes
    if runtimes != TABLE1_RUNTIMES:
        return Verdict(False, "table1", "runtimes diverge", witness=(TABLE1_RUNTIMES, runtimes))
    return Verdict(True, "table1", "all 6 configurations, 5 decisions and runtimes match")


def _reproduce_table2() -> Verdict:
    graph = build_graph("cycle:4", ids=TABLE2_GRAPH["ids"])
    algo = make_algorithm("buggy5")
    cert = detect_livelock(graph, algo, TABLE2_PREFIX, TABLE2_PERIOD)
    if cert is None:
        return Verdict(False, "table2", "no livelock certificate found")
    if cert.period_applications != TABLE2_PERIOD_APPLICATIONS:
        return Verdict(
            False,
            "table2",
            f"expected a period-{TABLE2_PERIOD_APPLICATIONS} repetition, "
            f"got {cert.period_applications}",
            witness=cert.to_json(),
        )
    if cert.undecided != TABLE2_UNDECIDED:
        return Verdict(
            False, "table2", f"undecided set diverges: {cert.undecided}", witness=cert.to_json()
        )
    for node, want in TABLE2_REPEATED_STATES.items():
        got_old = cert.configuration.old[node]
        got_new = cert.configuration.new[node]
        if got_old != state_from_json(want["old"]) or got_new != state_from_json(want["new"]):
            return Verdict(
                False,
                "table2",
                f"repeated configuration diverges at node {node}",
                witness=(node, want, got_old, got_new),
            )
    return Verdict(
        True,
        "table2",
        f"configuration repeats after {cert.period_applications} period applications, "
        f"nodes {cert.undecided} never decide",
        witness=cert,
    )


def reproduce_table(which: str) -> Verdict:
    """Re-run an embedded golden fixture and compare cell by cell.

    A passing ``table2`` verdict carries the livelock certificate it found
    as its ``witness``.
    """
    if which == "table1":
        return _reproduce_table1()
    if which == "table2":
        return _reproduce_table2()
    raise ValueError(f"unknown fixture {which!r} (expected table1 or table2)")


# ---------------------------------------------------------------------------
# trace files


@dataclass
class LoadedTrace:
    """A trace file: its header record and its non-empty lines (as text once checked)."""

    header: dict
    lines: list

    @property
    def graph(self) -> Graph:
        return Graph.from_dict(self.header["graph"])


# the header fields a replay reads, with their JSON types; ``params`` may be absent
_HEADER_TYPES = {
    "graph": dict,
    "graph_hash": str,
    "algo": str,
    "inputs": dict,
    "sched": str,
    "max_steps": int,
}
_JSON_TYPE_NAMES = {dict: "an object", str: "a string", int: "an integer"}


def _lines_of(path) -> list[tuple[int, bytes]]:
    """The non-empty lines of a file, as bytes, with their line numbers (see :func:`_read_lines`)."""
    return [(lineno, line) for lineno, line in enumerate(_read_lines(path), start=1) if line]


def _check_records(path, numbered: Iterable[tuple[int, bytes]]) -> tuple[dict | None, bool, list[str]]:
    """Parse each line as a header, step or end record: the header, whether an end came, the lines."""
    header = None
    has_end = False
    lines: list[str] = []
    for lineno, line in numbered:
        raw = _decoded(path, lineno, line)
        try:
            rec = json.loads(raw)
            kind = rec.get("type")
        except (json.JSONDecodeError, AttributeError) as exc:
            raise ValueError(f"{path}:{lineno}: not a JSON record") from exc
        lines.append(raw)
        if kind == "header":
            if header is not None:
                raise ValueError(f"{path}:{lineno}: duplicate header")
            header = rec
        elif kind == "end":
            has_end = True
        elif kind != "step":
            raise ValueError(f"{path}:{lineno}: unknown record type {kind!r}")
    return header, has_end, lines


def _check_header(path, header: dict) -> None:
    """Every field a replay reads has its JSON type; params, inputs and input nodes are integers."""
    if header.get("format") != 1:
        raise ValueError(f"{path}: unsupported trace format {header.get('format')!r}")
    missing = [key for key in _HEADER_TYPES if key not in header]
    if missing:
        raise ValueError(f"{path}: trace header lacks {', '.join(missing)}")
    for key, kind in (*_HEADER_TYPES.items(), ("params", dict)):
        value = header.get(key, {})
        if type(value) is not kind:  # exact: a JSON true is no integer here
            want = _JSON_TYPE_NAMES[kind]
            raise ValueError(f"{path}: trace header {key} must be {want}, got {value!r}")
    for key in ("params", "inputs"):  # every registry algorithm takes integers in both
        for name, value in header.get(key, {}).items():
            if type(value) is not int:
                problem = f"must be an integer, got {value!r}"
            elif key == "inputs" and not name.removeprefix("-").isdecimal():
                problem = "must be keyed by an integer node"
            else:
                continue
            raise ValueError(f"{path}: trace header {key}[{json.dumps(name)}] {problem}")
    if header["sched"].partition(":")[0] == "replay":  # a trace records blocks, never a file to read
        raise ValueError(f"{path}: trace header sched may not name a file, got {header['sched']!r}")


def _checked(path, numbered: Iterable[tuple[int, bytes]]) -> LoadedTrace:
    """Every line checked as a record, then the header, as ``load_trace`` does."""
    header, has_end, lines = _check_records(path, numbered)
    if header is None or not has_end:
        raise ValueError(f"{path}: trace must contain header and end records")
    _check_header(path, header)
    return LoadedTrace(header, lines)


def load_trace(path) -> LoadedTrace:
    """Read a trace file, check every record, and keep its header and lines as text.

    Raises ValueError for bytes that are no UTF-8 (naming their line), for a
    line that is no header, step or end record, for a header lacking a field
    a replay reads or holding it with the wrong JSON type, for any ``params``
    or ``inputs`` value that is not an integer, and for a ``replay:``
    scheduling.
    """
    return _checked(path, _lines_of(path))


def algorithm_from_header(header: dict) -> Algorithm:
    """Rebuild the registry algorithm named in a trace header.

    A composition's parameters carry a ``phase1_``/``phase2_`` prefix; its
    identifier bound is phase 1's and its degree bound phase 2's.
    """
    params = header.get("params", {})
    return make_algorithm(
        header["algo"],
        id_bound=params.get("phase1_id_bound", params.get("id_bound")),
        delta=params.get("phase2_delta", params.get("delta")),
    )


def replay_trace(loaded: LoadedTrace) -> Trace:
    """Re-execute a loaded trace from its header alone, one step past the file at most.

    A file of N records holds N - 2 steps, so a replay of more than N - 1
    cannot reproduce it, and its first N lines are those of the capped one.
    The replayed trace carries the header's ``max_steps``.
    """
    from .schedulers import make_scheduling  # deferred: schedulers imports this module

    header = loaded.header
    graph = loaded.graph
    if graph.hash != header["graph_hash"]:
        raise ValueError("trace header graph does not match its recorded hash")
    algo = algorithm_from_header(header)
    inputs = {int(k): v for k, v in header["inputs"].items()}
    sched = make_scheduling(header["sched"], graph)
    max_steps = header["max_steps"]  # a negative one raises in execute
    trace = execute(graph, algo, sched, inputs=inputs, max_steps=min(max_steps, len(loaded.lines) - 1))
    trace.max_steps = max_steps
    return trace


def verify_trace_file(path, checks: list[str] | None = None) -> list[Verdict]:
    """Replay a trace file, compare it line by line, then run the named checks.

    Check names are looked up before the file is read.  The file is read once,
    as bytes, and only its first line is decoded and parsed (as the header)
    before the replay: a line equal to the replay's bytes is a well-formed
    record and needs no parse.  If anything goes wrong (the first record is no
    header or fails a header check, the replay raises, or a line differs),
    every line is first checked as ``load_trace`` checks it, so each error,
    verdict and witness is the one that loading, replaying and comparing give.
    """
    checkers = [_checker(name) for name in checks or []]
    numbered = _lines_of(path)
    lines = [line for _, line in numbered]
    try:
        header = json.loads(_decoded(path, *numbered[0]))
        if header["type"] != "header":
            raise ValueError("the first record is no header")
        _check_header(path, header)
        trace = replay_trace(LoadedTrace(header, lines))
        del header  # the parsed graph need not be held while the lines are compared
    except Exception:  # any failure takes the eager path below
        trace = None
    if trace is None:  # load_trace's error comes first; a header further down replays as before
        trace = replay_trace(_checked(path, numbered))
    replayed_lines = (line.encode() for line in trace.jsonl_lines())
    for record, (kept, replayed) in enumerate(zip_longest(lines, replayed_lines)):
        if kept != replayed:  # None past either end
            # a malformed line is an error before it is a divergence
            kept = [*_checked(path, numbered).lines, "<missing>"][record]
            witness = (kept, (replayed or b"<missing>").decode())
            detail = f"re-execution diverges from the file at record {record}"
            return [Verdict(False, "replay", detail, witness=witness)]
    verdicts = [Verdict(True, "replay", f"{len(lines)} records reproduced exactly")]
    return verdicts + [checker(trace) for checker in checkers]


CHECKS = {
    "proper": check_proper,
    "palette": check_palette,
    "parity": check_parity_reduction,
}


def _checker(name: str):
    try:
        return CHECKS[name]
    except KeyError:
        raise ValueError(f"unknown check {name!r} (expected one of {sorted(CHECKS)})")

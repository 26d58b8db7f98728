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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .algorithms import Algorithm, make_algorithm
from .engine import (
    Trace,
    detect_livelock,
    execute,
    initial_configuration,
    state_from_json,
    step,
)
from .graphs import Graph, build_graph

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


@dataclass
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


def check_palette(trace: Trace) -> Verdict:
    """Every decision lies in the palette the algorithm carried into the trace.

    Raises ValueError for a trace of an algorithm that names no palette.
    """
    palette = trace.palette
    if palette is None:
        raise ValueError(f"algorithm {trace.algo_name} names no palette to check against")
    for v, out in sorted(trace.decisions.items()):
        key = tuple(out) if isinstance(out, (list, tuple)) else out
        if key not in palette:
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


def _table1_instance():
    graph = build_graph("cycle:5", ids=TABLE1_GRAPH["ids"])
    algo = make_algorithm("six")
    return graph, algo


def _table2_instance():
    graph = build_graph("cycle:4", ids=TABLE2_GRAPH["ids"])
    algo = make_algorithm("buggy5")
    return graph, algo


def _reproduce_table1() -> Verdict:
    graph, algo = _table1_instance()
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
    graph, algo = _table2_instance()
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
    header: dict
    steps: list[dict]
    end: dict
    lines: list[str]

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


def load_trace(path) -> LoadedTrace:
    import json

    header = None
    end = None
    steps: list[dict] = []
    lines: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.rstrip("\n")
            if not raw:
                continue
            try:
                rec = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not a JSON record") from exc
            lines.append(raw)
            kind = rec.get("type")
            if kind == "header":
                if header is not None:
                    raise ValueError(f"{path}:{lineno}: duplicate header")
                header = rec
            elif kind == "step":
                steps.append(rec)
            elif kind == "end":
                end = rec
            else:
                raise ValueError(f"{path}:{lineno}: unknown record type {kind!r}")
    if header is None or end is None:
        raise ValueError(f"{path}: trace must contain header and end records")
    if header.get("format") != 1:
        raise ValueError(f"{path}: unsupported trace format {header.get('format')!r}")
    missing = [key for key in _HEADER_TYPES if key not in header]
    if missing:
        raise ValueError(f"{path}: trace header lacks {', '.join(missing)}")
    for key, kind in (*_HEADER_TYPES.items(), ("params", dict)):
        value = header.get(key, {})
        if type(value) is not kind:  # exact: a JSON true is no integer here
            raise ValueError(
                f"{path}: trace header {key} must be {_JSON_TYPE_NAMES[kind]}, got {value!r}"
            )
    return LoadedTrace(header, steps, end, lines)


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
    """Re-execute a loaded trace from its header alone."""
    from .schedulers import make_scheduling  # deferred: schedulers imports this module

    graph = loaded.graph
    if graph.hash != loaded.header["graph_hash"]:
        raise ValueError("trace header graph does not match its recorded hash")
    algo = algorithm_from_header(loaded.header)
    inputs = {int(k): v for k, v in loaded.header["inputs"].items()}
    sched = make_scheduling(loaded.header["sched"], graph)
    return execute(graph, algo, sched, inputs=inputs, max_steps=loaded.header["max_steps"])


def verify_trace_file(path, checks: list[str] | None = None) -> list[Verdict]:
    """Replay a trace file, compare byte for byte, then run named checks."""
    loaded = load_trace(path)
    trace = replay_trace(loaded)
    new_lines = list(trace.jsonl_lines())
    if new_lines != loaded.lines:
        first = next(
            (i for i, (a, b) in enumerate(zip(loaded.lines, new_lines)) if a != b),
            min(len(loaded.lines), len(new_lines)),
        )
        verdicts = [
            Verdict(
                False,
                "replay",
                f"re-execution diverges from the file at record {first}",
                witness=(
                    loaded.lines[first] if first < len(loaded.lines) else "<missing>",
                    new_lines[first] if first < len(new_lines) else "<missing>",
                ),
            )
        ]
        return verdicts
    verdicts = [Verdict(True, "replay", f"{len(new_lines)} records reproduced exactly")]
    for name in checks or []:
        verdicts.append(run_check(name, trace))
    return verdicts


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


def run_check(name: str, trace: Trace) -> Verdict:
    return _checker(name)(trace)

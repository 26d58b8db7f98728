"""Property test: any dumped run verifies, and any damaged dump is refused cleanly.

Random (algorithm, graph, scheduling spec) triples cover sync, random and
explicit specs, with and without crashes.  ``run --trace`` then ``verify``
must reproduce the file; a truncated or byte-flipped copy must end in exit
2 or ``replay: FAIL`` -- never a traceback.  A flip inside the header may
also give another valid trace (``max_steps`` 40 -> 48 replays the same
steps), so only a flip after the header must be caught.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from asynclocal.algorithms import ALGORITHM_NAMES, make_algorithm
from asynclocal.cli import main
from asynclocal.graphs import build_graph

GRAPHS = ("path:2", "path:4", "cycle:3", "cycle:5", "clique:3", "circulant:6,2")


def _fits(name, graph):
    try:
        algo = make_algorithm(name, id_bound=graph.id_bound, delta=graph.max_degree)
        algo.validate(graph, {v: algo.default_input(v) for v in graph.nodes})
    except ValueError:
        return False
    return True


PAIRS = [
    (name, spec)
    for spec in GRAPHS
    for name in ALGORITHM_NAMES
    if _fits(name, build_graph(spec))
]


@st.composite
def runs(draw):
    algo, graph = draw(st.sampled_from(PAIRS))
    nodes = build_graph(graph).nodes
    kind = draw(st.sampled_from(("sync", "random", "explicit")))
    if kind == "explicit":
        # unsorted blocks with repeats: the spec parser makes them canonical
        blocks = draw(st.lists(st.lists(st.sampled_from(nodes), min_size=1), min_size=1, max_size=8))
        return algo, graph, "explicit:" + "/".join(",".join(map(str, b)) for b in blocks)
    parts = []
    if kind == "random":
        parts = [
            f"seed={draw(st.integers(0, 999))}",
            f"p={draw(st.sampled_from(('0.3', '0.5', '1.0')))}",
            f"crash={draw(st.sampled_from(('0.0', '0.2')))}",
        ]
    crashes = draw(st.dictionaries(st.sampled_from(nodes), st.integers(0, 4)))
    if crashes:
        parts.append("crashes=" + "|".join(f"{v}@{t}" for v, t in crashes.items()))
    return algo, graph, kind + (":" + ",".join(parts) if parts else "")


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue().splitlines()


@settings(max_examples=30, deadline=None)
@given(run=runs(), damage=st.tuples(st.booleans(), st.floats(0, 1, exclude_max=True), st.integers(1, 255)))
def test_a_dump_verifies_and_a_damaged_dump_is_refused(run, damage):
    algo, graph, spec = run
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.jsonl")
        code, _ = cli("run", "--algo", algo, "--graph", graph, "--sched", spec,
                      "--max-steps", "40", "--trace", path)
        assert code == 0
        code, out = cli("verify", "--trace", path)
        assert code == 0 and out[0].startswith("replay: pass")

        with open(path, "rb") as fh:
            data = fh.read()
        truncate, where, xor = damage
        if truncate:  # keep a strict prefix that lacks more than the last newline
            pos = int(where * (len(data) - 1))
            bad = data[:pos]
        else:
            pos = int(where * len(data))
            bad = data[:pos] + bytes([data[pos] ^ xor]) + data[pos + 1:]
        with open(path, "wb") as fh:
            fh.write(bad)
        code, out = cli("verify", "--trace", path)
        if truncate or pos > data.index(b"\n"):
            assert code == 2 or (code == 1 and out[0].startswith("replay: FAIL"))
        else:
            assert code in (0, 1, 2)

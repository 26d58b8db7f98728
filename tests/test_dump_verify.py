"""Property test: any dumped run verifies, and any damaged dump is refused cleanly.

Random (algorithm, graph, scheduling spec) triples cover sync, random and
explicit specs, with and without crashes.  ``run --trace`` then ``verify``
must reproduce the file; a truncated or byte-flipped copy must end in exit
2 or ``replay: FAIL`` -- never a traceback.  A flip inside the header may
also give another valid trace (``max_steps`` 40 -> 48 replays the same
steps), so only a flip after the header must be caught.

``verify_trace_file`` compares bytes first and parses the other lines only
when something does not reproduce; an eager reference (load, replay, then
compare every line) pins that it raises and answers exactly as before.
"""

import contextlib
import io
import json
import os
import tempfile
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asynclocal import engine, graphs, verify
from asynclocal.algorithms import ALGORITHM_NAMES, make_algorithm
from asynclocal.cli import main
from asynclocal.graphs import build_graph
from asynclocal.schedulers import make_scheduling

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


def eager_verify(path, checks):
    """The reference: load and check every record, replay, then compare every line."""
    checkers = [verify.CHECKS[name] for name in checks]
    loaded = verify.load_trace(path)
    trace = verify.replay_trace(loaded)
    pairs = zip_longest(loaded.lines, list(trace.jsonl_lines()), fillvalue="<missing>")
    for record, (kept, replayed) in enumerate(pairs):
        if kept != replayed:
            detail = f"re-execution diverges from the file at record {record}"
            return [verify.Verdict(False, "replay", detail, witness=(kept, replayed))]
    verdicts = [verify.Verdict(True, "replay", f"{len(loaded.lines)} records reproduced exactly")]
    return verdicts + [checker(trace) for checker in checkers]


def outcome(verify_fn, path, checks):
    try:
        verdicts = verify_fn(path, checks)
    except Exception as exc:
        return type(exc), str(exc)
    return [(v.render(), v.witness) for v in verdicts]


HEADER_KEYS = ("format", "graph", "graph_hash", "algo", "params", "inputs", "sched", "max_steps")
WRONG_VALUES = ("1", [1], True, 1.5, None, {"x": 1})


@st.composite
def damages(draw, size):
    kind = draw(st.sampled_from(
        ("truncate", "flip", "delete", "duplicate", "swap", "append", "header_field", "header_moved")
    ))
    line = st.integers(0, size - 1)
    if kind in ("truncate", "flip"):
        return kind, draw(st.floats(0, 1, exclude_max=True)), draw(st.integers(1, 255))
    if kind in ("delete", "duplicate"):
        return kind, draw(line)
    if kind == "swap":
        return kind, draw(line), draw(line)
    if kind == "header_field":
        return kind, draw(st.sampled_from(HEADER_KEYS)), draw(st.sampled_from(WRONG_VALUES))
    if kind == "header_moved":
        return kind, draw(st.integers(1, size - 1))
    return (kind,)


def damaged(data, damage):
    kind, *args = damage
    if kind == "truncate":
        return data[: int(args[0] * (len(data) - 1))]
    if kind == "flip":
        pos, xor = int(args[0] * len(data)), args[1]
        return data[:pos] + bytes([data[pos] ^ xor]) + data[pos + 1:]
    if kind == "append":
        return data + b"[1]\n"
    lines = data.decode().splitlines()
    if kind == "delete":
        del lines[args[0]]
    elif kind == "duplicate":
        lines.insert(args[0], lines[args[0]])
    elif kind == "swap":
        i, j = args
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "header_field":
        header = json.loads(lines[0])
        header[args[0]] = args[1]
        lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
    elif kind == "header_moved":
        lines.insert(args[0], lines.pop(0))
    return ("\n".join(lines) + "\n").encode()


@settings(max_examples=60, deadline=None)
@given(run=runs(), checks=st.sampled_from(([], ["proper"], ["proper", "palette"])), data=st.data())
def test_verify_answers_as_the_eager_reference_on_damaged_dumps(run, checks, data):
    algo, graph, spec = run
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.jsonl")
        code, _ = cli("run", "--algo", algo, "--graph", graph, "--sched", spec,
                      "--max-steps", "40", "--trace", path)
        assert code == 0
        with open(path, "rb") as fh:
            good = fh.read()
        assert outcome(verify.verify_trace_file, path, checks) == outcome(eager_verify, path, checks)
        damage = data.draw(damages(good.count(b"\n")))
        with open(path, "wb") as fh:
            fh.write(damaged(good, damage))
        assert outcome(verify.verify_trace_file, path, checks) == outcome(eager_verify, path, checks)


def linial_trace():
    graph = build_graph("cycle:8")
    algo = make_algorithm("linial+save1", id_bound=graph.id_bound, delta=graph.max_degree)
    return engine.execute(graph, algo, make_scheduling("random:seed=3,p=0.5,crash=0.1", graph))


@pytest.mark.parametrize("where", [1, 9000])
def test_a_bad_record_before_undecodable_bytes_is_reported_as_load_trace_does(tmp_path, where):
    # whether or not the bytes share the bad record's chunk, every line before them is checked first
    path = tmp_path / "run.jsonl"
    linial_trace().dump(path)
    header = path.read_bytes().split(b"\n")[0]
    path.write_bytes(header + b"\nnot json\n" + b"\n" * where + b"\xff\n")
    expected = outcome(eager_verify, path, [])
    assert outcome(verify.verify_trace_file, path, []) == expected
    assert expected == (ValueError, f"{path}:2: not a JSON record")


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
@pytest.mark.parametrize("bad_line, padding", [(4, 0), (15, 12), (4, 9000), (2, 20000)])
def test_undecodable_bytes_are_reported_on_their_line(tmp_path, newline, bad_line, padding):
    # line breaks count as text mode counts them; the bytes may sit in the first chunk or far past it
    path = tmp_path / "run.jsonl"
    linial_trace().dump(path)
    lines = path.read_bytes().split(b"\n")[:-1]
    lines[1:1] = [b""] * padding  # blank lines are no records, but they are lines
    assert len(lines) >= bad_line
    lines.insert(bad_line - 1, b"\xff")
    path.write_bytes(newline.join(lines) + newline)
    expected = (ValueError, f"{path}: bytes that are no UTF-8 on line {bad_line}")
    assert outcome(eager_verify, path, []) == expected
    assert outcome(verify.verify_trace_file, path, []) == expected


def test_a_bad_byte_inside_a_record_names_that_record_line(tmp_path):
    path = tmp_path / "run.jsonl"
    linial_trace().dump(path)
    lines = path.read_bytes().split(b"\n")
    lines[6] = lines[6][:10] + b"\xc3" + lines[6][10:]  # a lead byte with no continuation
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ValueError, match=f"bytes that are no UTF-8 on line 7$"):
        verify.load_trace(path)


@pytest.mark.parametrize("damage", ["none", "diverging", "undecodable"])
def test_a_trace_file_is_opened_once(tmp_path, monkeypatch, damage):
    path = tmp_path / "run.jsonl"
    linial_trace().dump(path)
    lines = path.read_bytes().split(b"\n")
    if damage == "diverging":
        lines[3] = lines[4]
    elif damage == "undecodable":
        lines[5] = b"\xff"
    path.write_bytes(b"\n".join(lines))

    opened = []

    def spy(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(graphs, "open", spy, raising=False)  # the shared line reader
    for fn in (verify.verify_trace_file, verify.load_trace):
        opened.clear()
        with contextlib.suppress(ValueError):  # the undecodable file is refused
            fn(path)
        assert opened == [path]


def test_a_file_that_reproduces_is_parsed_only_at_its_header(tmp_path, monkeypatch):
    path = tmp_path / "run.jsonl"
    linial_trace().dump(path)

    def refuse(*args):
        raise AssertionError("a file that reproduces took the eager path")

    monkeypatch.setattr(verify, "_check_records", refuse)
    monkeypatch.setattr(verify, "load_trace", refuse)
    verdicts = verify.verify_trace_file(path, ["proper", "palette"])
    assert [v.ok for v in verdicts] == [True, True, True]


def test_a_refused_header_is_never_replayed(tmp_path, monkeypatch):
    path = tmp_path / "run.jsonl"
    linial_trace().dump(path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["max_steps"] = 1e12
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")

    replays = []
    monkeypatch.setattr(verify, "replay_trace", replays.append)
    with pytest.raises(ValueError, match=r"trace header max_steps must be an integer, got 1000000000000\.0$"):
        verify.verify_trace_file(path)
    assert replays == []


def test_a_header_shaped_step_on_line_one_is_not_replayed_as_the_header(tmp_path):
    path = tmp_path / "run.jsonl"
    linial_trace().dump(path)
    lines = path.read_text().splitlines()
    impostor = dict(json.loads(lines[0]), type="step", sched="sync")
    path.write_text("\n".join([json.dumps(impostor)] + lines) + "\n")
    verdicts = outcome(verify.verify_trace_file, path, [])
    assert verdicts == outcome(eager_verify, path, [])
    assert verdicts[0][1] == (json.dumps(impostor), lines[0])


def test_the_trace_encoder_writes_the_bytes_of_json_dumps():
    trace = linial_trace()
    records = [trace.header_json(), *(rec.to_json() for rec in trace.steps), trace.end_json()]
    assert len(records) > 2
    for rec in records:
        assert engine._dumps(rec) == json.dumps(rec, sort_keys=True, separators=(",", ":"))

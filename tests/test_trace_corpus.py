"""Byte-identity of trace dumps over a fixed corpus of runs.

Each corpus entry is an (algorithm, graph, scheduling) triple.  The test
dumps the recorded trace and compares the sha256 of the file with a
pinned digest, so any change to the step semantics, the random block
streams, the crash draws or the trace format-1 encoding shows up here.
It also checks that a run without recording agrees with the recorded one.

The corpus covers all seven registry names, ``linial`` with one and two
reduction rounds (``cycle:50`` and ``cycle:200``), a round over the
tabulated field GF(9) (``tree:150,4,5``) and three rounds (``cycle:60``
with id bound 10^12), and ``sync``,
``random`` with crashes and ``explicit`` schedulings in which some nodes
stop appearing, ``random`` at p = 1 with crashes and without, which
seeds no generator, and ``save1`` on ``path:9`` and a degree-4 tree, whose
low-degree nodes read snapshots padded up to the arity.
"""

import hashlib

import pytest

from asynclocal.algorithms import ALGORITHM_NAMES, make_algorithm
from asynclocal.engine import execute
from asynclocal.graphs import build_graph, random_tree
from asynclocal.schedulers import make_scheduling

RING5 = ("cycle:5", (3, 5, 4, 1, 6))
RING4 = ("cycle:4", (3, 4, 2, 1))


def _graph(graph):
    """``("tree", args)``, or ``(spec, ids)`` with an optional third entry, the id bound."""
    if graph[0] == "tree":
        return random_tree(*graph[1])
    spec, ids, *id_bound = graph
    return build_graph(spec, ids=list(ids) if ids else None, id_bound=id_bound[0] if id_bound else None)


def _algorithm(name, graph):
    kwargs = {}
    if name not in ("six", "buggy5"):
        kwargs["delta"] = graph.max_degree
    if "linial" in name:
        kwargs["id_bound"] = graph.id_bound
    return make_algorithm(name, **kwargs)


# (algorithm, graph, scheduling spec, max_steps) -> sha256 of the dump
CORPUS = [
    ("six", RING5, "sync", 1000,
     "1351680f7203e945ca70923643df3618dac5738afa7880dc5646f58fbbffff8b"),
    ("six", RING5, "random:seed=3,p=0.5,crash=0.3", 1000,
     "e2caec94f0376a502604d48d063966019af68ae9c10c773547616153ec19355d"),
    ("six", RING5, "explicit:1,3,5/4,5/3,4/6/6", 1000,
     "04bde12da1f0d3e875fff9dbdf3c04e9001c3130135934dbfee2c42803999621"),
    ("buggy5", RING4, "explicit:2,3,4/1,3,4/3,4/3,4/3,4/3,4", 1000,
     "38d5abf9ff3df9102d4c319a5463255f4022a33075c049ecfe2d3e4f9b3640a7"),
    ("six", RING5, "random:seed=21,p=0.5,crash=0.2,crashes=3@2", 1000,
     "a923a5c02e200140d9d829484349a721c36693fddd1a7794667aff272eaeb58e"),
    ("buggy5", RING4, "sync:crashes=1@2", 60,
     "b753abf22e2965262795b4aa2b4205730afedc2c3fe0fd677e3ef28ec57fb682"),
    ("save", ("tree", (20, 4, 5)), "random:seed=11,p=0.3,crash=0.25", 1000,
     "49d1429c39dd676a128f1364d94484db768acd1f84d14e8f73810b00c0e6de0a"),
    ("save1", ("circulant:7,2", None), "sync:crashes=2@1|5@3", 1000,
     "0b559d50b58fabf708156f50d36e8535df34d6f74a01e474c180193df61fa83b"),
    ("save1", ("cycle:9", None), "explicit:1,2,3/4,5,6,7,8,9/1,2/3,4,5/6,7/8,9/9", 1000,
     "c072c77328cb6019463b9303af507d67aef782f88828cf7c84d5b774b057ac35"),
    ("linial", ("cycle:50", None), "random:seed=4,p=0.5,crash=0.1", 1000,
     "1280b93a1b1ad7d047eeb7e94e1848d0ea2aab1b7a8e751eacff791ff16d5b96"),
    ("linial", ("cycle:200", None), "sync:crashes=7@1|8@2", 1000,
     "42d5c127fd391da5c1ea0c9667da127dc9203f21775d3d9e3f6a11f0ad5bc541"),
    ("linial+save", ("cycle:50", None), "random:seed=9,p=0.8,crash=0.25", 1000,
     "c98d81a9e087891a57c7cfe9ccbf924fe1c51806535cfbd6e033b1bd062f9b55"),
    ("linial+save", ("tree", (30, 3, 2)), "random:seed=2,p=0.5,crash=0.1", 1000,
     "260d75ba962a345679e1ff6aa15bac78cff238fcf60c5889a54f132dbd50ef06"),
    ("linial+save1", ("cycle:200", None), "random:seed=5,p=0.5,crash=0.1", 1000,
     "7ac7166b90649c895fc557640a17209c24c71719b5ccdc609f769fb6d20c3ce2"),
    ("linial+save1", ("cycle:12", None), "random:seed=17,p=1.0,crash=0.25", 1000,
     "9aac1e6b67fa4d957db7734e84256a9b59163ae34d79c04d8b33791cb9e06328"),
    ("linial+save1", ("cycle:30", None), "random:seed=6,p=1.0,crash=0.0", 1000,
     "fdccf93a1b9c59ed837616bcc575b916d16f38c0388ccfe454571ff8f1f4a7c7"),
    ("linial+save1", ("cycle:50", None), "explicit:1,2,3,4,5/6,7,8/1,2,3,4,5,6,7,8,9,10", 1000,
     "8d4547cf2e379a53d32484841aa70ba87eb2453b55e5cc770056bee2eccf3895"),
    # Linial rounds over a tabulated field (GF(9)), and three rounds (GF(19), GF(7), GF(5))
    ("linial+save", ("tree:150,4,5", None), "random:seed=8,p=0.5,crash=0.1", 1000,
     "85be46387f693d64c1b6f2cde1f3972f83e402ba0fec43e5ef7b1069a837dfd9"),
    ("linial+save1", ("cycle:60", None, 10**12), "random:seed=8,p=0.5,crash=0.1", 1000,
     "085f361c44d59c45cd82784dba9a3bc6b0344359b597e9a16d15924407355041"),
    # nodes of degree below the arity: their snapshots are padded with Bottom
    ("save1", ("path:9", None), "random:seed=2,p=0.3,crash=0.1", 1000,
     "d15266e1cf5866b622dd59482e89b26ce1c5ad0b5c2cab793df9ca30688ad44a"),
    ("save1", ("tree", (12, 4, 8)), "sync:crashes=3@2", 1000,
     "1e09b6f18227e094a0fb9dc22698b5af6b4b65626518c90ccac3951236e0e469"),
]


def _run(entry, record):
    name, graph_spec, sched, max_steps, _ = entry
    graph = _graph(graph_spec)
    algo = _algorithm(name, graph)
    return execute(graph, algo, make_scheduling(sched, graph), max_steps=max_steps, record=record)


def _ids(entry):
    return f"{entry[0]}-{entry[1][0]}-{entry[2]}"


@pytest.mark.parametrize("entry", CORPUS, ids=_ids)
def test_dump_bytes_are_pinned(entry, tmp_path):
    path = tmp_path / "trace.jsonl"
    _run(entry, record=True).dump(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == entry[-1]


@pytest.mark.parametrize("entry", CORPUS, ids=_ids)
def test_recording_does_not_change_the_outcome(entry):
    full = _run(entry, record=True)
    slim = _run(entry, record=False)
    assert slim.step_count == full.step_count
    assert slim.decisions == full.decisions
    assert slim.decision_steps == full.decision_steps
    assert slim.runtimes == full.runtimes


def test_corpus_covers_every_registry_name_and_linial_rounds():
    assert {e[0] for e in CORPUS} == set(ALGORITHM_NAMES)
    rounds = set()
    for name, graph_spec, *_ in CORPUS:
        if name.startswith("linial"):
            graph = _graph(graph_spec)
            rounds.add(make_algorithm("linial", id_bound=graph.id_bound, delta=graph.max_degree).rounds)
    assert {1, 2} <= rounds


def test_corpus_covers_a_tabulated_field_and_three_linial_rounds():
    orders = set()
    for name, graph_spec, *_ in CORPUS:
        if name.startswith("linial"):
            graph = _graph(graph_spec)
            schedule = make_algorithm("linial", id_bound=graph.id_bound, delta=graph.max_degree).schedule
            orders.add(tuple(fam.q for fam in schedule.families))
    assert {(9,), (19, 7, 5)} <= orders

import hashlib
import json

import pytest

from asynclocal import cli as cli_mod
from asynclocal import verify as verify_mod
from asynclocal.cli import main
from asynclocal.coverfree import construct_family
from asynclocal.engine import detect_livelock
from asynclocal.graphs import build_graph, dump_graph
from asynclocal.schedulers import GUARD_ENV


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def first_json(lines):
    return json.loads(lines[0])


class TestRepro:
    def test_table_one(self, capsys):
        code, out, _ = run_cli(capsys, "repro", "table1")
        assert code == 0
        assert out[-1].startswith("table1: pass")

    def test_table_two_prints_the_certificate(self, capsys):
        code, out, _ = run_cli(capsys, "repro", "table2")
        assert code == 0
        cert = first_json(out)
        assert cert["period"] == [[3, 4]]
        assert cert["undecided"] == [3, 4]
        assert out[-1].startswith("table2: pass")


class TestRun:
    def test_summary_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--algo", "six", "--graph", "cycle:5", "--check", "proper,palette"
        )
        assert code == 0
        summary = first_json(out)
        assert summary["algo"] == "six"
        assert summary["complete"] is True
        assert len(summary["decisions"]) == 5
        assert out[1].startswith("proper: pass")
        assert out[2].startswith("palette: pass")

    def test_round_trip_with_verify(self, capsys, tmp_path):
        path = tmp_path / "run.jsonl"
        code, _, err = run_cli(
            capsys,
            "run",
            "--algo",
            "linial+save1",
            "--graph",
            "cycle:8",
            "--sched",
            "random:seed=3",
            "--trace",
            str(path),
        )
        assert code == 0
        assert "trace written" in err
        code, out, _ = run_cli(
            capsys, "verify", "--trace", str(path), "--check", "proper,palette"
        )
        assert code == 0
        assert out[0].startswith("replay: pass")
        assert out[1].startswith("proper: pass")
        assert out[2].startswith("palette: pass")

    def test_tampered_trace_fails_verification(self, capsys, tmp_path):
        path = tmp_path / "run.jsonl"
        run_cli(capsys, "run", "--algo", "six", "--graph", "cycle:4", "--trace", str(path))
        text = path.read_text().replace('"complete":true', '"complete":false')
        path.write_text(text)
        code, out, _ = run_cli(capsys, "verify", "--trace", str(path))
        assert code == 1
        assert out[0].startswith("replay: FAIL")

    def test_explicit_ids_and_scheduling(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "run",
            "--algo",
            "six",
            "--graph",
            "cycle:5",
            "--ids",
            "3,5,4,1,6",
            "--sched",
            "explicit:1,3,5/4,5/3,4/6/6",
        )
        assert code == 0
        summary = first_json(out)
        assert summary["decisions"] == {
            "1": [0, 0],
            "3": [1, 0],
            "4": [1, 1],
            "5": [0, 1],
            "6": [0, 1],
        }
        assert summary["max_runtime"] == 2

    def test_replay_trace_outlives_its_scheduling_file(self, capsys, tmp_path):
        sched = tmp_path / "sched.txt"
        sched.write_text("1 3\n2 4\n1 2 3 4\n4\n")
        path = tmp_path / "run.jsonl"
        code, _, _ = run_cli(
            capsys, "run", "--algo", "six", "--graph", "cycle:4",
            "--sched", f"replay:{sched}", "--trace", str(path),
        )
        assert code == 0
        assert json.loads(path.read_text().splitlines()[0])["sched"] == "explicit:1,3/2,4/1,2,3,4/4"
        sched.write_text("1\n")
        code, out, _ = run_cli(capsys, "verify", "--trace", str(path))
        assert code == 0
        assert out[0].startswith("replay: pass")
        sched.unlink()
        code, out, _ = run_cli(capsys, "verify", "--trace", str(path))
        assert code == 0
        assert out[0].startswith("replay: pass")

    def test_unknown_algorithm(self, capsys):
        code, _, err = run_cli(capsys, "run", "--algo", "rainbow", "--graph", "cycle:4")
        assert code == 2
        assert err

    def test_enumeration_scheduling_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--algo", "six", "--graph", "path:2", "--sched", "enum:depth=2"
        )
        assert code == 2
        assert err

    def test_missing_trace_file(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "verify", "--trace", str(tmp_path / "nope.jsonl"))
        assert code == 2


class TestSearch:
    def test_flawed_rule_livelock_found(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "search",
            "--algo",
            "buggy5",
            "--graph",
            "cycle:4",
            "--property",
            "periodic-termination",
            "--budget",
            "5000",
        )
        assert code == 1
        payload = first_json(out)
        assert payload["found"] is True
        assert payload["sched"].startswith("explicit:")
        assert payload["certificate"]["period"]

    def test_correct_rule_survives_the_budget(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--algo", "six", "--graph", "cycle:5", "--budget", "25"
        )
        assert code == 0
        payload = first_json(out)
        assert payload == {"found": False, "examined": 25, "property": "proper"}

    def test_exhaustive_mode(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "search",
            "--algo",
            "six",
            "--graph",
            "path:2",
            "--sched",
            "enum:depth=2",
        )
        assert code == 0
        payload = first_json(out)
        assert payload == {"found": False, "examined": 12, "property": "proper"}

    @pytest.mark.parametrize("budget, examined", [("0", 0), ("5", 5)])
    def test_exhaustive_mode_stops_at_the_budget(self, capsys, budget, examined):
        code, out, _ = run_cli(
            capsys, "search", "--algo", "six", "--graph", "path:2",
            "--sched", "enum:depth=2", "--budget", budget,
        )
        assert code == 0
        assert first_json(out) == {"found": False, "examined": examined, "property": "proper"}

    def test_exhaustive_mode_rejects_a_negative_budget(self, capsys):
        code, out, err = run_cli(
            capsys, "search", "--algo", "six", "--graph", "path:2",
            "--sched", "enum:depth=2", "--budget", "-5",
        )
        assert code == 2
        assert out == []
        assert err.splitlines() == ["error: budget must be non-negative, got -5"]

    @pytest.mark.parametrize("sched", ["random:seed=1", "sync", "explicit:1/2", ""])
    def test_a_non_enumeration_scheduling_is_rejected(self, capsys, sched):
        code, out, err = run_cli(
            capsys, "search", "--algo", "six", "--graph", "cycle:5", "--sched", sched
        )
        assert code == 2
        assert out == []
        assert err.splitlines() == [f"error: search --sched takes enum:depth=D only, got {sched!r}"]

    def test_exhaustive_mode_guard(self, capsys):
        code, _, err = run_cli(
            capsys,
            "search",
            "--algo",
            "six",
            "--graph",
            "cycle:6",
            "--sched",
            "enum:depth=2",
        )
        assert code == 2
        assert "guard" in err.lower() or err

    def test_periodic_search_guards_the_node_count(self, capsys, monkeypatch):
        monkeypatch.delenv(GUARD_ENV, raising=False)
        code, out, err = run_cli(
            capsys, "search", "--algo", "six", "--graph", "cycle:19",
            "--property", "periodic-termination", "--budget", "1",
        )
        assert code == 2
        assert out == []
        assert err.splitlines() == [
            "error: the periodic search over 19 nodes is guarded: it lists all 2^n - 1 "
            f"blocks first (limit: 12 nodes) (set {GUARD_ENV}=1 to override)"
        ]

    @pytest.mark.parametrize(
        "graph, depth, message",
        [
            ("path:2", 0, "depth must be positive, got 0"),
            ("cycle:6", 2, "enumeration over 6 nodes at depth 2 is guarded (limits: 5 nodes, "
             f"depth 6) (set {GUARD_ENV}=1 to override)"),
        ],
        ids=["depth-zero", "guarded-size"],
    )
    def test_enumeration_arguments_are_checked_before_the_budget(
        self, capsys, monkeypatch, graph, depth, message
    ):
        monkeypatch.delenv(GUARD_ENV, raising=False)
        code, out, err = run_cli(
            capsys, "search", "--algo", "six", "--graph", graph,
            "--sched", f"enum:depth={depth}", "--budget", "0",
        )
        assert code == 2
        assert out == []
        assert err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--property", "periodic-termination", "--max-steps", "-1"),
             "max_steps must be non-negative, got -1"),
            (("--property", "periodic-termination", "--max-steps", "50"),
             "the periodic-termination search takes no max_steps"),
            (("--property", "periodic-termination", "--seed", "7"),
             "the periodic-termination search takes no seed"),
            (("--property", "periodic-termination", "--trace", "witness.jsonl"),
             "search --trace does not apply to periodic-termination"),
            (("--sched", "enum:depth=2", "--seed", "99"),
             "the enum:depth=2 search takes no seed"),
            (("--sched", "enum:depth=2,foo=1"), "unknown enum parameters ['foo']"),
            (("--sched", "enum:depth=x"),
             "enum spec needs depth=D with an integer D, got 'enum:depth=x'"),
            (("--sched", "enum:"), "enum spec needs depth=D with an integer D, got 'enum:'"),
        ],
        ids=["periodic-negative-max-steps", "periodic-max-steps", "periodic-seed", "periodic-trace",
             "enum-seed", "enum-unknown-key", "enum-malformed-depth", "enum-missing-depth"],
    )
    def test_an_option_the_mode_does_not_read_is_rejected(self, capsys, argv, message):
        code, out, err = run_cli(
            capsys, "search", "--algo", "six", "--graph", "path:2", "--budget", "3", *argv
        )
        assert code == 2
        assert out == []
        assert err.splitlines() == [f"error: {message}"]

    def test_exhaustive_mode_rejects_livelock_properties(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "search",
            "--algo",
            "buggy5",
            "--graph",
            "path:2",
            "--sched",
            "enum:depth=2",
            "--property",
            "periodic-termination",
        )
        assert code == 2


class TestCoverfree:
    def test_construct_verify_and_dump(self, capsys, tmp_path):
        path = tmp_path / "family.txt"
        code, out, err = run_cli(
            capsys, "coverfree", "--k", "2", "--m", "25", "--dump", str(path)
        )
        assert code == 0
        payload = first_json(out)
        assert payload == {
            "k": 2,
            "m": 25,
            "q": 5,
            "d": 2,
            "ground": 25,
            "verified": True,
        }
        assert path.read_text().splitlines()[0] == "2 25 2 5 25"
        assert "family written" in err

    def test_bad_parameters(self, capsys):
        code, _, _ = run_cli(capsys, "coverfree", "--k", "0", "--m", "5")
        assert code == 2

    @pytest.mark.parametrize("k, m", [(1, 50_001), (3, 50_001), (10, 15_001)])
    def test_a_large_family_is_guarded(self, capsys, monkeypatch, k, m):
        monkeypatch.delenv(GUARD_ENV, raising=False)
        code, out, err = run_cli(capsys, "coverfree", "--k", str(k), "--m", str(m))
        assert code == 2
        assert out == []
        assert err.splitlines() == [
            f"error: a cover-free family of {m} sets at k = {k} is guarded "
            f"(limit: m * max(k, 3) <= 150000) (set {GUARD_ENV}=1 to override)"
        ]

    def test_the_override_lifts_the_guard(self, capsys, monkeypatch):
        monkeypatch.setenv(GUARD_ENV, "1")
        built = []
        monkeypatch.setattr(
            cli_mod, "construct_family", lambda k, m: built.append((k, m)) or construct_family(2, 25)
        )
        code, out, _ = run_cli(capsys, "coverfree", "--k", "3", "--m", "50001")
        assert (code, built) == (0, [(3, 50_001)])
        assert first_json(out)["verified"] is True


class TestWsb:
    def test_binom_prime(self, capsys):
        code, out, _ = run_cli(capsys, "wsb", "binom", "--n", "5")
        assert code == 0
        assert out[0].startswith("binom: pass")

    def test_binom_composite(self, capsys):
        code, _, _ = run_cli(capsys, "wsb", "binom", "--n", "6")
        assert code == 2

    def test_count(self, capsys):
        code, out, _ = run_cli(capsys, "wsb", "count", "--algo", "const1", "--n", "2")
        assert code == 0
        payload = first_json(out)
        assert payload["count"] == -1
        assert payload["executions"] == 3
        assert payload["c1_size"] == 3

    def test_count_trimmed(self, capsys):
        code, out, _ = run_cli(
            capsys, "wsb", "count", "--algo", "const1", "--n", "2", "--trim"
        )
        assert code == 0
        payload = first_json(out)
        assert payload["algo"] == "trim:const1"
        assert payload["count"] == -1
        assert payload["c1_size"] == 0

    def test_unknown_toy(self, capsys):
        code, _, _ = run_cli(capsys, "wsb", "count", "--algo", "rainbow", "--n", "2")
        assert code == 2

    def test_family(self, capsys):
        code, out, _ = run_cli(capsys, "wsb", "family", "--n", "5")
        assert code == 0
        payload = first_json(out)
        assert payload["size"] == 24
        assert payload["ok"] is True
        assert payload["closed"] is True
        assert payload["divisible_by_n"] is False

    @pytest.mark.parametrize(
        "n,size,prime,divisible", [(7, 720, True, False), (8, 5040, False, True)]
    )
    def test_family_reaches_eight_processes(self, capsys, monkeypatch, n, size, prime, divisible):
        monkeypatch.delenv(GUARD_ENV, raising=False)
        code, out, _ = run_cli(capsys, "wsb", "family", "--n", str(n))
        assert code == 0
        payload = first_json(out)
        assert (payload["size"], payload["prime"], payload["divisible_by_n"]) == (size, prime, divisible)
        assert payload["closed"] is True and payload["ok"] is True

    def test_count_reaches_eight_processes(self, capsys, monkeypatch):
        monkeypatch.delenv(GUARD_ENV, raising=False)
        code, out, _ = run_cli(capsys, "wsb", "count", "--algo", "const0", "--n", "8")
        assert code == 0
        payload = first_json(out)
        assert (payload["executions"], payload["truncated"], payload["count"]) == (545_835, 0, 1)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("count", "--algo", "const0", "--n", "9"), "signed counts over clique(9) explode"),
            (("family", "--n", "9"), "the (n-1)! cyclic orderings of 9 processes explode"),
            (("class", "--algo", "const0", "--n", "4"), "exhaustive enumeration over clique(4) explodes"),
        ],
        ids=["count", "family", "class"],
    )
    def test_guards(self, capsys, monkeypatch, argv, message):
        monkeypatch.delenv(GUARD_ENV, raising=False)
        code, out, err = run_cli(capsys, "wsb", *argv)
        assert code == 2
        assert out == []
        assert err.splitlines() == [f"error: {message} (set {GUARD_ENV}=1 to override)"]

    @pytest.mark.parametrize("command", ["count", "class"])
    def test_negative_step_bound(self, capsys, command):
        code, out, err = run_cli(
            capsys, "wsb", command, "--algo", "const0", "--n", "3", "--step-bound", "-1"
        )
        assert code == 2
        assert out == []
        assert err.splitlines() == ["error: step_bound must be non-negative, got -1"]

    def test_a_huge_step_bound_on_a_wait_free_rule(self, capsys):
        code, out, _ = run_cli(
            capsys, "wsb", "count", "--algo", "const0", "--n", "3", "--step-bound", "1000000000"
        )
        assert code == 0
        payload = first_json(out)
        assert (payload["executions"], payload["truncated"], payload["step_bound"]) == (13, 0, 10**9)

    def test_class_sizes(self, capsys):
        code, out, _ = run_cli(capsys, "wsb", "class", "--algo", "const0", "--n", "3")
        assert code == 0
        payload = first_json(out)
        assert payload["executions"] == 13
        assert payload["class_size_by_sim"] == {"0": 1, "1": 3, "2": 3}
        assert payload["mismatches"] == []


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_missing_required_option(self, capsys):
        assert run_cli(capsys, "run", "--graph", "cycle:4")[0] == 2

    def test_unknown_property_choice(self, capsys):
        code, _, _ = run_cli(
            capsys, "search", "--algo", "six", "--graph", "cycle:4", "--property", "magic"
        )
        assert code == 2

    @pytest.mark.parametrize("prop", ["proper", "periodic-termination"])
    def test_negative_budget(self, capsys, prop):
        code, out, err = run_cli(
            capsys, "search", "--algo", "six", "--graph", "cycle:5",
            "--property", prop, "--budget", "-5",
        )
        assert code == 2
        assert out == []
        assert err.splitlines() == ["error: budget must be non-negative, got -5"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "--algo", "six", "--graph", "cycle:5", "--max-steps", "-3"),
            ("search", "--algo", "six", "--graph", "cycle:5", "--max-steps", "-1"),
        ],
        ids=["run", "search"],
    )
    def test_negative_max_steps(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == []
        assert err.splitlines() == [f"error: max_steps must be non-negative, got {argv[-1]}"]

    def test_verify_rejects_a_negative_max_steps_header(self, capsys, tmp_path):
        path = tmp_path / "run.jsonl"
        run_cli(capsys, "run", "--algo", "six", "--graph", "cycle:4", "--trace", str(path))
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["max_steps"] = -2
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        code, out, err = run_cli(capsys, "verify", "--trace", str(path))
        assert code == 2
        assert out == []
        assert err.splitlines() == ["error: max_steps must be non-negative, got -2"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("search", "--algo", "six", "--graph", "cycle:4", "--property", "proper-coloring"),
            ("search", "--algo", "buggy5", "--graph", "cycle:4",
             "--property", "termination-under-periodic-schedules"),
            ("run", "--algo", "six", "--graph", "cycle:4", "--check", "proper-coloring"),
        ],
        ids=["proper-coloring", "termination-under-periodic-schedules", "check"],
    )
    def test_one_spelling_per_property(self, capsys, argv):
        assert run_cli(capsys, *argv)[0] == 2

    def test_bad_graph_spec(self, capsys):
        code, _, _ = run_cli(capsys, "run", "--algo", "six", "--graph", "donut:4")
        assert code == 2

    def test_crash_of_an_unknown_node_in_the_spec(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--algo", "six", "--graph", "cycle:5", "--sched", "sync:crashes=9@1"
        )
        assert code == 2
        assert "crash for unknown node 9" in err

    def test_a_negative_crash_step_is_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "--algo", "six", "--graph", "cycle:4", "--sched", "sync:crashes=1@-3"
        )
        assert code == 2
        assert out == []
        assert err.splitlines() == ["error: crash step of node 1 must be non-negative, got -3"]

    def test_an_unknown_check_is_rejected_before_the_run(self, capsys, tmp_path):
        path = tmp_path / "out.jsonl"
        code, out, err = run_cli(
            capsys, "run", "--algo", "six", "--graph", "cycle:4",
            "--check", "proper,bogus", "--trace", str(path),
        )
        assert code == 2
        assert out == []
        assert err.splitlines() == [
            "error: unknown check 'bogus' (expected one of ['palette', 'parity', 'proper'])"
        ]
        assert not path.exists()

    def test_vanishing_activation_probability_is_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--algo", "six", "--graph", "cycle:5",
            "--sched", "random:seed=1,p=1e-300", "--max-steps", "3",
        )
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert "activation probability must be in [0.001, 1]" in err

    def test_ids_with_a_graph_file(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        dump_graph(build_graph("cycle:5"), path)
        code, out, err = run_cli(
            capsys, "run", "--algo", "six", "--graph", str(path), "--ids", "5,4,3,2,1"
        )
        assert code == 2
        assert out == []
        assert err.splitlines() == ["error: --ids does not apply to a graph file"]

    def test_duplicate_identifiers(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--algo", "six", "--graph", "cycle:5", "--ids", "1,2,3,4,4"
        )
        assert code == 2
        assert "duplicate identifiers" in err


@pytest.mark.parametrize("key", ["graph", "graph_hash", "algo", "inputs", "sched", "max_steps"])
def test_verify_rejects_a_header_without(key, capsys, tmp_path):
    path = tmp_path / "run.jsonl"
    run_cli(capsys, "run", "--algo", "six", "--graph", "cycle:4", "--trace", str(path))
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    del header[key]
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    code, _, err = run_cli(capsys, "verify", "--trace", str(path))
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert key in err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("inputs", [1, 2, 3, 4], "inputs must be an object, got [1, 2, 3, 4]"),
        ("max_steps", "10", "max_steps must be an integer, got '10'"),
        ("sched", 5, "sched must be a string, got 5"),
        ("params", [1], "params must be an object, got [1]"),
    ],
    ids=["inputs", "max_steps", "sched", "params"],
)
def test_verify_rejects_a_header_field_of_the_wrong_type(key, value, message, capsys, tmp_path):
    path = tmp_path / "run.jsonl"
    run_cli(capsys, "run", "--algo", "six", "--graph", "cycle:4", "--trace", str(path))
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header[key] = value
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    code, out, err = run_cli(capsys, "verify", "--trace", str(path))
    assert code == 2
    assert out == []
    assert err.splitlines() == [f"error: {path}: trace header {message}"]


# sha256 of the whole stdout of commands that print through the ``to_json``
# methods of configurations, certificates and traces, so any change in how
# engine values are written shows up here.
STDOUT_PINS = [
    (("repro", "table1"), 0, "c7d87a59eb2fbbcec95e4d20316aa01aadd7e55d38304a3928babd31fee983da"),
    (("repro", "table2"), 0, "3b04d7dad7449c3b2a9153820b4a55aed4341b43d29a603e72b4b25e3fb0361a"),
    (
        ("search", "--algo", "buggy5", "--graph", "cycle:4", "--ids", "3,4,2,1",
         "--property", "periodic-termination"),
        1,
        "8c100d3118906ebc107137788720831bdbbd9d1792173241344fda41687f44e5",
    ),
    (
        ("run", "--algo", "linial+save1", "--graph", "cycle:12",
         "--sched", "random:seed=3,p=0.5,crash=0.1", "--check", "proper,palette"),
        0,
        "fec01b860704be76a25401c7ce9ac49014015b02c48e824655212955acc49c89",
    ),
    (
        ("wsb", "count", "--algo", "seen2", "--n", "3", "--trim"),
        0,
        "679ae6c348b3f4f09b6ae0d0b7e713df09a55f9ad0254a06f5079895a705ee21",
    ),
    (
        ("wsb", "count", "--algo", "seen1", "--n", "3"),
        0,
        "53120b15800b4417a6dca2963b5335ce14cffb2b1aad2da51d2100267e6c4730",
    ),
    (
        ("wsb", "count", "--algo", "seen1", "--n", "7", "--trim"),
        0,
        "2becd9dba45d029a238e5040f6c91cfced517d915114edbf4a77c4ce5700a402",
    ),
    (
        ("wsb", "count", "--algo", "seen2", "--n", "8"),
        0,
        "aef7d4479847cddfd3b64471ceffc00cb820a3d9e13e8c818cbdbd525f2efcc8",
    ),
    (
        ("wsb", "class", "--algo", "const0", "--n", "3"),
        0,
        "c459fcf181f3845d5166941c09b0a214bdd4d63b7f450cc649c0770a3877a07e",
    ),
]


@pytest.mark.parametrize(
    "argv,exit_code,digest",
    STDOUT_PINS,
    ids=[
        "table1", "table2", "search-periodic", "run-random", "wsb-count-trim", "wsb-count",
        "wsb-count-trim-n7", "wsb-count-n8", "wsb-class",
    ],
)
def test_stdout_is_pinned(argv, exit_code, digest, capsys):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_repro_table2_detects_the_livelock_once(capsys, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return detect_livelock(*args, **kwargs)

    # count calls made through either module's name for the detector
    for module in (verify_mod, cli_mod):
        monkeypatch.setattr(module, "detect_livelock", counting, raising=False)
    argv, exit_code, digest = STDOUT_PINS[1]
    assert main(list(argv)) == exit_code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
    assert len(calls) == 1

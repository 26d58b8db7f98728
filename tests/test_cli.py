import hashlib
import json

import pytest

from asynclocal import cli as cli_mod
from asynclocal import verify as verify_mod
from asynclocal.cli import main
from asynclocal.engine import detect_livelock


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
            "termination-under-periodic-schedules",
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

    def test_bad_graph_spec(self, capsys):
        code, _, _ = run_cli(capsys, "run", "--algo", "six", "--graph", "donut:4")
        assert code == 2

    def test_crash_of_an_unknown_node_in_the_spec(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--algo", "six", "--graph", "cycle:5", "--sched", "sync:crashes=9@1"
        )
        assert code == 2
        assert "crash for unknown node 9" in err

    def test_vanishing_activation_probability_is_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--algo", "six", "--graph", "cycle:5",
            "--sched", "random:seed=1,p=1e-300", "--max-steps", "3",
        )
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert "activation probability must be in [0.001, 1]" in err

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
]


@pytest.mark.parametrize(
    "argv,exit_code,digest", STDOUT_PINS, ids=["table1", "table2", "search-periodic", "run-random"]
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

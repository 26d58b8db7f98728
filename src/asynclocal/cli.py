"""Command-line front end.

Subcommands: ``run`` executes an algorithm under a scheduler and can dump
a replayable trace; ``verify`` replays a trace file and runs checkers;
``search`` hunts for property violations with scheduling adversaries;
``repro`` re-derives the embedded golden fixtures; ``coverfree`` builds
and verifies cover-free set families; ``wsb`` exposes the signed-count
combinatorics.  Exit codes: 0 pass, 1 violation or failed check, 2 usage
or format error.  Diagnostics go to stderr, machine-readable output
(JSON or verdict lines) to stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from . import verify as verify_mod
from . import wsb as wsb_mod
from .algorithms import ALGORITHM_NAMES, make_algorithm
from .coverfree import construct_family, dump_family, verify_coverfree
from .engine import DEFAULT_MAX_STEPS, AlgorithmViolation, EngineError, execute
from .graphs import Graph, GraphError, build_graph, load_graph
from .schedulers import SEARCH_PROPERTIES, _guard, adversary_search, make_scheduling

__all__ = ["main", "build_parser"]


def _err(message: str) -> None:
    print(message, file=sys.stderr)


def _out(payload) -> None:
    if isinstance(payload, str):
        print(payload)
    else:
        print(json.dumps(payload, sort_keys=True))


def _report(verdicts) -> int:
    """Print each verdict as it comes; exit code 1 if any failed."""
    failed = False
    for verdict in verdicts:
        _out(verdict.render())
        failed = failed or not verdict.ok
    return int(failed)


def _split_checks(raw: str | None) -> list[str]:
    if not raw:
        return []
    return [part.strip() for part in raw.split(",") if part.strip()]


def _resolve_graph(args) -> Graph:
    try:
        ids = [int(tok) for tok in args.ids.split(",")] if args.ids else None
    except ValueError:
        raise GraphError(f"--ids must be comma-separated integers, got {args.ids!r}") from None
    if os.path.exists(args.graph):
        for option, value in (("--ids", ids), ("--bound", args.bound)):
            if value is not None:
                raise GraphError(f"{option} does not apply to a graph file")
        return load_graph(args.graph)
    return build_graph(args.graph, ids=ids, id_bound=args.bound)


def _resolve_algorithm(args, graph: Graph):
    return make_algorithm(
        args.algo,
        id_bound=graph.id_bound,
        delta=args.delta if args.delta is not None else graph.max_degree,
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_run(args) -> int:
    # checks are looked up first, so an unknown name runs, writes and prints
    # nothing; they run before the dump, so one that does not apply to the
    # run writes and prints nothing either
    checkers = [verify_mod._checker(name) for name in _split_checks(args.check)]
    graph = _resolve_graph(args)
    algo = _resolve_algorithm(args, graph)
    sched = make_scheduling(args.sched, graph)
    trace = execute(graph, algo, sched, max_steps=args.max_steps)
    verdicts = [checker(trace) for checker in checkers]
    if args.trace:
        trace.dump(args.trace)
        _err(f"trace written to {args.trace}")
    _out(
        {
            "algo": trace.algo_name,
            "graph": graph.kind,
            "n": graph.n,
            "sched": trace.sched_spec,
            "steps": trace.step_count,
            "complete": trace.complete,
            "decisions": trace.end_json()["decisions"],
            "max_runtime": trace.max_runtime,
        }
    )
    return _report(verdicts)


def cmd_verify(args) -> int:
    return _report(verify_mod.verify_trace_file(args.trace, _split_checks(args.check)))


def cmd_search(args) -> int:
    if args.trace and args.property == "periodic-termination":
        raise ValueError("search --trace does not apply to periodic-termination")
    graph = _resolve_graph(args)
    algo = _resolve_algorithm(args, graph)
    result = adversary_search(
        algo,
        graph,
        property=args.property,
        budget=args.budget,
        seed0=args.seed,
        max_steps=args.max_steps,
        sched=args.sched,
    )
    payload = {"found": result.found, "examined": result.examined, "property": result.property}
    if result.found:
        payload["sched"] = result.scheduling_spec
        if result.certificate is not None:
            payload["certificate"] = result.certificate.to_json()
        if result.verdict is not None:
            payload["verdict"] = result.verdict.render()
        if result.trace is not None and args.trace:
            result.trace.dump(args.trace)
            _err(f"violation trace written to {args.trace}")
    _out(payload)
    return 1 if result.found else 0


def cmd_repro(args) -> int:
    verdict = verify_mod.reproduce_table(args.which)
    if args.which == "table2" and verdict.ok:
        _out(verdict.witness.to_json())
    _out(verdict.render())
    return 0 if verdict.ok else 1


# construction plus verification answers within about 10 s inside this bound
# (k = 3, m = 50,000: 9.6 s; k = 5, m = 30,000: 6.1 s; k = 10, m = 15,000: 2.6 s)
_COVERFREE_MAX_SIZE = 150_000


def cmd_coverfree(args) -> int:
    _guard(
        args.m * max(args.k, 3) <= _COVERFREE_MAX_SIZE,
        f"a cover-free family of {args.m} sets at k = {args.k} is guarded "
        f"(limit: m * max(k, 3) <= {_COVERFREE_MAX_SIZE})",
    )
    family = construct_family(args.k, args.m)
    ok = verify_coverfree(family)
    if args.dump:
        dump_family(family, args.dump)
        _err(f"family written to {args.dump}")
    _out(
        {
            "k": family.k,
            "m": family.m,
            "q": family.q,
            "d": family.d,
            "ground": family.ground_size,
            "verified": ok,
        }
    )
    return 0 if ok else 1


def _toy(args):
    toys = wsb_mod.toy_algorithms(args.n)
    algo = toys.get(args.algo)
    if algo is None:
        raise ValueError(f"unknown toy algorithm {args.algo!r} (expected one of {sorted(toys)})")
    if args.trim:
        algo = wsb_mod.trim(algo, args.n)
    return algo


def cmd_wsb_binom(args) -> int:
    verdict = wsb_mod.binom_divisibility(args.n)
    _out(verdict.render())
    return 0 if verdict.ok else 1


def cmd_wsb_count(args) -> int:
    report = wsb_mod.count_report(_toy(args), args.n, args.step_bound)
    _out(dataclasses.asdict(report))
    return 0


def cmd_wsb_family(args) -> int:
    report = wsb_mod.check_input_family(wsb_mod.cycle_input_family(args.n), args.n)
    payload = dataclasses.asdict(report)
    if payload["witness"] is not None:
        payload["witness"] = repr(payload["witness"])
    _out(payload)
    return 0 if report.ok else 1


def cmd_wsb_class(args) -> int:
    algo = _toy(args)
    result = wsb_mod.enumerate_complete(algo, args.n, args.step_bound)
    sigma = wsb_mod.InputFunction(tuple(((), None) for _ in range(args.n)))
    mismatches = []
    sizes: dict[int, set[int]] = {}  # |SIM| -> the class sizes seen with it
    for record in result:
        sim = wsb_mod.classify(record).sim
        distinct = {(m.blocks, inputs) for m, inputs in wsb_mod.equivalence_class(record, sigma)}
        sizes.setdefault(len(sim), set()).add(len(distinct))
        if len(distinct) != math.comb(args.n, len(sim)):
            mismatches.append({"blocks": record.blocks, "sim": sorted(sim), "size": len(distinct)})
    _out(
        {
            "algo": algo.name,
            "n": args.n,
            "executions": len(result.records),
            "truncated": result.truncated,
            # only the sizes shared by every class of their |SIM|
            "class_size_by_sim": {str(k): min(v) for k, v in sorted(sizes.items()) if len(v) == 1},
            "mismatches": mismatches,
        }
    )
    return 0 if not mismatches else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asynclocal",
        description="Asynchronous crash-prone coloring algorithms: run, verify, attack.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    graph_opts = argparse.ArgumentParser(add_help=False)
    graph_opts.add_argument(
        "--graph",
        required=True,
        help="cycle:N | path:N | clique:N | circulant:N,K | tree:N,D,SEED | JSON file",
    )
    graph_opts.add_argument("--ids", help="comma-separated identifiers in construction order")
    graph_opts.add_argument("--bound", type=int, help="identifier bound N (default: max id)")
    graph_opts.add_argument("--delta", type=int, help="degree parameter (default: max degree)")

    run_p = sub.add_parser("run", parents=[graph_opts], help="execute one algorithm run")
    run_p.add_argument("--algo", required=True, help=f"one of {', '.join(ALGORITHM_NAMES)}")
    run_p.add_argument(
        "--sched",
        default="sync",
        help="sync[:crashes=v@t|...] | random:seed=S[,p=P,crash=R] | replay:FILE | explicit:1,3/2",
    )
    run_p.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    run_p.add_argument("--trace", help="write the execution to this JSON-lines file")
    run_p.add_argument("--check", help="comma-separated result checks (proper,palette,parity)")
    run_p.set_defaults(func=cmd_run)

    verify_p = sub.add_parser("verify", help="replay a trace file and run checkers")
    verify_p.add_argument("--trace", required=True)
    verify_p.add_argument("--check", help="comma-separated checks (proper,palette,parity)")
    verify_p.set_defaults(func=cmd_verify)

    search_p = sub.add_parser("search", parents=[graph_opts], help="look for violations")
    search_p.add_argument("--algo", required=True)
    search_p.add_argument("--property", default="proper", choices=SEARCH_PROPERTIES)
    search_p.add_argument("--budget", type=int, default=1000)
    search_p.add_argument("--seed", type=int, help="first random-adversary seed (default 0)")
    search_p.add_argument("--sched", help="enum:depth=D switches to exhaustive enumeration")
    search_p.add_argument("--max-steps", type=int, help=f"default {DEFAULT_MAX_STEPS}")
    search_p.add_argument("--trace", help="dump a found violation trace here")
    search_p.set_defaults(func=cmd_search)

    repro_p = sub.add_parser("repro", help="re-derive an embedded golden fixture")
    repro_p.add_argument("which", choices=("table1", "table2"))
    repro_p.set_defaults(func=cmd_repro)

    cover_p = sub.add_parser("coverfree", help="construct and verify a cover-free family")
    cover_p.add_argument("--k", type=int, required=True)
    cover_p.add_argument("--m", type=int, required=True)
    cover_p.add_argument("--dump", help="write the family to this file")
    cover_p.set_defaults(func=cmd_coverfree)

    wsb_p = sub.add_parser("wsb", help="signed execution counting on the clique")
    wsb_sub = wsb_p.add_subparsers(dest="wsb_command", required=True)

    binom_p = wsb_sub.add_parser("binom", help="binomial divisibility for prime n")
    binom_p.add_argument("--n", type=int, required=True)
    binom_p.set_defaults(func=cmd_wsb_binom)

    toy_opts = argparse.ArgumentParser(add_help=False)
    toy_opts.add_argument("--algo", required=True, help="toy name, e.g. const1, id-parity, seen1")
    toy_opts.add_argument("--n", type=int, required=True)
    toy_opts.add_argument("--step-bound", type=int, default=8)
    toy_opts.add_argument("--trim", action="store_true", help="count the trimmed algorithm")

    count_p = wsb_sub.add_parser("count", parents=[toy_opts], help="univalued signed count")
    count_p.set_defaults(func=cmd_wsb_count)

    class_p = wsb_sub.add_parser("class", parents=[toy_opts], help="equivalence class sizes")
    class_p.set_defaults(func=cmd_wsb_class)

    family_p = wsb_sub.add_parser("family", help="check the cyclic-ordering input family")
    family_p.add_argument("--n", type=int, required=True)
    family_p.set_defaults(func=cmd_wsb_family)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except AlgorithmViolation as exc:
        _err(f"algorithm violation: {exc}")
        return 1
    except (ValueError, EngineError, OSError) as exc:
        _err(f"error: {exc}")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

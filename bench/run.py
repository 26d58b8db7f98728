"""asynclocal benchmark: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Workloads are ``campaign``, ``trace`` and ``exhaustive`` (see
``workloads.py``).  The package is imported from ``src/`` next to this
directory; without it the benchmark exits with code 2 and prints no result.

Each run first re-derives both golden fixtures (``repro table1`` and
``table2``), then measures for ``--seconds``, checking every output.  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics of BENCHMARK.json, measured with
  tracing off.  The line before it is a report with the same run's
  workload-specific figures, ``failed_ratio`` and ``sim_digest``.
* ``--trace 1``: the per-layer metrics, from spans recorded by the
  benchmark's own wrappers (``tracer.py``); the raw spans are written to
  ``.bench_build/spans-<workload>-<seed>.tsv``.

Times are host-normalised (``workloads.HostClock``): seconds over the
mean time of a fixed probe taken all through the run, times 1 ms, so that
the host's swings in speed cancel.  ``items_per_s`` and
``us_per_activation`` are the median over the runs of each job; the report
line also gives ``raw_items_per_s`` in plain seconds and the mean probe
time ``host_probe_ms``.  ``setup_s`` is the median over several fresh
processes of the time from process start (before ``import asynclocal``)
until the inputs are built, in plain seconds: set-up is mostly imports
and file reads, which the probe does not track.
``--quick`` shrinks every input for the smoke test (``bench/smoke.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build"
WORKLOADS = ("campaign", "trace", "exhaustive")
SETUP_PROBES = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="tiny inputs, for the smoke test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    if not (SRC / "asynclocal" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'asynclocal'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import asynclocal  # noqa: F401


def probe_setup(args) -> list[float]:
    """Set-up time of fresh processes: spawn to inputs built."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    if args.quick:
        cmd.append("--quick")
    times = []
    for _ in range(1 if args.quick else SETUP_PROBES):
        t0 = perf_counter()  # CLOCK_MONOTONIC: comparable with the child's clock
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]) - t0)
    return times


def gate() -> dict:
    from asynclocal import verify

    return {which: verify.reproduce_table(which).ok for which in ("table1", "table2")}


def end_to_end(jobs, m, setup_s: float) -> dict:
    times = {j.name: m.normalised_seconds(j.name) for j in jobs}
    # activations are observable only where the benchmark sees the traces
    activations = {j.name: max(r.activations for r in m.runs[j.name]) for j in jobs}
    active = [name for name, n in activations.items() if n]
    return {
        "setup_s": setup_s,
        "peak_rss_MB": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "items_per_s": sum(j.items for j in jobs) / sum(times.values()),
        "us_per_activation": 1e6 * sum(times[name] for name in active) / sum(activations.values())
        if active else 0.0,
    }


def workload_report(workload, jobs, m) -> dict:
    """Workload-specific figures, printed in the report line and not gated."""
    out = {}
    if workload == "campaign":
        job = jobs[0]
        lat = sorted(job.latencies)
        q = statistics.quantiles(lat, n=100)
        t = m.normalised_seconds(job.name)
        out["runs_per_s"] = (job.items / t, "1/s")
        out["us_per_step"] = (1e6 * t / m.runs[job.name][0].steps, "us")
        out["run_p50_us"] = (1e6 * statistics.median(lat), "us")
        out["run_p99_us"] = (1e6 * q[98], "us")
        out["run_samples"] = (len(lat), "count")
    elif workload == "trace":
        mb = m.runs[jobs[0].name][0].extra["bytes"] / 1e6
        out["dump_MB_per_s"] = (mb / m.normalised_seconds(jobs[0].name, "write"), "MB/s")
        out["verify_MB_per_s"] = (mb / m.normalised_seconds(jobs[0].name, "read"), "MB/s")
        out["trace_MB"] = (mb / jobs[0].items, "MB")
    else:
        unit = {"enum": "schedules", "periodic": "shapes", "wsb": "executions", "coverfree": "families"}
        for job in jobs:
            rate = job.items / m.normalised_seconds(job.name)
            out[f"{job.name}_{unit[job.name]}_per_s"] = (rate, f"{unit[job.name]}/s")
            out[f"{job.name}_runs"] = (len(m.runs[job.name]), "count")
    out["failed_ratio"] = (m.failed / m.attempted, "ratio")
    # the same rate in plain seconds, and how fast the host ran the probe
    raw = sum(statistics.median(r.seconds for r in m.runs[j.name]) for j in jobs)
    out["raw_items_per_s"] = (sum(j.items for j in jobs) / raw, "items/s")
    out["host_probe_ms"] = (1e3 * statistics.mean(m.probes()), "ms")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def per_layer(jobs, m, tr, graph_build_s: float) -> dict:
    """Per-layer figures from the traced runs.

    ``*_s`` figures are seconds per traced run of the job that owns the
    layer (for ``unattributed_s``, summed over the workload's jobs); the
    counts are those of each job's first run, which repeat exactly for a
    seed.  A layer the workload bypasses reads 0.
    """
    by = {j.name: j for j in jobs}
    n_traced = {j.name: len(m.traced_runs[j.name]) for j in jobs}

    def per(x, n):
        return x / n if n else 0.0

    def per_job(job_name, seconds):
        return per(seconds, n_traced.get(job_name, 0))

    steps_traced = sum(j_runs[0].steps * len(j_runs) for j_runs in m.traced_runs.values())
    executions = sum(tr.calls(k) for k in ("engine.execute", "engine.record", "engine.replay_execute", "engine.livelock"))
    checked = tr.calls("engine.execute") + tr.calls("engine.record")
    next_time = tr.total("algorithms.next") + tr.total("algorithms.composed")
    next_calls = tr.calls("algorithms.next") + tr.calls("algorithms.composed")

    counts = {"runs": 0, "steps": 0, "activations": 0, "complete": 0}
    slots = 0
    first_next_calls = 0
    for job in jobs:
        fc = getattr(job, "first_counts", None)
        if fc:
            for k in counts:
                counts[k] += fc[k]
        slots += m.first_counters.get(job.name, {}).get("schedulers.slots", 0)
        fs = m.first_stats.get(job.name, {})
        first_next_calls += sum(fs.get(k, (0,))[0] for k in ("algorithms.next", "algorithms.composed"))
    useful = 0.0
    if "enum" in by:
        prefixes, enum_slots = by["enum"].prefix_stats()
        slots += enum_slots
        useful = per(prefixes, by["enum"].first_counts["steps"])

    # in a traced run every untraced job run is paired with a traced one
    paired_traced = sum(r.seconds for runs in m.traced_runs.values() for r in runs)
    paired_plain = sum(r.seconds for runs in m.runs.values() for r in runs)
    unattributed = sum(
        per_job(name, sum(r.seconds for r in runs) - m.top_level[name])
        for name, runs in m.traced_runs.items()
    )
    enum_schedules = by["enum"].items * n_traced["enum"] if "enum" in by else 0

    return {
        "schedulers.build_us_per_run": 1e6 * per(tr.total("schedulers.build"), tr.calls("schedulers.build")),
        "schedulers.draw_us_per_step": 1e6 * per(tr.total("schedulers.draw"), steps_traced),
        "schedulers.enumerate_us_per_schedule": 1e6 * per(tr.total("schedulers.enumerate"), enum_schedules),
        "engine.self_us_per_step": 1e6 * per(
            tr.self_time("engine.execute") + tr.self_time("engine.record") + tr.self_time("engine.replay_execute"),
            steps_traced,
        ),
        "engine.steps": counts["steps"],
        "engine.activations": counts["activations"],
        "engine.activation_ratio": per(counts["activations"], slots),
        "engine.complete_ratio": per(counts["complete"], counts["runs"]),
        "engine.record_self_s": per_job("trace", tr.self_time("engine.record")),
        "engine.serialise_s": per_job("trace", tr.total("engine.serialise")),
        "engine.write_s": per_job("trace", tr.self_time("engine.dump")),
        "engine.livelock_self_us_per_shape": 1e6 * per(tr.self_time("engine.livelock"), tr.calls("engine.livelock")),
        "engine.step_us_per_call": 1e6 * per(tr.total("engine.step"), tr.calls("engine.step")),
        "engine.enum_useful_step_ratio": useful,
        "algorithms.next_us_per_call": 1e6 * per(next_time, next_calls),
        "algorithms.next_calls": first_next_calls,
        "algorithms.setup_us_per_run": 1e6 * per(tr.total("algorithms.setup"), executions),
        "algorithms.composed_self_share": per(tr.self_time("algorithms.composed"), next_time),
        "verify.check_us_per_run": 1e6 * per(tr.self_time("verify.check"), checked),
        "verify.load_s": per_job("trace", tr.total("verify.load")),
        "verify.replay_s": per_job("trace", tr.total("verify.replay")),
        "verify.compare_s": per_job("trace", tr.self_time("verify.verify_trace_file")),
        "coverfree.construct_s": per_job("coverfree", tr.total("coverfree.construct")),
        "coverfree.verify_s": per_job("coverfree", tr.total("coverfree.verify")),
        "wsb.self_s": per_job("wsb", tr.self_time("wsb.count_report") + tr.self_time("wsb.enumerate")),
        "graphs.build_s": graph_build_s,
        "unattributed_s": unattributed,
        "tracing_overhead_ratio": per(paired_traced, paired_plain) - 1 if paired_plain else 0.0,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    from tracer import Tracer
    from workloads import build_jobs, measure

    OUT.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        setup: dict = {}
        jobs = build_jobs(args.workload, args.seed, args.quick, tmpdir, setup)
        if args.setup_probe:
            print(repr(perf_counter()))
            return 0
        setup_times = [] if args.trace else probe_setup(args)  # setup_s is an end-to-end metric
        fixtures = gate()
        tracer = Tracer() if args.trace else None
        m = measure(jobs, args.seconds, tracer)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    digest = hashlib.sha256("".join(m.digests[j.name] for j in jobs).encode()).hexdigest()
    correct = all(fixtures.values()) and m.failed == 0
    if args.trace:
        values = per_layer(jobs, m, tracer, setup.get("graphs.build_s", 0.0))
        tracer.write_spans(OUT / f"spans-{args.workload}-{args.seed}.tsv")
        report = {}
    else:
        values = end_to_end(jobs, m, statistics.median(setup_times))
        report = workload_report(args.workload, jobs, m)
    # BENCHMARK.json names every metric and its unit
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "fixtures": fixtures, "sim_digest": digest, "report": report,
        "setup_samples_s": setup_times,
    }))
    print(json.dumps({"correct": correct, "attempted": m.attempted, "failed": m.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""The three benchmark workloads and the closed loop that measures them.

A workload is a list of jobs.  A job run is one closed-loop unit of work
with a fixed nominal size in items; the loop runs the jobs in turn, one
client and one thread, until the time is up, and every run checks its
outputs.  The first run of each job is its digest run: a hash over every
simulated outcome, which every later run must reproduce exactly.

The benchmark runs on a share of a shared host whose speed swings by a
third from one second to the next and by up to half over minutes.  So
each run also takes a fixed probe of plain interpreter work every ~10 ms
of its own work, and reports its time in *host-normalised* seconds: its
seconds over the mean probe time, times ``P_REF`` (:class:`HostClock`).
A change to the package moves the run's seconds and not the probe.

* ``campaign``: one run = one pass over a fixed list of adversarial
  ``linial+save1``/``linial+save`` runs (an item is one run).
* ``trace``: one run = record, dump and verify each trace of a fixed list
  (an item is one trace).
* ``exhaustive``: four jobs (``enum``, ``periodic``, ``wsb``,
  ``coverfree``), each an exhaustive verdict on tiny instances (an item is
  a schedule, a prefix/period shape, a counted execution or a family).

Every input is built from the benchmark's own seed; the package only sees
the generated graphs, algorithms and spec strings.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import os
import random
import statistics
import sys
from time import perf_counter

from asynclocal import coverfree, engine, graphs, schedulers, verify, wsb
from asynclocal.algorithms import make_algorithm

from tracer import AlgorithmProxy, Tracer

CAMPAIGN_P = (0.3, 0.5, 0.8, 1.0)
CAMPAIGN_CRASH = (0.0, 0.1, 0.25)


@dataclasses.dataclass
class RunResult:
    """What one job run did: its size, its time and whether it was right."""

    seconds: float
    items: int
    steps: int  # blocks the package executed, when observable (else 0)
    activations: int  # next() calls those blocks made
    attempted: int
    failed: int
    digest: str
    extra: dict = dataclasses.field(default_factory=dict)
    clock: HostClock | None = None  # the run's clock, when its seconds were normalised


class Job:
    """A named closed-loop unit of work; ``run`` returns a RunResult."""

    name = "job"
    items = 0

    def run(self, traced: bool, tracer: Tracer | None) -> RunResult:
        raise NotImplementedError


P_REF = 1e-3  # s: the host_probe() time that host-normalised seconds refer to


class HostClock:
    """Times a job run in seconds and in host-normalised seconds.

    The run calls :meth:`mark` wherever its work may be cut.  Once at
    least ``SEGMENT`` seconds of work have passed since the last cut, the
    clock runs :func:`host_probe` right there, outside the timed work, so
    the probes sample the host's speed evenly over the run.  The run's
    host-normalised seconds are its seconds times ``P_REF`` over the mean
    probe time: what the run would have taken on a host that runs the
    probe in ``P_REF``.  A clock that does not probe (a traced run) only
    adds up seconds.
    """

    SEGMENT = 0.01

    def __init__(self, probing: bool = True):
        self.probing = probing
        self.seconds: dict[str, float] = {}  # per phase
        self.phase = "run"
        self.probes: list[float] = []
        self._pending = 0.0
        self._last = perf_counter()

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    def normalised(self, phase: str | None = None) -> float:
        seconds = self.seconds.get(phase, 0.0) if phase else self.total
        return seconds * P_REF * len(self.probes) / sum(self.probes)

    def mark(self, cut: bool = False) -> None:
        """Count the work since the last mark; ``cut`` ends the segment here."""
        t = perf_counter()
        self._pending += t - self._last
        self._last = t
        if self._pending >= self.SEGMENT or cut:
            self.seconds[self.phase] = self.seconds.get(self.phase, 0.0) + self._pending
            self._pending = 0.0
            if self.probing:
                self.probes.append(host_probe())
                self._last = perf_counter()

    def skip(self) -> None:
        """Leave the time since the last mark out of the run."""
        self._last = perf_counter()

    def set_phase(self, phase: str) -> None:
        self.mark(cut=True)
        self.phase = phase

    def finish(self) -> None:
        self.mark(cut=True)

    @contextlib.contextmanager
    def marking_calls(self, owner, attr: str):
        """Mark after each call of the package function ``owner.attr``."""
        fn = getattr(owner, attr)

        def marked(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.mark()
            return out

        setattr(owner, attr, marked)
        try:
            yield
        finally:
            setattr(owner, attr, fn)

    @contextlib.contextmanager
    def marking_lines(self):
        """Mark after each line a trace serialises, when dumped and when re-serialised."""
        jsonl_lines = engine.Trace.jsonl_lines

        def lines(trace):
            for line in jsonl_lines(trace):
                yield line
                self.mark()

        engine.Trace.jsonl_lines = lines
        try:
            yield
        finally:
            engine.Trace.jsonl_lines = jsonl_lines


_PROBE_TABLE = dict.fromkeys(range(64), 0)


def _probe_step(table: dict, key: int, i: int) -> int:
    table[key] = (table[key] + i) & 0xFFFF  # small ints: every probe does the same work
    return key


def host_probe() -> float:
    """Time a fixed piece of plain interpreter work (about 1 ms) that calls no package code.

    It makes no objects the garbage collector tracks, so the heap the
    benchmark has built does not change its time.
    """
    t0 = perf_counter()
    table = _PROBE_TABLE
    acc = 0
    for i in range(7000):
        acc += _probe_step(table, (i * 7) & 63, i)
    return perf_counter() - t0


def _hash(outcomes) -> str:
    return hashlib.sha256(repr(outcomes).encode()).hexdigest()


def _timed_graph(stats: dict, make, *args, **kwargs):
    t = perf_counter()
    g = make(*args, **kwargs)
    stats["graphs.build_s"] = stats.get("graphs.build_s", 0.0) + perf_counter() - t
    return g


def _proxies(algos, tracer):
    return {key: AlgorithmProxy.of(a, tracer) for key, a in algos.items()}


def _starvation_free(trace) -> bool:
    return trace.support_forever <= trace.decisions.keys()


def _campaign_checks(trace) -> bool:
    return (
        verify.check_proper(trace).ok
        and verify.check_palette(trace).ok
        and _starvation_free(trace)
    )


# ---------------------------------------------------------------------------
# campaign


class CampaignJob(Job):
    """One pass over a fixed list of adversarial runs (one item per run)."""

    name = "campaign"

    def __init__(self, seed: int, quick: bool, setup: dict):
        rng = random.Random(seed)
        instances = []
        for n in range(4, 13):
            g = _timed_graph(setup, graphs.build_graph, f"cycle:{n}")
            instances.append((g, make_algorithm("linial+save1", id_bound=n, delta=2)))
        dense = [_timed_graph(setup, graphs.build_graph, "circulant:7,2")]
        dense += [
            _timed_graph(setup, graphs.random_tree, 12, 4, rng.randrange(10**6)) for _ in range(3)
        ]
        for g in dense:
            instances.append((g, make_algorithm("linial+save", id_bound=g.id_bound, delta=4)))
        self.graphs = [g for g, _ in instances]
        self.algos = {i: a for i, (_, a) in enumerate(instances)}
        self.proxied = None
        reps = 1 if quick else 8
        self.ops = [
            (i, f"random:seed={rng.randrange(2**31)},p={p!r},crash={r!r}")
            for _ in range(reps)
            for i in range(len(instances))
            for p in CAMPAIGN_P
            for r in CAMPAIGN_CRASH
        ]
        self.items = len(self.ops)
        self.latencies: list[float] = []
        self.first_counts: dict | None = None

    def run(self, traced, tracer):
        if traced and self.proxied is None:
            self.proxied = _proxies(self.algos, tracer)
        algos = self.proxied if traced else self.algos
        graphs_ = self.graphs
        make_scheduling = schedulers.make_scheduling
        execute = engine.execute
        checks = (lambda t: tracer.call("verify.check", _campaign_checks, t)) if traced else _campaign_checks
        outcomes = []
        lat = []
        clock = HostClock(probing=not traced)
        failed = steps = activations = complete = 0
        for i, spec in self.ops:
            g = graphs_[i]
            clock.skip()
            t0 = perf_counter()
            try:
                trace = execute(g, algos[i], make_scheduling(spec, g), record=False)
                ok = checks(trace)
            except Exception as exc:  # a failing op is counted, not fatal
                trace, ok = None, False
                _report_exception(self.name, spec, exc)
            lat.append(perf_counter() - t0)
            clock.mark()
            if trace is None:
                outcomes.append(None)
                failed += 1
                continue
            failed += not ok
            steps += trace.step_count
            activations += sum(trace.runtimes.values())
            complete += trace.complete
            outcomes.append(
                (trace.step_count, trace.complete, sorted(trace.decisions.items()), sorted(trace.runtimes.items()))
            )
        if not traced:
            self.latencies.extend(lat)
        if self.first_counts is None:
            self.first_counts = {"runs": len(self.ops), "steps": steps, "activations": activations, "complete": complete}
        clock.finish()
        return RunResult(
            clock.total, self.items, steps, activations, len(self.ops), failed, _hash(outcomes), clock=clock
        )


# ---------------------------------------------------------------------------
# trace


class TraceJob(Job):
    """Record, dump and verify each trace of a fixed list (one item per trace)."""

    name = "trace"

    def __init__(self, seed: int, quick: bool, setup: dict, tmpdir: str):
        rng = random.Random(seed)
        n = 100 if quick else 1000
        cyc = _timed_graph(setup, graphs.build_graph, f"cycle:{n}")
        tree = _timed_graph(setup, graphs.random_tree, n, 4, rng.randrange(10**6))
        self.graphs = [cyc, tree]
        self.algos = {
            0: make_algorithm("linial+save1", id_bound=cyc.id_bound, delta=2),
            1: make_algorithm("linial+save", id_bound=tree.id_bound, delta=4),
        }
        self.proxied = None
        # step counts vary ~10% from trace to trace; three of each kind steady us_per_step
        reps = 1 if quick else 3
        self.ops = [
            (i, f"random:seed={rng.randrange(2**31)},p=0.5,crash=0.1") for _ in range(reps) for i in (0, 1)
        ]
        self.items = len(self.ops)
        self.path = os.path.join(tmpdir, "trace.jsonl")
        self.first_counts: dict | None = None

    def run(self, traced, tracer):
        if traced and self.proxied is None:
            self.proxied = _proxies(self.algos, tracer)
        algos = self.proxied if traced else self.algos
        outcomes = []
        clock = HostClock(probing=not traced)
        clock.phase = "write"  # record + dump, then "read": verify
        failed = steps = activations = complete = nbytes = 0
        with contextlib.ExitStack() as marks:
            # cuts may fall at each serialised line, load and replay; a traced run wraps these itself
            if not traced:
                marks.enter_context(clock.marking_lines())
                marks.enter_context(clock.marking_calls(verify, "load_trace"))
                marks.enter_context(clock.marking_calls(verify, "replay_trace"))
            for i, spec in self.ops:
                g = self.graphs[i]
                clock.skip()
                try:
                    trace = engine.execute(g, algos[i], schedulers.make_scheduling(spec, g))
                    clock.mark()
                    trace.dump(self.path)
                    clock.set_phase("read")
                    verdicts = verify.verify_trace_file(self.path, ["proper", "palette"])
                    clock.set_phase("write")
                except Exception as exc:
                    clock.set_phase("write")
                    _report_exception(self.name, spec, exc)
                    failed += 1
                    outcomes.append(None)
                    continue
                ok = len(verdicts) == 3 and all(v.ok for v in verdicts)
                failed += not ok
                with open(self.path, "rb") as fh:
                    data = fh.read()
                nbytes += len(data)
                # the replay executes every block a second time
                steps += 2 * trace.step_count
                activations += 2 * sum(trace.runtimes.values())
                complete += trace.complete
                outcomes.append((hashlib.sha256(data).hexdigest(), [v.render() for v in verdicts]))
        if self.first_counts is None:
            self.first_counts = {
                "runs": 2 * len(self.ops), "steps": steps, "activations": activations, "complete": 2 * complete,
            }
        clock.finish()
        return RunResult(
            clock.total, self.items, steps, activations, len(self.ops), failed, _hash(outcomes),
            {"bytes": nbytes}, clock,
        )


# ---------------------------------------------------------------------------
# exhaustive


def _ring_ids(rng: random.Random) -> list[int]:
    ids = [1, 2, 3, 4]
    rng.shuffle(ids)
    return ids


class EnumJob(Job):
    """Every schedule of <= depth blocks for ``six`` on C4, each checked proper."""

    name = "enum"

    def __init__(self, rng, quick, setup):
        self.graph = _timed_graph(setup, graphs.build_graph, "cycle:4", ids=_ring_ids(rng))
        self.algo = make_algorithm("six")
        self.proxied = None
        self.depth = 2 if quick else 4
        self.items = sum(15**d for d in range(1, self.depth + 1))  # 54,240 at depth 4
        self.first_steps: list[int] | None = None
        self.first_counts: dict | None = None

    def run(self, traced, tracer):
        if traced and self.proxied is None:
            self.proxied = AlgorithmProxy.of(self.algo, tracer)
        algo = self.proxied if traced else self.algo
        g = self.graph
        execute = engine.execute
        check = verify.check_proper
        outcomes = []
        clock = HostClock(probing=not traced)
        count = steps = bad = activations = complete = 0
        for sched in schedulers.enumerate_schedulings(g.nodes, self.depth, graph=g):
            trace = execute(g, algo, sched, record=False)
            count += 1
            steps += trace.step_count
            activations += sum(trace.runtimes.values())
            complete += trace.complete
            bad += not check(trace).ok
            outcomes.append((trace.step_count, tuple(sorted(trace.decisions.items()))))
            clock.mark()
        clock.finish()
        ok = count == self.items and bad == 0
        if self.first_steps is None:
            self.first_steps = [o[0] for o in outcomes]
            self.first_counts = {"runs": count, "steps": steps, "activations": activations, "complete": complete}
        return RunResult(clock.total, self.items, steps, activations, 1, int(not ok), _hash(outcomes), clock=clock)

    def prefix_stats(self) -> tuple[int, int]:
        """(distinct executed prefixes, node slots executed) of the first run."""
        prefixes = set()
        slots = 0
        scheds = schedulers.enumerate_schedulings(self.graph.nodes, self.depth, graph=self.graph)
        for sched, n_steps in zip(scheds, self.first_steps):
            blocks = tuple(sched.blocks())[:n_steps]
            slots += sum(len(b) for b in blocks)
            for k in range(1, n_steps + 1):
                prefixes.add(blocks[:k])
        return len(prefixes), slots


class PeriodicJob(Job):
    """Periodic-termination search: none for save1 on C4, a certificate for buggy5."""

    name = "periodic"
    BUGGY5_EXAMINED = 42  # the Table-2 ring yields its certificate at shape 42

    def __init__(self, rng, quick, setup):
        self.graph = _timed_graph(setup, graphs.build_graph, "cycle:4", ids=_ring_ids(rng))
        self.table2 = _timed_graph(setup, graphs.build_graph, "cycle:4", ids=verify.TABLE2_GRAPH["ids"])
        self.algos = {"save1": make_algorithm("save1", delta=2), "buggy5": make_algorithm("buggy5")}
        self.proxied = None
        self.shapes = 2000 if quick else 241 * 240  # every prefix (<= 2 blocks) x period (<= 2 blocks)
        self.items = self.shapes + self.BUGGY5_EXAMINED

    def run(self, traced, tracer):
        if traced and self.proxied is None:
            self.proxied = _proxies(self.algos, tracer)
        algos = self.proxied if traced else self.algos
        search = schedulers.adversary_search
        clock = HostClock(probing=not traced)
        # the search is two package calls: cuts may fall at the function it calls once per
        # shape, which a traced run wraps itself
        marks = contextlib.nullcontext() if traced else clock.marking_calls(schedulers, "detect_livelock")
        clock.skip()
        with marks:
            clean = search(algos["save1"], self.graph, property="periodic-termination", budget=self.shapes)
            hit = search(algos["buggy5"], self.table2, property="periodic-termination", budget=self.shapes)
        clock.finish()
        cert = hit.certificate
        ok = (
            not clean.found
            and clean.examined == self.shapes
            and hit.found
            and hit.examined == self.BUGGY5_EXAMINED
            and cert is not None
            and bool(cert.undecided)
        )
        # the certificate must stand on its own: re-detect it from its prefix and period
        if ok:
            again = engine.detect_livelock(self.table2, self.algos["buggy5"], cert.prefix, cert.period)
            ok = again is not None and again.to_json() == cert.to_json()
        outcome = (clean.found, clean.examined, hit.examined, hit.scheduling_spec, cert and cert.to_json())
        return RunResult(clock.total, self.items, 0, 0, 1, int(not ok), _hash(outcome), clock=clock)


class WsbJob(Job):
    """Signed counts: buggy5 on the 3-clique, and every toy against its trim."""

    name = "wsb"
    BUGGY5_EXECUTIONS = {30: 43_585, 8: 1_952}

    def __init__(self, rng, quick, setup):
        self.step_bound = 8 if quick else 30
        self.buggy5 = make_algorithm("buggy5")
        self.toys = wsb.toy_algorithms(3)
        self.items = self.BUGGY5_EXECUTIONS[self.step_bound] + 2 * 13 * len(self.toys)

    def run(self, traced, tracer):
        count_report = wsb.count_report
        clock = HostClock(probing=not traced)
        # cuts may fall at each engine step the counts take; a traced run wraps it itself
        marks = contextlib.nullcontext() if traced else clock.marking_calls(wsb, "step")
        clock.skip()
        with marks:
            reports = [count_report(self.buggy5, 3, step_bound=self.step_bound)]
            for toy in self.toys.values():
                reports.append(count_report(toy, 3))
                reports.append(count_report(wsb.trim(toy, 3), 3))
        clock.finish()
        ok = reports[0].executions == self.BUGGY5_EXECUTIONS[self.step_bound]
        ok = ok and all(a.count == b.count for a, b in zip(reports[1::2], reports[2::2]))
        ok = ok and sum(r.executions for r in reports) == self.items
        outcome = [dataclasses.asdict(r) for r in reports]
        return RunResult(clock.total, self.items, 0, 0, 1, int(not ok), _hash(outcome), clock=clock)


class CoverfreeJob(Job):
    """Construct and exhaustively verify k-cover-free families, k=1..3."""

    name = "coverfree"

    def __init__(self, rng, quick, setup):
        self.m_max = 20 if quick else 200
        self.items = 3 * (self.m_max - 1)  # 597 families at m <= 200

    def run(self, traced, tracer):
        construct = coverfree.construct_family
        check = coverfree.verify_coverfree
        outcomes = []
        clock = HostClock(probing=not traced)
        for k in (1, 2, 3):
            for m in range(2, self.m_max + 1):
                fam = construct(k, m)
                outcomes.append((k, m, fam.q, fam.d, check(fam)))
                clock.mark()
        clock.finish()
        ok = len(outcomes) == self.items and all(o[-1] for o in outcomes)
        return RunResult(clock.total, self.items, 0, 0, 1, int(not ok), _hash(outcomes), clock=clock)


def _report_exception(job: str, what: str, exc: BaseException) -> None:
    import traceback

    print(f"{job}: op {what} failed: {exc!r}", file=sys.stderr)
    traceback.print_exception(exc, file=sys.stderr, limit=4)


# ---------------------------------------------------------------------------
# workloads


def build_jobs(workload: str, seed: int, quick: bool, tmpdir: str, setup: dict) -> list[Job]:
    if workload == "campaign":
        return [CampaignJob(seed, quick, setup)]
    if workload == "trace":
        return [TraceJob(seed, quick, setup, tmpdir)]
    if workload == "exhaustive":
        rng = random.Random(seed)
        return [cls(rng, quick, setup) for cls in (EnumJob, PeriodicJob, WsbJob, CoverfreeJob)]
    raise ValueError(f"unknown workload {workload!r}")


@dataclasses.dataclass
class Measurement:
    runs: dict[str, list[RunResult]]  # untraced runs per job (all runs when not tracing)
    traced_runs: dict[str, list[RunResult]]
    attempted: int
    failed: int
    digests: dict[str, str]
    first_stats: dict[str, dict]  # tracer stats of each job's first traced run
    first_counters: dict[str, dict]
    top_level: dict[str, float]  # top-level span time per job over its traced runs

    def normalised_seconds(self, job: str, phase: str | None = None) -> float:
        """Median over the job's untraced runs of their host-normalised seconds (of one phase, or all).

        A run that raised has no clock and counts with its plain seconds.
        """
        return statistics.median(r.clock.normalised(phase) if r.clock else r.seconds for r in self.runs[job])

    def probes(self) -> list[float]:
        return [p for runs in self.runs.values() for r in runs if r.clock for p in r.clock.probes]


def measure(jobs: list[Job], seconds: float, tracer: Tracer | None) -> Measurement:
    """Closed loop: run the jobs in turn until ``seconds`` have passed.

    Every job runs at least once.  With a tracer, each job run is done
    twice, untraced then traced: the traced run must reproduce the
    untraced run's digest, and the pair gives the tracing overhead.
    """
    runs = {j.name: [] for j in jobs}
    traced_runs = {j.name: [] for j in jobs}
    digests: dict[str, str] = {}
    first_stats: dict[str, dict] = {}
    first_counters: dict[str, dict] = {}
    top_level = {j.name: 0.0 for j in jobs}
    attempted = failed = 0

    def attempt(job, traced: bool) -> RunResult:
        nonlocal attempted, failed
        t0 = perf_counter()
        try:
            res = job.run(traced, tracer)
        except Exception as exc:  # a failing run is counted, not fatal
            _report_exception(job.name, "run", exc)
            res = RunResult(perf_counter() - t0, job.items, 0, 0, 1, 1, "")
        attempted += res.attempted
        failed += res.failed
        want = digests.setdefault(job.name, res.digest)
        if res.digest != want:
            print(f"{job.name}: run reproduced a different sim_digest", file=sys.stderr)
            failed += 1
        return res

    deadline = perf_counter() + seconds
    while True:
        for job in jobs:
            gc.collect()  # every run starts from the same heap, which steadies time and peak RSS
            runs[job.name].append(attempt(job, False))
            if tracer is not None:
                first = not traced_runs[job.name]
                before = tracer.snapshot()
                before_counters = dict(tracer.counters)
                before_top = tracer.top_total
                gc.collect()
                tracer.install()
                try:
                    traced_runs[job.name].append(attempt(job, True))
                finally:
                    tracer.uninstall()
                top_level[job.name] += tracer.top_total - before_top
                if first:
                    first_stats[job.name] = _diff(tracer.snapshot(), before)
                    first_counters[job.name] = {
                        k: v - before_counters.get(k, 0) for k, v in tracer.counters.items()
                    }
            if perf_counter() >= deadline and all(runs[j.name] for j in jobs):
                return Measurement(
                    runs, traced_runs, attempted, failed, digests, first_stats, first_counters, top_level
                )


def _diff(after: dict, before: dict) -> dict:
    out = {}
    for k, v in after.items():
        b = before.get(k, (0, 0.0, 0.0))
        out[k] = tuple(x - y for x, y in zip(v, b))
    return out


"""Benchmark-side span recorder for the traced (``--trace 1``) run.

Nothing here edits the package: spans come from wrappers the benchmark
puts around the package's public functions and objects.

* :meth:`Tracer.install` swaps module attributes (``verify.load_trace``,
  ``coverfree.cover_violation``, ``wsb.step``, ...) for timing wrappers;
  :meth:`Tracer.uninstall` puts the originals back.
* :class:`AlgorithmProxy` times ``next`` (and ``validate``/``init``) of an
  algorithm; for a ``Composed`` algorithm the phases get their own proxies
  so the wrapper's self time can be told apart from the phases' time.
* :class:`SchedulingProxy` times every draw from a scheduling's
  ``blocks()`` iterator and counts the node slots drawn.

Each span has a name, a start, an end and a parent.  Per name the tracer
keeps the count, the total duration and the self time (duration minus the
time covered by child spans), and it keeps the first ``keep`` raw spans in
memory to be written out at the end with :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import copy
import functools
from time import perf_counter

from asynclocal import algorithms, coverfree, engine, schedulers, verify, wsb


class Tracer:
    def __init__(self, keep: int = 20_000):
        self.stats: dict[str, list] = {}  # name -> [count, total, self]
        self.keep = keep
        self.spans: list[tuple[int, str, float, float, int]] = []  # id, name, start, end, parent
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._next_id = 1
        self.top_total = 0.0  # summed duration of spans without a parent
        self._saved: list[tuple[object, str, object]] = []
        self.counters: dict[str, int] = {}

    # -- spans --------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([self._next_id, name, perf_counter(), 0.0])
        self._next_id += 1

    def exit(self) -> None:
        end = perf_counter()
        span_id, name, start, child = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        else:
            parent = 0
            self.top_total += dur
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        if len(self.spans) < self.keep:
            self.spans.append((span_id, name, start, end, parent))

    def call(self, name: str, fn, *args, **kwargs):
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return wrapper

    def timed_iter(self, name: str, iterator):
        """Yield from ``iterator``, timing each ``next`` as a span."""
        while True:
            self.enter(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.exit()
            yield item

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def snapshot(self) -> dict[str, tuple]:
        return {k: tuple(v) for k, v in self.stats.items()}

    def total(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\n")
            for span_id, name, start, end, parent in self.spans:
                fh.write(f"{span_id}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")

    # -- module attribute wrappers -----------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Swap the package's public entry points for timing wrappers."""
        if self._saved:
            return
        w = self.wrap
        execute = engine.execute

        def run(graph, algo, scheduling, *args, **kwargs):
            name = "engine.record" if kwargs.get("record", True) else "engine.execute"
            return self.call(name, execute, graph, algo, scheduling, *args, **kwargs)

        self._patch(engine, "execute", run)
        self._patch(schedulers, "execute", run)
        self._patch(verify, "execute", w("engine.replay_execute", verify.execute))
        self._patch(schedulers, "detect_livelock", w("engine.livelock", schedulers.detect_livelock))
        self._patch(wsb, "step", w("engine.step", wsb.step))
        self._patch(engine.Trace, "dump", w("engine.dump", engine.Trace.dump))
        jsonl_lines = engine.Trace.jsonl_lines
        self._patch(
            engine.Trace,
            "jsonl_lines",
            lambda trace: self.timed_iter("engine.serialise", jsonl_lines(trace)),
        )

        make_scheduling = schedulers.make_scheduling

        def build(spec, graph, crashes=None):
            self.enter("schedulers.build")
            try:
                sched = make_scheduling(spec, graph, crashes)
            finally:
                self.exit()
            return SchedulingProxy(sched, self)

        self._patch(schedulers, "make_scheduling", build)
        enumerate_schedulings = schedulers.enumerate_schedulings
        self._patch(
            schedulers,
            "enumerate_schedulings",
            lambda *a, **k: self.timed_iter("schedulers.enumerate", enumerate_schedulings(*a, **k)),
        )
        self._patch(schedulers, "adversary_search", w("schedulers.search", schedulers.adversary_search))

        from_header = verify.algorithm_from_header
        self._patch(
            verify,
            "algorithm_from_header",
            lambda header: AlgorithmProxy.of(from_header(header), self),
        )
        self._patch(verify, "verify_trace_file", w("verify.verify_trace_file", verify.verify_trace_file))
        self._patch(verify, "load_trace", w("verify.load", verify.load_trace))
        self._patch(verify, "replay_trace", w("verify.replay", verify.replay_trace))
        self._patch(verify, "check_proper", w("verify.check", verify.check_proper))
        self._patch(verify, "check_palette", w("verify.check", verify.check_palette))
        self._patch(verify, "CHECKS", {k: w("verify.check", f) for k, f in verify.CHECKS.items()})

        self._patch(coverfree, "construct_family", w("coverfree.construct", coverfree.construct_family))
        self._patch(coverfree, "verify_coverfree", w("coverfree.verify", coverfree.verify_coverfree))
        self._patch(coverfree, "cover_violation", w("coverfree.cover_violation", coverfree.cover_violation))

        self._patch(wsb, "count_report", w("wsb.count_report", wsb.count_report))
        self._patch(wsb, "enumerate_complete", w("wsb.enumerate", wsb.enumerate_complete))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class AlgorithmProxy:
    """Times ``next`` and the per-run set-up (``validate`` + ``init``)."""

    def __init__(self, inner, tracer: Tracer, next_span: str = "algorithms.next"):
        self._inner = inner
        self._tracer = tracer
        self._next_span = next_span
        self.name = inner.name
        self.arity = getattr(inner, "arity", None)

    @classmethod
    def of(cls, algo, tracer: Tracer) -> "AlgorithmProxy":
        """Proxy ``algo``; a ``Composed`` also gets proxies on both phases."""
        if isinstance(algo, algorithms.Composed):
            shell = copy.copy(algo)
            shell.phase1 = cls(algo.phase1, tracer, "algorithms.phase")
            shell.phase2 = cls(algo.phase2, tracer, "algorithms.phase")
            return cls(shell, tracer, "algorithms.composed")
        return cls(algo, tracer)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def next(self, payload, snaps):
        tr = self._tracer
        tr.enter(self._next_span)
        try:
            return self._inner.next(payload, snaps)
        finally:
            tr.exit()

    # a phase's set-up runs inside the Composed proxy's own set-up span
    def init(self, node, value):
        if self._next_span == "algorithms.phase":
            return self._inner.init(node, value)
        return self._tracer.call("algorithms.setup", self._inner.init, node, value)

    def validate(self, graph, inputs):
        if self._next_span == "algorithms.phase":
            return self._inner.validate(graph, inputs)
        return self._tracer.call("algorithms.setup", self._inner.validate, graph, inputs)


class SchedulingProxy:
    """Times each draw from ``blocks()`` and counts the node slots drawn."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def blocks(self):
        tr = self._tracer
        for blk in tr.timed_iter("schedulers.draw", self._inner.blocks()):
            tr.count("schedulers.slots", len(blk))
            yield blk

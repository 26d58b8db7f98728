"""Node programs consumed by the execution engine.

Each algorithm is an ``(init, next_views)`` pair over JSON-friendly
payload tuples, plus the metadata of :class:`Algorithm` (name,
parameters, snapshot arity, palette, degree bound).  ``next_views``
receives the node's current payload and its neighbors' *views* in
ascending-identifier order -- the payload behind each register, or
``None`` for an unwritten one -- and returns the node's new state.  No
rule reads the R/T tag of a neighbor's register.

The engine calls :meth:`Algorithm.next` on the register states, entries
``None`` (never written), ``("R", payload)`` or ``("T", output,
payload)``; it is the one place that takes their views.
:class:`Composed` builds its phase's views straight from the composed
registers instead.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Iterable

from .coverfree import ReductionSchedule, reduction_schedule
from .engine import AlgorithmViolation, TERMINATED

__all__ = [
    "mex",
    "Algorithm",
    "SixColoring",
    "SaveColors",
    "SaveOneMoreColor",
    "BuggyFive",
    "LinialReduction",
    "Identity",
    "Composed",
    "make_algorithm",
    "ALGORITHM_NAMES",
]


def mex(values: Iterable[int]) -> int:
    """Least natural number not in ``values``."""
    present = set(values)
    out = 0
    while out in present:
        out += 1
    return out


def _pair_palette(delta: int, drop_special: bool = False) -> frozenset[tuple[int, int]]:
    """The pairs (a, b) with a + b <= delta, without (delta, 0) if ``drop_special``."""
    pal = {(a, b) for a in range(delta + 1) for b in range(delta + 1) if a + b <= delta}
    if drop_special:
        pal.discard((delta, 0))
    return frozenset(pal)


# ---------------------------------------------------------------------------
# pair-based coloring (cycles / general graphs with a proper input coloring)
#
# Payload (x, a, b): x orders the node against its neighbors, a counts up
# through mex over larger-x neighbors' a values, b symmetrically over
# smaller-x ones.  A node decides (a, b) the moment no visible neighbor
# shows the same pair.


def _pair(payload, views):
    """The pair rule: the 6-coloring of cycles when x is the identifier,
    the pair coloring of :class:`SaveColors` when x is a proper input color."""
    x, a, b = payload
    clash = False
    larger_a = set()  # a values of larger-x neighbors
    smaller_b = set()  # b values of smaller-x ones
    for p in views:
        if p is None:
            continue
        if p[1] == a and p[2] == b:
            clash = True
        if p[0] > x:
            larger_a.add(p[1])
        elif p[0] < x:
            smaller_b.add(p[2])
    if not clash:
        return ("T", (a, b), payload)
    return ("R", (x, mex(larger_a), mex(smaller_b)))


# ---------------------------------------------------------------------------
# iterated color reduction via cover-free families
#
# Payload: tuple S of length T+1; S[0] is the input color, S[r] the color
# chosen in round r, None where not yet reached.  A node in round r picks
# the least element of its own round-r set not covered by the sets of the
# neighbors' published round-(r-1) colors.


def _linial(payload, views, schedule: ReductionSchedule):
    """One round of color reduction, on the sets as bitmasks.

    Round r keeps the candidates ``mask_for(own) & ~(OR of the neighbors'
    round-(r-1) masks)`` of family r and decides the lowest set bit, the
    least element of the node's set that no neighbor's set covers.
    """
    S = payload
    r = S.index(None)
    mask_for = schedule.families[r - 1].mask_for
    cand = mask_for(S[r - 1])
    taken = 0
    for p in views:
        if p is not None and p[r - 1] is not None:
            taken |= mask_for(p[r - 1])
    cand &= ~taken
    if not cand:
        raise AlgorithmViolation(
            f"round {r}: all of color {S[r - 1]}'s set excluded by neighbors"
        )
    color = (cand & -cand).bit_length() - 1
    S2 = S[:r] + (color,) + S[r + 1 :]
    if r == len(S) - 1:
        return ("T", color, S2)
    return ("R", S2)


# ---------------------------------------------------------------------------
# saving one more color
#
# Payload (a, b, x, f, alpha, beta, z): the pair rule of _pair
# augmented with a set f of identifiers across which the x-comparison is
# flipped, monotone flags alpha/beta (has had a smaller/larger neighbor),
# and the node's own identifier z.  Snapshots are padded with None to
# exactly Delta entries, so Delta is always len(views).


def _split_by_order(x, f, z, views):
    """``(larger_a, smaller_b)``: a values of the larger neighbors, b values of the smaller.

    A neighbor is smaller when its x is below the node's, with the
    direction inverted across flipped edges (either endpoint's identifier
    recorded in the other's f); neighbors with the same x and unwritten
    snapshots count as neither.
    """
    larger_a = set()
    smaller_b = set()
    for p in views:
        if p is None:
            continue
        px = p[2]
        if p[6] in f or z in p[3]:
            if x < px:
                smaller_b.add(p[1])
            elif x > px:
                larger_a.add(p[0])
        elif x > px:
            smaller_b.add(p[1])
        elif x < px:
            larger_a.add(p[0])
    return larger_a, smaller_b


def _special_views(s, views) -> bool:
    """Special termination: a special neighborhood and ``s`` is the pre-flip local maximum.

    A special neighborhood has all neighbors seen, every a/b below Delta,
    and nobody a local extremum: the node has both flags up, and each
    neighbor either has the corresponding flag up already or would raise
    it upon seeing this node (the neighbor may simply not have run yet).
    """
    delta = len(views)
    if not (s[4] and s[5] and 0 <= s[0] < delta and 0 <= s[1] < delta):
        return False
    for p in views:
        if p is None or not s[2] > p[2]:
            return False
        if not (0 <= p[0] < delta and 0 <= p[1] < delta):
            return False
    for p in views:
        # does p see s as smaller (then alpha rises), as larger (then beta)?
        s_larger, s_smaller = _split_by_order(p[2], p[3], p[6], [s])
        if not (p[4] or s_smaller):
            return False
        if not (p[5] or s_larger):
            return False
    return True


def _save_one_more(payload, views):
    """One activation of the save-one-more-color rule (Delta = len(views)).

    In order: decide the mapped pair, (Delta, 0) -> (0, Delta) and every
    other pair unchanged, if no visible neighbor maps to it; record flipped
    edges when an endpoint shows a = Delta or b = Delta; recompute a and b
    by mex over the flip-adjusted larger resp. smaller neighbors; raise the
    monotone flags; finally decide (0, Delta) if the updated state
    satisfies special termination.
    """
    delta = len(views)
    a, b, x, f, alpha, beta, z = payload
    # the node decides its mapped pair unless a visible neighbor maps to it
    if a == delta and b == 0:
        ma, mb = 0, delta
    else:
        ma, mb = a, b
    special = ma == 0 and mb == delta  # then a neighbor at (delta, 0) maps to it too
    for p in views:
        if p is not None and (
            (p[0] == ma and p[1] == mb) or (special and p[0] == delta and p[1] == 0)
        ):
            break
    else:
        return ("T", (ma, mb), payload)
    if a == delta or b == delta:
        extra = {p[6] for p in views if p is not None and (p[0] == delta or p[1] == delta)}
        if not extra <= set(f):
            f = tuple(sorted(set(f) | extra))
    larger_a, smaller_b = _split_by_order(x, f, z, views)
    alpha = alpha or bool(smaller_b)
    beta = beta or bool(larger_a)
    s2 = (mex(larger_a), mex(smaller_b), x, f, alpha, beta, z)
    if alpha and beta and _special_views(s2, views):
        return ("T", (0, delta), s2)
    return ("R", s2)


# ---------------------------------------------------------------------------
# the erroneous 5-coloring rule (kept faithful: it can livelock)


def _buggy_five(payload, views):
    """The flawed 5-coloring rule for cycles.

    C collects the a and b values of all visible neighbors, C+ those of
    larger-identifier ones; the node decides a (then b) as soon as it is
    outside C, else moves to (mex C+, mex C).
    """
    x, a, b = payload
    vis = [p for p in views if p is not None]
    c_all = {v for p in vis for v in (p[1], p[2])}
    if a not in c_all:
        return ("T", a, payload)
    if b not in c_all:
        return ("T", b, payload)
    c_larger = {v for p in vis if p[0] > x for v in (p[1], p[2])}
    return ("R", (x, mex(c_larger), mex(c_all)))


# ---------------------------------------------------------------------------
# algorithm objects


class Algorithm:
    """The contract the engine, the checkers and the trace format read.

    Subclasses name themselves, their parameters, the palette their
    decisions lie in and the largest degree they accept; :meth:`validate`
    enforces the degree bound and, where the input is a coloring, that it
    is proper.

    An algorithm object is read-only once built.  Every run keys on the
    object itself: the engine keeps, per object, the start it validated
    and initialised for the object's last graph on default inputs, and
    reuses it for the next run of the object on that graph.  So objects
    must be hashable by identity and weakly referenceable, as instances of
    a class that defines neither ``__eq__`` nor ``__slots__`` are.

    Subclasses write their rule as :meth:`next_views`, on the neighbors'
    views: the payload behind each register, or None for an unwritten one,
    never its R/T tag.  :meth:`next`, on the register states, is the
    engine's entry; it takes the views and calls :meth:`next_views`.
    :class:`Composed` is its one override: recorded runs call it on every
    activation, so it builds its phase's views straight from the composed
    registers, not from views of them.

    :meth:`next` is a pure function of ``payload``, ``snaps`` and the fields
    set at construction: it reads no other state and changes none.  States
    are hashable, as :class:`~asynclocal.engine.ConfigurationSpace` needs,
    and states that compare equal are interchangeable.  Unrecorded runs rely
    on this: they keep one table of ``(payload, snaps) -> state`` per
    algorithm object, keyed on the object itself, and call :meth:`next`
    only for a pair not yet in it.
    """

    name = "abstract"
    #: pad snapshots with None up to this length before each next() call
    arity: int | None = None
    #: the set every decision lies in (None: the algorithm names none)
    palette: frozenset | None = None
    #: the largest graph degree the algorithm accepts (None: any degree)
    delta: int | None = None
    #: whether the inputs are a coloring that must be proper
    proper_inputs = False

    def params(self) -> dict[str, Any]:
        return {}

    def default_input(self, node: int):
        return node

    def validate(self, graph, inputs: dict[int, Any] | None) -> None:
        """Reject instances outside the algorithm's preconditions."""
        if self.delta is not None and graph.max_degree > self.delta:
            raise ValueError(
                f"{self.name} requires degree <= {self.delta}, graph has degree {graph.max_degree}"
            )
        if self.proper_inputs and inputs is not None:
            for u, v in graph.edges:
                if inputs[u] == inputs[v]:
                    raise ValueError(
                        f"input colors must differ across edges: nodes {u},{v} share {inputs[u]!r}"
                    )

    def init(self, node: int, value):
        raise NotImplementedError

    def next_views(self, payload, views):
        """The transition on the neighbors' views, in snapshot order."""
        raise NotImplementedError

    def next(self, payload, snaps):
        # the payload is the last entry of both ("R", payload) and ("T", output, payload)
        views = []
        for t in snaps:
            views.append(None if t is None else t[-1])
        return self.next_views(payload, views)

    def __repr__(self) -> str:
        ps = ", ".join(f"{k}={v}" for k, v in self.params().items())
        return f"{type(self).__name__}({ps})"


class SixColoring(Algorithm):
    """6-coloring of cycles: the pair rule keyed directly by identifiers."""

    name = "six"
    palette = _pair_palette(2)
    delta = 2

    def init(self, node, value):
        return ("R", (node, 0, 0))

    next_views = staticmethod(_pair)


class BuggyFive(Algorithm):
    """The flawed 5-coloring rule for cycles; livelocks under some schedules."""

    name = "buggy5"
    palette = frozenset(range(5))
    delta = 2

    def init(self, node, value):
        return ("R", (node, 0, 0))

    next_views = staticmethod(_buggy_five)


class SaveColors(Algorithm):
    """(delta+1)(delta+2)/2-coloring from any proper input coloring."""

    name = "save"
    proper_inputs = True

    def __init__(self, delta: int):
        if delta < 1:
            raise ValueError(f"delta must be positive, got {delta}")
        self.delta = delta

    def params(self):
        return {"delta": self.delta}

    @cached_property
    def palette(self) -> frozenset:
        return _pair_palette(self.delta)

    def init(self, node, value):
        return ("R", (value, 0, 0))

    next_views = staticmethod(_pair)


class SaveOneMoreColor(SaveColors):
    """Like SaveColors but with one pair spared: (delta,0) is never output."""

    name = "save1"

    def __init__(self, delta: int):
        super().__init__(delta)
        self.arity = delta

    @cached_property
    def palette(self) -> frozenset:
        return _pair_palette(self.delta, drop_special=True)

    def init(self, node, value):
        return ("R", (0, 0, value, (), False, False, node))

    next_views = staticmethod(_save_one_more)


class LinialReduction(Algorithm):
    """Iterated cover-free color reduction from identifiers in 1..id_bound."""

    name = "linial"
    proper_inputs = True

    def __init__(self, id_bound: int, delta: int):
        self.id_bound = id_bound
        self.delta = delta
        self.schedule = reduction_schedule(id_bound, delta)

    def params(self):
        return {"id_bound": self.id_bound, "delta": self.delta}

    @cached_property
    def palette(self) -> frozenset:
        return frozenset(range(1, self.schedule.final_palette + 1))

    @property
    def rounds(self) -> int:
        return self.schedule.rounds

    def init(self, node, value):
        if not 1 <= value <= self.id_bound:
            raise ValueError(f"input color {value} outside 1..{self.id_bound}")
        if self.schedule.rounds == 0:
            return ("T", value, (value,))
        return ("R", (value,) + (None,) * self.schedule.rounds)

    def next_views(self, payload, views):
        return _linial(payload, views, self.schedule)


class Identity(Algorithm):
    """Decides its input at initialization; a neutral phase for composition."""

    name = "identity"

    def init(self, node, value):
        return ("T", value, (value,))

    def next_views(self, payload, views):  # pragma: no cover - init always terminates
        raise AlgorithmViolation("identity has no running states")


class Composed(Algorithm):
    """Sequential phase composition over a single register per node.

    Every published payload carries its phase tag.  A reader still in
    phase 1 sees a phase-2 neighbor through that neighbor's recorded final
    phase-1 payload; a phase-2 reader sees phase-1 neighbors as None, as if
    they had not written yet.  Phase 2 starts with input = phase 1's
    decision, on the activation after the deciding one.  Each activation
    builds the running phase's views from the composed registers and calls
    that phase's ``next_views``.
    """

    def __init__(self, phase1: Algorithm, phase2: Algorithm):
        self.phase1 = phase1
        self.phase2 = phase2
        self.name = f"{phase1.name}+{phase2.name}"
        self.arity = phase2.arity

    def params(self):
        merged = {f"phase1_{k}": v for k, v in self.phase1.params().items()}
        merged.update({f"phase2_{k}": v for k, v in self.phase2.params().items()})
        return merged

    def default_input(self, node):
        return self.phase1.default_input(node)

    def validate(self, graph, inputs):
        self.phase1.validate(graph, inputs)
        self.phase2.validate(graph, None)

    @property
    def palette(self):
        return self.phase2.palette

    def init(self, node, value):
        st = self.phase1.init(node, value)
        if st[0] == TERMINATED:
            return self._enter_phase2(node, st)
        return ("R", (1, node, st[1]))

    def _enter_phase2(self, node, p1_final):
        st = self.phase2.init(node, p1_final[1])
        if st[0] == TERMINATED:
            return ("T", st[1], (2, node, st[2], p1_final))
        return ("R", (2, node, st[1], p1_final))

    def next(self, payload, snaps):
        # A neighbor register holds None or ("R", q), with q a tagged payload
        # (phase, node, inner, [phase-1 final state]): a decided node never
        # publishes, so no register holds a "T" state.
        if payload[0] == 1:
            # a phase-2 neighbor shows the payload of its final phase-1 state
            views = []
            for t in snaps:
                if t is None:
                    views.append(None)
                else:
                    q = t[-1]
                    views.append(q[2] if q[0] == 1 else q[3][-1])
            st = self.phase1.next_views(payload[2], views)
            if st[0] == TERMINATED:
                return self._enter_phase2(payload[1], st)
            return ("R", (1, payload[1], st[1]))
        # a phase-1 neighbor shows as unwritten
        views = []
        for t in snaps:
            if t is None:
                views.append(None)
            else:
                q = t[-1]
                views.append(None if q[0] == 1 else q[2])
        st = self.phase2.next_views(payload[2], views)
        if st[0] == TERMINATED:
            return ("T", st[1], (2, payload[1], st[2], payload[3]))
        return ("R", (2, payload[1], st[1], payload[3]))


ALGORITHM_NAMES = ("six", "linial", "save", "save1", "buggy5", "linial+save", "linial+save1")


def make_algorithm(name: str, id_bound: int | None = None, delta: int | None = None) -> Algorithm:
    """Registry constructor for the named algorithms.

    ``linial`` and the composed variants need ``id_bound``; everything but
    ``six``/``buggy5`` needs ``delta``.
    """
    if name == "six":
        return SixColoring()
    if name == "buggy5":
        return BuggyFive()
    if name in ("save", "save1", "linial", "linial+save", "linial+save1"):
        if delta is None:
            raise ValueError(f"algorithm {name} needs delta")
        if name == "save":
            return SaveColors(delta)
        if name == "save1":
            return SaveOneMoreColor(delta)
        if id_bound is None:
            raise ValueError(f"algorithm {name} needs id_bound")
        linial = LinialReduction(id_bound, delta)
        if name == "linial":
            return linial
        if name == "linial+save":
            return Composed(linial, SaveColors(delta))
        return Composed(linial, SaveOneMoreColor(delta))
    raise ValueError(f"unknown algorithm {name!r} (expected one of {', '.join(ALGORITHM_NAMES)})")

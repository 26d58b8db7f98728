"""Cover-free set families from polynomials over finite fields.

A family of sets is *k-cover-free* if no member is contained in the union
of any k others.  Evaluating polynomials of degree at most d over GF(q)
yields such a family whenever k*d < q: two distinct polynomials agree on
at most d of the q evaluation points, so the q-point graph of one
polynomial cannot be swallowed by k others (they contribute at most k*d
of its points).

Ground-set elements are the integers 1..q^2, encoding evaluation point x
and value y as x*q + y + 1.  Colors index polynomials in lexicographic
coefficient order with the highest-degree coefficient most significant,
so the first q^e polynomials are exactly those of degree below e; two
families over the same field agree on their common color prefix even if
their degree bounds differ.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from typing import Iterator, Sequence

from .graphs import _decoded, _read_lines

__all__ = [
    "Field",
    "field",
    "CoverFreeFamily",
    "ReductionSchedule",
    "construct_family",
    "verify_coverfree",
    "cover_violation",
    "reduction_schedule",
    "dump_family",
    "load_family",
]

# Monic irreducible polynomials over the prime subfield, as coefficient
# tuples (constant term first), one per supported prime-power order.
# Larger non-prime orders are skipped in favor of the next prime.
_IRREDUCIBLE = {
    4: (1, 1, 1),  # x^2 + x + 1 over GF(2)
    8: (1, 1, 0, 1),  # x^3 + x + 1 over GF(2)
    9: (1, 0, 1),  # x^2 + 1 over GF(3)
    16: (1, 1, 0, 0, 1),  # x^4 + x + 1 over GF(2)
    25: (2, 0, 1),  # x^2 + 2 over GF(5)
    27: (1, 2, 0, 1),  # x^3 + 2x + 1 over GF(3)
    32: (1, 0, 1, 0, 0, 1),  # x^5 + x^2 + 1 over GF(2)
}


def _is_prime(n: int) -> bool:
    """Trial division; the orders and clique sizes checked here are small."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# Field orders up to 32, primes and tabulated prime powers, ascending.
_SMALL_ORDERS = tuple(sorted({n for n in range(2, 33) if _is_prime(n)} | set(_IRREDUCIBLE)))


class Field:
    """Arithmetic in GF(q), with elements encoded as 0..q-1.

    Prime orders use modular arithmetic directly.  The tabulated prime
    powers represent an element by the base-p digits of its code (the
    coefficients of a polynomial in the generator) and precompute full
    addition and multiplication tables, which is plenty fast for q <= 32.
    """

    __slots__ = ("q", "p", "_add", "_mul")

    def __init__(self, q: int):
        if q < 2:
            raise ValueError(f"field order must be at least 2, got {q}")
        if _is_prime(q):
            self.q = q
            self.p = q
            self._add = None
            self._mul = None
        elif q in _IRREDUCIBLE:
            self.q = q
            self.p = next(p for p in range(2, q) if q % p == 0)  # least prime factor
            self._build_tables(_IRREDUCIBLE[q])
        else:
            raise ValueError(f"unsupported field order {q}")

    def _build_tables(self, irreducible: tuple[int, ...]) -> None:
        p, q = self.p, self.q
        e = len(irreducible) - 1

        def digits(i: int) -> list[int]:
            out = []
            for _ in range(e):
                i, r = divmod(i, p)
                out.append(r)
            return out

        def code(ds) -> int:
            out = 0
            for d in reversed(ds):
                out = out * p + d
            return out

        elems = [digits(i) for i in range(q)]
        self._add = [
            [code([(x + y) % p for x, y in zip(a, b)]) for b in elems] for a in elems
        ]
        mul = []
        for a in elems:
            row = []
            for b in elems:
                prod = [0] * (2 * e - 1)
                for i, x in enumerate(a):
                    if x:
                        for j, y in enumerate(b):
                            prod[i + j] = (prod[i + j] + x * y) % p
                for deg in range(len(prod) - 1, e - 1, -1):
                    lead = prod[deg]
                    if lead:
                        prod[deg] = 0
                        for i in range(e):
                            prod[deg - e + i] = (prod[deg - e + i] - lead * irreducible[i]) % p
                row.append(code(prod[:e]))
            mul.append(row)
        self._mul = mul

    def add(self, a: int, b: int) -> int:
        if self._add is None:
            return (a + b) % self.q
        return self._add[a][b]

    def mul(self, a: int, b: int) -> int:
        if self._mul is None:
            return (a * b) % self.q
        return self._mul[a][b]

    def eval_poly(self, coeffs: Sequence[int], x: int) -> int:
        """Evaluate the polynomial with coefficients (c_0, ..., c_d) at x."""
        acc = 0
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), c)
        return acc

    def __repr__(self) -> str:
        return f"Field({self.q})"


@cache
def field(q: int) -> Field:
    """Shared Field instance for order q (tables are built once)."""
    return Field(q)


@cache
def _color_sets(q: int) -> dict[int, frozenset[int]]:
    """The ``color -> set`` cache that every family over GF(q) shares."""
    return {}


def _field_sizes() -> Iterator[int]:
    """Usable field orders in ascending order: 2,3,4,5,7,8,9,...,32, then primes."""
    yield from _SMALL_ORDERS
    q = _SMALL_ORDERS[-1]
    while True:
        q += 1
        if _is_prime(q):
            yield q


class CoverFreeFamily:
    """k-cover-free family of m sets over the ground set 1..q^2.

    Color c (1-based) names the polynomial with index c-1; its set is the
    polynomial's graph {x*q + p(x) + 1 : x in GF(q)}, of size exactly q.
    Sets are materialized lazily, one block of q colors at a time, and
    cached per color in one cache per field order, so families with
    millions of colors stay cheap when only a few colors are touched, and
    families over the same field build each set once.  Each family caches
    its sets as bitmasks (:meth:`mask_for`), one color at a time.
    """

    __slots__ = ("k", "m", "q", "d", "_field", "_sets", "_masks")

    def __init__(self, k: int, m: int, q: int, d: int):
        if k < 1 or m < 1 or d < 0:
            raise ValueError(f"need k >= 1, m >= 1 and d >= 0, got k={k} m={m} d={d}")
        if k * d >= q:
            raise ValueError(f"need k*d < q for cover-freeness, got k={k} d={d} q={q}")
        # k*d < q makes q >= 2 once d >= 1, so q^(d+1) > m once d + 1 reaches m's bit length
        if d + 1 < m.bit_length() and q ** (d + 1) < m:
            raise ValueError(f"only {q ** (d + 1)} degree-{d} polynomials over GF({q}), need {m}")
        self.k = k
        self.m = m
        self.q = q
        self.d = d
        self._field = field(q)
        self._sets = _color_sets(q)
        self._masks: dict[int, int] = {}

    @property
    def ground_size(self) -> int:
        return self.q * self.q

    def coefficients(self, color: int) -> tuple[int, ...]:
        """Coefficient tuple (c_0, ..., c_d) of the polynomial behind ``color``."""
        if not 1 <= color <= self.m:
            raise ValueError(f"color {color} outside 1..{self.m}")
        j = color - 1
        out = []
        for _ in range(self.d + 1):
            j, c = divmod(j, self.q)
            out.append(c)
        return tuple(out)

    def set_for(self, color: int) -> frozenset[int]:
        """Ground-set elements assigned to ``color``, made with all q colors that share c_1..c_d.

        With p(x) = c_0 + x*h(x), Horner's rule gives b = x*h(x) once per
        point x; the values b + c_0 of the q colors at x are then a row of a
        tabulated field's addition table, or b, b+1, ... cyclically mod a prime q.
        A set depends on q and ``color`` only (higher zero coefficients add
        nothing), so every family over GF(q) shares one cache of them.
        """
        if not 1 <= color <= self.m:
            raise ValueError(f"color {color} outside 1..{self.m}")
        s = self._sets.get(color)
        if s is None:
            q, add, mul = self.q, self._field._add, self._field._mul
            j, c0 = divmod(color - 1, q)
            high = []  # c_1, c_2, ... up to the last nonzero one
            while j:
                j, c = divmod(j, q)
                high.append(c)
            cyclic = list(range(q)) * 2  # cyclic[b : b + q]: b, b+1, ... mod a prime q
            columns = []  # per point x, the elements of the q colors
            for x in range(q):
                acc = 0
                for c in reversed(high):
                    acc = (acc * x + c) % q if add is None else add[mul[x][acc]][c]
                b = acc * x % q if add is None else mul[x][acc]
                values = cyclic[b : b + q] if add is None else add[b]
                columns.append(map((x * q + 1).__add__, values))
            for c, points in zip(range(color - c0, color - c0 + q), zip(*columns)):
                self._sets[c] = frozenset(points)
            s = self._sets[color]
        return s

    def mask_for(self, color: int) -> int:
        """``set_for(color)`` as an int with bit e set for each element e.

        Bit 0 is never set, as elements start at 1.  The cache is the
        family's own and holds only colors ``set_for`` accepted, so a miss
        alone goes through ``set_for``, whose error out-of-range colors raise.
        """
        mask = self._masks.get(color)
        if mask is None:
            mask = 0
            for e in self.set_for(color):
                mask |= 1 << e
            self._masks[color] = mask
        return mask

    @property
    def sets(self) -> list[frozenset[int]]:
        """All sets in color order (index i holds color i+1).  Materializes all m."""
        return [self.set_for(c) for c in range(1, self.m + 1)]

    def __repr__(self) -> str:
        return f"CoverFreeFamily(k={self.k}, m={self.m}, q={self.q}, d={self.d})"


def construct_family(k: int, m: int) -> CoverFreeFamily:
    """Build a k-cover-free family with at least ``m`` sets, minimizing the ground set.

    Scans field orders upward and takes the first q admitting a degree
    bound d with k*d < q and q^(d+1) >= m polynomials; d is the largest
    degree valid for that q (thanks to the prefix property the chosen
    sets do not depend on this tie-break).  Ground size is q^2.
    """
    if k < 1:
        raise ValueError(f"cover-freeness parameter must be positive, got {k}")
    if m < 1:
        raise ValueError(f"family size must be positive, got {m}")
    for q in _field_sizes():
        d = (q - 1) // k
        if d >= 1 and q ** (d + 1) >= m:
            return CoverFreeFamily(k, m, q, d)
    raise AssertionError("unreachable: field orders are unbounded")


def cover_violation(sets: Sequence[frozenset[int]], k: int):
    """Find a witness that ``sets`` is not k-cover-free, or None.

    A witness is a pair ``(i, others)``: the set at index ``i`` is
    contained in the union of the k sets at indices ``others``.  Duplicate
    sets collapse to their first occurrence (a family is a collection of
    distinct sets).  Exact for any input.

    A pigeonhole prefilter tests each set against the whole family at
    once: if k others cover s0, one of them meets s0 in at least
    t = ceil(|s0|/k) points.  Every distinct set owns a w-bit lane of one
    integer, w = bit_length(max |s|) + 1, and element e owns the packed
    vector L_e with a 1 in the lane of each set holding e; the sum of L_e
    over e in s0 holds each set's intersection size with s0 in its lane,
    never carrying out of it.  Adding 2^(w-1) - t to every lane sets a
    lane's top bit exactly when that intersection reaches t.  A set whose
    only such lane is its own is skipped: each other set meets it in at
    most t - 1 points, so any k of them contribute at most k*(t-1) < |s0|,
    which is the bound the exact path below would reject it by anyway.
    The exact path (intersection sizes, the union of all others, then
    combinations) sees only the sets the prefilter keeps, so the witness
    is the one the exact path alone would return.
    """
    if k < 1:
        raise ValueError(f"cover-freeness parameter must be positive, got {k}")
    first: dict[frozenset, int] = {}
    for idx, s in enumerate(sets):
        first.setdefault(frozenset(s), idx)
    distinct = list(first.items())  # (set, original index), first occurrences in order
    if len(distinct) - 1 < k:
        return None  # no way to choose k+1 distinct sets

    width = max(len(s) for s, _ in distinct).bit_length() + 1
    top = 1 << (width - 1)
    lanes: dict = {}  # element -> packed vector of the sets holding it
    ones = 0  # a 1 in every lane
    for lane, (s, _) in enumerate(distinct):
        bit = 1 << (lane * width)
        ones |= bit
        for e in s:
            lanes[e] = lanes.get(e, 0) | bit
    tops = ones * top
    bias: dict[int, int] = {}  # t -> 2^(w-1) - t in every lane
    masks = None
    for lane, (s0, i0) in enumerate(distinct):
        t = -(-len(s0) // k)
        acc = bias.get(t)
        if acc is None:
            acc = bias[t] = ones * (top - t)
        for e in s0:
            acc += lanes[e]
        if (acc & tops) == top << (lane * width):
            continue  # no other set meets s0 in t points
        if masks is None:
            masks = _bitmasks(distinct)
        witness = _covering(masks[lane][0], i0, masks, k)
        if witness is not None:
            return witness
    return None


def _bitmasks(distinct) -> list[tuple[int, int]]:
    """``(mask, original index)`` per distinct set, one bit per universe element."""
    pos: dict = {}
    out = []
    for s, idx in distinct:
        mask = 0
        for e in s:
            mask |= 1 << pos.setdefault(e, len(pos))
        out.append((mask, idx))
    return out


def _covering(m0: int, i0: int, masks: list[tuple[int, int]], k: int):
    """Exact search for k of ``masks`` whose union covers ``m0`` (set ``i0``)."""
    need = m0.bit_count()
    inters = []
    for mj, j in masks:
        if j == i0:
            continue
        c = (m0 & mj).bit_count()
        if c:
            inters.append((c, j, mj))
    inters.sort(key=lambda t: -t[0])
    if sum(c for c, _, _ in inters[:k]) < need:
        return None  # k others cannot contribute enough points
    union_all = 0
    for _, _, mj in inters:
        union_all |= mj
    if m0 & ~union_all:
        return None  # even all others together miss a point
    if len(inters) <= k:
        chosen = [j for _, j, _ in inters]
        pad = [j for _, j in masks if j != i0 and j not in chosen]
        return (i0, tuple(chosen + pad[: k - len(chosen)]))
    for combo in itertools.combinations(inters, k):
        u = 0
        for _, _, mj in combo:
            u |= mj
        if not (m0 & ~u):
            return (i0, tuple(j for _, j, _ in combo))
    return None


def verify_coverfree(fam, k: int | None = None) -> bool:
    """True iff the family is k-cover-free (no set inside the union of k others).

    Accepts a constructed or loaded family (k taken from it unless
    overridden) or any sequence of sets together with an explicit k.
    """
    if isinstance(fam, (CoverFreeFamily, LoadedFamily)):
        sets = fam.sets
        if k is None:
            k = fam.k
    else:
        sets = [frozenset(s) for s in fam]
        if k is None:
            raise ValueError("k is required when verifying a plain sequence of sets")
    return cover_violation(sets, k) is None


@dataclass(frozen=True)
class ReductionSchedule:
    """Chain of cover-free families driving a palette down to a fixed point.

    ``palette_sizes`` is (c_0, ..., c_T) with c_0 the initial number of
    colors; family i (0-based) maps colors 1..c_i into a ground set of
    size c_{i+1}.  The chain stops when the next family would not shrink
    the palette, so the last size is the final palette.
    """

    palette_sizes: tuple[int, ...]
    families: tuple[CoverFreeFamily, ...]

    @property
    def rounds(self) -> int:
        return len(self.families)

    @property
    def final_palette(self) -> int:
        return self.palette_sizes[-1]


@cache
def reduction_schedule(id_bound: int, max_degree: int) -> ReductionSchedule:
    """Color-reduction rounds for initial palette 1..id_bound and degree bound max_degree.

    Iterates c_{i+1} = ground size of construct_family(max_degree, c_i)
    while that strictly shrinks the palette.  Shared per argument pair, so
    the families' sets are materialized once per process.
    """
    if id_bound < 2:
        raise ValueError(f"identifier bound must be at least 2, got {id_bound}")
    if max_degree < 1:
        raise ValueError(f"degree bound must be positive, got {max_degree}")
    sizes = [id_bound]
    fams = []
    while True:
        fam = construct_family(max_degree, sizes[-1])
        if fam.ground_size >= sizes[-1]:
            break
        fams.append(fam)
        sizes.append(fam.ground_size)
    return ReductionSchedule(tuple(sizes), tuple(fams))


def dump_family(fam: CoverFreeFamily, path) -> None:
    """Write a family as a header line "k m d q ground" plus one line per color."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{fam.k} {fam.m} {fam.d} {fam.q} {fam.ground_size}\n")
        for color in range(1, fam.m + 1):
            fh.write(" ".join(str(e) for e in sorted(fam.set_for(color))) + "\n")


@dataclass(frozen=True)
class LoadedFamily:
    k: int
    m: int
    d: int
    q: int
    ground_size: int
    sets: tuple[frozenset[int], ...]


def load_family(path) -> LoadedFamily:
    """Read a family written by :func:`dump_family`.

    A header with k < 1, m < 1 or a ground size other than q^2, an element
    outside 1..ground, a missing set or a non-empty line after the m-th set
    raises :class:`ValueError` naming ``path``.  So does, naming the line
    too, a token that is not an integer, a header with d < 0, k*d >= q or
    fewer than m polynomials of degree d (q^(d+1) < m), a set line whose
    size is not q or that repeats an element, and a line holding bytes that
    are no UTF-8.  Each line is decoded when it is parsed, so the first
    fault in the file is the one reported.
    """
    lines = _read_lines(path)
    header = _decoded(path, 1, lines[0]).split() if lines else []
    if len(header) != 5:
        raise ValueError(f"{path}: malformed family header")
    k, m, d, q, ground = _integers(header, path, 1)
    if k < 1 or m < 1:
        raise ValueError(f"{path}: k and m must be positive, got k = {k}, m = {m}")
    if d < 0:
        raise ValueError(f"{path}: line 1: degree must be non-negative, got d = {d}")
    if ground != q * q:
        raise ValueError(f"{path}: ground size {ground} is not q^2 = {q * q}")
    if k * d >= q:
        raise ValueError(f"{path}: line 1: need k*d < q, got k={k} d={d} q={q}")
    if d + 1 < m.bit_length() and q ** (d + 1) < m:  # no huge power: see CoverFreeFamily
        raise ValueError(
            f"{path}: line 1: only {q ** (d + 1)} degree-{d} polynomials over GF({q}), need {m}"
        )
    sets = []
    for lineno, line in enumerate(lines[1 : m + 1], start=2):
        tokens = _integers(_decoded(path, lineno, line).split(), path, lineno)
        elements = frozenset(tokens)
        if len(tokens) != q:
            raise ValueError(f"{path}: line {lineno}: set size {len(tokens)} is not q = {q}")
        if len(elements) != q:
            again = next(e for i, e in enumerate(tokens) if e in tokens[:i])
            raise ValueError(f"{path}: line {lineno}: element {again} repeated")
        for e in elements:
            if not 1 <= e <= ground:
                raise ValueError(f"{path}: element {e} outside 1..{ground}")
        sets.append(elements)
    if len(sets) < m:
        raise ValueError(f"{path}: family file ended before all sets were read")
    if any(_decoded(path, n, line).strip() for n, line in enumerate(lines[m + 1 :], start=m + 2)):
        raise ValueError(f"{path}: non-empty line after the {m} sets")
    return LoadedFamily(k, m, d, q, ground, tuple(sets))


def _integers(tokens: list[str], path, lineno: int) -> list[int]:
    """``tokens`` as integers; the first that is not one raises ValueError naming its line."""
    out = []
    for token in tokens:
        try:
            out.append(int(token))
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: {token!r} is not an integer") from None
    return out

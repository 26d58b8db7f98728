import itertools
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asynclocal
from asynclocal import coverfree
from asynclocal.coverfree import (
    CoverFreeFamily,
    Field,
    _field_sizes,
    _is_prime,
    construct_family,
    cover_violation,
    dump_family,
    field,
    load_family,
    reduction_schedule,
    verify_coverfree,
)

TABULATED_ORDERS = (4, 8, 9, 16, 25, 27, 32)
F = frozenset


def brute_force_coverfree(sets, k):
    """Reference check: no distinct set lies inside the union of k other distinct sets."""
    distinct = []
    for s in sets:
        if s not in distinct:
            distinct.append(s)
    for i, s in enumerate(distinct):
        others = distinct[:i] + distinct[i + 1 :]
        for combo in itertools.combinations(others, min(k, len(others))):
            if len(combo) == k and s <= frozenset().union(*combo):
                return False
    return True


class TestField:
    @pytest.mark.parametrize("q", TABULATED_ORDERS)
    def test_identities_and_inverses(self, q):
        f = field(q)
        for a in range(q):
            assert f.add(a, 0) == a
            assert f.mul(a, 1) == a
            assert f.mul(a, 0) == 0
            assert any(f.add(a, b) == 0 for b in range(q))
            if a:
                assert any(f.mul(a, b) == 1 for b in range(1, q))

    @pytest.mark.parametrize("q", TABULATED_ORDERS)
    def test_commutativity(self, q):
        f = field(q)
        for a in range(q):
            for b in range(q):
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)

    @pytest.mark.parametrize("q", TABULATED_ORDERS)
    def test_associativity_and_distributivity_sampled(self, q):
        f = field(q)
        rng = random.Random(q)
        for _ in range(300):
            a, b, c = (rng.randrange(q) for _ in range(3))
            assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))

    def test_prime_field_is_modular(self):
        f = field(7)
        assert f.add(5, 4) == 2
        assert f.mul(5, 4) == 6

    def test_eval_poly(self):
        f = field(5)
        # 2 + 3x + x^2 at x=4: 2 + 12 + 16 = 30 = 0 mod 5
        assert f.eval_poly((2, 3, 1), 4) == 0

    def test_unsupported_orders(self):
        for q in (1, 6, 12, 64):
            with pytest.raises(ValueError):
                Field(q)

    def test_shared_instances(self):
        assert field(9) is field(9)


class TestConstruction:
    def test_two_color_family(self):
        fam = construct_family(1, 2)
        assert (fam.q, fam.d, fam.ground_size) == (2, 1, 4)
        assert fam.set_for(1) == frozenset({1, 3})
        assert fam.set_for(2) == frozenset({2, 4})

    def test_polynomials_over_gf5(self):
        fam = construct_family(2, 25)
        assert (fam.q, fam.d) == (5, 2)
        assert fam.ground_size == 25
        assert fam.m == 25
        sets = fam.sets
        assert len(sets) == 25
        assert all(len(s) == 5 for s in sets)
        assert fam.set_for(1) == frozenset({1, 6, 11, 16, 21})
        assert len(set(sets)) == 25

    def test_large_color_space_picks_a_prime_power_degree(self):
        fam = construct_family(2, 65536)
        assert (fam.q, fam.d) == (11, 5)
        assert fam.ground_size == 121

    def test_sets_partition_points_by_evaluation(self):
        fam = construct_family(2, 30)
        # every set holds exactly one point per field element x
        for color in range(1, 31):
            xs = {(e - 1) // fam.q for e in fam.set_for(color)}
            assert xs == set(range(fam.q))

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            construct_family(0, 10)
        with pytest.raises(ValueError):
            construct_family(2, 0)

    @pytest.mark.parametrize(
        "k, m, q, d",
        [(1, 1, 2, -1), (1, 5, 3, -2), (0, 1, 2, 0), (-1, 4, 5, 1), (1, 0, 2, 1), (2, -3, 5, 1)],
        ids=["degree-minus-one", "degree-minus-two", "zero-k", "negative-k", "zero-m", "negative-m"],
    )
    def test_a_family_refuses_parameters_out_of_range(self, k, m, q, d):
        with pytest.raises(ValueError) as info:
            CoverFreeFamily(k, m, q, d)
        assert str(info.value) == f"need k >= 1, m >= 1 and d >= 0, got k={k} m={m} d={d}"

    def test_constructed_families_verify(self):
        for k, m in ((1, 7), (2, 25), (2, 60), (3, 40)):
            assert verify_coverfree(construct_family(k, m))


class TestCoverViolation:
    def test_chain_is_not_cover_free(self):
        sets = [frozenset({1}), frozenset({1, 2})]
        assert not verify_coverfree(sets, k=1)
        witness = cover_violation(sets, 1)
        assert witness == (0, (1,))

    def test_disjoint_singletons_are_cover_free(self):
        sets = [frozenset({1}), frozenset({2}), frozenset({3})]
        assert verify_coverfree(sets, k=2)
        assert cover_violation(sets, 2) is None

    def test_witness_actually_covers(self):
        sets = [frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 4}), frozenset({5})]
        witness = cover_violation(sets, 2)
        assert witness is not None
        i, others = witness
        assert len(others) == 2 and i not in others
        assert sets[i] <= frozenset().union(*(sets[j] for j in others))

    def test_duplicates_collapse(self):
        sets = [frozenset({1, 2}), frozenset({1, 2})]
        assert cover_violation(sets, 1) is None

    def test_plain_sequence_requires_k(self):
        with pytest.raises(ValueError):
            verify_coverfree([{1}, {2}])
        with pytest.raises(ValueError):
            cover_violation([frozenset({1})], 0)

    def test_matches_brute_force_on_small_cases(self):
        rng = random.Random(7)
        for _ in range(150):
            nsets = rng.randint(2, 6)
            sets = [
                frozenset(rng.sample(range(1, 8), rng.randint(1, 4))) for _ in range(nsets)
            ]
            for k in (1, 2):
                got = cover_violation(sets, k) is None
                assert got == brute_force_coverfree(sets, k), (sets, k)


@settings(max_examples=120, deadline=None)
@given(
    sets=st.lists(
        st.frozensets(st.integers(1, 9), min_size=1, max_size=4), min_size=1, max_size=6
    ),
    k=st.integers(1, 3),
)
def test_cover_violation_agrees_with_brute_force(sets, k):
    assert (cover_violation(sets, k) is None) == brute_force_coverfree(sets, k)


def _boundary_family(n):
    """Three sets of n points and a fourth, A = {1..n}, split by the two middle ones."""
    h = n // 2
    a = F(range(1, n + 1))
    b = F([*range(1, h + 1), *range(101, 101 + n - h)])
    c = F([*range(h + 1, n + 1), *range(201, 201 + h)])
    return [F(range(301, 301 + n)), b, c, a]


class TestPinnedWitnesses:
    """Witnesses on hand-made inputs: the first covered distinct set, as before the prefilter."""

    def test_universe_wider_than_a_machine_word(self):
        sets = [F(range(71, 101)), F(range(1, 71)), F(range(1, 36)), F(range(36, 71))]
        assert cover_violation(sets, 1) == (2, (1,))
        assert cover_violation(sets, 2) == (1, (2, 3))

    @pytest.mark.parametrize(
        "n,witness", [(3, (3, (2, 1))), (4, (3, (1, 2))), (7, (3, (2, 1))), (8, (3, (1, 2)))]
    )
    def test_lane_width_boundaries(self, n, witness):
        sets = _boundary_family(n)
        assert cover_violation(sets, 1) is None  # every other set meets A in fewer than n
        assert cover_violation(sets, 2) == witness  # the halves meet A in about n/2 each

    def test_singletons(self):
        sets = [F({5}), F({6}), F({7}), F({5})]
        for k in (1, 2, 3):
            assert cover_violation(sets, k) is None

    def test_empty_set_is_covered_by_any_k_others(self):
        sets = [F({1, 2}), F(), F({3})]
        assert cover_violation(sets, 1) == (1, (0,))
        assert cover_violation(sets, 2) == (1, (0, 2))

    def test_duplicates_point_at_first_occurrences(self):
        sets = [F({1, 2}), F({3}), F({1, 2}), F({1, 2, 3})]
        assert cover_violation(sets, 1) == (0, (3,))
        assert cover_violation(sets, 2) == (0, (3, 1))

    def test_k_at_and_past_the_distinct_count(self):
        sets = [F({1}), F({1, 2}), F({2})]
        assert cover_violation(sets, 1) == (0, (1,))
        assert cover_violation(sets, 2) == (0, (1, 2))  # padded with the disjoint set
        assert cover_violation(sets, 3) is None  # no four distinct sets


def first_covered(sets, k):
    """Reference: index of the first distinct set inside the union of k other distinct sets."""
    distinct = {}
    for i, s in enumerate(sets):
        distinct.setdefault(s, i)
    items = list(distinct.items())
    for s, i in items:
        others = [t for t, _ in items if t != s]
        if any(s <= F().union(*c) for c in itertools.combinations(others, k)):
            return i
    return None


@settings(max_examples=200, deadline=None)
@given(
    sets=st.lists(st.frozensets(st.integers(1, 12), max_size=8), max_size=7),
    k=st.integers(1, 4),
)
def test_witness_is_the_first_covered_set(sets, k):
    witness = cover_violation(sets, k)
    i0 = first_covered(sets, k)
    if witness is None:
        assert i0 is None
        return
    i, others = witness
    assert i == i0
    assert len(set(others)) == k and i not in others
    assert len({sets[j] for j in others} | {sets[i]}) == k + 1
    assert sets[i] <= F().union(*(sets[j] for j in others))


class TestSetFor:
    def test_matches_eval_poly_on_constructed_families(self):
        seen = set()
        for k in (1, 2, 3):
            for m in range(2, 201):
                fam = construct_family(k, m)
                f = field(fam.q)
                for color in range(1, m + 1):
                    if (fam.q, fam.d, color) in seen:
                        continue  # color c names the same polynomial for every m >= c
                    seen.add((fam.q, fam.d, color))
                    coeffs = fam.coefficients(color)
                    expected = {x * fam.q + f.eval_poly(coeffs, x) + 1 for x in range(fam.q)}
                    assert fam.set_for(color) == expected

    @pytest.mark.parametrize("q", TABULATED_ORDERS)
    def test_matches_eval_poly_on_tabulated_orders(self, q):
        f = field(q)
        for d in (1, 2) if q <= 9 else (1,):
            fam = CoverFreeFamily(1, q ** (d + 1), q, d)
            for color in range(1, fam.m + 1):
                coeffs = fam.coefficients(color)
                expected = {x * q + f.eval_poly(coeffs, x) + 1 for x in range(q)}
                assert fam.set_for(color) == expected


    def test_sets_and_set_for_match_per_color_horner(self):
        families = [construct_family(k, m) for k in (1, 2, 3) for m in range(2, 201)]
        families += [
            CoverFreeFamily(1, min(q ** (d + 1), q * q + q // 2 + 1), q, d)
            for q in TABULATED_ORDERS
            for d in (1, 2, 3)
            if d < q
        ]
        rng = random.Random(5)
        for fam in families:
            expected = [horner_set(fam, color) for color in range(1, fam.m + 1)]
            assert fam.sets == expected
            colors = list(range(1, fam.m + 1))
            rng.shuffle(colors)
            fresh = CoverFreeFamily(fam.k, fam.m, fam.q, fam.d)
            assert [fresh.set_for(color) for color in colors] == [expected[c - 1] for c in colors]

    @pytest.mark.parametrize("flip", [False, True])
    @pytest.mark.parametrize(
        "small, large",
        [((3, 10, 7, 2), (1, 300, 7, 3)), ((1, 5, 8, 1), (2, 64, 8, 3)), ((2, 30, 11, 2), (1, 121, 11, 10))],
    )
    def test_families_over_one_field_share_each_set(self, small, large, flip):
        # a set depends on (q, color) only: not on k, d or m, nor on which family made it first
        coverfree._color_sets.cache_clear()
        families = [CoverFreeFamily(*small), CoverFreeFamily(*large)]
        if flip:
            families.reverse()
        rng = random.Random(7)
        made = []
        for fam in families:
            colors = list(range(1, fam.m + 1))
            rng.shuffle(colors)
            made.append({color: fam.set_for(color) for color in colors})
        first, second = made
        for color in range(1, min(small[1], large[1]) + 1):
            assert first[color] is second[color]
            assert first[color] == horner_set(families[0], color)
        for fam, sets in zip(families, made):
            assert fam.sets == [sets[c] for c in range(1, fam.m + 1)]
            with pytest.raises(ValueError, match=f"color {fam.m + 1} outside 1..{fam.m}"):
                fam.set_for(fam.m + 1)


class TestMaskFor:
    @pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9, 11, 16, 23))
    def test_matches_set_for_bit_for_bit(self, q):
        for d in (1, 2) if 2 < q <= 9 else (1,):
            fam = CoverFreeFamily(1, q ** (d + 1), q, d)
            for color in range(1, fam.m + 1):
                mask = fam.mask_for(color)
                assert {e for e in range(mask.bit_length()) if mask >> e & 1} == fam.set_for(color)
                assert fam.mask_for(color) is mask  # cached

    @pytest.mark.parametrize("q", (2, 7, 9))
    def test_out_of_range_colors_raise_set_fors_error(self, q):
        large = CoverFreeFamily(1, q * q, q, 1)
        small = CoverFreeFamily(1, q, q, 1)
        for color in range(1, q * q + 1):
            large.mask_for(color)  # colors above small.m are now in the cache of GF(q)
        for fam, color in ((large, 0), (large, q * q + 1), (small, 0), (small, q + 1), (small, q * q)):
            with pytest.raises(ValueError, match=f"^color {color} outside 1..{fam.m}$"):
                fam.set_for(color)
            with pytest.raises(ValueError, match=f"^color {color} outside 1..{fam.m}$"):
                fam.mask_for(color)


def horner_set(fam, color):
    """Reference: one color's set by Horner's rule over all its d + 1 coefficients."""
    q = fam.q
    f = field(q)
    high_first = fam.coefficients(color)[::-1]
    points = []
    for x in range(q):
        acc = 0
        if f._add is None:
            for c in high_first:
                acc = (acc * x + c) % q
        else:
            for c in high_first:
                acc = f._add[f._mul[x][acc]][c]
        points.append(x * q + acc + 1)
    return frozenset(points)


class TestPrimes:
    def test_is_prime_matches_a_sieve(self):
        n = 10_000
        sieve = [False, False] + [True] * (n - 1)
        for i in range(2, int(n**0.5) + 1):
            if sieve[i]:
                sieve[i * i :: i] = [False] * len(sieve[i * i :: i])
        assert [_is_prime(i) for i in range(n + 1)] == sieve

    def test_first_field_sizes(self):
        assert list(itertools.islice(_field_sizes(), 60)) == [
            2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41,
            43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
            139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241,
        ]  # fmt: skip

    @pytest.mark.parametrize("q", TABULATED_ORDERS)
    def test_tabulated_characteristic_is_the_least_prime_factor(self, q):
        assert field(q).p == {4: 2, 8: 2, 9: 3, 16: 2, 25: 5, 27: 3, 32: 2}[q]

    def test_package_import_needs_no_sympy(self):
        # the child imports the package from where this process found it
        src = str(Path(asynclocal.__file__).parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); "
            "import asynclocal; assert 'sympy' not in sys.modules"
        )
        subprocess.run([sys.executable, "-c", code], check=True)


class TestReductionSchedule:
    def test_sixty_five_thousand_ids(self):
        sched = reduction_schedule(65536, 2)
        assert sched.palette_sizes == (65536, 121, 25)
        assert sched.rounds == 2
        assert sched.final_palette == 25

    def test_ten_thousand_ids(self):
        sched = reduction_schedule(10_000, 2)
        assert sched.palette_sizes == (10_000, 81, 25)

    def test_hundred_ids_need_one_round(self):
        sched = reduction_schedule(100, 2)
        assert sched.palette_sizes == (100, 25)
        assert sched.rounds == 1

    def test_small_palettes_are_already_final(self):
        for n in (2, 12, 25):
            sched = reduction_schedule(n, 2)
            assert sched.rounds == 0
            assert sched.final_palette == n

    @pytest.mark.parametrize(
        "delta,fixed", [(2, 25), (3, 49), (4, 81), (5, 121), (6, 169)]
    )
    def test_fixed_points(self, delta, fixed):
        sched = reduction_schedule(10**6, delta)
        assert sched.final_palette == fixed == (2 * delta + 1) ** 2
        assert sched.final_palette <= (4 * delta + 1) ** 2

    def test_families_link_up(self):
        sched = reduction_schedule(4000, 3)
        assert sched.palette_sizes[0] == 4000
        for size, fam in zip(sched.palette_sizes, sched.families):
            assert fam.m >= size
            assert fam.k == 3
        for fam, nxt in zip(sched.families, sched.palette_sizes[1:]):
            assert fam.ground_size == nxt

    def test_monotone_strictly_shrinking(self):
        sched = reduction_schedule(65536, 2)
        sizes = sched.palette_sizes
        assert all(a > b for a, b in zip(sizes, sizes[1:]))


class TestFamilyFiles:
    def test_round_trip(self, tmp_path):
        fam = construct_family(2, 25)
        path = tmp_path / "fam.txt"
        dump_family(fam, path)
        header = path.read_text().splitlines()[0]
        assert header == "2 25 2 5 25"
        loaded = load_family(path)
        assert (loaded.k, loaded.m, loaded.d, loaded.q) == (2, 25, 2, 5)
        assert loaded.ground_size == 25
        assert tuple(loaded.sets) == tuple(fam.sets)
        assert verify_coverfree(loaded)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 3 1 2 4\n1 3\n")
        with pytest.raises(ValueError):
            load_family(path)
        path.write_text("1 3\n")
        with pytest.raises(ValueError):
            load_family(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 -5 1 2 4\n", "k and m must be positive, got k = 1, m = -5"),
            ("0 1 1 2 4\n1 3\n", "k and m must be positive, got k = 0, m = 1"),
            ("1 1 -1 2 4\n1 3\n", "line 1: degree must be non-negative, got d = -1"),
            ("1 1 1 2 5\n1 3\n", "ground size 5 is not q^2 = 4"),
            ("1 1 1 2 4\n1 3\n2 4\n", "non-empty line after the 1 sets"),
            ("1 2 1 2 4\n1 3\n2 5\n", "element 5 outside 1..4"),
            ("1 2 1 2 4\n0 3\n2 4\n", "element 0 outside 1..4"),
            ("1 2 1 2 4\n1 3\n2\n", "line 3: set size 1 is not q = 2"),
            ("1 2 1 2 4\n1 3 4\n2 4\n", "line 2: set size 3 is not q = 2"),
            ("1 2 1 2 4\n1 3\n4 4\n", "line 3: element 4 repeated"),
            ("1 2 9 2 4\n1 1\n2\n", "line 1: need k*d < q, got k=1 d=9 q=2"),
            ("2 2 1 2 4\n1 3\n2 4\n", "line 1: need k*d < q, got k=2 d=1 q=2"),
            ("1 5 1 2 4\n1 3\n", "line 1: only 4 degree-1 polynomials over GF(2), need 5"),
            ("1 2 1 2 x\n", "line 1: 'x' is not an integer"),
            ("1 2 1 2 4\n1 3\n2 4.0\n", "line 3: '4.0' is not an integer"),
        ],
        ids=[
            "negative-m", "zero-k", "negative-degree", "ground", "extra-set", "element-above", "element-zero",
            "set-too-small", "set-too-large", "repeated-element", "degree-too-high",
            "k-times-d-is-q", "too-few-polynomials", "header-token", "set-token",
        ],
    )
    def test_a_malformed_family_is_refused(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_family(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize(
        "lines, message",
        [
            ([b"1 2 1 \xff 4", b"1 3", b"2 4"], "bytes that are no UTF-8 on line 1"),
            ([b"1 2 1 2 4", b"1 3", b"2 \xff"], "bytes that are no UTF-8 on line 3"),
            ([b"1 2 1 2 4", b"1 3", b"2 4", b"", b"\xff"], "bytes that are no UTF-8 on line 5"),
            ([b"1 2 1 2 4", b"1 3 4", b"2 \xff"], "line 2: set size 3 is not q = 2"),
            ([b"1 3 1 2 4", b"1 x", b"\xff"], "line 2: 'x' is not an integer"),
        ],
        ids=["header", "set", "after-the-sets", "earlier-set-first", "earlier-token-first"],
    )
    def test_undecodable_bytes_are_reported_on_their_line(self, tmp_path, newline, lines, message):
        path = tmp_path / "bad.txt"
        path.write_bytes(newline.join(lines) + newline)
        with pytest.raises(ValueError) as info:
            load_family(path)
        assert type(info.value) is ValueError
        assert str(info.value) == f"{path}: {message}"

    def test_blank_lines_after_the_last_set_are_allowed(self, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text("1 1 1 2 4\n1 3\n\n  \n")
        assert load_family(path).sets == (frozenset({1, 3}),)

    def test_a_huge_degree_is_checked_without_the_full_power(self, tmp_path):
        # q^(d+1) at d = 10^9 would never finish; 2^(d+1) >= m already settles the count
        d, q = 10**9, 10**9 + 7
        path = tmp_path / "fam.txt"
        path.write_text(f"1 5 {d} {q} {q * q}\n")
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            load_family(path)
        fam = CoverFreeFamily(1, 5, q, d)
        assert time.perf_counter() - start < 1
        assert str(info.value) == f"{path}: family file ended before all sets were read"
        assert (fam.m, fam.d) == (5, d)


def test_family_repr_mentions_parameters():
    fam = construct_family(2, 25)
    assert "k=2" in repr(fam)
    assert isinstance(fam, CoverFreeFamily)

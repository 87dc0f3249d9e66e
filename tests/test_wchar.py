from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distsym import wchar
from distsym.partitions import Partition, partitions
from distsym.wchar import (
    Bipartition,
    ClassFunction,
    bipartitions,
    centralizer_order,
    character_table,
    class_size,
    decompose,
    group_order,
    induction_product,
    inner_product,
    quadratic_character_value,
    sym_character,
    virtual_character,
    w_irreducible,
)
from distsym.xi import xi


def trivial_character(n: int) -> ClassFunction:
    """The all-ones class function on W_n."""
    return ClassFunction(n, (1,) * len(bipartitions(n)))


def combination(n: int, terms) -> ClassFunction:
    """sum of coeff * f over the (coeff, f) pairs, class by class."""
    values = [0] * len(bipartitions(n))
    for coeff, f in terms:
        values = [v + coeff * x for v, x in zip(values, f.values)]
    return ClassFunction(n, values)


def degree(f: ClassFunction):
    """f(1), the value at the identity class (1^n; -)."""
    return f.at(Bipartition((1,) * f.n))


def reference_centralizer_order(c: Bipartition) -> int:
    """The centralizer order computed per class, with one Counter per class."""
    z = 1
    for parts in c:
        for v, m in Counter(parts).items():
            z *= (2 * v) ** m * factorial(m)
    return z


class TestClasses:
    def test_bipartition_order_w2(self):
        assert [str(c) for c in bipartitions(2)] == [
            "2;-",
            "1,1;-",
            "1;1",
            "-;2",
            "-;1,1",
        ]

    def test_parse_roundtrip(self):
        # the printed names are the CLI's JSON keys, so they must be unambiguous
        def parse(text: str) -> Bipartition:
            a, _, b = text.partition(";")
            return Bipartition(Partition.parse(a), Partition.parse(b))

        for n in range(5):
            for bp in bipartitions(n):
                assert parse(str(bp)) == bp

    @pytest.mark.parametrize(
        "alpha,beta,expected",
        [
            ((2, 2), (), 2**2 * factorial(2) * 2**2),
            ((), (2, 2), 4**2 * factorial(2)),
            ((4, 4, 4), (), 4**3 * factorial(3) * 2**3),
            ((), (6,), 12),
            ((1,), (), 2),
        ],
    )
    def test_centralizer_reference(self, alpha, beta, expected):
        assert centralizer_order(Bipartition(alpha, beta)) == expected

    def test_class_sizes_sum_to_group_order(self):
        for n in range(1, 9):
            assert sum(class_size(c) for c in bipartitions(n)) == group_order(n)

    def test_centralizers_and_sizes_match_the_per_class_reference_through_w12(self):
        for n in range(13):
            orders = [reference_centralizer_order(c) for c in bipartitions(n)]
            sizes = [group_order(n) // z for z in orders]
            assert [centralizer_order(c) for c in bipartitions(n)] == orders
            assert [class_size(c) for c in bipartitions(n)] == sizes
            assert wchar._class_sizes(n) == tuple(sizes)

    def test_class_sizes_compute_z_once_per_partition(self):
        # W_12 has 1165 classes but 272 partitions of size at most 12
        wchar._z.cache_clear()
        wchar._class_sizes.cache_clear()
        wchar._class_sizes(12)
        assert len(bipartitions(12)) == 1165
        assert wchar._z.cache_info().misses == sum(map(len, map(partitions, range(13)))) == 272

    def test_names_join_the_partition_names_through_w12(self):
        for n in range(13):
            for c in bipartitions(n):
                assert str(c) == ";".join(",".join(map(str, p)) or "-" for p in c)

    def test_negative_n_rejected(self):
        for build, args in [
            (bipartitions, (-1,)),
            (character_table, (-1,)),
            (ClassFunction, (-3, ())),
            (virtual_character, (-2, {})),
        ]:
            with pytest.raises(ValueError, match="n must be non-negative"):
                build(*args)


# Independent route to the S_n table: permutation characters of Young
# subgroups (a pure counting problem), orthogonalized in the canonical
# partition order.  No border strips anywhere.


def perm_char_value(lam: Partition, rho: Partition) -> int:
    """Value of the Young-subgroup permutation character: the number of
    ways to deal the (distinguishable) cycles of a class-rho element onto
    the blocks of lam so each block's lengths sum to its part."""
    from math import comb

    def count(parts: tuple[int, ...], blocks: tuple[int, ...]) -> int:
        if not blocks:
            return 1 if not parts else 0
        target = blocks[0]
        values = sorted(set(parts), reverse=True)
        mult = Counter(parts)
        total = 0

        def pick(i: int, remaining: int, chosen: Counter, ways: int) -> None:
            nonlocal total
            if remaining == 0:
                leftover = mult - chosen
                rest = tuple(sorted(leftover.elements(), reverse=True))
                total += ways * count(rest, blocks[1:])
                return
            if i == len(values):
                return
            v = values[i]
            top = min(mult[v], remaining // v)
            for k in range(top, -1, -1):
                chosen[v] += k
                pick(i + 1, remaining - k * v, chosen, ways * comb(mult[v], k))
                chosen[v] -= k

        pick(0, target, Counter(), 1)
        return total

    return count(rho, lam)


def sn_centralizer(rho: Partition) -> int:
    z = 1
    for v, m in Counter(rho).items():
        z *= v**m * factorial(m)
    return z


def sn_inner(n: int, f: dict, g: dict) -> Fraction:
    total = Fraction(0)
    for rho in partitions(n):
        total += Fraction(f[rho] * g[rho], sn_centralizer(rho))
    return total


def sn_table_by_orthogonalization(n: int) -> dict[Partition, dict[Partition, int]]:
    chis: dict[Partition, dict[Partition, Fraction]] = {}
    for lam in partitions(n):
        h = {rho: Fraction(perm_char_value(lam, rho)) for rho in partitions(n)}
        for mu, chi in chis.items():
            coeff = sn_inner(n, h, chi)
            if coeff:
                h = {rho: h[rho] - coeff * chi[rho] for rho in partitions(n)}
        norm = sn_inner(n, h, h)
        assert norm == 1, f"orthogonalization failed at {lam}"
        chis[lam] = h
    return {
        lam: {rho: int(v) for rho, v in chi.items()} for lam, chi in chis.items()
    }


class TestSymCharacter:
    @pytest.mark.parametrize(
        "lam,rho,value",
        [
            ((2,), (2,), 1),
            ((1, 1), (2,), -1),
            ((2, 1), (1, 1, 1), 2),
            ((2, 1), (2, 1), 0),
            ((2, 1), (3,), -1),
        ],
    )
    def test_reference_values(self, lam, rho, value):
        assert sym_character(Partition(lam), Partition(rho)) == value

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            sym_character(Partition((2,)), Partition((3,)))

    def test_full_tables_against_orthogonalization(self):
        for n in range(1, 6):
            table = sn_table_by_orthogonalization(n)
            for lam in partitions(n):
                for rho in partitions(n):
                    assert sym_character(lam, rho) == table[lam][rho], (lam, rho)

    def test_trivial_and_sign(self):
        for n in range(1, 7):
            for rho in partitions(n):
                assert sym_character(Partition((n,)), rho) == 1
                sign = (-1) ** (n - len(rho))
                assert sym_character(Partition((1,) * n), rho) == sign


class TestIrreducibles:
    def test_one_one_fixture(self):
        chi = w_irreducible(Bipartition((1,), (1,)))
        values = [chi.at(c) for c in bipartitions(2)]
        # classes ordered 2;- 1,1;- 1;1 -;2 -;1,1
        assert values == [0, 2, 0, 0, -2]

    def test_trivial(self):
        for n in range(1, 5):
            assert w_irreducible(Bipartition((n,))) == trivial_character(n)

    def test_w2_degrees(self):
        degrees = sorted(degree(w_irreducible(bp)) for bp in bipartitions(2))
        assert degrees == [1, 1, 1, 1, 2]

    def test_degree_squares(self):
        for n in range(1, 6):
            assert (
                sum(degree(w_irreducible(bp)) ** 2 for bp in bipartitions(n))
                == group_order(n)
            )

    def test_orthonormality(self):
        for n in range(1, 5):
            bps = bipartitions(n)
            for i, a in enumerate(bps):
                for b in bps[i:]:
                    expected = 1 if a == b else 0
                    assert inner_product(w_irreducible(a), w_irreducible(b)) == expected

    def test_twisted_degree_one_squares_to_trivial(self):
        for n in range(1, 5):
            chi = w_irreducible(Bipartition((), (n,)))
            assert degree(chi) == 1
            squared = ClassFunction(n, (v**2 for v in chi.values))
            assert squared == trivial_character(n)

    def test_quadratic_character_values(self):
        assert quadratic_character_value(Bipartition((1,), ())) == 1
        assert quadratic_character_value(Bipartition((), (1, 1))) == 1
        assert quadratic_character_value(Bipartition((), (2,))) == -1


# Independent route to the W_n table: the defining induction products of a
# lifted S_a character and a twisted lifted S_b character.  The package
# builds the table by the B_n Murnaghan-Nakayama rule instead.


def lifted(part: Partition, twisted: bool) -> ClassFunction:
    """An S_m character pulled back along W_m -> S_m; the twisted lift is
    multiplied by the sign-flip character."""
    values = []
    for c in bipartitions(sum(part)):
        cycle_type = Partition(tuple(sorted(c.alpha + c.beta, reverse=True)))
        sign = quadratic_character_value(c) if twisted else 1
        values.append(sign * sym_character(part, cycle_type))
    return ClassFunction(sum(part), values)


def induced_irreducible(bp: Bipartition) -> ClassFunction:
    return induction_product(lifted(bp.alpha, False), lifted(bp.beta, True))


class TestMurnaghanNakayamaTable:
    def test_matches_induced_irreducibles_through_w7(self):
        for n in range(8):
            for bp, chi in character_table(n).items():
                assert chi == induced_irreducible(bp), bp

    def test_rows_are_w_irreducible(self):
        for bp, chi in character_table(4).items():
            assert w_irreducible(bp) is chi

    @pytest.mark.parametrize("n", [8, 10])
    def test_column_orthogonality_and_degrees(self, n):
        """sum over chi of chi(c) chi(c') = z_c if c = c', else 0.

        Each row is packed into one integer with a signed slot of `bits`
        bits per class, so for a fixed c the sum over chi of chi(c) * row
        gives the whole row of sums at once.  No slot can exceed
        k * max|chi|**2 in absolute value, far below half its range, so
        the packed integers are equal exactly when every slot is.
        """
        table = character_table(n)
        rows = [chi.values for chi in table.values()]
        bound = len(rows) * max(abs(v) for row in rows for v in row) ** 2
        bits = (2 * bound).bit_length() + 1
        packed = [sum(v << (bits * j) for j, v in enumerate(row)) for row in rows]
        for i, c in enumerate(bipartitions(n)):
            sums = sum(row[i] * p for row, p in zip(rows, packed))
            assert sums == centralizer_order(c) << (bits * i), c
        assert sum(degree(chi) ** 2 for chi in table.values()) == group_order(n)


def reference_hook_moves(m: int, r: int, negative: bool) -> tuple[tuple[tuple, tuple], ...]:
    """The step of the B_n rule for an r-cycle of one sign, built eagerly
    for every irreducible of W_m: (plus, minus) position lists in
    bipartitions(m - r), alpha moves before beta moves in each."""
    index = wchar._class_index(m - r)
    out = []
    for bp in bipartitions(m):
        alpha, beta = bp
        signed: tuple[list[int], list[int]] = ([], [])
        for mu, h in wchar._rim_hooks(alpha, r):
            signed[h % 2].append(index[mu, beta])
        for mu, h in wchar._rim_hooks(beta, r):
            signed[(h + negative) % 2].append(index[alpha, mu])
        out.append((tuple(signed[0]), tuple(signed[1])))
    return tuple(out)


def clear_wchar_caches() -> None:
    for cache in (wchar._hook_rows, wchar._evaluate, wchar._table):
        cache.cache_clear()


def built_rows(max_m: int) -> tuple[int, int]:
    """(rows built, rows in all) of the steps on W_m, m <= max_m."""
    rows = [
        row for m in range(1, max_m + 1) for r in range(1, m + 1) for row in wchar._hook_rows(m, r)
    ]
    return sum(row is not None for row in rows), len(rows)


@pytest.fixture(scope="module")
def induced_w7() -> tuple[ClassFunction, ...]:
    return tuple(induced_irreducible(bp) for bp in bipartitions(7))


class TestHookRows:
    """Rows built on first read, shared by the steps of both cycle signs."""

    def test_rows_read_for_each_sign_equal_the_eager_steps(self):
        clear_wchar_caches()
        for m in range(1, 10):
            for r in range(1, m + 1):
                rows = wchar._hook_rows(m, r)
                read = [rows[i] or wchar._hook_row(m, r, i) for i in range(len(rows))]
                assert tuple(row[:2] for row in read) == reference_hook_moves(m, r, False), (m, r)
                assert tuple(row[2:] for row in read) == reference_hook_moves(m, r, True), (m, r)

    @pytest.mark.parametrize("table_first", [False, True])
    def test_evaluation_and_table_in_either_order(self, table_first, induced_w7):
        bps = bipartitions(7)
        picked = {0: 2, 5: -1, 40: 3, len(bps) - 1: 1}
        coeffs = {bps[i]: coeff for i, coeff in picked.items()}
        want = combination(7, ((coeff, induced_w7[i]) for i, coeff in picked.items()))
        clear_wchar_caches()
        if table_first:
            table = character_table(7)
            assert virtual_character(7, coeffs) == want
        else:
            assert virtual_character(7, coeffs) == want
            built, total = built_rows(7)
            assert 0 < built < total  # the table builds the rest
            table = character_table(7)
        assert tuple(table.values()) == induced_w7

    def test_evaluation_builds_only_the_rows_it_reads(self):
        clear_wchar_caches()
        xi(5, "B").character  # a route's character is evaluated on first read
        built, total = built_rows(10)
        assert total == 10452
        assert 0 < built < total // 2
        character_table(6)
        built, total = built_rows(6)
        assert built == total

    def test_rows_with_no_hook_share_one_row(self):
        clear_wchar_caches()
        xi(5, "B").character
        empty = [
            row
            for m in range(1, 11)
            for r in range(1, m + 1)
            for row in wchar._hook_rows(m, r)
            if row is not None and not any(row)
        ]
        assert empty and all(row is wchar._NO_HOOK for row in empty)


@st.composite
def sparse_coefficient_vectors(draw):
    n = draw(st.integers(0, 7))
    irreducibles = st.sampled_from(bipartitions(n))
    return n, draw(st.dictionaries(irreducibles, st.integers(-3, 3), max_size=12))


class TestVirtualCharacter:
    """The transposed rule against the rows of the table it transposes."""

    @settings(max_examples=40, deadline=None)
    @given(sparse_coefficient_vectors())
    def test_equals_the_sum_of_table_rows(self, case):
        n, coeffs = case
        rows = ((coeff, w_irreducible(Bipartition(*key))) for key, coeff in coeffs.items())
        assert virtual_character(n, coeffs) == combination(n, rows)

    def test_single_irreducibles_are_the_rows(self):
        for n in range(6):
            for bp, chi in character_table(n).items():
                assert virtual_character(n, {bp: 1}) == chi, bp

    def test_rejects_keys_that_are_not_irreducibles(self):
        class OneItem(Mapping):
            """{key: 1} for any key, even an unhashable one."""

            def __init__(self, key):
                self.key = key

            def __getitem__(self, k):
                return 1

            def __iter__(self):
                return iter([self.key])

            def __len__(self):
                return 1

        # raw pairs of W_1 and W_3, a name, an unhashable pair
        for key in [((1,), ()), ((2,), (1,)), "2;-", ([2], [])]:
            with pytest.raises(ValueError, match="not an irreducible of W_2"):
                virtual_character(2, OneItem(key))


class TestInductionProduct:
    def test_trivial_times_trivial_degree(self):
        f = trivial_character(1)
        prod = induction_product(f, f)
        assert prod.at(Bipartition((1, 1))) == 2

    def test_cross_term_fixture(self):
        f = w_irreducible(Bipartition((1,)))
        g = w_irreducible(Bipartition((), (1,)))
        prod = induction_product(f, g)
        cls = Bipartition((), (1, 1))
        assert prod.at(cls) == -2
        assert prod.at(cls) == w_irreducible(Bipartition((1,), (1,))).at(cls)

    def test_commutative(self):
        f = w_irreducible(Bipartition((2,), (1,)))
        g = w_irreducible(Bipartition((1,), (1,)))
        assert induction_product(f, g) == induction_product(g, f)

    def test_products_of_irreducibles_are_characters(self):
        # non-negative integer coefficients for all degree splits up to 4
        for a in range(0, 4):
            for b in range(0, 4):
                if a + b == 0 or a + b > 4:
                    continue
                for x in bipartitions(a):
                    for y in bipartitions(b):
                        prod = induction_product(w_irreducible(x), w_irreducible(y))
                        for bp, coeff in decompose(prod).items():
                            assert coeff == int(coeff) and coeff > 0, (x, y, bp)


class TestDecompose:
    def test_trivial(self):
        for n in range(1, 5):
            assert decompose(trivial_character(n)) == {((n,), ()): 1}

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(-2, 2), min_size=10, max_size=10))
    def test_reconstruction(self, coeffs):
        bps = bipartitions(3)
        f = combination(3, ((coeff, w_irreducible(bp)) for coeff, bp in zip(coeffs, bps)))
        want = {bp: coeff for coeff, bp in zip(coeffs, bps) if coeff}
        assert list(decompose(f).items()) == list(want.items())

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(trivial_character(1), trivial_character(2))


# Reference semantics of the dict-keyed class functions the dense tuples
# replaced: absent classes read as 0, operations act class by class.


def dict_decompose(n: int, f: dict) -> dict:
    out = {}
    for bp in bipartitions(n):
        chi = w_irreducible(bp)
        num = sum(f.get(c, 0) * chi.at(c) * class_size(c) for c in bipartitions(n))
        coeff = Fraction(num, group_order(n))
        if coeff:
            out[bp] = int(coeff) if coeff.denominator == 1 else coeff
    return out


@st.composite
def sparse_class_functions(draw):
    n = draw(st.integers(0, 4))
    classes = st.sampled_from(bipartitions(n))
    values = st.integers(-5, 5) | st.fractions(max_denominator=4)
    f, g = (draw(st.dictionaries(classes, values)) for _ in range(2))
    return n, f, g


class TestDenseClassFunction:
    @settings(max_examples=60, deadline=None)
    @given(sparse_class_functions())
    def test_matches_dict_semantics(self, case):
        n, f, g = case
        classes = bipartitions(n)
        cf = ClassFunction(n, [f.get(c, 0) for c in classes])
        cg = ClassFunction(n, [g.get(c, 0) for c in classes])
        assert [cf.at(c) for c in classes] == [f.get(c, 0) for c in classes]
        same = all(f.get(c, 0) == g.get(c, 0) for c in classes)
        assert (cf == cg) is same
        assert decompose(cf) == dict_decompose(n, f)
        # decompose's keys are virtual_character's, so the pair round-trips
        assert virtual_character(n, decompose(cf)) == cf

    def test_rejects_keys_that_are_not_classes(self):
        # classes of W_1 and W_3, None, and an unhashable pair
        for c in [Bipartition((1,)), Bipartition((3,)), None, ([2], [])]:
            with pytest.raises(ValueError, match="is not a class of W_2"):
                trivial_character(2).at(c)

    @pytest.mark.parametrize("length", [0, 4, 6])
    def test_rejects_a_wrong_number_of_values(self, length):
        with pytest.raises(ValueError, match=f"W_2 has 5 classes, got {length} values"):
            ClassFunction(2, (1,) * length)

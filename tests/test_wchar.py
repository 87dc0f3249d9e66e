from collections import Counter
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def trivial_character(n: int) -> ClassFunction:
    """The all-ones class function on W_n."""
    return ClassFunction(n, dict.fromkeys(bipartitions(n), 1))


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
        for n in range(5):
            for bp in bipartitions(n):
                assert Bipartition.parse(str(bp)) == bp

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
        assert centralizer_order(Bipartition.of(alpha, beta)) == expected

    def test_class_sizes_sum_to_group_order(self):
        for n in range(1, 9):
            assert sum(class_size(c) for c in bipartitions(n)) == group_order(n)


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

    return count(rho.parts, lam.parts)


def sn_centralizer(rho: Partition) -> int:
    z = 1
    for v, m in Counter(rho.parts).items():
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
                sign = (-1) ** (n - rho.length)
                assert sym_character(Partition((1,) * n), rho) == sign


class TestIrreducibles:
    def test_one_one_fixture(self):
        chi = w_irreducible(Bipartition.of((1,), (1,)))
        values = [chi.at(c) for c in bipartitions(2)]
        # classes ordered 2;- 1,1;- 1;1 -;2 -;1,1
        assert values == [0, 2, 0, 0, -2]

    def test_trivial(self):
        for n in range(1, 5):
            assert w_irreducible(Bipartition.of((n,))) == trivial_character(n)

    def test_w2_degrees(self):
        degrees = sorted(w_irreducible(bp).degree for bp in bipartitions(2))
        assert degrees == [1, 1, 1, 1, 2]

    def test_degree_squares(self):
        for n in range(1, 6):
            assert (
                sum(w_irreducible(bp).degree ** 2 for bp in bipartitions(n))
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
            chi = w_irreducible(Bipartition.of((), (n,)))
            assert chi.degree == 1
            squared = ClassFunction(n, {c: chi.at(c) ** 2 for c in bipartitions(n)})
            assert squared == trivial_character(n)

    def test_quadratic_character_values(self):
        assert quadratic_character_value(Bipartition.of((1,), ())) == 1
        assert quadratic_character_value(Bipartition.of((), (1, 1))) == 1
        assert quadratic_character_value(Bipartition.of((), (2,))) == -1


# Independent route to the W_n table: the defining induction products of a
# lifted S_a character and a twisted lifted S_b character.  The package
# builds the table by the B_n Murnaghan-Nakayama rule instead.


def lifted(part: Partition, twisted: bool) -> ClassFunction:
    """An S_m character pulled back along W_m -> S_m; the twisted lift is
    multiplied by the sign-flip character."""
    values = {}
    for c in bipartitions(part.size):
        cycle_type = Partition(tuple(sorted(c.alpha.parts + c.beta.parts, reverse=True)))
        sign = quadratic_character_value(c) if twisted else 1
        values[c] = sign * sym_character(part, cycle_type)
    return ClassFunction(part.size, values)


class TestMurnaghanNakayamaTable:
    def test_matches_induced_irreducibles_through_w7(self):
        for n in range(8):
            for bp, chi in character_table(n).items():
                induced = induction_product(lifted(bp.alpha, False), lifted(bp.beta, True))
                assert chi == induced, bp

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
        assert sum(chi.degree**2 for chi in table.values()) == group_order(n)


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
        want = ClassFunction.zero(n)
        for bp, coeff in coeffs.items():
            want = want + coeff * w_irreducible(bp)
        assert virtual_character(n, coeffs) == want

    def test_single_irreducibles_are_the_rows(self):
        for n in range(6):
            for bp, chi in character_table(n).items():
                assert virtual_character(n, {bp: 1}) == chi, bp

    def test_rejects_keys_that_are_not_irreducibles(self):
        with pytest.raises(ValueError, match="not an irreducible of W_2"):
            virtual_character(2, {Bipartition.of((1,)): 1})


class TestInductionProduct:
    def test_trivial_times_trivial_degree(self):
        f = trivial_character(1)
        prod = induction_product(f, f)
        assert prod.at(Bipartition.of((1, 1))) == 2

    def test_cross_term_fixture(self):
        f = w_irreducible(Bipartition.of((1,)))
        g = w_irreducible(Bipartition.of((), (1,)))
        prod = induction_product(f, g)
        cls = Bipartition.of((), (1, 1))
        assert prod.at(cls) == -2
        assert prod.at(cls) == w_irreducible(Bipartition.of((1,), (1,))).at(cls)

    def test_commutative(self):
        f = w_irreducible(Bipartition.of((2,), (1,)))
        g = w_irreducible(Bipartition.of((1,), (1,)))
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
            assert decompose(trivial_character(n)) == {Bipartition.of((n,)): 1}

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(-2, 2), min_size=10, max_size=10))
    def test_reconstruction(self, coeffs):
        bps = bipartitions(3)
        f = ClassFunction.zero(3)
        want = {}
        for coeff, bp in zip(coeffs, bps):
            if coeff:
                f = f + coeff * w_irreducible(bp)
                want[bp] = coeff
        assert decompose(f) == want

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
    return n, f, g, draw(values)


class TestDenseClassFunction:
    @settings(max_examples=60, deadline=None)
    @given(sparse_class_functions())
    def test_matches_dict_semantics(self, case):
        n, f, g, scalar = case
        cf, cg = ClassFunction(n, f), ClassFunction(n, g)
        classes = bipartitions(n)
        assert [cf.at(c) for c in classes] == [f.get(c, 0) for c in classes]
        assert cf + cg == ClassFunction(n, {c: f.get(c, 0) + g.get(c, 0) for c in classes})
        assert cf - cg == ClassFunction(n, {c: f.get(c, 0) - g.get(c, 0) for c in classes})
        assert scalar * cf == ClassFunction(n, {c: scalar * f.get(c, 0) for c in classes})
        same = all(f.get(c, 0) == g.get(c, 0) for c in classes)
        assert (cf == cg) is same
        assert decompose(cf) == dict_decompose(n, f)
        rebuilt = ClassFunction.zero(n)
        for bp, coeff in decompose(cf).items():
            rebuilt = rebuilt + coeff * w_irreducible(bp)
        assert rebuilt == cf

    def test_rejects_keys_that_are_not_classes(self):
        with pytest.raises(ValueError):
            ClassFunction(2, {Bipartition.of((1,)): 1})
        with pytest.raises(ValueError):
            ClassFunction(2, {"2;-": 1})
        with pytest.raises(ValueError):
            trivial_character(2).at(Bipartition.of((3,)))

    def test_degree_mismatch_in_arithmetic(self):
        with pytest.raises(ValueError):
            trivial_character(1) + trivial_character(2)

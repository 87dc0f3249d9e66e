import pytest
from hypothesis import given
from hypothesis import strategies as st

from distsym.partitions import Partition
from distsym.symbols import (
    SpecialSymbol,
    Symbol,
    cuspidal_symbol,
    from_bipartition,
    is_cuspidal,
    is_special,
    odd_defect_symbols,
    reduce_symbol,
    to_bipartition,
)
from distsym.wchar import bipartitions


def defect_one_symbols(rank: int) -> tuple[Symbol, ...]:
    """The defect-1 layer of odd_defect_symbols(rank)."""
    return tuple(s for s in odd_defect_symbols(rank) if s.defect == 1)


class TestSymbolBasics:
    def test_rows_must_increase(self):
        with pytest.raises(ValueError):
            Symbol((1, 1), ())
        with pytest.raises(ValueError):
            Symbol((2, 1), ())

    def test_must_be_reduced(self):
        with pytest.raises(ValueError):
            Symbol((0, 1), (0,))

    def test_canonical_orientation(self):
        assert Symbol((1,), (0, 2)) == Symbol((0, 2), (1,))
        s = Symbol((2,), (0, 1))
        assert s.top == (0, 1) and s.bottom == (2,)
        # equal lengths: lexicographically smaller row first
        assert Symbol((1, 3), (0, 2)).top == (0, 2)

    @pytest.mark.parametrize(
        "text,rank", [("0,1,2|-", 2), ("2|-", 2), ("0,2|1", 2), ("0,1,2|1,2", 2)]
    )
    def test_rank(self, text, rank):
        assert Symbol.parse(text).rank == rank

    def test_cuspidal_family_rank(self):
        for d in range(5):
            s = cuspidal_symbol(d)
            assert s.rank == d * d + d
            assert s.defect == 2 * d + 1

    @pytest.mark.parametrize(
        "text,defect", [("0,1,2|-", 3), ("0,2|1", 1), ("3|3", 0), ("-|-", 0)]
    )
    def test_defect(self, text, defect):
        assert Symbol.parse(text).defect == defect

    def test_str_parse(self):
        for text in ("0,2,4|1,3", "6|-", "-|-", "0,1,2|-"):
            assert str(Symbol.parse(text)) == text
        assert Symbol.parse("0,2|1").to_json() == {"top": [0, 2], "bottom": [1]}


class TestReduce:
    def test_one_step(self):
        assert reduce_symbol((0, 1, 3), (0, 2)) == Symbol.parse("0,2|1")

    def test_already_reduced(self):
        assert reduce_symbol((0, 2), (1,)) == Symbol.parse("0,2|1")

    def test_to_empty(self):
        assert reduce_symbol((0, 1), (0, 1)) == Symbol((), ())

    def test_rejects_repeats(self):
        with pytest.raises(ValueError):
            reduce_symbol((0, 0, 1), (2,))


def raw_rows():
    row = st.sets(st.integers(0, 20), max_size=6).map(lambda s: tuple(sorted(s)))
    return st.tuples(row, row)


@given(raw_rows())
def test_reduce_preserves_rank_and_defect(rows):
    top, bottom = rows

    def raw_rank(t, b):
        k = len(t) + len(b) - 1
        return sum(t) + sum(b) - (k * k) // 4

    reduced = reduce_symbol(top, bottom)
    assert reduced.rank == raw_rank(top, bottom)
    assert reduced.defect == abs(len(top) - len(bottom))
    # idempotent
    assert reduce_symbol(reduced.top, reduced.bottom) == reduced


class TestBipartitionCorrespondence:
    @pytest.mark.parametrize(
        "alpha,beta,expected",
        [
            ((3,), (3,), "0,4|3"),
            ((5,), (), "5|-"),
            ((2, 1), (2, 1), "0,2,4|1,3"),
            ((), (), "0|-"),
        ],
    )
    def test_from_bipartition(self, alpha, beta, expected):
        sym = from_bipartition(Partition(alpha), Partition(beta))
        assert str(sym) == expected

    def test_to_bipartition(self):
        alpha, beta = to_bipartition(Symbol.parse("0,2|1"))
        assert alpha == Partition((1,)) and beta == Partition((1,))

    def test_to_bipartition_needs_defect_one(self):
        with pytest.raises(ValueError):
            to_bipartition(Symbol.parse("0,1,2|-"))

    def test_roundtrip_all_small_bipartitions(self):
        for n in range(9):
            for bp in bipartitions(n):
                sym = from_bipartition(bp.alpha, bp.beta)
                assert sym.rank == n
                assert sym.defect == 1
                assert to_bipartition(sym) == (bp.alpha, bp.beta)

    def test_defect_one_enumeration_counts(self):
        for n in range(9):
            assert len(defect_one_symbols(n)) == len(bipartitions(n))

    def test_enumeration_agrees_with_map(self):
        for n in range(7):
            via_map = {from_bipartition(bp.alpha, bp.beta) for bp in bipartitions(n)}
            assert via_map == set(defect_one_symbols(n))


class TestSpecial:
    def test_reference_special(self):
        z = SpecialSymbol(Symbol.parse("0,2,4|1,3"))
        assert z.singles() == (0, 1, 2, 3, 4)
        assert z.doubles() == ()
        assert z.d == 2

    def test_not_special(self):
        assert not is_special(Symbol.parse("1,2|0"))
        with pytest.raises(ValueError):
            SpecialSymbol(Symbol.parse("1,2|0"))

    def test_with_doubles(self):
        z = SpecialSymbol(Symbol.parse("2,3|2"))
        assert z.singles() == (3,)
        assert z.doubles() == (2,)
        assert z.d == 0

    def test_requires_defect_one(self):
        with pytest.raises(ValueError):
            is_special(Symbol.parse("0,1,2|-"))

    def test_singles_always_odd(self):
        for n in range(7):
            for s in defect_one_symbols(n):
                if is_special(s):
                    assert len(SpecialSymbol(s).singles()) % 2 == 1


class TestCuspidal:
    @pytest.mark.parametrize(
        "text,expected",
        [("0,1,2|-", True), ("0,1,2,3,4|-", True), ("0,2|1", False), ("2|-", False)],
    )
    def test_examples(self, text, expected):
        assert is_cuspidal(Symbol.parse(text)) is expected

    def test_even_defect_rejected(self):
        with pytest.raises(ValueError):
            is_cuspidal(Symbol.parse("3|3"))


class TestOddDefectEnumeration:
    def test_rank2_reference_list(self):
        expected = {"2|-", "1,2|0", "0,2|1", "0,1|2", "0,1,2|1,2", "0,1,2|-"}
        assert {str(s) for s in odd_defect_symbols(2)} == expected

    def test_rank_and_defect_properties(self):
        for n in range(7):
            for s in odd_defect_symbols(n):
                assert s.rank == n
                assert s.defect % 2 == 1
                assert n >= s.defect**2 // 4

    def test_contains_defect_one_layer(self):
        for n in range(7):
            via_map = {from_bipartition(bp.alpha, bp.beta) for bp in bipartitions(n)}
            assert via_map <= set(odd_defect_symbols(n))

    def test_cuspidal_members(self):
        assert cuspidal_symbol(1) in odd_defect_symbols(2)
        assert cuspidal_symbol(2) in odd_defect_symbols(6)

import copy
import pickle
import re
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from distsym.partitions import Partition, partitions
from distsym.symbols import (
    SpecialSymbol,
    Symbol,
    cuspidal_symbol,
    is_cuspidal,
    is_special,
    label,
    odd_defect_symbols,
    reduce_symbol,
    symbol_of,
)
from distsym.wchar import Bipartition, bipartitions


def symbol_key(s: Symbol) -> tuple:
    """The reference order of symbols: rank, defect, then the rows."""
    return (s.rank, s.defect, s.top, s.bottom)


def defect_one_symbols(rank: int) -> tuple[Symbol, ...]:
    """The defect-1 layer of odd_defect_symbols(rank)."""
    return tuple(s for s in odd_defect_symbols(rank) if s.defect == 1)


@lru_cache(maxsize=None)
def brute_force_symbols(rank: int) -> tuple[Symbol, ...]:
    """Every reduced symbol of odd defect and the given rank, in the
    reference order, found by trying every pair of rows drawn from the
    subsets of range(rank + 2) (no entry of a rank-r symbol exceeds r):
    the independent reference for odd_defect_symbols, which is the label
    map's image."""
    rows = [c for size in range(rank + 3) for c in combinations(range(rank + 2), size)]
    found = []
    for top in rows:
        for bottom in rows:
            # odd defect: the top row is the longer, so each pair comes once
            if len(top) <= len(bottom) or (len(top) - len(bottom)) % 2 == 0:
                continue
            if bottom and top[0] == bottom[0] == 0:
                continue
            t = len(top) + len(bottom) - 1
            if sum(top) + sum(bottom) - t * t // 4 == rank:
                found.append(Symbol(top, bottom))
    return tuple(sorted(found, key=symbol_key))


class TestSymbolBasics:
    def test_rows_must_increase(self):
        with pytest.raises(ValueError):
            Symbol((1, 1), ())
        with pytest.raises(ValueError):
            Symbol((2, 1), ())

    def test_must_be_reduced(self):
        with pytest.raises(ValueError):
            Symbol((0, 1), (0,))

    def test_non_integer_entries_rejected(self):
        with pytest.raises(TypeError):
            Symbol((0, 1.5), (2.9,))
        with pytest.raises(TypeError):
            reduce_symbol((0, 1.5), (2.9,))

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

    def test_symbol_is_its_oriented_row_tuple(self):
        for r in range(9):
            syms = odd_defect_symbols(r)
            for s in syms:
                for same in (
                    Symbol(s.top, s.bottom),
                    Symbol.parse(str(s)),
                    Symbol._of_rows(s.bottom, s.top),
                    pickle.loads(pickle.dumps(s)),
                ):
                    # a plain tuple of the items would compare equal too
                    assert type(same) is Symbol, str(s)
                    assert same == s and hash(same) == hash(s), str(s)
                assert s.defect == len(s.top) - len(s.bottom)
                assert tuple(s) == (s.defect, s.top, s.bottom)
            assert sorted(syms[::-1]) == sorted(syms, key=symbol_key)


class TestPartitionTypes:
    def test_bipartition_is_its_pair_of_part_tuples(self):
        for n in range(9):
            for c in bipartitions(n):
                raw = tuple(map(tuple, c))
                for same in (
                    Bipartition(*raw),
                    Bipartition(*c),
                    copy.copy(c),
                    copy.deepcopy(c),
                    pickle.loads(pickle.dumps(c)),
                ):
                    # a plain tuple of the parts would compare equal too
                    assert type(same) is Bipartition, str(c)
                    assert all(type(p) is Partition for p in same), str(c)
                    assert same == c == raw and hash(same) == hash(c) == hash(raw), str(c)
                    assert (same.alpha, same.beta) == raw and same.n == n
                # the forms of the frozen dataclasses these types replaced
                old = [f"Partition(parts={parts!r})" for parts in raw]
                assert repr(c) == f"Bipartition(alpha={old[0]}, beta={old[1]})"
                assert str(c) == ";".join(",".join(map(str, p)) or "-" for p in raw)

    def test_partition_is_its_part_tuple(self):
        for n in range(9):
            for p in partitions(n):
                raw = tuple(p)
                assert type(Partition(raw)) is Partition
                assert Partition(raw) == p == raw and hash(Partition(raw)) == hash(raw)
                assert repr(p) == f"Partition(parts={raw!r})"
        # an empty partition is falsy, like ()
        assert not Partition() and not Bipartition().alpha and Partition((1,))
        assert bipartitions(0) == (((), ()),)

    @pytest.mark.parametrize(
        "parts,message",
        [((1, 2), "parts must be weakly decreasing: (1, 2)"),
         ((2, 0), "parts must be positive integers: (2, 0)")],
    )
    def test_checked_constructors_raise(self, parts, message):
        for build in (Partition, Bipartition, lambda p: Bipartition((), p)):
            with pytest.raises(ValueError, match=re.escape(message)):
                build(parts)


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
        # the defect-1 symbol of a bipartition
        sym = symbol_of(1, alpha, beta)
        assert str(sym) == expected
        assert symbol_of(1, Partition(alpha), Partition(beta)) == sym

    @pytest.mark.parametrize(
        "d,alpha,beta,expected",
        [
            (3, (), (), "0,1,2|-"),
            (3, (1,), (), "0,1,3|-"),
            (3, (), (1,), "0,1,2,3|1"),
            (5, (2,), (1, 1), "0,1,2,3,4,5,8|1,2"),
        ],
    )
    def test_symbol_of_higher_defect(self, d, alpha, beta, expected):
        sym = symbol_of(d, alpha, beta)
        assert str(sym) == expected
        assert sym.defect == d and sym.rank == sum(alpha) + sum(beta) + (d * d - 1) // 4

    @pytest.mark.parametrize(
        "parts,message",
        [
            # these gave 2,2|0, the unreduced 0,2|0 and -1|-
            ((1, 2), "parts must be weakly decreasing: (1, 2)"),
            ((1, 0), "parts must be positive integers: (1, 0)"),
            ((-1,), "parts must be positive integers: (-1,)"),
        ],
    )
    def test_symbol_of_rejects_a_label_that_is_not_a_partition(self, parts, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            symbol_of(1, parts, ())
        with pytest.raises(ValueError, match=re.escape(message)):
            symbol_of(3, (), parts)

    def test_to_bipartition(self):
        assert label(Symbol.parse("0,2|1")) == (1, (1,), (1,))

    def test_label_of_a_defect_three_symbol(self):
        # the cuspidal symbol of rank 2 has the empty label
        assert label(Symbol.parse("0,1,2|-")) == (3, (), ())

    def test_label_reads_the_plain_tuple(self):
        for r in range(9):
            for z in odd_defect_symbols(r):
                assert label(tuple(z)) == label(z), str(z)

    @pytest.mark.parametrize("d", [0, 2, 4, -1, -3])
    def test_even_or_non_positive_defect_rejected(self, d):
        message = f"labels are defined for odd positive defect, got {d}"
        with pytest.raises(ValueError, match=re.escape(message)):
            symbol_of(d, (), ())
        with pytest.raises(ValueError, match=re.escape(message)):
            label((d, (0, 1), ()))

    def test_roundtrip_all_small_bipartitions(self):
        for n in range(9):
            for bp in bipartitions(n):
                for d in (1, 3, 5):
                    sym = symbol_of(d, bp.alpha, bp.beta)
                    assert sym.rank == n + (d * d - 1) // 4
                    assert sym.defect == d
                    assert label(sym) == (d, *bp)

    def test_symbol_of_label_is_the_symbol_through_rank_20(self):
        for r in range(21):
            for z in odd_defect_symbols(r):
                assert symbol_of(*label(z)) == z, str(z)

    def test_from_bipartition_equals_checked_construction(self):
        # symbol_of builds its symbol unchecked
        for n in range(9):
            for bp in bipartitions(n):
                for d in (1, 3, 5):
                    sym = symbol_of(d, bp.alpha, bp.beta)
                    checked = Symbol(sym.top, sym.bottom)
                    assert (checked.top, checked.bottom) == (sym.top, sym.bottom), str(sym)
                    assert checked == sym and hash(checked) == hash(sym), str(sym)

    def test_defect_one_enumeration_counts(self):
        # the reference's defect-1 symbols are as many as the bipartitions
        for n in range(7):
            found = [s for s in brute_force_symbols(n) if s.defect == 1]
            assert len(found) == len(bipartitions(n))
            assert len(defect_one_symbols(n)) == len(bipartitions(n))

    def test_enumeration_agrees_with_map(self):
        # every reduced pair of rows, not the map, in the reference order
        for n in range(7):
            assert odd_defect_symbols(n) == brute_force_symbols(n)


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

    def test_negative_d_rejected(self):
        # d = -1 gave the empty symbol, of defect 0
        with pytest.raises(ValueError, match="d must be non-negative"):
            cuspidal_symbol(-1)


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
            via_map = {symbol_of(1, bp.alpha, bp.beta) for bp in bipartitions(n)}
            assert via_map <= set(odd_defect_symbols(n))

    def test_sort_key_is_rank_defect_rows(self):
        # within one rank the symbols' own order is the reference order
        for r in range(11):
            syms = odd_defect_symbols(r)
            assert list(syms) == sorted(syms, key=symbol_key)

    def test_cuspidal_members(self):
        assert cuspidal_symbol(1) in odd_defect_symbols(2)
        assert cuspidal_symbol(2) in odd_defect_symbols(6)

    def test_negative_rank_rejected(self):
        # rank -2 gave no symbols, where every other enumerator raises
        with pytest.raises(ValueError, match="rank must be non-negative"):
            odd_defect_symbols(-2)

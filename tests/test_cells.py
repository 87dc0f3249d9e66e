import dataclasses
import functools
import hashlib
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distsym import cells
from distsym.cells import (
    Arrangement,
    FamilyModelViolation,
    distinguished,
    even_strip_specials,
    family,
    fourier_constituents,
    is_admissible,
    make_cell,
    odd_difference_pairs,
    rank_report,
    standard_arrangement,
    swap_pairs,
)
from distsym.symbols import (
    SpecialSymbol,
    Symbol,
    cuspidal_symbol,
    from_bipartition,
    is_special,
    symbol_sort_key,
    to_bipartition,
)
from distsym.wchar import Bipartition, bipartitions, inner_product, virtual_character
from distsym.xi import xi

Z4 = SpecialSymbol(Symbol.parse("0,2|1"))
Z12 = SpecialSymbol(Symbol.parse("0,2,4|1,3"))


def special_symbols_of_rank(rank):
    """All special symbols of a rank, by filtering the defect-1 symbols of
    every bipartition: the independent reference the beta-first generator
    even_strip_specials is checked against."""
    out = []
    for bp in bipartitions(rank):
        sym = from_bipartition(bp.alpha, bp.beta)
        if is_special(sym):
            out.append(SpecialSymbol(sym))
    return tuple(sorted(out, key=lambda z: symbol_sort_key(z.symbol)))


def cell_character(cell):
    """The cell's signed sum of irreducibles of W_rank as a class function,
    through the bipartition map."""
    terms = {Bipartition(*to_bipartition(sym)): sign for sign, sym in cell.terms}
    return virtual_character(cell.z.rank, terms)


def reference_constituents(cell):
    """The even-subset pairing weighed over every member of family(Z) with
    frozenset indices: the independent reference for fourier_constituents.
    Term t swaps the pairs at the set bits of t."""
    z, d = cell.z, cell.d
    pairs = cell.arrangement.pairs
    swapped = [
        (sign, frozenset(x for i, p in enumerate(pairs) if t >> i & 1 for x in p))
        for t, (sign, _) in enumerate(cell.terms)
    ]
    constituents = []
    for a, sym in family(z):
        num = sum(sign * (-1) ** len(a & b) for sign, b in swapped)
        if num % 2**d:
            raise FamilyModelViolation(z, a, f"{num}/{2 ** d}")
        mult = num // 2**d
        if mult not in (0, 1):
            raise FamilyModelViolation(z, a, mult)
        if mult:
            constituents.append(sym)
    if len(constituents) != 2**d:
        raise FamilyModelViolation(z, frozenset(), f"{len(constituents)} constituents")
    return tuple(sorted(constituents, key=symbol_sort_key))


@functools.cache
def cells_by_d():
    """The standard cells of ranks 2..20, grouped by d."""
    out = {}
    for n in range(1, 11):
        for z in even_strip_specials(n):
            out.setdefault(z.d, []).append(make_cell(z))
    return out


def outcome(fn, cell):
    """The constituents, or the payload of the violation raised."""
    try:
        return fn(cell)
    except FamilyModelViolation as err:
        return err.payload


def flip_term(cell, t):
    """The cell with the sign of term t reversed."""
    terms = list(cell.terms)
    sign, sym = terms[t]
    terms[t] = (-sign, sym)
    return dataclasses.replace(cell, terms=tuple(terms))


class TestArrangements:
    def test_standard_arrangement_examples(self):
        arr = standard_arrangement(Z12)
        assert arr.pairs == ((0, 1), (2, 3)) and arr.isolated == 4
        arr = standard_arrangement(Z4)
        assert arr.pairs == ((0, 1),) and arr.isolated == 2
        arr = standard_arrangement(SpecialSymbol(Symbol.parse("2,3|2")))
        assert arr.pairs == () and arr.isolated == 3

    def test_standard_arrangement_rejects_double_hits(self):
        # special, but the columnwise partner of 0 is the doubled entry 2
        z = SpecialSymbol(Symbol.parse("0,2,3|2,3"))
        with pytest.raises(ValueError):
            standard_arrangement(z)

    def test_odd_difference_pairs(self):
        assert odd_difference_pairs(Z4) == ((0, 1),)
        assert odd_difference_pairs(Z12) == ((0, 1), (2, 3))
        assert odd_difference_pairs(SpecialSymbol(Symbol.parse("0,5|2"))) == ()

    def test_admissibility_reference(self):
        assert is_admissible(Z4, Arrangement(((0, 1),), 2))
        assert not is_admissible(Z4, Arrangement(((0, 2),), 1))
        assert is_admissible(Z4, Arrangement(((1, 2),), 0))

    def test_admissibility_respects_doubles(self):
        # singles 0,1,5 of 0,2,5|1,2 with the double 2 between 1 and 5
        z = SpecialSymbol(Symbol.parse("0,2,5|1,2"))
        assert is_admissible(z, Arrangement(((0, 1),), 5))
        assert not is_admissible(z, Arrangement(((1, 5),), 0))

    def test_admissibility_requires_partition(self):
        with pytest.raises(ValueError):
            is_admissible(Z4, Arrangement(((0, 1),), 5))

    def test_standard_arrangement_always_admissible(self):
        for n in range(0, 5):
            for z in even_strip_specials(n):
                assert is_admissible(z, standard_arrangement(z)), str(z)


class TestSwap:
    def test_swap_examples(self):
        assert str(swap_pairs(Z4, ((0, 1),))) == "1,2|0"
        assert str(swap_pairs(Z12, ((2, 3),))) == "0,3,4|1,2"
        assert swap_pairs(Z12, ()) == Z12.symbol

    def test_swap_keeps_rank(self):
        for psi in ((), ((0, 1),), ((2, 3),), ((0, 1), (2, 3))):
            sym = swap_pairs(Z12, psi)
            assert sym.rank == Z12.rank and sym.defect == 1

    def test_swap_rejects_doubled_entry(self):
        # 2 sits in both rows of 0,2,5|1,2; swapping it would drop it
        z = SpecialSymbol(Symbol.parse("0,2,5|1,2"))
        with pytest.raises(ValueError, match=re.escape("2 is not a single of 0,2,5|1,2")):
            swap_pairs(z, ((1, 2),))

    def test_swap_rejects_entry_outside_z(self):
        z = SpecialSymbol(Symbol.parse("0,2,5|1,2"))
        with pytest.raises(ValueError, match="7 is not a single"):
            swap_pairs(z, ((0, 7),))

    def test_swap_rejects_pair_repeating_a_member(self):
        # swapping 0 twice would leave Z unchanged
        with pytest.raises(ValueError, match=re.escape("0 appears twice in the pairs ((0, 0),)")):
            swap_pairs(Z4, ((0, 0),))

    @pytest.mark.parametrize("pair", [(0,), (0, 1, 2), ()])
    def test_swap_rejects_entry_without_two_members(self, pair):
        # swapping the lone 0 of (0,) would return 0,1|2
        with pytest.raises(ValueError, match=re.escape(f"{pair} does not have two members")):
            swap_pairs(Z4, (pair,))

    def test_swap_rejects_single_in_two_pairs(self):
        # swapping 1 twice would return 0,1,2,3|4
        with pytest.raises(ValueError, match=re.escape("1 appears twice in the pairs ((0, 1), (1, 2))")):
            swap_pairs(Z12, ((0, 1), (1, 2)))


class TestCells:
    def test_rank2_cell(self):
        c = make_cell(Z4)
        assert [(s, str(sym)) for s, sym in c.terms] == [
            (1, "0,2|1"),
            (-1, "1,2|0"),
        ]

    def test_rank6_cell(self):
        c = make_cell(Z12)
        assert [(s, str(sym)) for s, sym in c.terms] == [
            (1, "0,2,4|1,3"),
            (-1, "1,2,4|0,3"),
            (-1, "0,3,4|1,2"),
            (1, "1,3,4|0,2"),
        ]

    def test_even_difference_cell_has_plus_signs(self):
        c = make_cell(SpecialSymbol(Symbol.parse("0,5|2")))
        assert [(s, str(sym)) for s, sym in c.terms] == [
            (1, "0,5|2"),
            (1, "2,5|0"),
        ]

    def test_degenerate_cell(self):
        c = make_cell(SpecialSymbol(Symbol.parse("6|-")))
        assert c.terms == ((1, Symbol.parse("6|-")),)

    def test_first_term_is_z(self):
        for z in even_strip_specials(3):
            c = make_cell(z)
            assert c.terms[0] == (1, z.symbol)
            assert len({sym for _, sym in c.terms}) == 2**c.d

    def test_default_arrangement_computed_once(self, monkeypatch):
        calls = []
        original = cells.standard_arrangement

        def counted(z):
            calls.append(z)
            return original(z)

        monkeypatch.setattr(cells, "standard_arrangement", counted)
        c = make_cell(Z12)
        assert calls == [Z12]
        assert c.arrangement == original(Z12)
        assert c.sign_pairs == ((0, 1), (2, 3))

    def test_given_arrangement_keeps_standard_sign_pairs(self):
        # the standard pair (0, 2) of 0,5|2 has even difference, so no sign
        # pairs, although the given pair (2, 5) has odd difference
        z = SpecialSymbol(Symbol.parse("0,5|2"))
        c = make_cell(z, Arrangement(((2, 5),), 0))
        assert c.sign_pairs == ()
        assert [(s, str(sym)) for s, sym in c.terms] == [(1, "0,5|2"), (1, "0,2|5")]

    def test_inadmissible_arrangement_rejected(self):
        with pytest.raises(ValueError):
            make_cell(Z4, Arrangement(((0, 2),), 1))

    def test_terms_are_swapped_pairs_through_rank_20(self):
        for n in range(1, 11):
            for z in even_strip_specials(n):
                c = make_cell(z)
                pairs = c.arrangement.pairs
                for t, (_, sym) in enumerate(c.terms):
                    psi = tuple(p for i, p in enumerate(pairs) if t >> i & 1)
                    assert sym == swap_pairs(z, psi), (str(z), t)


class TestEnumeration:
    def test_rank2(self):
        assert {str(z) for z in even_strip_specials(1)} == {"2|-", "0,2|1"}

    def test_rank4(self):
        assert {str(z) for z in even_strip_specials(2)} == {
            "0,3|2",
            "0,2,3|1,2",
            "0,4|1",
            "4|-",
        }

    def test_rank6_reference(self):
        assert {str(z) for z in even_strip_specials(3)} == {
            "0,4|3",
            "0,2,4|1,3",
            "0,2,3,4|1,2,3",
            "0,5|2",
            "2,3|2",
            "0,2,5|1,2",
            "0,6|1",
            "6|-",
        }

    def test_odd_rank_empty(self):
        assert rank_report(3).entries == []
        assert rank_report(5).entries == []

    def test_subset_of_specials(self):
        for n in (1, 2, 3, 4):
            assert set(even_strip_specials(n)) <= set(special_symbols_of_rank(2 * n))


class TestFamilies:
    def test_rank2_family(self):
        assert {str(sym) for _, sym in family(Z4)} == {
            "0,2|1",
            "1,2|0",
            "0,1|2",
            "0,1,2|-",
        }

    def test_singleton_family(self):
        z = SpecialSymbol(Symbol.parse("6|-"))
        assert [str(sym) for _, sym in family(z)] == ["6|-"]

    def test_rank6_family(self):
        syms = {str(sym) for _, sym in family(Z12)}
        assert len(syms) == 16
        assert "0,1,2,3,4|-" in syms and "0,1,2,3|4" in syms

    def test_family_members_share_rank_and_odd_defect(self):
        for z in even_strip_specials(3):
            members = family(z)
            assert len(members) == 2 ** (2 * z.d)
            assert len({sym for _, sym in members}) == len(members)
            for a, sym in members:
                assert len(a) % 2 == 0
                assert sym.rank == z.rank
                assert sym.defect % 2 == 1
            assert members[0] == (frozenset(), z.symbol)

    def test_members_are_swapped_pairs_through_rank_12(self):
        # the set-based reference: the member at A swaps sorted(A) in
        # consecutive pairs
        for rank in range(1, 13):
            for z in special_symbols_of_rank(rank):
                for a, sym in family(z):
                    members = sorted(a)
                    pairs = tuple(zip(members[::2], members[1::2]))
                    assert sym == swap_pairs(z, pairs), (str(z), members)

    def test_members_equal_checked_symbols_through_rank_10(self):
        # family() builds its members unchecked; the checked constructor
        # must accept the same rows and give an equal, equally hashed symbol
        for rank in range(11):
            for z in special_symbols_of_rank(rank):
                for _, sym in family(z):
                    checked = Symbol(sym.top, sym.bottom)
                    assert (checked.top, checked.bottom) == (sym.top, sym.bottom), str(sym)
                    assert checked == sym and hash(checked) == hash(sym), str(sym)

    def test_families_disjoint_per_rank(self):
        for rank in range(1, 9):
            seen: dict = {}
            for z in special_symbols_of_rank(rank):
                for _, sym in family(z):
                    assert sym not in seen, (str(z), seen.get(sym))
                    seen[sym] = str(z)


class TestFourier:
    def test_rank2_constituents(self):
        c = make_cell(Z4)
        assert {str(s) for s in fourier_constituents(c)} == {"0,1|2", "0,1,2|-"}

    def test_degenerate(self):
        z = SpecialSymbol(Symbol.parse("6|-"))
        assert fourier_constituents(make_cell(z)) == (Symbol.parse("6|-"),)

    def test_rank6_constituents(self):
        computed = {str(s) for s in fourier_constituents(make_cell(Z12))}
        assert len(computed) == 4
        reference = {"2,3,4|0,1", "0,3,4|1,2", "0,1,2,3|4", "0,1,2,3,4|-"}
        assert len(computed & reference) == 3

    def test_sizes(self):
        for n in (1, 2, 3, 4):
            for z in even_strip_specials(n):
                c = make_cell(z)
                assert len(fourier_constituents(c)) == 2**c.d

    @pytest.mark.parametrize("z, multiplicity", [(Z4, "-1"), (Z12, "-2/4")])
    def test_flipped_sign_is_a_violation(self, z, multiplicity):
        with pytest.raises(FamilyModelViolation) as err:
            fourier_constituents(flip_term(make_cell(z), 0))
        assert err.value.payload == {
            "special_symbol": str(z),
            "family_index": [],
            "multiplicity": multiplicity,
        }

    def test_matches_reference_through_rank_12(self):
        for n in range(1, 7):
            for z in even_strip_specials(n):
                c = make_cell(z)
                assert fourier_constituents(c) == reference_constituents(c), str(z)

    def test_flipped_signs_match_reference(self):
        for n in (1, 2, 3):
            for z in even_strip_specials(n):
                c = make_cell(z)
                for t in range(len(c.terms)):
                    flipped = flip_term(c, t)
                    expected = outcome(reference_constituents, flipped)
                    assert outcome(fourier_constituents, flipped) == expected

    def test_term_count_checked(self):
        c = make_cell(Z12)
        for terms in (c.terms[:-1], c.terms + c.terms[:1]):
            with pytest.raises(ValueError, match="d = 2 needs 4 terms"):
                fourier_constituents(dataclasses.replace(c, terms=terms))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_arbitrary_signs_match_reference_through_rank_20(self, data):
        # d is drawn first, so d = 3 and d = 4 (ranks 12 and 20 up) are common
        d = data.draw(st.sampled_from(sorted(cells_by_d())))
        c = data.draw(st.sampled_from(cells_by_d()[d]))
        size = 2**d
        arbitrary = st.lists(st.sampled_from((1, -1)), min_size=size, max_size=size)
        # signs outside +-1 also reach the survivor-count check
        integers = st.lists(st.integers(-2, 2), min_size=size, max_size=size)
        # +-(-1)**popcount(t & m): one syndrome at +-2**d, the rest 0
        character = st.builds(
            lambda m, eps: [eps * (-1) ** (t & m).bit_count() for t in range(size)],
            st.integers(0, size - 1),
            st.sampled_from((1, -1)),
        )
        signs = data.draw(st.one_of(arbitrary, character, integers))
        terms = tuple((s, sym) for s, (_, sym) in zip(signs, c.terms))
        cell = dataclasses.replace(c, terms=terms)
        expected = outcome(reference_constituents, cell)
        assert outcome(fourier_constituents, cell) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_sign_pairs(self, data):
        n = data.draw(st.integers(1, 4))
        z = data.draw(st.sampled_from(even_strip_specials(n)))
        pairs = standard_arrangement(z).pairs
        mask = data.draw(st.integers(0, 2 ** len(pairs) - 1))
        chosen = tuple(p for i, p in enumerate(pairs) if mask >> i & 1)
        c = make_cell(z, sign_pairs=chosen)
        # the reference raises on a multiplicity outside {0, 1}
        assert fourier_constituents(c) == reference_constituents(c)
        assert len(fourier_constituents(c)) == 2**c.d


class TestCellCharacters:
    def test_cell_norm_and_pairing(self):
        for n in (1, 2, 3):
            char = xi(n, "A").character
            for z in even_strip_specials(n):
                c = cell_character(make_cell(z))
                assert inner_product(c, c) == 2**z.d, str(z)
                assert inner_product(char, c) == 2**z.d, str(z)

    def test_cell_signs_inside_decomposition(self):
        for n in (1, 2, 3):
            decomp = xi(n, "A").decomposition
            for z in even_strip_specials(n):
                for sign, sym in make_cell(z).terms:
                    bp = Bipartition(*to_bipartition(sym))
                    assert decomp.get(bp) == sign, (str(z), str(sym))

    def test_cells_sum_to_xi(self):
        for n in (1, 2, 3):
            total = None
            for z in even_strip_specials(n):
                c = cell_character(make_cell(z))
                total = c if total is None else total + c
            assert total == xi(n, "A").character


class TestDistinguished:
    def test_rank2_report(self):
        rep = distinguished(1)
        assert {str(s) for s in rep.union} == {"2|-", "0,1|2", "0,1,2|-"}
        assert rep.count == 3
        assert rep.cuspidal_present

    def test_counts(self):
        counts = [distinguished(n).count for n in range(1, 11)]
        assert counts == [3, 7, 16, 32, 61, 112, 197, 336, 560, 912]

    def test_cuspidal_flags(self):
        assert not distinguished(2).cuspidal_present
        rep = distinguished(3)
        assert rep.cuspidal_present
        assert cuspidal_symbol(2) in rep.union
        assert Symbol.parse("0,1,2,3,4,5,6,7,8|-") in distinguished(10).union

    def test_cuspidal_present_whenever_rank_matches(self):
        flagged = [n for n in range(1, 11) if distinguished(n).cuspidal_present]
        assert flagged == [1, 3, 6, 10]
        for n in (1, 2, 3, 4, 5):
            rep = distinguished(n)
            solvable = any(d * d + d == 2 * n for d in range(2 * n + 1))
            assert rep.cuspidal_present == solvable

    def test_n15_cuspidal_in_one_cell(self):
        rep = distinguished(15)
        assert rep.count == 8123 and rep.cuspidal_present
        cusp = cuspidal_symbol(5)
        carriers = [e for e in rep.entries if cusp in e.constituents]
        assert len(carriers) == 1
        (entry,) = carriers
        assert str(entry.z) == "0,2,4,6,8,10|1,3,5,7,9" and entry.d == 5
        # multiplicity one, by the reference sign sum over the whole family
        assert reference_constituents(entry.cell).count(cusp) == 1

    def test_counts_match_product_formula(self):
        # the coefficient of x**n in prod_k (1 - x**k)**-1 * prod_{k odd}
        # (1 - x**k)**-2 is <xi_n, xi_n>, a theorem on the W side (the
        # distsym.xi docstring); that the distinguished count equals it is
        # what this checks
        top = 15
        coeffs = [1] + [0] * top
        for k in range(1, top + 1):
            for _ in range(3 if k % 2 else 1):
                for i in range(k, top + 1):
                    coeffs[i] += coeffs[i - k]
        assert [distinguished(n).count for n in range(1, top + 1)] == coeffs[1:]

    def test_overlap_names_the_cell_that_meets_an_earlier_family(self, monkeypatch):
        # 6|- claims 0,1,4|2,3, a constituent of the earlier 0,2,4|1,3
        original = cells.fourier_constituents
        shared = (Symbol.parse("0,1,4|2,3"),)
        monkeypatch.setattr(
            cells,
            "fourier_constituents",
            lambda cell: shared if str(cell.z) == "6|-" else original(cell),
        )
        with pytest.raises(FamilyModelViolation) as err:
            rank_report(6)
        assert err.value.payload == {
            "special_symbol": "6|-",
            "family_index": [],
            "multiplicity": "0,1,4|2,3 is also carried by 0,2,4|1,3",
        }

    def test_short_cell_is_named_by_the_count_check(self, monkeypatch):
        # 0,2,4|1,3 repeats one of its four constituents
        original = cells.fourier_constituents

        def repeated(cell):
            out = original(cell)
            return out[:1] + out[:-1] if str(cell.z) == "0,2,4|1,3" else out

        monkeypatch.setattr(cells, "fourier_constituents", repeated)
        with pytest.raises(FamilyModelViolation) as err:
            rank_report(6)
        assert err.value.payload == {
            "special_symbol": "0,2,4|1,3",
            "family_index": [],
            "multiplicity": "union size 5 != 6",
        }

    def test_count_is_union_size(self):
        for n in (1, 2, 3, 4):
            rep = distinguished(n)
            assert rep.count == len(rep.union)
            assert rep.count == sum(2**e.d for e in rep.entries)

    def test_reports_through_rank_30_are_pinned(self):
        # the ranks the cells-r28 benchmark covers, and two more
        digest = hashlib.sha256()
        for rank in range(31):
            digest.update(json.dumps(rank_report(rank).to_json()).encode())
        assert digest.hexdigest() == (
            "4a079e3009eef529bc6f39ac6b6c8a1058f636f7f5040a5279adcc179bb672a7"
        )

    def test_json_schema(self):
        payload = distinguished(1).to_json()
        assert set(payload) == {"rank", "cells", "union", "count", "cuspidal_present"}
        assert payload["rank"] == 2
        cell = payload["cells"][0]
        assert set(cell) == {"Z", "d", "terms", "constituents"}
        assert all(set(t) == {"sign", "symbol"} for t in cell["terms"])

import functools
import hashlib
import json
import re
from bisect import bisect_left, bisect_right
from itertools import combinations

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
from distsym.partitions import horizontal_strips, partitions
from distsym.symbols import (
    SpecialSymbol,
    Symbol,
    _rows_text,
    cuspidal_symbol,
    is_special,
    label,
    symbol_of,
)
from distsym.wchar import bipartitions, inner_product, virtual_character
from distsym.xi import xi
from test_symbols import symbol_key

Z4 = SpecialSymbol(Symbol.parse("0,2|1"))
Z12 = SpecialSymbol(Symbol.parse("0,2,4|1,3"))


def even_subsets(items):
    """All even-cardinality subsets, ordered by size then lexicographically:
    the family order that family() and the first violation are checked
    against."""
    items = sorted(items)
    return tuple(
        frozenset(comb) for k in range(0, len(items) + 1, 2) for comb in combinations(items, k)
    )


def reference_flipped_rows(z, masks):
    """Z's rows with the singles at the set bits of each mask moved to the
    other row, not yet oriented, by value: the flip that the layout's row
    plans are checked against."""
    sym, singles, doubles = z
    in_top = set(sym.top)
    top = sum(1 << i for i, x in enumerate(singles) if x in in_top)
    bits = [(1 << i, x) for i, x in enumerate(singles)]
    for mask in masks:
        new_top = top ^ mask
        top_row = list(doubles)
        bottom_row = list(doubles)
        for bit, x in bits:
            (top_row if new_top & bit else bottom_row).append(x)
        top_row.sort()
        bottom_row.sort()
        yield tuple(top_row), tuple(bottom_row)


def reference_flipped(z, masks):
    """The symbols of reference_flipped_rows, oriented by the Symbol
    constructor."""
    return [Symbol(top, bottom) for top, bottom in reference_flipped_rows(z, masks)]


def reference_swapped(z, pairs):
    """Z with the two members of each pair moved to the other row, by set
    algebra on Z's rows: the reference for swap_pairs, term_rows and
    family()."""
    top, bottom = set(z.symbol.top), set(z.symbol.bottom)
    for x in (x for pair in pairs for x in pair):
        if x in top:
            top.remove(x)
            bottom.add(x)
        else:
            bottom.remove(x)
            top.add(x)
    return Symbol(tuple(sorted(top)), tuple(sorted(bottom)))


def reference_standard_arrangement(z):
    """The standard arrangement with its parity check on Z's values: the
    reference for the layout's parity check."""
    _, singles, doubles = z
    if any(bisect_left(singles, x) & 1 for x in doubles):
        raise ValueError(f"columnwise pairing of {z} hits a doubled entry")
    return Arrangement(tuple(zip(singles[::2], singles[1::2])), singles[-1])


def reference_is_admissible(z, arrangement):
    """The greedy pair removal on Z's values: the reference for the
    layout's admissibility check."""
    _, singles, doubles = z
    members = [arrangement.isolated]
    for a, b in arrangement.pairs:
        members.extend((a, b))
    if tuple(sorted(members)) != singles:
        raise ValueError(f"{arrangement} does not partition the singles of {z}")
    active = list(singles)
    pending = list(arrangement.pairs)
    while pending:
        for a, b in pending:
            i = active.index(a)
            if (
                i + 1 < len(active)
                and active[i + 1] == b
                and bisect_right(doubles, a) == bisect_left(doubles, b)
            ):
                break
        else:
            return False
        pending.remove((a, b))
        del active[i : i + 2]
    return True


def reference_layout(z):
    """Z's layout counted entry by entry: the doubles below each single,
    and the number of doubles."""
    _, singles, doubles = z
    return tuple(sum(x < s for x in doubles) for s in singles), len(doubles)


def reference_cell(z, arrangement=None, sign_pairs=None):
    """Z's cell for an admissible arrangement (the standard one by default)
    from the value references: terms over the subsets of the pairs as
    bitmasks, the sign pairs (the pairs of odd difference by default)
    flipping the sign.  make_cell builds only the standard cell; this
    builds the others that the Fourier step and term_rows are checked on.
    A Cell holds no arrangement, so callers keep theirs beside it."""
    if arrangement is None:
        arrangement = reference_standard_arrangement(z)
    assert reference_is_admissible(z, arrangement)
    if sign_pairs is None:
        sign_pairs = tuple(p for p in arrangement.pairs if (p[1] - p[0]) % 2)
    assert set(sign_pairs) <= set(arrangement.pairs)
    index = z.singles().index
    signs, masks = [1], [0]
    for a, b in arrangement.pairs:
        sign = -1 if (a, b) in sign_pairs else 1
        signs += [sign * s for s in signs]
        masks += [m | 1 << index(a) | 1 << index(b) for m in masks]
    return cells.Cell(z, tuple(signs), tuple(masks))


def term_symbols(cell):
    """The cell's terms as (sign, Symbol): Z with each mask's singles moved
    to the other row, oriented by the Symbol constructor."""
    return list(zip(cell.signs, reference_flipped(cell.z, cell.masks)))


def special_symbols_of_rank(rank):
    """All special symbols of a rank, by filtering the defect-1 symbols of
    every bipartition: the independent reference the beta-first generator
    even_strip_specials is checked against."""
    out = []
    for bp in bipartitions(rank):
        sym = symbol_of(1, bp.alpha, bp.beta)
        if is_special(sym):
            out.append(SpecialSymbol(sym))
    return tuple(sorted(out, key=lambda z: symbol_key(z.symbol)))


def reference_even_strip_specials(n):
    """The checked construction of the even-strip specials: the
    SpecialSymbol of symbol_of(1, alpha, beta) for every even strip alpha
    over beta, sorted.  The reference even_strip_specials, which builds
    each from its label's rows unchecked, is held to."""
    labels = [
        (alpha, beta)
        for bsize in range(n, -1, -1)
        for beta in partitions(bsize)
        for alpha in horizontal_strips(beta, 2 * n - 2 * bsize, 2)
    ]
    return tuple(sorted(map(SpecialSymbol, (symbol_of(1, a, b) for a, b in labels))))


def cell_character(cell):
    """The cell's signed sum of irreducibles of W_rank as a class function,
    through the bipartition map."""
    terms = {label(sym)[1:]: sign for sign, sym in term_symbols(cell)}
    return virtual_character(cell.z.symbol.rank, terms)


def reference_constituents(cell, arrangement=None):
    """The even-subset pairing weighed over every member of family(Z) with
    frozenset indices: the independent reference for fourier_constituents.
    Term t swaps the pairs of the cell's arrangement (the standard one by
    default) at the set bits of t."""
    z, d = cell.z, cell.d
    if arrangement is None:
        arrangement = reference_standard_arrangement(z)
    pairs = arrangement.pairs
    swapped = [
        (sign, frozenset(x for i, p in enumerate(pairs) if t >> i & 1 for x in p))
        for t, sign in enumerate(cell.signs)
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
    return tuple(sorted(constituents, key=symbol_key))


@functools.cache
def cells_by_d():
    """The standard cells of ranks 2..20, grouped by d."""
    out = {}
    for n in range(1, 11):
        for z in even_strip_specials(n):
            out.setdefault(z.d, []).append(make_cell(z))
    return out


@functools.cache
def admissible_cells():
    """Every admissible arrangement of every special symbol of rank <= 12
    (up to 7 singles), beside its reference cell with no sign pairs."""
    return [
        (arr, reference_cell(z, arr, ()))
        for rank in range(13)
        for z in special_symbols_of_rank(rank)
        for arr in all_arrangements(z.singles())
        if is_admissible(z, arr)
    ]


def outcome(fn, cell):
    """The constituents, or the payload of the violation raised."""
    try:
        return fn(cell)
    except FamilyModelViolation as err:
        return err.payload


def flip_term(cell, t):
    """The cell with the sign of term t reversed."""
    signs = list(cell.signs)
    signs[t] = -signs[t]
    return cell._replace(signs=tuple(signs))


def columnwise_arrangement(z):
    """The standard arrangement as the columnwise pairing of Z's rows,
    checked against the singles with sets: the reference for
    standard_arrangement, which reads the pairs off the singles."""
    sym, singles, _ = z
    top, bottom = sym.top, sym.bottom
    pairs = tuple(
        (top[i], bottom[i]) for i in range(len(bottom)) if top[i] != bottom[i]
    )
    singles = set(singles)
    used = {x for p in pairs for x in p}
    if not used <= singles:
        raise ValueError(f"columnwise pairing of {z} hits a doubled entry")
    rest = sorted(singles - used)
    if len(rest) != 1:
        raise ValueError(f"columnwise pairing of {z} does not isolate one single")
    return Arrangement(pairs, rest[0])


def index_pattern(z, arrangement):
    """The arrangement's pairs and isolated single as indices into the
    sorted singles of Z."""
    index = z.singles().index
    return tuple((index(a), index(b)) for a, b in arrangement.pairs), index(arrangement.isolated)


def masks_pattern(cell):
    """The index pattern read off a cell's masks: term 1 << j swaps pair j
    alone, and the last term swaps every single but the isolated one."""
    bits = lambda mask: tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
    pairs = tuple(bits(cell.masks[1 << j]) for j in range(cell.d))
    (isolated,) = bits(cell.masks[-1] ^ ((1 << len(cell.z.singles())) - 1))
    return pairs, isolated


def backtracking_admissible(z, arrangement):
    """The recursive definition of admissibility, searched by backtracking:
    the reference for the greedy loop of is_admissible."""
    doubles = z.doubles()

    def rec(active, pairs):
        if not pairs:
            return True
        for a, b in pairs:
            i = active.index(a)
            if i + 1 >= len(active) or active[i + 1] != b:
                continue
            if any(a < x < b for x in doubles):
                continue
            rest = tuple(p for p in pairs if p != (a, b))
            if rec(tuple(x for x in active if x not in (a, b)), rest):
                return True
        return False

    return rec(z.singles(), arrangement.pairs)


def all_arrangements(singles):
    """Every arrangement of the singles: an isolated one and a perfect
    matching of the rest."""

    def matchings(items):
        if not items:
            yield ()
            return
        first, rest = items[0], items[1:]
        for k, other in enumerate(rest):
            for m in matchings(rest[:k] + rest[k + 1 :]):
                yield ((first, other),) + m

    for iso in singles:
        for m in matchings(tuple(x for x in singles if x != iso)):
            yield Arrangement(m, iso)


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
        # a member outside the singles, a single left out, a single twice,
        # and a double
        z = SpecialSymbol(Symbol.parse("0,2,5|1,2"))
        for sym, arrangement in [
            (Z4, Arrangement(((0, 1),), 5)),
            (Z4, Arrangement((), 2)),
            (Z4, Arrangement(((0, 1), (1, 2)), 2)),
            (z, Arrangement(((0, 2),), 5)),
        ]:
            text = f"{arrangement} does not partition the singles of {sym}"
            with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
                is_admissible(sym, arrangement)

    @pytest.mark.parametrize("pair", [(0,), (0, 1, 2), ()])
    def test_arrangement_rejects_pair_without_two_members(self, pair):
        # checked where the arrangement is built, so is_admissible never
        # unpacks a pair of another size
        with pytest.raises(ValueError, match=f"^{re.escape(f'{pair} does not have two members')}$"):
            Arrangement((pair,), 2)

    def test_standard_arrangement_always_admissible(self):
        for n in range(22):
            for z in even_strip_specials(n):
                assert is_admissible(z, standard_arrangement(z)), str(z)

    def test_standard_arrangement_matches_columnwise_through_rank_18(self):
        # the same arrangement, or the same error, on every special symbol
        raised = total = 0
        for rank in range(19):
            for z in special_symbols_of_rank(rank):
                total += 1
                try:
                    expected = columnwise_arrangement(z)
                except ValueError as err:
                    raised += 1
                    with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
                        standard_arrangement(z)
                    continue
                got = standard_arrangement(z)
                assert got == expected and type(got) is Arrangement, str(z)
        assert (total, raised) == (6626, 5029)

    def test_greedy_admissibility_matches_backtracking(self):
        # every arrangement of every special symbol of rank <= 14 with at
        # most 7 singles
        seen = {True: 0, False: 0}
        seven = with_doubles = 0
        for rank in range(15):
            for z in special_symbols_of_rank(rank):
                if len(z.singles()) > 7:
                    continue
                seven += len(z.singles()) == 7
                with_doubles += bool(z.doubles())
                for arr in all_arrangements(z.singles()):
                    expected = backtracking_admissible(z, arr)
                    assert is_admissible(z, arr) == expected, (str(z), arr)
                    seen[expected] += 1
        assert seven >= 5 and with_doubles > 100 and min(seen.values()) > 1000

    def test_checks_match_value_references_through_rank_10(self):
        # the standard arrangement or its error, and every arrangement of
        # the singles, admissible or not, on every special symbol
        seen = {True: 0, False: 0}
        raised = 0
        for rank in range(11):
            for z in special_symbols_of_rank(rank):
                try:
                    standard = reference_standard_arrangement(z)
                except ValueError as err:
                    raised += 1
                    with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
                        standard_arrangement(z)
                else:
                    assert standard_arrangement(z) == standard, str(z)
                for arr in all_arrangements(z.singles()):
                    expected = reference_is_admissible(z, arr)
                    assert is_admissible(z, arr) == expected, (str(z), arr)
                    seen[expected] += 1
        assert min(seen.values()) > 100 and raised > 100

    def test_standard_pattern_through_rank_42(self):
        # in single indices the standard arrangement is ((0, 1), (2, 3), ...)
        # with the last single isolated, so a cell's pattern is d and its
        # sign pairs
        for n in range(22):
            for z in even_strip_specials(n):
                arr = standard_arrangement(z)
                pairs = tuple((2 * j, 2 * j + 1) for j in range(z.d))
                assert index_pattern(z, arr) == (pairs, 2 * z.d), str(z)


class TestSwap:
    def test_swap_examples(self):
        assert str(swap_pairs(Z4, ((0, 1),))) == "1,2|0"
        assert str(swap_pairs(Z12, ((2, 3),))) == "0,3,4|1,2"
        assert swap_pairs(Z12, ()) == Z12.symbol

    def test_swap_keeps_rank(self):
        for psi in ((), ((0, 1),), ((2, 3),), ((0, 1), (2, 3))):
            sym = swap_pairs(Z12, psi)
            assert sym.rank == Z12.symbol.rank and sym.defect == 1

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
        assert [(s, str(sym)) for s, sym in term_symbols(c)] == [
            (1, "0,2|1"),
            (-1, "1,2|0"),
        ]

    def test_rank6_cell(self):
        c = make_cell(Z12)
        assert [(s, str(sym)) for s, sym in term_symbols(c)] == [
            (1, "0,2,4|1,3"),
            (-1, "1,2,4|0,3"),
            (-1, "0,3,4|1,2"),
            (1, "1,3,4|0,2"),
        ]

    def test_even_difference_cell_has_plus_signs(self):
        c = make_cell(SpecialSymbol(Symbol.parse("0,5|2")))
        assert [(s, str(sym)) for s, sym in term_symbols(c)] == [
            (1, "0,5|2"),
            (1, "2,5|0"),
        ]

    def test_degenerate_cell(self):
        c = make_cell(SpecialSymbol(Symbol.parse("6|-")))
        assert term_symbols(c) == [(1, Symbol.parse("6|-"))]

    def test_first_term_is_z(self):
        for z in even_strip_specials(3):
            c = make_cell(z)
            assert term_symbols(c)[0] == (1, z.symbol)
            assert len({sym for _, sym in term_symbols(c)}) == 2**c.d

    def test_layout_computed_once_per_cell(self, monkeypatch):
        calls = []
        original = cells._layout

        def counted(z):
            calls.append(z)
            return original(z)

        monkeypatch.setattr(cells, "_layout", counted)
        c = make_cell(Z12)
        assert calls == [Z12]
        # both pairs of 0,2,4|1,3 have an odd difference and flip the sign
        assert c.signs == (1, -1, -1, 1)

    def test_cell_plans_one_per_layout_and_flips_at_rank_28(self):
        # 22 sign patterns (d and which pairs flip) give 22 Fourier plans
        cells._cell_plan.cache_clear()
        cells._kept_masks.cache_clear()
        for n in range(1, 15):
            distinguished(n)
        assert cells._kept_masks.cache_info().currsize == 22
        keys = set()
        for n in range(1, 15):
            for z in even_strip_specials(n):
                flips = tuple((b - a) % 2 == 1 for a, b in reference_standard_arrangement(z).pairs)
                keys.add((reference_layout(z), flips))
        assert len({flips for _, flips in keys}) == 22
        assert cells._cell_plan.cache_info().currsize == len(keys)

    def test_cells_match_the_value_references_through_rank_30(self):
        # the layout's checks and row plans against the flips, sorts and
        # checks on Z's values, on every even-strip special of n = 1..15
        total = 0
        for n in range(1, 16):
            for z in even_strip_specials(n):
                total += 1
                c = make_cell(z)
                assert c == reference_cell(z), str(z)
                assert standard_arrangement(z) == reference_standard_arrangement(z), str(z)
                kept, _ = cells._kept_masks(len(z.singles()), c.masks, c.signs)
                got = fourier_constituents(c)
                assert got == tuple(sorted(reference_flipped(z, kept))), str(z)
                # the terms keep Z's orientation
                assert c.term_rows() == list(reference_flipped_rows(z, c.masks)), str(z)
                singles = z.singles()
                subsets = even_subsets(singles)
                masks = [sum(1 << singles.index(x) for x in a) for a in subsets]
                assert family(z) == tuple(zip(subsets, reference_flipped(z, masks))), str(z)
        assert total == 4730

    @pytest.mark.parametrize(
        "cases, message",
        [
            # one layout: one single below the double, two above it
            (
                ["0,2,4|2,3", "0,3,6|3,5"],
                "columnwise pairing of {z} hits a doubled entry",
            ),
        ],
    )
    def test_failed_checks_raise_again_naming_z(self, cases, message):
        # a cached failure raises for every call and every Z of its layout;
        # the parity check is the one check a standard cell can fail
        zs = [SpecialSymbol(Symbol.parse(text)) for text in cases]
        assert len({reference_layout(z) for z in zs}) == 1
        for _ in range(2):
            for z in zs:
                text = message.format(z=z)
                with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
                    make_cell(z)

    def test_row_plans_one_per_layout_and_kept_masks_at_rank_28(self):
        cells._row_plan.cache_clear()
        rank_report(28)
        specials = even_strip_specials(14)
        plans = set()
        for z in specials:
            c = make_cell(z)
            kept, _ = cells._kept_masks(len(z.singles()), c.masks, c.signs)
            plans.add((reference_layout(z), kept))
        assert cells._row_plan.cache_info().currsize == len(plans) < len(specials)

    def test_masks_carry_the_index_pattern(self):
        # the Fourier step reads each pair off masks[1 << j] and the
        # isolated single off masks[-1]: the standard cells through rank 28,
        # and every admissible arrangement of every special symbol through
        # rank 12
        arranged = admissible_cells()
        standard = [
            (standard_arrangement(z), make_cell(z))
            for n in range(1, 15)
            for z in even_strip_specials(n)
        ]
        assert len(standard) == 3258 and max(c.d for _, c in arranged) == 3
        for arr, c in standard + arranged:
            assert masks_pattern(c) == index_pattern(c.z, arr), (str(c.z), arr)

    def test_terms_are_swapped_pairs_through_rank_20(self):
        for n in range(1, 11):
            for z in even_strip_specials(n):
                c = make_cell(z)
                pairs = standard_arrangement(z).pairs
                for t, rows in enumerate(c.term_rows()):
                    psi = tuple(p for i, p in enumerate(pairs) if t >> i & 1)
                    sym = reference_swapped(z, psi)
                    assert rows == (sym.top, sym.bottom), (str(z), t)
                    assert swap_pairs(z, psi) == sym, (str(z), t)

    def test_terms_are_flipped_masks_built_once_through_rank_12(self, monkeypatch):
        # the terms are Z flipped at each mask, one per sign; reading their
        # rows builds no Symbol, so a term symbol is built only when asked for
        specials = [(z, make_cell(z)) for n in range(1, 7) for z in even_strip_specials(n)]
        flipped = {str(z): reference_flipped(z, c.masks) for z, c in specials}
        built = []
        original = Symbol._of_rows

        def counted(cls, top, bottom):
            built.append((top, bottom))
            return original(top, bottom)

        monkeypatch.setattr(Symbol, "_of_rows", classmethod(counted))
        for z, c in specials:
            rows = c.term_rows()
            assert not built, str(z)
            assert len(rows) == len(c.signs) == len(c.masks), str(z)
            assert rows == [(sym.top, sym.bottom) for sym in flipped[str(z)]], str(z)

    def test_term_rows_are_the_term_symbols_rows(self):
        # term_rows does not orient its rows, so this checks that they come
        # out oriented: the standard cells through rank 20, and every
        # admissible arrangement of every special symbol through rank 12
        # (up to 7 singles)
        arranged = admissible_cells()
        assert max(c.d for _, c in arranged) == 3
        standard = [
            (standard_arrangement(z), make_cell(z))
            for n in range(1, 11)
            for z in even_strip_specials(n)
        ]
        for arr, c in standard + arranged:
            rows = c.term_rows()
            syms = [sym for _, sym in term_symbols(c)]
            assert rows == [(sym.top, sym.bottom) for sym in syms], (str(c.z), arr)
            assert [_rows_text(*r) for r in rows] == [str(sym) for sym in syms]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_mask_distinctness_is_symbol_distinctness(self, data):
        # the distinctness argument of the module docstring: masks m and
        # m ^ full flip Z to one symbol, and no two other masks do
        z = data.draw(st.sampled_from([z for n in range(1, 7) for z in even_strip_specials(n)]))
        full = (1 << len(z.singles())) - 1
        drawn = data.draw(st.lists(st.integers(0, full), min_size=1, max_size=8))
        # repeats and complements of drawn masks are the ones that collide
        again = data.draw(st.lists(st.tuples(st.sampled_from(drawn), st.booleans()), max_size=4))
        masks = data.draw(st.permutations(drawn + [m ^ full if c else m for m, c in again]))
        # the plan's rows are oriented, so equal rows are equal symbols
        assert len({min(m, m ^ full) for m in masks}) == len(set(cells._rows(z, tuple(masks))))


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

    def test_trusted_construction_equals_the_checked_one_through_rank_42(self):
        for n in range(22):
            got = even_strip_specials(n)
            assert got == reference_even_strip_specials(n), n
            for z in got:
                assert type(z) is SpecialSymbol and type(z.symbol) is Symbol, str(z)
                checked = SpecialSymbol(z.symbol)
                assert len(z) == len(checked), str(z)
                for mine, theirs in zip(z, checked):
                    assert mine == theirs and type(mine) is type(theirs), str(z)


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
                assert sym.rank == z.symbol.rank
                assert sym.defect % 2 == 1
            assert members[0] == (frozenset(), z.symbol)

    def test_members_are_swapped_pairs_through_rank_12(self):
        # against the set-based reference: the member at A swaps sorted(A)
        # in consecutive pairs, on every special symbol, including those
        # with a double above an odd number of singles (0,2,5|1,2)
        for rank in range(1, 13):
            for z in special_symbols_of_rank(rank):
                for a, sym in family(z):
                    members = sorted(a)
                    pairs = tuple(zip(members[::2], members[1::2]))
                    expected = reference_swapped(z, pairs)
                    assert sym == expected, (str(z), members)
                    assert swap_pairs(z, pairs) == expected, (str(z), members)

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
                for t in range(len(c.signs)):
                    flipped = flip_term(c, t)
                    expected = outcome(reference_constituents, flipped)
                    assert outcome(fourier_constituents, flipped) == expected

    def test_arbitrary_signs_raise_after_a_good_plan_is_cached(self):
        c = make_cell(Z12)
        good = fourier_constituents(c)
        bad = c._replace(signs=(1, 1, 1, -1))
        expected = {"special_symbol": str(Z12), "family_index": [], "multiplicity": "2/4"}
        assert outcome(reference_constituents, bad) == expected
        for _ in range(2):
            assert outcome(fourier_constituents, bad) == expected
            assert fourier_constituents(c) == good

    def test_every_admissible_arrangement_matches_reference_through_rank_12(self):
        # every sign-pair subset, so a kept mask of odd size takes the
        # isolated single, read off masks[-1], which is not always the last
        arranged = admissible_cells()
        assert sum(arr.isolated != c.z.singles()[-1] for arr, c in arranged) > 500
        for arr, c in arranged:
            for t in range(2**c.d):
                chosen = tuple(p for j, p in enumerate(arr.pairs) if t >> j & 1)
                cell = reference_cell(c.z, arr, chosen)
                expected = reference_constituents(cell, arr)
                assert fourier_constituents(cell) == expected, (str(c.z), arr, chosen)

    def test_standard_cell_transform_peaks_at_the_flip_mask_through_rank_28(self):
        # a standard cell's signs are a product character, so the transform
        # is 2**d at the flip mask and 0 elsewhere: the Fourier step never
        # raises on a cell that make_cell builds
        total = 0
        for n in range(1, 15):
            for z in even_strip_specials(n):
                c = make_cell(z)
                odd = odd_difference_pairs(z)
                pairs = standard_arrangement(z).pairs
                flips = sum(1 << j for j, p in enumerate(pairs) if p in odd)
                expected = [2**c.d if u == flips else 0 for u in range(2**c.d)]
                assert cells._walsh_hadamard(c.signs) == expected, str(z)
                total += 1
        assert total == 3258

    def test_term_count_checked(self):
        # a short mask list would flip a wrong row pair, and a long one
        # would go unread
        c = make_cell(Z12)
        for signs in (c.signs[:-1], c.signs + c.signs[:1]):
            with pytest.raises(ValueError, match="d = 2 needs 4 terms"):
                fourier_constituents(c._replace(signs=signs))
        for masks in (c.masks[:-1], c.masks + (0,)):
            with pytest.raises(ValueError, match="d = 2 needs 4 terms"):
                fourier_constituents(c._replace(masks=masks))

    @pytest.mark.parametrize(
        "masks", [(0, 96, 12, 108), (0, 3, 12, 5), (0, 3, 6, 7), (0, 1, 14, 15)]
    )
    def test_masks_that_swap_no_pairs_are_rejected(self, masks):
        # (0, 96, 12, 108) swaps two entries that are not singles of Z, and
        # masks[3] of (0, 3, 12, 5) is not the OR of pairs 0 and 1; read as
        # pairs, either gave wrong constituents.  The pairs of (0, 3, 6, 7)
        # share a single, and those of (0, 1, 14, 15) have one and three
        c = make_cell(Z12)
        for _ in range(2):
            with pytest.raises(ValueError, match="do not swap 2 disjoint pairs of 5 singles"):
                fourier_constituents(c._replace(masks=masks))

    def test_non_standard_masks_are_accepted(self):
        # pairs (1, 2) and (3, 4) of 0,2,4|1,3, with 0 isolated
        arrangement = Arrangement([(1, 2), (3, 4)], 0)
        c = reference_cell(Z12, arrangement, ())
        assert c.masks == (0, 6, 24, 30)
        assert fourier_constituents(c) == reference_constituents(c, arrangement)

    def test_a_cached_violation_names_each_z(self):
        # both cells have d = 1 and masks (0, 3), so they share one pattern
        cells._kept_masks.cache_clear()
        for text, index in [("0,2|1", [0, 2]), ("0,5|2", [0, 5])]:
            z = SpecialSymbol(Symbol.parse(text))
            bad = make_cell(z)._replace(signs=(2, -2))
            expected = {"special_symbol": text, "family_index": index, "multiplicity": "2"}
            assert outcome(reference_constituents, bad) == expected
            assert outcome(fourier_constituents, bad) == expected
        info = cells._kept_masks.cache_info()
        assert (info.misses, info.hits) == (1, 1)

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
        cell = c._replace(signs=tuple(signs))
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
        c = reference_cell(z, sign_pairs=chosen)
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
                for sign, sym in term_symbols(make_cell(z)):
                    assert decomp.get(label(sym)[1:]) == sign, (str(z), str(sym))

    def test_cells_sum_to_xi(self):
        for n in (1, 2, 3):
            cells = [cell_character(make_cell(z)).values for z in even_strip_specials(n)]
            assert tuple(map(sum, zip(*cells))) == xi(n, "A").character.values


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
        assert str(entry.cell.z) == "0,2,4,6,8,10|1,3,5,7,9" and entry.cell.d == 5
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

    def test_count_path_builds_only_the_constituents(self, monkeypatch):
        # each cell reads one row pair per constituent and no term row
        rows, term_rows = [], []
        original = cells._rows

        def counted(z, masks):
            out = original(z, masks)
            rows.extend(out)
            return out

        monkeypatch.setattr(cells, "_rows", counted)
        monkeypatch.setattr(cells.Cell, "term_rows", lambda cell: term_rows.append(cell))
        total = sum(rank_report(2 * n).count for n in range(1, 9))
        assert len(rows) == total and not term_rows

    def test_report_json_builds_and_prints_each_constituent_once(self, monkeypatch):
        # the terms print from their rows and the union reuses its cells'
        # strings: one Symbol and one str per constituent, one str per Z,
        # and one Symbol for the cuspidal flag's lookup at ranks d*d + d
        built, printed = [], []
        of_rows, to_str = Symbol._of_rows, Symbol.__str__

        def counted_of_rows(cls, top, bottom):
            built.append((top, bottom))
            return of_rows(top, bottom)

        def counted_str(self):
            printed.append(self)
            return to_str(self)

        for n in range(1, 9):
            even_strip_specials(n)  # built and cached before counting
            with monkeypatch.context() as m:
                m.setattr(Symbol, "_of_rows", classmethod(counted_of_rows))
                m.setattr(Symbol, "__str__", counted_str)
                payload = rank_report(2 * n).to_json()
            cuspidal = n in (1, 3, 6)
            assert len(built) == payload["count"] + cuspidal, n
            assert len(printed) == payload["count"] + len(payload["cells"]), n
            built.clear()
            printed.clear()

    def test_row_order_is_symbol_order_through_rank_20(self):
        for rank in range(21):
            rep = rank_report(rank)
            assert list(rep.union) == sorted(rep.union, key=symbol_key)
            for e in rep.entries:
                assert e.constituents == fourier_constituents(e.cell)
                assert list(e.constituents) == sorted(e.constituents, key=symbol_key)

    def test_count_is_union_size(self):
        for n in (1, 2, 3, 4):
            rep = distinguished(n)
            assert rep.count == len(rep.union)
            assert rep.count == sum(2**e.cell.d for e in rep.entries)

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

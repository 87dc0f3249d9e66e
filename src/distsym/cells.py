"""Cells attached to special symbols and the distinguished-symbol pipeline.

A special symbol Z with 2d + 1 singles, an arrangement of those singles
into d pairs plus one isolated element, and a chosen subset of the pairs
together define a virtual cell: a signed sum of 2**d defect-1 symbols
obtained by row-swapping subsets of the pairs.  Each cell's family Fourier
image is a set of 2**d symbols from the 2**(2d)-member family of Z; the
union over the even-strip special symbols of rank 2n is the
distinguished-symbol list for the rank-2n symplectic group.

The Fourier model used here indexes the family by even subsets A of the
singles, pairing them by intersection parity.  It reproduces the worked
rank-2 cell exactly and three of the four constituents tabulated for the
rank-6 cell with d = 2; multiplicities outside {0, 1} are a hard error,
and the remaining mismatch is surfaced by the verification report rather
than resolved silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .partitions import Partition, even_strip_extensions, even_subsets, partitions
from .symbols import (
    SpecialSymbol,
    Symbol,
    cuspidal_symbol,
    from_bipartition,
    is_special,
    symbol_sort_key,
    to_bipartition,
)
from .wchar import Bipartition, ClassFunction, bipartitions, w_irreducible


class FamilyModelViolation(Exception):
    """The Fourier model produced a multiplicity outside {0, 1}."""

    def __init__(self, z: SpecialSymbol, index: frozenset, multiplicity):
        self.payload = {
            "special_symbol": str(z),
            "family_index": sorted(index),
            "multiplicity": str(multiplicity),
        }
        super().__init__(
            f"family model violation at Z={z}, A={sorted(index)}: multiplicity {multiplicity}"
        )


@dataclass(frozen=True)
class Arrangement:
    """d pairs of singles plus one isolated single."""

    pairs: tuple[tuple[int, int], ...]
    isolated: int

    def __post_init__(self) -> None:
        pairs = tuple(tuple(sorted(p)) for p in self.pairs)
        object.__setattr__(self, "pairs", tuple(sorted(pairs)))

    def members(self) -> tuple[int, ...]:
        out = [self.isolated]
        for a, b in self.pairs:
            out.extend((a, b))
        return tuple(sorted(out))


@dataclass(frozen=True)
class Cell:
    z: SpecialSymbol
    arrangement: Arrangement
    sign_pairs: tuple[tuple[int, int], ...]
    terms: tuple[tuple[int, Symbol], ...]

    @property
    def d(self) -> int:
        return len(self.arrangement.pairs)


def standard_arrangement(z: SpecialSymbol) -> Arrangement:
    """Pair the rows columnwise: (top_i, bottom_i) wherever they differ,
    with the last top entry isolated.

    For the even-strip special symbols this always lands on the singles;
    other special symbols can put a doubled entry in a pair, which is
    rejected because it is no arrangement of the singles at all.
    """
    top, bottom = z.top, z.bottom
    pairs = tuple(
        (top[i], bottom[i]) for i in range(len(bottom)) if top[i] != bottom[i]
    )
    singles = set(z.singles())
    used = {x for p in pairs for x in p}
    if not used <= singles:
        raise ValueError(f"columnwise pairing of {z} hits a doubled entry")
    rest = sorted(singles - used)
    if len(rest) != 1:
        raise ValueError(f"columnwise pairing of {z} does not isolate one single")
    return Arrangement(pairs, rest[0])


def odd_difference_pairs(z: SpecialSymbol) -> tuple[tuple[int, int], ...]:
    """The pairs of the standard arrangement whose difference is odd."""
    return tuple(
        p for p in standard_arrangement(z).pairs if (p[1] - p[0]) % 2 == 1
    )


def is_admissible(z: SpecialSymbol, arrangement: Arrangement) -> bool:
    """Recursive admissibility of an arrangement.

    Some pair must consist of entries adjacent in the sorted singles list
    with no doubled entry strictly between; removing it must leave an
    admissible arrangement of the shrunken symbol.  Zero pairs are
    admissible.
    """
    singles = z.singles()
    if arrangement.members() != singles:
        raise ValueError(f"{arrangement} does not partition the singles of {z}")
    doubles = z.doubles()

    def rec(active: tuple[int, ...], pairs: frozenset) -> bool:
        if not pairs:
            return True
        for p in pairs:
            a, b = p
            i = active.index(a)
            if i + 1 >= len(active) or active[i + 1] != b:
                continue
            if any(a < x < b for x in doubles):
                continue
            if rec(tuple(x for x in active if x not in p), pairs - {p}):
                return True
        return False

    return rec(singles, frozenset(arrangement.pairs))


def swap_pairs(z: SpecialSymbol, pairs: tuple[tuple[int, int], ...]) -> Symbol:
    """Row-swap the two members of each given pair of singles; everything
    else, including the isolated single, keeps its row."""
    top = set(z.top)
    bottom = set(z.bottom)
    for pair in pairs:
        for x in pair:
            if x in top:
                top.remove(x)
                bottom.add(x)
            else:
                bottom.remove(x)
                top.add(x)
    return Symbol(tuple(sorted(top)), tuple(sorted(bottom)))


def make_cell(
    z: SpecialSymbol,
    arrangement: Arrangement | None = None,
    sign_pairs: tuple[tuple[int, int], ...] | None = None,
) -> Cell:
    """The virtual cell of Z for an admissible arrangement.

    Terms run over the subsets Psi of the pairs, ordered as bitmasks over
    the pairs sorted by smaller element, with sign (-1)**|Psi ^ sign_pairs|
    and symbol obtained by row-swapping Psi.  Defaults to the standard
    arrangement with its odd-difference pairs.
    """
    if arrangement is None:
        arrangement = standard_arrangement(z)
    if sign_pairs is None:
        sign_pairs = odd_difference_pairs(z)
    if not is_admissible(z, arrangement):
        raise ValueError(f"{arrangement} is not admissible for {z}")
    sign_set = {tuple(sorted(p)) for p in sign_pairs}
    if not sign_set <= set(arrangement.pairs):
        raise ValueError("sign_pairs must be a subset of the arrangement's pairs")
    pairs = arrangement.pairs
    terms = []
    seen = set()
    for mask in range(2 ** len(pairs)):
        psi = tuple(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
        sign = (-1) ** len([p for p in psi if p in sign_set])
        sym = swap_pairs(z, psi)
        terms.append((sign, sym))
        seen.add(sym)
    if len(seen) != len(terms):
        raise ValueError(f"cell terms for {z} are not distinct")
    return Cell(z, arrangement, tuple(sorted(sign_set)), tuple(terms))


def cell_psi_subsets(cell: Cell) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The Psi subsets in the same bitmask order as the cell's terms."""
    pairs = cell.arrangement.pairs
    return tuple(
        tuple(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
        for mask in range(2 ** len(pairs))
    )


def cell_character(cell: Cell) -> ClassFunction:
    """The cell as a class function on W_rank via the bipartition map."""
    char = ClassFunction.zero(cell.z.rank)
    for sign, sym in cell.terms:
        char = char + sign * w_irreducible(Bipartition(*to_bipartition(sym)))
    return char


@lru_cache(maxsize=None)
def even_strip_specials(n: int) -> tuple[SpecialSymbol, ...]:
    """The special symbols of rank 2n whose bipartition skew is an even
    horizontal strip, generated beta-first."""
    if n < 0:
        raise ValueError("n must be non-negative")
    out = []
    for bsize in range(n, -1, -1):
        strip = 2 * n - 2 * bsize
        for beta in partitions(bsize):
            for alpha in even_strip_extensions(beta, strip):
                out.append(SpecialSymbol(from_bipartition(alpha, beta)))
    return tuple(sorted(out, key=lambda z: symbol_sort_key(z.symbol)))


def even_strip_specials_of_rank(rank: int) -> tuple[SpecialSymbol, ...]:
    """Same set keyed by symbol rank; empty for odd rank, where no
    bipartition difference can be an even strip."""
    if rank % 2:
        return ()
    return even_strip_specials(rank // 2)


@lru_cache(maxsize=None)
def special_symbols_of_rank(rank: int) -> tuple[SpecialSymbol, ...]:
    """All special symbols of a given rank, via the defect-1 bijection."""
    out = []
    for bp in bipartitions(rank):
        sym = from_bipartition(bp.alpha, bp.beta)
        if is_special(sym):
            out.append(SpecialSymbol(sym))
    return tuple(sorted(out, key=lambda z: symbol_sort_key(z.symbol)))


def family(z: SpecialSymbol) -> tuple[tuple[frozenset, Symbol], ...]:
    """The 2**(2d) family members of Z, indexed by even subsets A of the
    singles: A records which singles change row relative to Z."""
    singles = z.singles()
    doubles = z.doubles()
    top_singles = frozenset(z.top) - set(doubles)
    out = []
    for a in even_subsets(singles):
        new_top = top_singles ^ a
        new_bottom = set(singles) - new_top
        sym = Symbol(
            tuple(sorted(set(doubles) | new_top)),
            tuple(sorted(set(doubles) | new_bottom)),
        )
        out.append((a, sym))
    return tuple(out)


def fourier_constituents(cell: Cell) -> tuple[Symbol, ...]:
    """The family members carried by a cell under the even-subset pairing.

    The multiplicity of the member at index A is the averaged sign sum
    (1/2**d) * sum over Psi of sign(Psi) * (-1)**|A & B(Psi)|, where
    B(Psi) is the union of the swapped pairs.  Multiplicities must land in
    {0, 1}; exactly 2**d members survive.
    """
    z = cell.z
    d = cell.d
    b_indices = [
        (sign, frozenset(x for p in psi for x in p))
        for (sign, _), psi in zip(cell.terms, cell_psi_subsets(cell))
    ]
    constituents = []
    for a, sym in family(z):
        num = sum(sign * (-1) ** len(a & b) for sign, b in b_indices)
        if num % (2**d):
            raise FamilyModelViolation(z, a, f"{num}/{2 ** d}")
        mult = num // (2**d)
        if mult not in (0, 1):
            raise FamilyModelViolation(z, a, mult)
        if mult:
            constituents.append(sym)
    if len(constituents) != 2**d:
        raise FamilyModelViolation(z, frozenset(), f"{len(constituents)} constituents")
    return tuple(sorted(constituents, key=symbol_sort_key))


@dataclass
class CellEntry:
    z: SpecialSymbol
    d: int
    cell: Cell
    constituents: tuple[Symbol, ...]

    def to_json(self) -> dict:
        return {
            "Z": str(self.z),
            "d": self.d,
            "terms": [
                {"sign": sign, "symbol": str(sym)} for sign, sym in self.cell.terms
            ],
            "constituents": [str(s) for s in self.constituents],
        }


@dataclass
class DistinguishedReport:
    rank: int
    entries: list[CellEntry]
    union: tuple[Symbol, ...]
    count: int
    cuspidal_present: bool

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "cells": [e.to_json() for e in self.entries],
            "union": [str(s) for s in self.union],
            "count": self.count,
            "cuspidal_present": self.cuspidal_present,
        }


def rank_report(rank: int) -> DistinguishedReport:
    """Cells, constituents, and the flat distinguished list at any rank.

    The count is the sum of 2**d over the even-strip special symbols; the
    union must reach it because families of distinct special symbols share
    no symbols.  The cuspidal flag records whether the symbol (0..2d | -)
    is among the constituents, which must happen whenever rank = d*d + d.
    Odd ranks give an empty report; rank 0 gives the cuspidal 0|-.
    """
    if rank < 0:
        raise ValueError("rank must be non-negative")
    entries = []
    merged = set()
    count = 0
    for z in even_strip_specials_of_rank(rank):
        c = make_cell(z)
        constituents = fourier_constituents(c)
        entries.append(CellEntry(z, c.d, c, constituents))
        merged.update(constituents)
        count += 2**c.d
    if len(merged) != count:
        raise FamilyModelViolation(
            entries[0].z, frozenset(), f"union size {len(merged)} != {count}"
        )
    union = tuple(sorted(merged, key=symbol_sort_key))
    cusp_d = next((d for d in range(rank + 1) if d * d + d == rank), None)
    present = cusp_d is not None and cuspidal_symbol(cusp_d) in merged
    return DistinguishedReport(rank, entries, union, count, present)


def distinguished(n: int) -> DistinguishedReport:
    """The distinguished-symbol report of Sp_{4n}: the report at rank 2n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return rank_report(2 * n)

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
from typing import Iterable

from .partitions import even_strip_extensions, even_subsets, partitions
from .symbols import SpecialSymbol, Symbol, cuspidal_symbol, from_bipartition, symbol_sort_key


class FamilyModelViolation(Exception):
    """The Fourier model produced a multiplicity outside {0, 1}."""

    def __init__(self, z: SpecialSymbol, index: Iterable[int], multiplicity):
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
    return _odd_pairs(standard_arrangement(z))


def _odd_pairs(arrangement: Arrangement) -> tuple[tuple[int, int], ...]:
    return tuple(p for p in arrangement.pairs if (p[1] - p[0]) % 2 == 1)


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
    else, including the isolated single, keeps its row.  A pair member
    that is not a single of Z is rejected."""
    singles = set(z.singles())
    top = set(z.top)
    bottom = set(z.bottom)
    for pair in pairs:
        for x in pair:
            if x not in singles:
                raise ValueError(f"{x} is not a single of {z}")
            if x in top:
                top.remove(x)
                bottom.add(x)
            else:
                bottom.remove(x)
                top.add(x)
    return Symbol(tuple(sorted(top)), tuple(sorted(bottom)))


def _pair_masks(singles: tuple[int, ...], pairs: tuple[tuple[int, int], ...]) -> list[int]:
    """Each pair as a bitmask over the singles (bit i is the i-th smallest)."""
    bit = {x: 1 << i for i, x in enumerate(singles)}
    return [bit[x] | bit[y] for x, y in pairs]


def _flipped(z: SpecialSymbol, masks: Iterable[int]) -> list[Symbol]:
    """Z with the singles at the set bits of each mask moved to the other
    row; bit i stands for the i-th smallest single."""
    singles = z.singles()
    doubles = z.doubles()
    in_top = set(z.top)
    top = sum(1 << i for i, x in enumerate(singles) if x in in_top)
    bits = [(1 << i, x) for i, x in enumerate(singles)]
    out = []
    for mask in masks:
        new_top = top ^ mask
        top_row = list(doubles)
        bottom_row = list(doubles)
        for bit, x in bits:
            (top_row if new_top & bit else bottom_row).append(x)
        top_row.sort()
        bottom_row.sort()
        out.append(Symbol(tuple(top_row), tuple(bottom_row)))
    return out


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
    if arrangement is None or sign_pairs is None:
        standard = standard_arrangement(z)
        arrangement = standard if arrangement is None else arrangement
        sign_pairs = _odd_pairs(standard) if sign_pairs is None else sign_pairs
    if not is_admissible(z, arrangement):
        raise ValueError(f"{arrangement} is not admissible for {z}")
    sign_set = {tuple(sorted(p)) for p in sign_pairs}
    if not sign_set <= set(arrangement.pairs):
        raise ValueError("sign_pairs must be a subset of the arrangement's pairs")
    pairs = arrangement.pairs
    signs = [1]
    swapped = [0]
    for pair, pair_mask in zip(pairs, _pair_masks(z.singles(), pairs)):
        flip = -1 if pair in sign_set else 1
        signs += [flip * s for s in signs]
        swapped += [b | pair_mask for b in swapped]
    syms = _flipped(z, swapped)
    if len(set(syms)) != len(syms):
        raise ValueError(f"cell terms for {z} are not distinct")
    return Cell(z, arrangement, tuple(sorted(sign_set)), tuple(zip(signs, syms)))


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


@lru_cache(maxsize=None)
def _even_masks(m: int) -> tuple[int, ...]:
    """even_subsets(range(m)) as bitmasks, in its order."""
    return tuple(sum(1 << i for i in a) for a in even_subsets(tuple(range(m))))


def _members(singles: tuple[int, ...], mask: int) -> tuple[int, ...]:
    """The singles at the set bits of mask, ascending."""
    return tuple(x for i, x in enumerate(singles) if mask >> i & 1)


def _syndrome(a: int, pair_masks: list[int]) -> int:
    """Bit j is the parity of the singles of mask a in pair j."""
    return sum(((a & p).bit_count() & 1) << j for j, p in enumerate(pair_masks))


def fourier_constituents(cell: Cell) -> tuple[Symbol, ...]:
    """The family members carried by a cell under the even-subset pairing.

    Bit i of a mask stands for the i-th smallest single of Z.  The family
    member at an even mask A is Z with the singles in A moved to the other
    row, as in family(Z).  Term t of the cell swaps the pairs at the set
    bits of t, so its swapped set B_t is the OR of those pairs' masks.  The
    multiplicity at A is the averaged sign sum
    (1/2**d) * sum over t of sign_t * (-1)**popcount(A & B_t).

    Since B_t is a union of whole pairs, popcount(A & B_t) has the parity
    of popcount(s(A) & t), where the syndrome s(A) is the d-bit mask whose
    bit j is the parity of |A & pair_j|.  So the sign sum at A is F[s(A)],
    where F is the d-dimensional Walsh-Hadamard transform of the term
    signs, F[u] = sum over t of sign_t * (-1)**popcount(u & t): O(d 2**d)
    exact integer work for any signs.  Each syndrome is reached by exactly
    2**d even masks (per pair both or neither member when its bit is 0,
    one member when it is 1, the isolated single fixing the parity).

    Multiplicities must land in {0, 1}, and exactly 2**d members survive,
    which is exactly one syndrome with F = 2**d; a Symbol is built only for
    its members.  A violation reports the first even mask A in the order
    of family(Z).
    """
    z = cell.z
    full = 2**cell.d
    if len(cell.terms) != full:
        raise ValueError(f"d = {cell.d} needs {full} terms, got {len(cell.terms)}")
    # in place: f[u] becomes sum over t of sign_t * (-1)**popcount(u & t)
    f = [sign for sign, _ in cell.terms]
    h = 1
    while h < full:
        for i in range(0, full, 2 * h):
            for j in range(i, i + h):
                f[j], f[j + h] = f[j] + f[j + h], f[j] - f[j + h]
        h *= 2
    singles = z.singles()
    pair_masks = _pair_masks(singles, cell.arrangement.pairs)
    if any(num not in (0, full) for num in f):
        # every syndrome is reached, so this finds the first violating A
        for a in _even_masks(len(singles)):
            num = f[_syndrome(a, pair_masks)]
            if num % full:
                raise FamilyModelViolation(z, _members(singles, a), f"{num}/{full}")
            if num // full not in (0, 1):
                raise FamilyModelViolation(z, _members(singles, a), num // full)
    peaks = [u for u, num in enumerate(f) if num]
    if len(peaks) != 1:
        raise FamilyModelViolation(z, frozenset(), f"{len(peaks) * full} constituents")
    kept = [0]
    for j, p in enumerate(pair_masks):
        # one member (the low bit or the high bit) if syndrome bit j is set
        options = (p & -p, p & (p - 1)) if peaks[0] >> j & 1 else (0, p)
        kept = [k | o for k in kept for o in options]
    isolated = 1 << singles.index(cell.arrangement.isolated)
    kept = [k | isolated if k.bit_count() & 1 else k for k in kept]
    return tuple(sorted(_flipped(z, kept), key=symbol_sort_key))


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
    # no bipartition difference of odd size is an even strip
    specials = () if rank % 2 else even_strip_specials(rank // 2)
    for z in specials:
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

"""Cells attached to special symbols and the distinguished-symbol pipeline.

A special symbol Z with 2d + 1 singles, an arrangement of those singles
into d pairs plus one isolated element, and a chosen subset of the pairs
together define a virtual cell: a signed sum of 2**d defect-1 symbols
obtained by row-swapping subsets of the pairs.  Each cell's family Fourier
image is a set of 2**d symbols from the 2**(2d)-member family of Z; the
union over the even-strip special symbols of rank 2n is the
distinguished-symbol list for the rank-2n symplectic group.

A Cell is its term signs and swap masks (bitmasks over the singles); its
term rows (Cell.term_rows, what route C, the JSON report and every
printed term read) build no term symbol.
The signs and masks depend on Z only through the cell's index pattern:
the number m of singles, each pair as two single indices, and which
pairs flip the sign.  make_cell reads that pattern once, and
_term_plan, keyed on it, holds the signs, the masks and the
term-distinctness check once per pattern.  The masks carry the rest of
the pattern: masks[1 << j] swaps pair j alone, and masks[-1] swaps every
single but the isolated one.  So _kept_masks (the Walsh-Hadamard
transform, the {0, 1} guard, the one-peak check and the kept family
masks) is keyed on the cell's own (m, masks, signs), and the Fourier step
reads no pattern.  Rank 2n <= 28 allows d <= 4 (2d + 1 singles need rank
at least d*d + d); every sign choice occurs for d <= 3 and 7 of 16 at
d = 4, so 22 patterns cover the 3258 specials of n = 1..14.  The
distinguished-symbol pipeline builds no term symbol, only the
constituents, and its JSON prints the terms from their rows and each
constituent once.

The standard arrangement comes from the singles alone.  List the entries
of a special symbol Z in the weakly increasing order z0 <= z1 <= ... <=
z2m of is_special, so top = (z0, z2, ..., z2m) and bottom = (z1, z3, ...,
z2m-1), and column i is the places 2i and 2i + 1.  Each row is strictly
increasing, so an entry occurs at most twice, and a double x fills two
neighbouring places k and k + 1.  The place of x is k = 2 * (doubles below
x) + (singles below x), so k has the parity of the number of singles
below x.

- If some double x has an odd number of singles below it, k is odd, and
  column (k - 1)/2 pairs z_(k-1) < x with x: the columnwise pairing hits a
  doubled entry.
- If every double has an even number of singles below it, every double
  fills a whole column (top_i = bottom_i) and is skipped.  Single j (from
  0, ascending) sits at place 2D + j, where D counts the doubles below
  it.  No double lies between singles 2j and 2j + 1, since it would have
  2j + 1 singles below it, so the two share column D + j and form a pair.
  No double lies above the last single s_2d for the same reason, so s_2d
  is z2m, the last top entry, and it is the one isolated.

So the columnwise pairing lands on the singles exactly when every double
has an even number of singles below it, and then it is ((0, 1), (2, 3),
...) in single indices with the last single isolated.  That arrangement
is admissible: each pair is adjacent among the singles with no double
between, so is_admissible can remove the pairs in order.  Every
even-strip special passes the parity check (the tests cover ranks
through 42), so a standard cell's pattern is d and its odd-difference
pairs.

Everything else a cell needs from Z, bar its entry values, is Z's
layout: below, the number of doubles below each single (one bisect per
single), and the number D of doubles.

- Single j sits at place 2 * below[j] + j of the merged order, so the
  singles alternate rows: single j is in the top row exactly when j is
  even.
- Double k has bisect_right(below, k) singles below it, so the parity
  check of standard_arrangement reads the layout.
- Singles and doubles are disjoint, so no double lies strictly between
  the singles a < b exactly when below[a] == below[b], and which singles
  are adjacent once some pairs are removed is a matter of indices.  So
  is_admissible on an index pattern reads the layout and the pattern, and
  _term_plan's distinctness reads the pattern alone.
- A flipped row is the doubles plus some singles.  Z's distinct entries
  strictly increase, and single j is the distinct entry j + below[j], so
  the layout lists each row as positions (indices into singles +
  doubles) in entry order, and Z's entries read at those positions come
  out increasing.  The two rows hold 2D + m entries, an odd number, so
  orienting them compares only their lengths.

So _cell_plan, keyed on (layout, index pattern, sign flips), runs the
parity check, the partition and admissibility checks and term
distinctness once per key and returns the signs, the masks and the
names of the checks that failed.  make_cell raises from those names with
its own message, naming Z: each check runs once per layout and sign
choice, and it raises again for every cell with that layout.  _row_plan,
keyed on (layout, masks), holds each flipped row pair as bytes of entry
positions, already oriented; term_rows, family and fourier_constituents
read Z's entries through it.  The Fourier constituents also come in
symbol order: _kept_masks sorts the kept masks by the singles in their
longer rows (see there), so fourier_constituents neither flips nor
sorts.  The plans pay only when layouts repeat: the 3258 specials of
n <= 14 have 131 layouts and 279 (layout, kept masks) pairs, and the
9904 of rank 42 have 522 layouts and 1414 pairs.

The Fourier model used here indexes the family by even subsets A of the
singles, pairing them by intersection parity.  It reproduces the worked
rank-2 cell exactly and three of the four constituents tabulated for the
rank-6 cell with d = 2; multiplicities outside {0, 1} are a hard error,
and the remaining mismatch is surfaced by the verification report rather
than resolved silently.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, NoReturn

from .partitions import even_subsets, horizontal_strips, partitions
from .symbols import (
    SpecialSymbol,
    Symbol,
    _rows_text,
    cuspidal_symbol,
    symbol_of,
)


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


class Arrangement(namedtuple("Arrangement", "pairs isolated")):
    """d pairs of singles plus one isolated single, stored as the tuple
    (pairs, isolated); the constructor sorts each pair and then the pairs."""

    __slots__ = ()

    def __new__(cls, pairs: Iterable[Iterable[int]], isolated: int) -> "Arrangement":
        return super().__new__(cls, tuple(sorted(tuple(sorted(p)) for p in pairs)), isolated)


class Cell(namedtuple("Cell", "z arrangement sign_pairs signs masks")):
    """A virtual cell as its term signs and swap masks, stored as the tuple
    (z, arrangement, sign_pairs, signs, masks): term t has sign signs[t]
    and is Z with the singles at the set bits of masks[t] moved to the
    other row (bit i is the i-th smallest single); term_rows() gives the
    terms' rows."""

    __slots__ = ()

    @property
    def d(self) -> int:
        return len(self.arrangement.pairs)

    def term_rows(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Each term symbol's (top, bottom) rows, in term order, with no
        Symbol built.  The singles of a special symbol alternate between
        its rows, so an admissible arrangement pairs a top single with a
        bottom one, and every term keeps Z's row lengths and defect 1."""
        return _rows(self.z, self.masks)


def standard_arrangement(z: SpecialSymbol) -> Arrangement:
    """Pair the rows columnwise: (top_i, bottom_i) wherever they differ,
    with the last top entry isolated.

    This lands on the singles exactly when every double has an even
    number of singles below it, and then it pairs the singles 2j and
    2j + 1 and isolates the last one (proof in the module docstring), so
    the pairing is read off the singles: it is the arrangement of Z's
    default cell.  A special symbol with a double above an odd number of
    singles puts that double in a pair, which is rejected because it is
    no arrangement of the singles at all.
    """
    return make_cell(z).arrangement


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

    The check runs on the index pattern and Z's layout, once per pair of
    them, in _cell_plan.
    """
    pattern = _index_pattern(z, arrangement)
    failed, _, _ = _cell_plan(_layout(z), pattern, (False,) * len(pattern[0]))
    if "partition" in failed:
        raise ValueError(f"{arrangement} does not partition the singles of {z}")
    return "admissible" not in failed


def _admissible(below: tuple[int, ...], pairs: tuple[tuple[int, int], ...]) -> bool:
    """is_admissible on a partition of the single indices: no double lies
    between the singles a < b exactly when below[a] == below[b].

    Removing a pair only deletes singles, so it never blocks another pair:
    the members of a removable pair stay adjacent, and the doubles do not
    change.  So if some order removes every pair, that order
    less the first pair removed here still works for the rest, and the
    loop below, which removes any removable pair, needs no backtracking.
    """
    active = list(range(len(below)))
    pending = list(pairs)
    while pending:
        for a, b in pending:
            i = active.index(a)
            if i + 1 < len(active) and active[i + 1] == b and below[a] == below[b]:
                break
        else:
            return False
        pending.remove((a, b))
        del active[i : i + 2]
    return True


def swap_pairs(z: SpecialSymbol, pairs: tuple[tuple[int, int], ...]) -> Symbol:
    """Row-swap the two members of each given pair of singles; everything
    else, including the isolated single, keeps its row.  A pair member
    that is not a single of Z, an entry that does not have two members, or
    a single named twice (within one pair or across two), is rejected."""
    singles = set(z.singles())
    top = set(z.top)
    bottom = set(z.bottom)
    seen = set()
    for pair in pairs:
        if len(pair) != 2:
            raise ValueError(f"{pair} does not have two members")
        for x in pair:
            if x not in singles:
                raise ValueError(f"{x} is not a single of {z}")
            if x in seen:
                raise ValueError(f"{x} appears twice in the pairs {pairs}")
            seen.add(x)
            if x in top:
                top.remove(x)
                bottom.add(x)
            else:
                bottom.remove(x)
                top.add(x)
    return Symbol(tuple(sorted(top)), tuple(sorted(bottom)))


def _layout(z: SpecialSymbol) -> tuple[tuple[int, ...], int]:
    """Z's layout: the number of doubles below each single, and the number
    of doubles (module docstring)."""
    _, singles, doubles = z
    return tuple([bisect_left(doubles, x) for x in singles]), len(doubles)


def _rows(
    z: SpecialSymbol, masks: tuple[int, ...]
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Z's rows with the singles at the set bits of each mask moved to the
    other row, oriented; bit i stands for the i-th smallest single."""
    _, singles, doubles = z
    tops, positions = _row_plan(_layout(z), masks)
    flat = itemgetter(*positions)(singles + doubles)
    w = len(singles) + 2 * len(doubles)
    return [(flat[i : i + k], flat[i + k : i + w]) for i, k in zip(range(0, len(flat), w), tops)]


@lru_cache(maxsize=None)
def _row_plan(layout: tuple[tuple[int, ...], int], masks: tuple[int, ...]) -> tuple[bytes, bytes]:
    """(tops, positions) for a special symbol Z with this layout.  For each
    mask in turn, positions lists the rows of Z flipped at the mask, the
    longer first, as positions into singles + doubles: 2D + m of them,
    tops[t] in the first row.  Z's distinct entries strictly increase, so
    listing a row's positions in entry order lists its entries in
    increasing order; Z's doubles plus disjoint singles of Z are reduced
    as Z is, so Symbol._of_rows may take the rows.  One spare position
    ends the list, so that itemgetter returns a tuple even for one entry.
    Positions are bytes, so Z has at most 255 distinct entries
    (0,1,...,255|1,...,255, of rank 255, has 256; the CLI stops at 42)."""
    below, d = layout
    m = len(below)
    # every position in entry order: single j comes after the doubles k < below[j]
    merged = []
    k = 0
    for j, b in enumerate(below):
        merged += range(m + k, m + b)
        merged.append(j)
        k = b
    merged += range(m + k, m + d)
    # bit i of a row's mask: position i is in the row; the doubles are in both
    doubles = ((1 << d) - 1) << m
    singles = (1 << m) - 1
    z_top = sum(1 << j for j in range(0, m, 2))
    tops, positions = [], []
    for mask in masks:
        top = z_top ^ mask | doubles
        bottom = top ^ singles
        rows = [i for i in merged if top >> i & 1], [i for i in merged if bottom >> i & 1]
        if len(rows[1]) > len(rows[0]):
            rows = rows[::-1]
        tops.append(len(rows[0]))
        positions += rows[0] + rows[1]
    return bytes(tops), bytes(positions + [0])


def _index_pattern(
    z: SpecialSymbol, arrangement: Arrangement
) -> tuple[tuple[tuple[int, int], ...], int]:
    """The arrangement's pairs and isolated single as indices into the
    sorted singles of Z; a member that is no single of Z gets the index
    len(singles), which no single has."""
    singles = z.singles()
    index = {x: i for i, x in enumerate(singles)}.get
    m = len(singles)
    pairs = tuple([(index(a, m), index(b, m)) for a, b in arrangement.pairs])
    return pairs, index(arrangement.isolated, m)


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

    The checks run in _cell_plan, once per layout, index pattern and sign
    flips; this raises the first that fails (the parity check only when
    the standard arrangement is used), naming Z, on every call.
    """
    _, singles, _ = z
    # the standard arrangement; _cell_plan's parity check says whether it is one
    standard = Arrangement._make((tuple(zip(singles[::2], singles[1::2])), singles[-1]))
    defaults = arrangement is None or sign_pairs is None
    arrangement = standard if arrangement is None else arrangement
    sign_pairs = _odd_pairs(standard) if sign_pairs is None else sign_pairs
    sign_set = {tuple(sorted(p)) for p in sign_pairs}
    flips = tuple([p in sign_set for p in arrangement.pairs])
    pattern = None if arrangement is standard else _index_pattern(z, arrangement)
    failed, signs, masks = _cell_plan(_layout(z), pattern, flips)
    if defaults and "columnwise" in failed:
        raise ValueError(f"columnwise pairing of {z} hits a doubled entry")
    # is_admissible says why: it raises when the pairs do not partition the singles
    if "admissible" in failed and not is_admissible(z, arrangement):
        raise ValueError(f"{arrangement} is not admissible for {z}")
    if not sign_set.issubset(arrangement.pairs):
        raise ValueError("sign_pairs must be a subset of the arrangement's pairs")
    if "distinct" in failed:
        raise ValueError(f"cell terms for {z} are not distinct")
    return Cell(z, arrangement, tuple(sorted(sign_set)), signs, masks)


@lru_cache(maxsize=None)
def _cell_plan(
    layout: tuple[tuple[int, ...], int],
    pattern: tuple[tuple[tuple[int, int], ...], int] | None,
    flips: tuple[bool, ...],
) -> tuple[tuple[str, ...], tuple[int, ...], tuple[int, ...]]:
    """The failed checks, the term signs and the swap masks of a cell of a
    special symbol with this layout whose pairs and isolated single sit at
    the pattern's single indices (None: the standard arrangement's), pair
    j flipping the sign when flips[j].

    The failed checks are named in make_cell's order: "columnwise" (the
    standard arrangement hits a double), "partition" (the pattern does not
    hold each single once), "admissible" (it does not, or it is not
    admissible) and "distinct" (two terms are one symbol)."""
    below, d = layout
    m = len(below)
    if pattern is None:
        pattern = tuple((j, j + 1) for j in range(0, m - 1, 2)), m - 1
    pairs, isolated = pattern
    failed = []
    # double k has bisect_right(below, k) singles below it
    if any(bisect_right(below, k) & 1 for k in range(d)):
        failed.append("columnwise")
    if sorted([isolated, *(i for p in pairs for i in p)]) != list(range(m)):
        failed += ["partition", "admissible"]
    elif not _admissible(below, pairs):
        failed.append("admissible")
    signs, masks, distinct = _term_plan(m, pairs, flips)
    if not distinct:
        failed.append("distinct")
    return tuple(failed), signs, masks


@lru_cache(maxsize=None)
def _term_plan(
    m: int, pairs: tuple[tuple[int, int], ...], flips: tuple[bool, ...]
) -> tuple[tuple[int, ...], tuple[int, ...], bool]:
    """The term signs and swap masks of a cell over m singles whose pairs
    sit at the given single indices, pair j flipping the sign when
    flips[j]; and whether the terms are distinct symbols."""
    signs = [1]
    masks = [0]
    for (i, j), flip in zip(pairs, flips):
        sign = -1 if flip else 1
        signs += [sign * s for s in signs]
        masks += [b | 1 << i | 1 << j for b in masks]
    # masks b and b ^ full flip Z to one symbol: orientation ignores row order
    full = (1 << m) - 1
    distinct = len({min(b, b ^ full) for b in masks}) == len(masks)
    return tuple(signs), tuple(masks), distinct


@lru_cache(maxsize=None)
def even_strip_specials(n: int) -> tuple[SpecialSymbol, ...]:
    """The special symbols of rank 2n whose bipartition skew is an even
    horizontal strip, the defect-1 symbols of their labels, generated
    beta-first."""
    if n < 0:
        raise ValueError("n must be non-negative")
    syms = [
        symbol_of(1, alpha, beta)
        for bsize in range(n, -1, -1)
        for beta in partitions(bsize)
        for alpha in horizontal_strips(beta, 2 * n - 2 * bsize, 2)
    ]
    # one rank and defect, so the sort is symbol order
    return tuple(map(SpecialSymbol, sorted(syms)))


def family(z: SpecialSymbol) -> tuple[tuple[frozenset, Symbol], ...]:
    """The 2**(2d) family members of Z, indexed by even subsets A of the
    singles: A records which singles change row relative to Z."""
    singles = z.singles()
    members = [Symbol._of_rows(*rows) for rows in _rows(z, _even_masks(len(singles)))]
    return tuple(zip(even_subsets(singles), members))


@lru_cache(maxsize=None)
def _even_masks(m: int) -> tuple[int, ...]:
    """even_subsets(range(m)) as bitmasks, in its order."""
    return tuple(sum(1 << i for i in a) for a in even_subsets(tuple(range(m))))


def _syndrome(a: int, pair_masks: list[int]) -> int:
    """Bit j is the parity of the singles of mask a in pair j."""
    return sum(((a & p).bit_count() & 1) << j for j, p in enumerate(pair_masks))


def fourier_constituents(cell: Cell) -> tuple[Symbol, ...]:
    """The family members carried by a cell under the even-subset pairing,
    sorted (one rank, so by defect, then rows).

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
    which is exactly one syndrome with F = 2**d; symbols are built only
    for its members.  A violation reports the first even mask A in the order
    of family(Z).
    """
    full = 2**cell.d
    if len(cell.signs) != full:
        raise ValueError(f"d = {cell.d} needs {full} terms, got {len(cell.signs)}")
    m = len(cell.z.singles())
    kept = _kept_masks(m, cell.masks, tuple(cell.signs))
    if kept is None:
        _raise_violation(cell.z, cell.masks, cell.signs)
    # _kept_masks lists them in symbol order, and _row_plan orients them
    return tuple([Symbol._of_rows(*rows) for rows in _rows(cell.z, kept)])


def _walsh_hadamard(signs: Iterable[int]) -> list[int]:
    """f[u] = sum over t of signs[t] * (-1)**popcount(u & t)."""
    f = list(signs)
    h = 1
    while h < len(f):
        for i in range(0, len(f), 2 * h):
            for j in range(i, i + h):
                f[j], f[j + h] = f[j] + f[j + h], f[j] - f[j + h]
        h *= 2
    return f


@lru_cache(maxsize=None)
def _kept_masks(
    m: int, masks: tuple[int, ...], signs: tuple[int, ...]
) -> tuple[int, ...] | None:
    """The 2**d even masks of the one syndrome where the transform of the
    signs peaks, for a cell over m singles with the given term masks;
    None if a multiplicity leaves {0, 1} or the peak is not unique
    (_raise_violation then says where).

    Term 1 << j swaps pair j alone, so masks[1 << j] is that pair's mask,
    and the last term swaps every pair, so the one single that masks[-1]
    leaves is the isolated one.

    The kept masks are listed in the order of their symbols.  The singles
    alternate rows, the even ones in Z's top row, so each kept mask fixes
    the set S of singles in the longer row of its symbol.  The defect is
    2|S| - m.  Two symbols of one defect hold every double in their longer
    rows, so those rows first differ at the least single in just one S,
    and the row that holds it is the smaller, as the sorted index tuples
    of the two S are; equal longer rows make equal symbols.  So sorting by
    (|S|, sorted S) sorts the symbols."""
    full = len(signs)
    f = _walsh_hadamard(signs)
    if any(num not in (0, full) for num in f):
        return None
    peaks = [u for u, num in enumerate(f) if num]
    if len(peaks) != 1:
        return None
    kept = [0]
    for j, pair in enumerate(_pair_masks(masks)):
        # one member (the lower or the higher bit) if syndrome bit j is set
        low = pair & -pair
        options = (low, pair ^ low) if peaks[0] >> j & 1 else (0, pair)
        kept = [k | o for k in kept for o in options]
    full_mask = (1 << m) - 1
    isolated = masks[-1] ^ full_mask
    z_top = sum(1 << j for j in range(0, m, 2))

    def longer(k: int) -> tuple[int, list[int]]:
        top = z_top ^ k
        s = top if 2 * top.bit_count() > m else top ^ full_mask
        return s.bit_count(), [j for j in range(m) if s >> j & 1]

    return tuple(sorted((k | isolated if k.bit_count() & 1 else k for k in kept), key=longer))


def _pair_masks(masks: tuple[int, ...]) -> list[int]:
    """Each pair's mask, in pair order: the mask of the term that swaps
    that pair alone."""
    return [masks[1 << j] for j in range(len(masks).bit_length() - 1)]


def _raise_violation(z: SpecialSymbol, masks: tuple[int, ...], signs: Iterable[int]) -> NoReturn:
    """Raise the FamilyModelViolation of signs that _kept_masks rejects:
    the first multiplicity outside {0, 1} in family(Z) order, else the
    constituent count."""
    f = _walsh_hadamard(signs)
    full = len(f)
    singles = z.singles()
    pair_masks = _pair_masks(masks)
    if any(num not in (0, full) for num in f):
        # every syndrome is reached, so this finds the first violating A
        for a, mask in zip(even_subsets(singles), _even_masks(len(singles))):
            num = f[_syndrome(mask, pair_masks)]
            if num % full:
                raise FamilyModelViolation(z, a, f"{num}/{full}")
            if num // full not in (0, 1):
                raise FamilyModelViolation(z, a, num // full)
    peaks = sum(1 for num in f if num)
    raise FamilyModelViolation(z, frozenset(), f"{peaks * full} constituents")


class CellEntry(namedtuple("CellEntry", "cell constituents")):
    """A cell and the family members it carries, sorted, as the tuple
    (cell, constituents)."""

    __slots__ = ()

    def to_json(self) -> dict:
        cell = self.cell
        return {
            "Z": str(cell.z),
            "d": cell.d,
            "terms": [
                {"sign": sign, "symbol": _rows_text(*rows)}
                for sign, rows in zip(cell.signs, cell.term_rows())
            ],
            "constituents": [str(s) for s in self.constituents],
        }


class DistinguishedReport(
    namedtuple("DistinguishedReport", "rank entries union count cuspidal_present")
):
    """The report at one rank, stored as the tuple (rank, entries, union,
    count, cuspidal_present): entries is the list of CellEntry, the union
    is sorted."""

    __slots__ = ()

    def to_json(self) -> dict:
        cells = [e.to_json() for e in self.entries]
        # each constituent is printed once: the union reuses its cell's string
        names = {
            s: name
            for e, c in zip(self.entries, cells)
            for s, name in zip(e.constituents, c["constituents"])
        }
        return {
            "rank": self.rank,
            "cells": cells,
            "union": [names[s] for s in self.union],
            "count": self.count,
            "cuspidal_present": self.cuspidal_present,
        }


def rank_report(rank: int) -> DistinguishedReport:
    """Cells, constituents, and the flat distinguished list at any rank.

    The count is the sum of 2**d over the even-strip special symbols; the
    union must reach it because families of distinct special symbols share
    no symbols, so the first cell that meets an earlier cell's constituents
    or adds other than 2**d symbols raises, naming its Z.  The cuspidal
    flag records whether the symbol (0..2d | -) is among the constituents,
    which must happen whenever rank = d*d + d.  Odd ranks give an empty
    report; rank 0 gives the cuspidal 0|-.
    """
    if rank < 0:
        raise ValueError("rank must be non-negative")
    entries = []
    merged = set()
    # the cells' sorted runs, concatenated: sorting them merges the runs
    union = []
    count = 0
    # no bipartition difference of odd size is an even strip
    specials = () if rank % 2 else even_strip_specials(rank // 2)
    for z in specials:
        c = make_cell(z)
        constituents = fourier_constituents(c)
        if not merged.isdisjoint(constituents):
            shared = next(s for s in constituents if s in merged)
            earlier = next(e.cell.z for e in entries if shared in e.constituents)
            raise FamilyModelViolation(z, frozenset(), f"{shared} is also carried by {earlier}")
        entries.append(CellEntry(c, constituents))
        merged.update(constituents)
        union += constituents
        count += 2**c.d
        if len(merged) != count:
            raise FamilyModelViolation(z, frozenset(), f"union size {len(merged)} != {count}")
    cusp_d = next((d for d in range(rank + 1) if d * d + d == rank), None)
    present = cusp_d is not None and cuspidal_symbol(cusp_d) in merged
    return DistinguishedReport(rank, entries, tuple(sorted(union)), count, present)


def distinguished(n: int) -> DistinguishedReport:
    """The distinguished-symbol report of Sp_{4n}: the report at rank 2n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return rank_report(2 * n)

"""Lusztig symbols.

A symbol is an unordered pair of strictly increasing rows of non-negative
integers, reduced so that 0 does not sit in both rows.  Rank-n symbols of
odd defect index the unipotent representations of the rank-n finite
symplectic group.

symbol_of and label are the one map between symbols and their labels.
For an odd defect d the symbol of a bipartition (alpha; beta) lists both
partitions ascending and zero-padded, alpha to m + d entries and beta to
m, with m the least that fits both; entry i (from 0) then gains i.  Its
rank is |alpha| + |beta| + (d*d - 1)/4.  A 0 in both rows would need both
lists padded, and then m - 1 would fit both too, so minimal padding is
exactly reducedness, and the map is a bijection from bipartitions of
n - (d*d - 1)/4 onto the reduced rank-n symbols of defect d.  This is the
Harish-Chandra reading (Lusztig, Invent. Math. 1977; Carter, section
13.8): the symbols of defect d = 2k + 1 form the series above the
cuspidal unipotent of Sp_{2k(k+1)}, the empty label, and the labels are
the irreducibles of its relative Weyl group W_{n - k(k+1)}.  For d = 1
that group is W_n itself, and a label is the raw pair (alpha parts, beta
parts) that keys an irreducible of W_n.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Iterable

from .partitions import Partition, partitions


class Symbol(tuple):
    """A reduced symbol in canonical orientation, stored as the tuple
    (defect, top, bottom).

    The longer row is stored first; for rows of equal length the
    lexicographically smaller one comes first.  Construction requires the
    rows to be strictly increasing and already reduced; use
    reduce_symbol() to normalize raw rows.

    Hashing, equality and order are the tuple's, so symbols of one rank
    sort by (defect, top, bottom) with no key.  A Symbol equals the plain
    tuple of its items; nothing in the package compares the two.

    The private _of_rows() is the one unchecked route: it only orients the
    rows.  Its callers' rows are valid by construction: cells._rows reads
    off a checked, reduced special symbol its doubles plus a subset of its
    singles (disjoint from the doubles), in increasing order; symbol_of
    gives checked partition parts shifted by their positions and minimally
    padded, so 0 never lies in both; and SpecialSymbol._of_rows passes on
    rows that its caller builds the same way.
    """

    __slots__ = ()

    def __new__(cls, top: Iterable[int], bottom: Iterable[int] = ()) -> "Symbol":
        top = tuple(map(operator.index, top))
        bottom = tuple(map(operator.index, bottom))
        for row in (top, bottom):
            if row and min(row) < 0:
                raise ValueError(f"negative entry in row {row!r}")
            if any(map(operator.ge, row, row[1:])):
                raise ValueError(f"row must be strictly increasing: {row!r}")
        if top and bottom and top[0] == 0 and bottom[0] == 0:
            raise ValueError("symbol is not reduced; use reduce_symbol()")
        return cls._of_rows(top, bottom)

    @classmethod
    def _of_rows(cls, top: tuple[int, ...], bottom: tuple[int, ...]) -> "Symbol":
        """The symbol of rows already known to be int tuples, strictly
        increasing and reduced: only the orientation is set."""
        if len(bottom) > len(top) or (len(bottom) == len(top) and bottom < top):
            top, bottom = bottom, top
        return tuple.__new__(cls, (len(top) - len(bottom), top, bottom))

    # copy and pickle rebuild a Symbol by calling __new__ with these
    def __getnewargs__(self) -> tuple:
        return self[1], self[2]

    def __repr__(self) -> str:
        return f"Symbol(top={self[1]!r}, bottom={self[2]!r})"

    defect = property(operator.itemgetter(0))
    top = property(operator.itemgetter(1))
    bottom = property(operator.itemgetter(2))

    @property
    def rank(self) -> int:
        total = sum(self.top) + sum(self.bottom)
        t = len(self.top) + len(self.bottom) - 1
        return total - (t * t) // 4

    def __str__(self) -> str:
        return _rows_text(self[1], self[2])

    @classmethod
    def parse(cls, text: str) -> "Symbol":
        top, _, bottom = text.partition("|")

        def row(part: str) -> tuple[int, ...]:
            part = part.strip()
            if part in ("", "-"):
                return ()
            return tuple(int(t) for t in part.split(","))

        return cls(row(top), row(bottom))


def _rows_text(top: tuple[int, ...], bottom: tuple[int, ...]) -> str:
    """The printed form of oriented rows, top|bottom, a row's entries
    joined by commas and an empty row shown as -.  Symbol.__str__ prints
    through this, and so do the cell terms, which are printed from their
    rows with no Symbol built."""
    return f"{','.join(map(str, top)) or '-'}|{','.join(map(str, bottom)) or '-'}"


def reduce_symbol(top: Iterable[int], bottom: Iterable[int]) -> Symbol:
    """Normal form of a raw symbol.

    While 0 lies in both rows, both zeros are deleted and every remaining
    entry drops by one; rank and defect are unchanged.  Rows with repeated
    entries are rejected.
    """
    t = sorted(map(operator.index, top))
    b = sorted(map(operator.index, bottom))
    for row in (t, b):
        if len(set(row)) != len(row):
            raise ValueError(f"row has repeated entries: {row!r}")
    while t and b and t[0] == 0 and b[0] == 0:
        t = [x - 1 for x in t[1:]]
        b = [x - 1 for x in b[1:]]
    return Symbol(tuple(t), tuple(b))


def symbol_of(d: int, alpha: tuple[int, ...], beta: tuple[int, ...]) -> Symbol:
    """The symbol of odd defect d labelled by the bipartition (alpha; beta),
    given as part tuples (positive, weakly decreasing): the inverse of
    label.  The rows are strictly increasing, alpha's is d longer, and the
    minimal padding leaves a 0 in one row at most.  Parts that are not
    positive or not weakly decreasing raise ValueError, as in Partition."""
    _check_defect(d)
    alpha, beta = Partition(alpha), Partition(beta)
    m = max(len(alpha) - d, len(beta), 0)
    return Symbol._of_rows(_shifted(alpha, m + d), _shifted(beta, m))


def label(z: tuple) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """The label (d, alpha parts, beta parts) of a symbol of odd defect d,
    read off a Symbol or off the plain tuple (defect, top, bottom) that a
    Symbol equals, the top row the longer: the inverse of symbol_of."""
    d, top, bottom = z
    _check_defect(d)
    return d, _parts(top), _parts(bottom)


def _check_defect(d: int) -> None:
    if d <= 0 or d % 2 == 0:
        raise ValueError(f"labels are defined for odd positive defect, got {d}")


def _shifted(parts: tuple[int, ...], length: int) -> tuple[int, ...]:
    """The parts ascending, zero-padded in front to the length, entry i
    plus i."""
    pad = length - len(parts)
    return (*range(pad), *map(operator.add, reversed(parts), range(pad, length)))


def _parts(row: tuple[int, ...]) -> tuple[int, ...]:
    """The parts whose shifted row (as in _shifted) is row."""
    # entry i of a strictly increasing row, less i, is weakly increasing and >= 0
    return tuple([x - i for i, x in enumerate(row) if x != i][::-1])


def is_special(sym: Symbol) -> bool:
    """Whether the merged entry sequence interleaves weakly.

    With rows (z0, z2, ..., z2m | z1, z3, ..., z2m-1) the test is
    z0 <= z1 <= z2 <= ... <= z2m.  Only defined for defect 1.
    """
    if sym.defect != 1:
        raise ValueError(f"specialness is defined for defect 1, got {sym}")
    top, bottom = sym.top, sym.bottom
    return all(top[i] <= bottom[i] <= top[i + 1] for i in range(len(bottom)))


class SpecialSymbol(tuple):
    """A defect-1 symbol with weakly interleaving rows, stored as the tuple
    (symbol, singles, doubles): the entries in exactly one row and in both
    rows, each ascending.  Both are fixed by the symbol, so equality and
    hashing are the symbol's in effect; like Symbol, a SpecialSymbol
    equals the plain tuple of its items.  The cell code unpacks all three
    at once.

    The private _of_rows() is the one unchecked route, as for Symbol; its
    caller says why its rows meet the condition there."""

    __slots__ = ()

    def __new__(cls, symbol: Symbol) -> "SpecialSymbol":
        if not is_special(symbol):
            raise ValueError(f"{symbol} is not special")
        top, bottom = set(symbol.top), set(symbol.bottom)
        singles, doubles = tuple(sorted(top ^ bottom)), tuple(sorted(top & bottom))
        return tuple.__new__(cls, (symbol, singles, doubles))

    @classmethod
    def _of_rows(cls, top: tuple[int, ...], bottom: tuple[int, ...]) -> "SpecialSymbol":
        """The special symbol of strictly increasing, reduced int rows with
        top one longer and top_i <= bottom_i < top_(i+1) for every column
        i.  Then the merged order reads the columns in turn, so a double
        fills a whole column and the singles come in increasing order: the
        columns where the rows differ, then the last top entry.  One pass
        over the columns gives both."""
        singles, doubles = [], []
        for t, b in zip(top, bottom):
            if t == b:
                doubles.append(t)
            else:
                singles += (t, b)
        singles.append(top[-1])
        return tuple.__new__(cls, (Symbol._of_rows(top, bottom), tuple(singles), tuple(doubles)))

    # copy and pickle rebuild a SpecialSymbol by calling __new__ with these
    def __getnewargs__(self) -> tuple:
        return (self[0],)

    def __repr__(self) -> str:
        return f"SpecialSymbol(symbol={self[0]!r})"

    symbol = property(operator.itemgetter(0))

    def singles(self) -> tuple[int, ...]:
        """Entries occurring in exactly one row, ascending; always odd many."""
        return self[1]

    def doubles(self) -> tuple[int, ...]:
        """Entries occurring in both rows, ascending."""
        return self[2]

    @property
    def d(self) -> int:
        return (len(self.singles()) - 1) // 2

    def __str__(self) -> str:
        return str(self[0])


def is_cuspidal(sym: Symbol) -> bool:
    """Whether a symbol of odd defect D attains the minimal rank, the
    greatest integer below (D/2)**2."""
    if sym.defect % 2 == 0:
        raise ValueError(f"cuspidality is defined for odd defect, got {sym}")
    return sym.rank == sym.defect**2 // 4


def cuspidal_symbol(d: int) -> Symbol:
    """The symbol (0, 1, ..., 2d | -) of rank d*d + d and defect 2d + 1,
    the empty label."""
    if d < 0:
        raise ValueError("d must be non-negative")
    return symbol_of(2 * d + 1, (), ())


@lru_cache(maxsize=None)
def odd_defect_symbols(rank: int) -> tuple[Symbol, ...]:
    """All reduced symbols of the given rank and odd defect, in symbol
    order: the images under symbol_of of the bipartitions of
    rank - k(k + 1), over the defects 2k + 1 with k(k + 1) <= rank."""
    if rank < 0:
        raise ValueError("rank must be non-negative")
    out = []
    k = 0
    while k * (k + 1) <= rank:
        size = rank - k * (k + 1)
        out += [
            symbol_of(2 * k + 1, alpha, beta)
            for asize in range(size + 1)
            for alpha in partitions(asize)
            for beta in partitions(size - asize)
        ]
        k += 1
    return tuple(sorted(out))

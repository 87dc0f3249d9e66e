"""Lusztig symbols.

A symbol is an unordered pair of strictly increasing rows of non-negative
integers, reduced so that 0 does not sit in both rows.  Rank-n symbols of
odd defect index the unipotent representations of the rank-n finite
symplectic group; the defect-1 ones also index the irreducible characters
of the hyperoctahedral group W_n through the bipartition correspondence
implemented here.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Iterable, Iterator

from .partitions import Partition


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
    singles (disjoint from the doubles), in increasing order, and
    _bipartition_rows gives partition parts shifted by their positions and
    minimally padded, so 0 never lies in both.
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


def from_bipartition(alpha: Partition, beta: Partition) -> Symbol:
    """The defect-1 symbol attached to a bipartition.

    The parts are listed ascending and zero-padded so the first row is one
    longer than the second, minimally; entry i (1-based) then gains i-1.
    The resulting symbol has rank |alpha| + |beta| and defect 1.
    """
    return Symbol._of_rows(*_bipartition_rows(alpha, beta))


def _bipartition_rows(
    alpha: tuple[int, ...], beta: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """from_bipartition's rows from raw part tuples (positive, weakly
    decreasing).  The rows are strictly increasing, the first is the
    longer, and the minimal padding leaves a 0 in one row at most."""
    m = max(len(alpha) - 1, len(beta), 0)
    return _shifted(alpha, m + 1), _shifted(beta, m)


def _shifted(parts: tuple[int, ...], length: int) -> tuple[int, ...]:
    """The parts ascending, zero-padded in front to the length, entry i
    plus i."""
    pad = length - len(parts)
    return (*range(pad), *map(operator.add, reversed(parts), range(pad, length)))


def to_bipartition(sym: Symbol) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Inverse of from_bipartition, as the raw pair (alpha parts, beta
    parts) that keys an irreducible of W_n; requires defect 1."""
    if sym.defect != 1:
        raise ValueError(f"defect must be 1, got {sym.defect} for {sym}")
    return _row_parts(sym.top), _row_parts(sym.bottom)


def _row_parts(row: tuple[int, ...]) -> tuple[int, ...]:
    """The partition whose shifted row (as in from_bipartition) is row."""
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
    at once."""

    __slots__ = ()

    def __new__(cls, symbol: Symbol) -> "SpecialSymbol":
        if not is_special(symbol):
            raise ValueError(f"{symbol} is not special")
        top, bottom = set(symbol.top), set(symbol.bottom)
        singles, doubles = tuple(sorted(top ^ bottom)), tuple(sorted(top & bottom))
        return tuple.__new__(cls, (symbol, singles, doubles))

    # copy and pickle rebuild a SpecialSymbol by calling __new__ with these
    def __getnewargs__(self) -> tuple:
        return (self[0],)

    def __repr__(self) -> str:
        return f"SpecialSymbol(symbol={self[0]!r})"

    symbol = property(operator.itemgetter(0))

    @property
    def top(self) -> tuple[int, ...]:
        return self[0].top

    @property
    def bottom(self) -> tuple[int, ...]:
        return self[0].bottom

    @property
    def rank(self) -> int:
        return self[0].rank

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
    """The symbol (0, 1, ..., 2d | -) of rank d*d + d and defect 2d + 1."""
    if d < 0:
        raise ValueError("d must be non-negative")
    return Symbol(tuple(range(2 * d + 1)), ())


def _increasing_rows(length: int, total: int) -> Iterator[tuple[int, ...]]:
    """Strictly increasing rows of non-negative integers with a given sum."""

    def rec(k: int, lo: int, remaining: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if k == 0:
            if remaining == 0:
                yield tuple(acc)
            return
        # smallest feasible start keeps room for k-1 larger entries
        v = lo
        while v * k + k * (k - 1) // 2 <= remaining:
            acc.append(v)
            yield from rec(k - 1, v + 1, remaining - v, acc)
            acc.pop()
            v += 1

    if length == 0:
        if total == 0:
            yield ()
        return
    yield from rec(length, 0, total, [])


@lru_cache(maxsize=None)
def odd_defect_symbols(rank: int) -> tuple[Symbol, ...]:
    """All reduced symbols of the given rank and odd defect.

    Enumeration runs over defects D = 1, 3, ... with (D//2)**2 <= rank;
    for each row-size pair the entry budget fixed by the rank formula
    bounds the search.
    """
    out = []
    d = 1
    while (d // 2) ** 2 <= rank:
        b = 0
        while True:
            a = b + d
            t = a + b - 1
            budget = rank + (t * t) // 4
            min_sum = a * (a - 1) // 2 + b * (b + 1) // 2
            if min_sum > budget:
                break
            for s_top in range(a * (a - 1) // 2, budget - b * (b - 1) // 2 + 1):
                for top in _increasing_rows(a, s_top):
                    for bottom in _increasing_rows(b, budget - s_top):
                        if top and bottom and top[0] == 0 and bottom[0] == 0:
                            continue
                        out.append(Symbol(top, bottom))
            b += 1
        d += 2
    return tuple(sorted(set(out)))

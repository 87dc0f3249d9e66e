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
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .partitions import Partition


@dataclass(frozen=True)
class Symbol:
    """A reduced symbol in canonical orientation.

    The longer row is stored first; for rows of equal length the
    lexicographically smaller one comes first.  Construction requires the
    rows to be strictly increasing and already reduced; use
    reduce_symbol() to normalize raw rows.
    """

    top: tuple[int, ...]
    bottom: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        top = tuple(map(int, self.top))
        bottom = tuple(map(int, self.bottom))
        for row in (top, bottom):
            if row and min(row) < 0:
                raise ValueError(f"negative entry in row {row!r}")
            if any(map(operator.ge, row, row[1:])):
                raise ValueError(f"row must be strictly increasing: {row!r}")
        if top and bottom and top[0] == 0 and bottom[0] == 0:
            raise ValueError("symbol is not reduced; use reduce_symbol()")
        if len(bottom) > len(top) or (len(bottom) == len(top) and bottom < top):
            top, bottom = bottom, top
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "bottom", bottom)

    @property
    def rank(self) -> int:
        total = sum(self.top) + sum(self.bottom)
        t = len(self.top) + len(self.bottom) - 1
        return total - (t * t) // 4

    @property
    def defect(self) -> int:
        return abs(len(self.top) - len(self.bottom))

    def entries(self) -> tuple[int, ...]:
        return tuple(sorted(self.top + self.bottom))

    def __str__(self) -> str:
        def fmt(row: tuple[int, ...]) -> str:
            return ",".join(str(x) for x in row) if row else "-"

        return f"{fmt(self.top)}|{fmt(self.bottom)}"

    @classmethod
    def parse(cls, text: str) -> "Symbol":
        top, _, bottom = text.partition("|")

        def row(part: str) -> tuple[int, ...]:
            part = part.strip()
            if part in ("", "-"):
                return ()
            return tuple(int(t) for t in part.split(","))

        return cls(row(top), row(bottom))

    def to_json(self) -> dict:
        return {"top": list(self.top), "bottom": list(self.bottom)}


def symbol_sort_key(s: Symbol) -> tuple:
    return (s.rank, s.defect, s.top, s.bottom)


def reduce_symbol(top: Iterable[int], bottom: Iterable[int]) -> Symbol:
    """Normal form of a raw symbol.

    While 0 lies in both rows, both zeros are deleted and every remaining
    entry drops by one; rank and defect are unchanged.  Rows with repeated
    entries are rejected.
    """
    t = sorted(int(x) for x in top)
    b = sorted(int(x) for x in bottom)
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
    m = max(alpha.length - 1, beta.length, 0)
    a = sorted(alpha.parts) if alpha.parts else []
    b = sorted(beta.parts) if beta.parts else []
    a = [0] * (m + 1 - len(a)) + a
    b = [0] * (m - len(b)) + b
    top = tuple(a[i] + i for i in range(m + 1))
    bottom = tuple(b[i] + i for i in range(m))
    return Symbol(top, bottom)


def to_bipartition(sym: Symbol) -> tuple[Partition, Partition]:
    """Inverse of from_bipartition; requires defect 1."""
    if sym.defect != 1:
        raise ValueError(f"defect must be 1, got {sym.defect} for {sym}")
    alpha = tuple(sym.top[i] - i for i in range(len(sym.top)))
    beta = tuple(sym.bottom[i] - i for i in range(len(sym.bottom)))
    return (
        Partition(tuple(sorted((x for x in alpha if x), reverse=True))),
        Partition(tuple(sorted((x for x in beta if x), reverse=True))),
    )


def is_special(sym: Symbol) -> bool:
    """Whether the merged entry sequence interleaves weakly.

    With rows (z0, z2, ..., z2m | z1, z3, ..., z2m-1) the test is
    z0 <= z1 <= z2 <= ... <= z2m.  Only defined for defect 1.
    """
    if sym.defect != 1:
        raise ValueError(f"specialness is defined for defect 1, got {sym}")
    top, bottom = sym.top, sym.bottom
    return all(top[i] <= bottom[i] <= top[i + 1] for i in range(len(bottom)))


@dataclass(frozen=True)
class SpecialSymbol:
    """A defect-1 symbol with weakly interleaving rows."""

    symbol: Symbol

    def __post_init__(self) -> None:
        if not is_special(self.symbol):
            raise ValueError(f"{self.symbol} is not special")

    @property
    def top(self) -> tuple[int, ...]:
        return self.symbol.top

    @property
    def bottom(self) -> tuple[int, ...]:
        return self.symbol.bottom

    @property
    def rank(self) -> int:
        return self.symbol.rank

    def singles(self) -> tuple[int, ...]:
        """Entries occurring in exactly one row, ascending; always odd many."""
        return tuple(sorted(set(self.top) ^ set(self.bottom)))

    def doubles(self) -> tuple[int, ...]:
        """Entries occurring in both rows, ascending."""
        return tuple(sorted(set(self.top) & set(self.bottom)))

    @property
    def d(self) -> int:
        return (len(self.singles()) - 1) // 2

    def __str__(self) -> str:
        return str(self.symbol)


def is_cuspidal(sym: Symbol) -> bool:
    """Whether a symbol of odd defect D attains the minimal rank, the
    greatest integer below (D/2)**2."""
    if sym.defect % 2 == 0:
        raise ValueError(f"cuspidality is defined for odd defect, got {sym}")
    return sym.rank == sym.defect**2 // 4


def cuspidal_symbol(d: int) -> Symbol:
    """The symbol (0, 1, ..., 2d | -) of rank d*d + d and defect 2d + 1."""
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
    return tuple(sorted(set(out), key=symbol_sort_key))

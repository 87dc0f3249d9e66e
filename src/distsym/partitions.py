"""Integer partitions, skew diagrams, and two-letter lattice tableaux.

Partitions store weakly decreasing positive parts.  Skew diagrams use
1-based (row, column) coordinates in English orientation.  The reading
word of a filling runs right to left within a row, rows top to bottom.
"""

from __future__ import annotations

import operator
from collections import Counter, namedtuple
from functools import lru_cache
from typing import Iterable, Iterator


@lru_cache(maxsize=None)
def _partition_name(parts: tuple[int, ...]) -> str:
    """The parts joined by commas, '-' for the empty partition: the str of
    a Partition, cached per partition, since the names of all classes and
    irreducibles of W_n reuse those of a few partitions."""
    return ",".join(map(str, parts)) or "-"


class Partition(tuple):
    """A partition as the tuple of its parts, which it equals, hashes and
    sorts as (the empty one is falsy).  The constructor checks the parts;
    partitions() builds through the unchecked _of_parts()."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        parts = tuple(map(operator.index, parts))
        if any(p < 1 for p in parts):
            raise ValueError(f"parts must be positive integers: {parts!r}")
        if any(map(operator.lt, parts, parts[1:])):
            raise ValueError(f"parts must be weakly decreasing: {parts!r}")
        return cls._of_parts(parts)

    @classmethod
    def _of_parts(cls, parts: tuple[int, ...]) -> "Partition":
        return tuple.__new__(cls, parts)

    def __repr__(self) -> str:
        return f"Partition(parts={tuple(self)!r})"

    def part(self, i: int) -> int:
        """The i-th part (0-based), zero beyond the last row."""
        return self[i] if 0 <= i < len(self) else 0

    def contains(self, other: "Partition") -> bool:
        """Row-wise containment after zero padding."""
        return len(other) <= len(self) and all(map(operator.le, other, self))

    __str__ = _partition_name

    @classmethod
    def parse(cls, text: str) -> "Partition":
        text = text.strip()
        if text in ("", "-"):
            return cls()
        return cls(tuple(int(t) for t in text.split(",")))


@lru_cache(maxsize=None)
def partitions(n: int, max_part: int | None = None) -> tuple[Partition, ...]:
    """All partitions of n, in the canonical (reverse-lexicographic) order."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return (Partition._of_parts(()),)
    cap = n if max_part is None else min(max_part, n)
    out: list[Partition] = []
    for first in range(cap, 0, -1):
        for rest in partitions(n - first, first):
            out.append(Partition._of_parts((first, *rest)))
    return tuple(out)


class SkewShape(namedtuple("SkewShape", "outer inner")):
    """The set difference of two nested Young diagrams, stored as the
    tuple (outer, inner) of two Partitions; like Partition, it equals the
    plain tuple of its fields.  The constructor takes raw part tuples or
    Partitions, checks both as Partition does, then the nesting.

    Row i (1-based) spans columns inner_i + 1 .. outer_i.
    """

    __slots__ = ()

    def __new__(cls, outer: Iterable[int], inner: Iterable[int] = ()) -> "SkewShape":
        outer, inner = Partition(outer), Partition(inner)
        if not outer.contains(inner):
            raise ValueError(f"inner {inner} not contained in outer {outer}")
        return super().__new__(cls, outer, inner)

    @property
    def size(self) -> int:
        return sum(self.outer) - sum(self.inner)

    def row_lengths(self) -> tuple[int, ...]:
        """Boxes per row, aligned with the rows of the outer partition."""
        return tuple(o - self.inner.part(i) for i, o in enumerate(self.outer))

    def boxes(self) -> tuple[tuple[int, int], ...]:
        """All boxes in reading order: rows top to bottom, right to left."""
        out = []
        for i in range(len(self.outer)):
            for c in range(self.outer.part(i), self.inner.part(i), -1):
                out.append((i + 1, c))
        return tuple(out)

    def column_counts(self) -> Counter:
        counts: Counter = Counter()
        for i in range(len(self.outer)):
            for c in range(self.inner.part(i) + 1, self.outer.part(i) + 1):
                counts[c] += 1
        return counts

    def max_column_boxes(self) -> int:
        counts = self.column_counts()
        return max(counts.values()) if counts else 0

    def is_horizontal_strip(self) -> bool:
        return self.max_column_boxes() <= 1

    def __str__(self) -> str:
        return f"{self.outer}/{self.inner}"

    @classmethod
    def parse(cls, text: str) -> "SkewShape":
        outer, _, inner = text.partition("/")
        return cls(Partition.parse(outer), Partition.parse(inner))


def hv_split(shape: SkewShape) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a shape by column height into (h_rows, v_rows).

    h collects the boxes lying in single-box columns, v the boxes in
    two-box columns; each is reported as its per-row box counts (top to
    bottom, empty rows dropped).  h is always a horizontal strip, so the
    row counts determine it up to column placement; v need not be a skew
    shape, so only its row counts are exposed.  Shapes with a column of
    three or more boxes are rejected.
    """
    counts = shape.column_counts()
    if counts and max(counts.values()) > 2:
        raise ValueError(f"{shape} has a column with more than two boxes")
    h_rows = []
    v_rows = []
    for i in range(len(shape.outer)):
        h = v = 0
        for c in range(shape.inner.part(i) + 1, shape.outer.part(i) + 1):
            if counts[c] == 1:
                h += 1
            else:
                v += 1
        if h:
            h_rows.append(h)
        if v:
            v_rows.append(v)
    return tuple(h_rows), tuple(v_rows)


def is_even_paired_shape(shape: SkewShape) -> bool:
    """True when every column holds at most two boxes, the size is even,
    and each row of the single-column part has an even number of boxes.

    The definition itself, kept as the independent cross-check that the
    tests hold route B's generator (xi.even_paired_pairs) against."""
    if shape.size % 2:
        return False
    counts = shape.column_counts()
    if counts and max(counts.values()) > 2:
        return False
    h_rows, _ = hv_split(shape)
    return all(r % 2 == 0 for r in h_rows)


class Tableau(namedtuple("Tableau", "shape entries")):
    """A two-letter filling of a skew shape: semistandard, and the reading
    word (right to left, top to bottom) is a lattice word.  Stored as the
    tuple (shape, entries), entries the (row, col, value) triples in
    reading order."""

    __slots__ = ()

    @property
    def num_twos(self) -> int:
        return sum(1 for _, _, v in self.entries if v == 2)


def iter_tableaux(shape: SkewShape) -> Iterator[Tableau]:
    """Enumerate all lattice fillings of a shape by the letters 1 and 2.

    Rows weakly increase left to right, columns strictly increase top to
    bottom, and every prefix of the reading word has at least as many 1s
    as 2s.  Depth-first with incremental checks.
    """
    boxes = shape.boxes()
    entry: dict[tuple[int, int], int] = {}

    def rec(k: int, ones: int, twos: int) -> Iterator[Tableau]:
        if k == len(boxes):
            yield Tableau(shape, tuple((r, c, entry[(r, c)]) for r, c in boxes))
            return
        r, c = boxes[k]
        right = entry.get((r, c + 1))
        above = entry.get((r - 1, c))
        for v in (1, 2):
            if v == 2 and twos + 1 > ones:
                continue
            if right is not None and v > right:
                continue
            if above is not None and above >= v:
                continue
            entry[(r, c)] = v
            yield from rec(k + 1, ones + (v == 1), twos + (v == 2))
            del entry[(r, c)]

    yield from rec(0, 0, 0)


def lr_tab_counts(shape: SkewShape) -> dict[int, int]:
    """Count the lattice fillings of a shape, keyed by the number of 2s."""
    if shape.max_column_boxes() > 2:
        raise ValueError(f"{shape} has a column with more than two boxes")
    counts: Counter = Counter()
    for t in iter_tableaux(shape):
        counts[t.num_twos] += 1
    return dict(counts)


@lru_cache(maxsize=None)
def _strip_sign_sum(rows: tuple[int, ...]) -> int:
    rows = tuple(r for r in rows if r)
    if not rows:
        return 1
    total = 1
    for i in range(2, len(rows) + 1):
        first = sum(rows[: i - 1]) - 1
        second = rows[i - 1] - 1
        reduced = tuple(r for r in (first, second, *rows[i:]) if r)
        total -= _strip_sign_sum(reduced)
    return total


def tab_sign_sum(shape: SkewShape) -> int:
    """The signed count of lattice fillings, sum of (-1)**(number of 2s),
    by enumerating the fillings; any shape with at most two boxes per
    column is accepted."""
    return sum((-1) ** i * c for i, c in lr_tab_counts(shape).items())


def strip_sign_sum(shape: SkewShape) -> int:
    """tab_sign_sum of a horizontal strip of even size, by the merge-top-rows
    reduction, which strictly shrinks the strip by two boxes per step."""
    if not shape.is_horizontal_strip():
        raise ValueError(f"{shape} is not a horizontal strip")
    if shape.size % 2:
        raise ValueError(f"{shape} has odd size")
    return _strip_sign_sum(shape.row_lengths())


def horizontal_strips(mu: tuple[int, ...], k: int, step: int) -> tuple[tuple[int, ...], ...]:
    """Every partition lam containing mu with lam / mu a horizontal strip
    of k boxes whose row lengths are multiples of step: mu_i <= lam_i <=
    mu_(i-1), with at most one new row.  Partitions are raw part tuples.

    Not cached: even_strip_specials meets each (mu, k) at one rank only
    and caches its own result, and xi's route A caches its own use."""
    rows = mu + (0,)
    out = []

    def rec(i: int, left: int, lam: tuple[int, ...]) -> None:
        if i == len(rows):
            if not left:
                out.append(tuple(p for p in lam if p))
            return
        room = left if i == 0 else min(left, rows[i - 1] - rows[i])
        # the rows below take at most rows[i] boxes in all (their rooms telescope)
        least = max(0, left - rows[i])
        for add in range(-(-least // step) * step, room + 1, step):
            rec(i + 1, left - add, lam + (rows[i] + add,))

    rec(0, k, ())
    return tuple(out)


def even_paired_extensions(beta: tuple[int, ...], size: int) -> list[tuple[tuple[int, ...], int]]:
    """Every alpha containing beta with alpha / beta an even-paired shape of
    the given size, with the sign (-1)**(|v|/2), alphas in decreasing
    lexicographic order.  Partitions are raw part tuples.

    Rows are chosen top to bottom with alpha_i <= alpha_(i-1) and alpha_i <=
    beta_(i-2), so no column holds three boxes; two sentinel rows longer
    than alpha sit above row 0.  Row i shares s_i = max(0, alpha_i -
    beta_(i-1)) columns with row i-1, so |v| = 2 sum s_i, and row i-1 has
    (alpha_(i-1) - beta_(i-1)) - s_(i-1) - s_i boxes in single-box
    columns: a branch where that is odd is cut."""
    top = sum(beta) + size
    rows = (top, top) + beta + (0, 0)
    out = []

    def rec(i: int, left: int, alpha: tuple[int, ...], s_prev: int, shared: int) -> None:
        if i == len(rows):
            if not left:
                out.append((tuple(p for p in alpha[2:] if p), (-1) ** shared))
            return
        base = rows[i]
        single = alpha[-1] - rows[i - 1] - s_prev
        for a in range(min(base + left, alpha[-1], rows[i - 2]), base - 1, -1):
            s = max(0, a - rows[i - 1])
            if (single - s) % 2 == 0:
                rec(i + 1, left - (a - base), alpha + (a,), s, shared + s)

    rec(2, size, (top, top), 0, 0)
    return out

"""Integer partitions, skew diagrams, and two-letter lattice tableaux.

Partitions store weakly decreasing positive parts.  Skew diagrams use
1-based (row, column) coordinates in English orientation.  The reading
word of a filling runs right to left within a row, rows top to bottom.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterator


@dataclass(frozen=True)
class Partition:
    """A partition of a non-negative integer."""

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        if any(p < 1 for p in parts):
            raise ValueError(f"parts must be positive integers: {parts!r}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {parts!r}")

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def part(self, i: int) -> int:
        """The i-th part (0-based), zero beyond the last row."""
        return self.parts[i] if 0 <= i < len(self.parts) else 0

    def multiplicities(self) -> dict[int, int]:
        return dict(Counter(self.parts))

    def transpose(self) -> "Partition":
        """Column lengths of the Young diagram; an involution."""
        if not self.parts:
            return Partition()
        return Partition(
            tuple(sum(1 for p in self.parts if p > j) for j in range(self.parts[0]))
        )

    def contains(self, other: "Partition") -> bool:
        """Row-wise containment after zero padding."""
        if other.length > self.length:
            return False
        return all(other.parts[i] <= self.parts[i] for i in range(other.length))

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts) if self.parts else "-"

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
        return (Partition(),)
    cap = n if max_part is None else min(max_part, n)
    out: list[Partition] = []
    for first in range(cap, 0, -1):
        for rest in partitions(n - first, first):
            out.append(Partition((first, *rest.parts)))
    return tuple(out)


@dataclass(frozen=True)
class SkewShape:
    """The set difference of two nested Young diagrams.

    Row i (1-based) spans columns inner_i + 1 .. outer_i.
    """

    outer: Partition
    inner: Partition = Partition()

    def __post_init__(self) -> None:
        if not self.outer.contains(self.inner):
            raise ValueError(f"inner {self.inner} not contained in outer {self.outer}")

    @property
    def size(self) -> int:
        return self.outer.size - self.inner.size

    def row_lengths(self) -> tuple[int, ...]:
        """Boxes per row, aligned with the rows of the outer partition."""
        return tuple(
            self.outer.part(i) - self.inner.part(i) for i in range(self.outer.length)
        )

    def boxes(self) -> tuple[tuple[int, int], ...]:
        """All boxes in reading order: rows top to bottom, right to left."""
        out = []
        for i in range(self.outer.length):
            for c in range(self.outer.part(i), self.inner.part(i), -1):
                out.append((i + 1, c))
        return tuple(out)

    def column_counts(self) -> Counter:
        counts: Counter = Counter()
        for i in range(self.outer.length):
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
    for i in range(shape.outer.length):
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


@dataclass(frozen=True)
class Tableau:
    """A two-letter filling of a skew shape: semistandard, and the reading
    word (right to left, top to bottom) is a lattice word."""

    shape: SkewShape
    entries: tuple[tuple[int, int, int], ...]  # (row, col, value) in reading order

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


def even_strip_extensions(beta: Partition, strip_size: int) -> Iterator[Partition]:
    """All partitions alpha containing beta with alpha/beta a horizontal
    strip of the given size whose every row length is even."""
    if strip_size < 0 or strip_size % 2:
        return
    b = beta.parts
    nrows = len(b) + 1

    def rec(i: int, remaining: int, acc: list[int]) -> Iterator[Partition]:
        if i == nrows:
            if remaining == 0:
                yield Partition(tuple(x for x in acc if x))
            return
        base = b[i] if i < len(b) else 0
        cap = remaining if i == 0 else min(remaining, b[i - 1] - base)
        for a in range(2 * (cap // 2), -1, -2):
            acc.append(base + a)
            yield from rec(i + 1, remaining - a, acc)
            acc.pop()

    yield from rec(0, strip_size, [])


def gamma2_extensions(beta: Partition, strip_size: int) -> Iterator[Partition]:
    """All partitions alpha containing beta such that alpha/beta has at
    most two boxes per column (row i may overhang at most to the start of
    row i-2)."""
    if strip_size < 0 or strip_size % 2:
        return
    b = beta.parts
    nrows = len(b) + 2

    def rec(i: int, remaining: int, acc: list[int]) -> Iterator[Partition]:
        if i == nrows:
            if remaining == 0:
                yield Partition(tuple(x for x in acc if x))
            return
        base = b[i] if i < len(b) else 0
        hi = base + remaining
        if i >= 1:
            hi = min(hi, acc[i - 1])
        if i >= 2:
            hi = min(hi, b[i - 2])
        for val in range(hi, base - 1, -1):
            acc.append(val)
            yield from rec(i + 1, remaining - (val - base), acc)
            acc.pop()

    yield from rec(0, strip_size, [])


def even_subsets(items: tuple[int, ...]) -> tuple[frozenset, ...]:
    """All even-cardinality subsets, ordered by size then lexicographically."""
    out = []
    for k in range(0, len(items) + 1, 2):
        for comb in combinations(sorted(items), k):
            out.append(frozenset(comb))
    return tuple(out)

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distsym.partitions import (
    Partition,
    SkewShape,
    even_paired_extensions,
    horizontal_strips,
    hv_split,
    is_even_paired_shape,
    iter_tableaux,
    lr_tab_counts,
    partitions,
    strip_sign_sum,
    tab_sign_sum,
)

partitions_st = st.lists(st.integers(1, 6), max_size=5).map(
    lambda xs: Partition(tuple(sorted(xs, reverse=True)))
)


def transpose(p: Partition) -> Partition:
    """Column lengths of the Young diagram of p; an involution."""
    return Partition(tuple(sum(1 for x in p if x > j) for j in range(p.part(0))))


def compositions(total: int):
    """All tuples of positive integers with the given sum."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first, *rest)


def strip_tab_counts(rows: tuple[int, ...]) -> dict[int, int]:
    """Lattice-filling counts of a horizontal strip given by its row
    lengths, keyed by the number of 2s: the independent reference for
    lr_tab_counts on strips.

    In a horizontal strip no two boxes share a column, so within a row the
    2s form a right-end run and the filling is determined by the run
    lengths alone.
    """
    counts: Counter = Counter()

    def rec(i: int, ones: int, twos: int) -> None:
        if i == len(rows):
            counts[twos] += 1
            return
        r = rows[i]
        for k in range(0, min(r, ones - twos) + 1):
            rec(i + 1, ones + r - k, twos + k)

    rec(0, 0, 0)
    return dict(counts)


def horizontal_strip_shape(rows: tuple[int, ...]) -> SkewShape:
    """A skew shape realizing a horizontal strip with the given row
    lengths (zeros dropped), each row ending in the column just left of
    where the row above begins."""
    rows = tuple(r for r in rows if r)
    below = [0] * len(rows)
    for i in range(len(rows) - 2, -1, -1):
        below[i] = below[i + 1] + rows[i + 1]
    outer = tuple(below[i] + rows[i] for i in range(len(rows)))
    inner = tuple(b for b in below if b)
    return SkewShape(Partition(outer), Partition(inner))


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))

    @pytest.mark.parametrize("parts", [(2.7, 1), ("3", "1")])
    def test_non_integer_parts_rejected(self, parts):
        with pytest.raises(TypeError):
            Partition(parts)

    @pytest.mark.parametrize(
        "parts,expected",
        [((3, 1), (2, 1, 1)), ((), ()), ((1, 1, 1), (3,))],
    )
    def test_transpose_examples(self, parts, expected):
        assert transpose(Partition(parts)) == Partition(expected)

    @given(partitions_st)
    def test_transpose_involution(self, p):
        assert transpose(transpose(p)) == p

    def test_transpose_involution_exhaustive(self):
        for n in range(13):
            for p in partitions(n):
                assert transpose(transpose(p)) == p
                # the column lengths SkewShape counts are the transpose's parts
                counts = SkewShape(p).column_counts()
                assert tuple(counts[j] for j in range(1, p.part(0) + 1)) == transpose(p)

    def test_canonical_order(self):
        assert list(partitions(4)) == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]
        # size first, then reverse-lexicographic on parts
        by_size = sorted(partitions(4), key=lambda p: (sum(p), tuple(-x for x in p)))
        assert by_size == list(partitions(4))

    def test_str_parse_roundtrip(self):
        for p in itertools.chain.from_iterable(partitions(n) for n in range(7)):
            assert Partition.parse(str(p)) == p
        assert str(Partition()) == "-"

    def test_str_joins_the_parts_through_20(self):
        for n in range(21):
            for p in partitions(n):
                assert str(p) == (",".join(map(str, p)) or "-")
                # cached per partition: an equal partition built anew gets the same string
                assert str(Partition(p)) is str(p)

    def test_contains(self):
        assert Partition((3, 1)).contains(Partition((2, 1)))
        assert not Partition((3, 1)).contains(Partition((1, 1, 1)))
        assert Partition((2,)).contains(Partition())


class TestSkewShape:
    def test_validation(self):
        with pytest.raises(ValueError):
            SkewShape(Partition((2,)), Partition((3,)))

    def test_raw_part_tuples_are_accepted(self):
        built = SkewShape(Partition((3, 1)), Partition((1,)))
        for same in (SkewShape((3, 1), (1,)), SkewShape(outer=[3, 1], inner=(1,))):
            assert same == built and str(same) == "3,1/1"
            assert type(same.outer) is Partition and type(same.inner) is Partition
        assert SkewShape((2,)) == SkewShape(Partition((2,)), Partition())

    @pytest.mark.parametrize("outer,inner", [((1, 3), ()), ((3,), (1, 2))])
    def test_raw_part_tuples_are_checked(self, outer, inner):
        with pytest.raises(ValueError, match="parts must be weakly decreasing"):
            SkewShape(outer, inner)

    def test_parse(self):
        s = SkewShape.parse("3,1/1")
        assert s.outer == Partition((3, 1)) and s.inner == Partition((1,))
        assert str(s) == "3,1/1"

    def test_hv_split_reference(self):
        # boxes in single columns sit at row 1 col 5 and row 3 col 2
        s = SkewShape(Partition((5, 4, 2, 1)), Partition((2, 2)))
        h, v = hv_split(s)
        assert sum(h) == 2 and sum(v) == 6
        assert h == (1, 1)
        counts = s.column_counts()
        assert counts[5] == 1 and counts[2] == 1

    def test_hv_split_trivial(self):
        assert hv_split(SkewShape(Partition(), Partition())) == ((), ())
        assert hv_split(SkewShape.parse("2/-")) == ((2,), ())

    def test_hv_split_rejects_tall_columns(self):
        with pytest.raises(ValueError):
            hv_split(SkewShape.parse("1,1,1/-"))

    def test_hv_sizes_add_up(self):
        for outer_n in range(1, 8):
            for outer in partitions(outer_n):
                for inner_n in range(outer_n + 1):
                    for inner in partitions(inner_n):
                        if not outer.contains(inner):
                            continue
                        s = SkewShape(outer, inner)
                        if s.max_column_boxes() > 2:
                            continue
                        h, v = hv_split(s)
                        assert sum(h) + sum(v) == s.size
                        assert sum(v) % 2 == 0

    @pytest.mark.parametrize(
        "text,expected",
        [("3,3/-", True), ("2,1/1", False), ("2/-", True), ("2,2/1", False)],
    )
    def test_is_even_paired_shape(self, text, expected):
        assert is_even_paired_shape(SkewShape.parse(text)) is expected


def naive_tab_counts(shape: SkewShape) -> dict[int, int]:
    """Independent enumeration: assign every box 1 or 2, then check all
    three conditions on the finished grid."""
    boxes = sorted(shape.boxes())
    counts: dict[int, int] = {}
    for filling in itertools.product((1, 2), repeat=len(boxes)):
        grid = dict(zip(boxes, filling))
        ok = all(
            grid[(r, c)] <= grid[(r, c + 1)]
            for (r, c) in grid
            if (r, c + 1) in grid
        ) and all(
            grid[(r, c)] < grid[(r + 1, c)] for (r, c) in grid if (r + 1, c) in grid
        )
        if ok:
            word = [grid[b] for b in shape.boxes()]
            ones = twos = 0
            for x in word:
                ones += x == 1
                twos += x == 2
                if twos > ones:
                    ok = False
                    break
        if ok:
            k = sum(1 for x in filling if x == 2)
            counts[k] = counts.get(k, 0) + 1
    if not boxes:
        counts[0] = 1
    return counts


def all_gamma2_shapes(max_outer: int):
    for n in range(max_outer + 1):
        for outer in partitions(n):
            for m in range(n + 1):
                for inner in partitions(m):
                    if not outer.contains(inner):
                        continue
                    s = SkewShape(outer, inner)
                    if s.size % 2 == 0 and s.max_column_boxes() <= 2:
                        yield s


class TestTableaux:
    def test_empty_shape(self):
        assert lr_tab_counts(SkewShape(Partition(), Partition())) == {0: 1}

    def test_single_row(self):
        # the filling with a 2 in the left box fails row-monotonicity, the
        # one with a 2 in the right box fails the lattice prefix
        assert lr_tab_counts(SkewShape.parse("2/-")) == {0: 1}

    def test_disconnected_two_boxes(self):
        assert lr_tab_counts(SkewShape.parse("2,1/1")) == {0: 1, 1: 1}

    def test_counts_match_naive_enumeration(self):
        for s in all_gamma2_shapes(6):
            assert lr_tab_counts(s) == naive_tab_counts(s), str(s)

    def test_rejects_tall_columns(self):
        with pytest.raises(ValueError):
            lr_tab_counts(SkewShape.parse("1,1,1/-"))

    def test_counts_bounded_by_half_size(self):
        for s in all_gamma2_shapes(6):
            for i, c in lr_tab_counts(s).items():
                assert c == 0 or i <= s.size // 2

    def test_strip_counts_agree_with_general_enumeration(self):
        for total in range(0, 9):
            for rows in compositions(total):
                if not rows:
                    continue
                shape = horizontal_strip_shape(rows)
                assert strip_tab_counts(rows) == lr_tab_counts(shape), rows

    def test_lattice_words_really_are_lattice(self):
        for t in iter_tableaux(SkewShape.parse("4,3,1/2,1")):
            ones = twos = 0
            for _, _, v in t.entries:
                ones += v == 1
                twos += v == 2
                assert twos <= ones


class TestHVIdentities:
    def test_signed_count_identity(self):
        # sum_i (-1)^i |Tab(s)_i| = (-1)^(|v|/2) when h is even, else 0
        for s in all_gamma2_shapes(8):
            h, v = hv_split(s)
            expected = (-1) ** (sum(v) // 2) if all(r % 2 == 0 for r in h) else 0
            counts = lr_tab_counts(s)
            assert sum((-1) ** i * c for i, c in counts.items()) == expected, str(s)

    def test_shift_property(self):
        # |Tab(s)_i| = |Tab(h(s))_(i - |v|/2)|, zero below the shift
        for s in all_gamma2_shapes(8):
            h, v = hv_split(s)
            shift = sum(v) // 2
            counts = lr_tab_counts(s)
            h_counts = strip_tab_counts(h)
            top = s.size // 2
            for i in range(top + 1):
                expected = h_counts.get(i - shift, 0) if i >= shift else 0
                assert counts.get(i, 0) == expected, (str(s), i)


def all_horizontal_strips(max_size: int, even_only: bool = True):
    for total in range(2, max_size + 1, 2 if even_only else 1):
        yield from compositions(total)


class TestTabSignSum:
    @pytest.mark.parametrize(
        "text,expected", [("2/-", 1), ("2,1/1", 0)]
    )
    def test_reference_values(self, text, expected):
        s = SkewShape.parse(text)
        assert tab_sign_sum(s) == expected
        assert strip_sign_sum(s) == expected

    def test_recursive_rejects_non_strip(self):
        with pytest.raises(ValueError, match="not a horizontal strip"):
            strip_sign_sum(SkewShape.parse("2,2/-"))
        with pytest.raises(ValueError, match="odd size"):
            strip_sign_sum(SkewShape.parse("1/-"))

    def test_strip_values(self):
        # even strips give 1, other strips of even size give 0, both ways
        for rows in all_horizontal_strips(8):
            shape = horizontal_strip_shape(rows)
            expected = 1 if all(r % 2 == 0 for r in rows) else 0
            assert tab_sign_sum(shape) == expected, rows
            assert strip_sign_sum(shape) == expected, rows


class TestStripExtensions:
    def naive_strip_extensions(self, beta, size, step):
        """The alpha over beta with alpha/beta a horizontal strip of the
        size, every row even when step is 2, by filtering partitions."""
        found = set()
        for alpha in partitions(sum(beta) + size):
            if not alpha.contains(beta):
                continue
            s = SkewShape(alpha, beta)
            rows = [r for r in s.row_lengths() if r]
            if s.is_horizontal_strip() and (step == 1 or all(r % 2 == 0 for r in rows)):
                found.add(alpha)
        return found

    @pytest.mark.parametrize("step", [1, 2])
    def test_horizontal_strips_match_filter(self, step):
        for bsize in range(5):
            for beta in partitions(bsize):
                for size in range(5):
                    got = horizontal_strips(beta, size, step)
                    assert len(set(got)) == len(got), (beta, size)
                    assert set(got) == self.naive_strip_extensions(beta, size, step), (beta, size)

    @pytest.mark.parametrize("step", [1, 2])
    def test_horizontal_strips_match_brute_force_in_order(self, step):
        # every partition of |mu| + k that contains mu, kept when lam / mu is
        # a horizontal strip with rows in multiples of step, in the order of
        # lam's rows read top to bottom over the len(mu) + 1 rows a strip can use
        for mu_size in range(10):
            for mu in partitions(mu_size):
                rows = mu + (0,)
                for k in range(9):
                    want = []
                    for lam in partitions(mu_size + k):
                        if len(lam) > len(rows):
                            continue
                        lam_rows = lam + (0,) * (len(rows) - len(lam))
                        adds = [x - y for x, y in zip(lam_rows, rows)]
                        if all(a >= 0 and a % step == 0 for a in adds) and all(
                            x <= y for x, y in zip(lam_rows[1:], rows)
                        ):
                            want.append(lam_rows)
                    want = [tuple(p for p in lam if p) for lam in sorted(want)]
                    assert list(horizontal_strips(mu, k, step)) == want, (mu, k)

    @pytest.mark.parametrize(
        "mu,k,step,message",
        [
            # step 0 raised ZeroDivisionError, and the others returned ()
            ((2, 1), 2, 0, "step must be at least 1, got 0"),
            ((2, 1), 2, -2, "step must be at least 1, got -2"),
            ((2, 1), -2, 2, "k must be non-negative, got -2"),
            ((), -1, 1, "k must be non-negative, got -1"),
        ],
    )
    def test_horizontal_strips_rejects_a_bad_step_or_size(self, mu, k, step, message):
        with pytest.raises(ValueError, match=message):
            horizontal_strips(mu, k, step)

    def test_even_paired_extensions_match_definition(self):
        # every alpha over beta whose skew shape is even-paired, by brute
        # force over partitions, with the sign (-1)**(|v|/2) from hv_split
        total = 0
        for bsize in range(7):
            for beta in partitions(bsize):
                for size in range(9):
                    got = even_paired_extensions(beta, size)
                    want = set()
                    for alpha in partitions(bsize + size):
                        if not alpha.contains(beta):
                            continue
                        s = SkewShape(alpha, beta)
                        if is_even_paired_shape(s):
                            want.add((alpha, (-1) ** (sum(hv_split(s)[1]) // 2)))
                    alphas = [alpha for alpha, _ in got]
                    assert set(got) == want, (beta, size)
                    assert len(set(alphas)) == len(alphas), (beta, size)
                    assert alphas == sorted(alphas, reverse=True), (beta, size)
                    total += len(got)
        assert total == 898


@settings(max_examples=200)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=4))
def test_strip_counts_total_is_binomialish(rows):
    # total number of fillings equals the lattice-path count, spot-checked
    # against the general enumerator
    rows = tuple(rows)
    shape = horizontal_strip_shape(rows)
    assert strip_tab_counts(rows) == lr_tab_counts(shape)

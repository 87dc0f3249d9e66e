"""Exact class-function algebra on the hyperoctahedral group W_n.

Conjugacy classes and irreducible characters of W_n are both indexed by
bipartitions (alpha; beta) with |alpha| + |beta| = n: alpha collects the
positive cycle lengths of a signed permutation, beta the negative ones.
Everything is integer or Fraction arithmetic; no floats anywhere, so
identities are checked by equality rather than tolerance.

A class function is dense: one value per class, in the canonical order of
``bipartitions(n)``.  One class-index map per n gives each class its
position.

What a class (alpha; beta) determines only through alpha and beta is
computed once per partition and combined per class: its centralizer
order is z(alpha) z(beta), with z(lambda) = prod (2v)^m m! over the blocks
of m parts v (Macdonald, Symmetric Functions, I App. B), cached per
partition in _z, so a class size costs one division; its name joins the
two partitions' cached names (partitions._partition_name) with ';'.

A Bipartition is the tuple of its two Partitions, so it equals and hashes
as its raw pair (alpha parts, beta parts).  One key thus names every class
and every irreducible of W_n (the input of virtual_character, the output
of decompose), in whichever form a caller holds it.

The irreducible chi^(alpha;beta) is, by definition, the induced character
Ind_{W_a x W_b}^{W_n} (lift(chi^alpha) x eps * lift(chi^beta)), where
a = |alpha|, b = |beta|, lift pulls a symmetric-group character back along
W_m -> S_m, and eps is the sign-flip character, (-1)**len(delta) at the
class (gamma; delta).  The table is computed by the hyperoctahedral
Murnaghan-Nakayama rule instead.  Let w have an r-cycle of sign s (+1 for
a positive cycle, -1 for a negative one) and let w' be w without it; then

    chi^(alpha;beta)(w) =     sum_h (-1)**ht(h) chi^(alpha - h; beta)(w')
                          + s sum_k (-1)**ht(k) chi^(alpha; beta - k)(w')

over the rim r-hooks h of alpha and k of beta, where ht is the number of
rows of a hook minus one, and chi^(-;-) = 1 on W_0.  This equals the
induced definition term by term.  The induced value at w sums, over the
sets of w's cycles (each kept with its sign) of total length a, the lifted
alpha-character on that set times the twisted beta-character on the rest.
The removed cycle lies on the alpha side or the beta side.  On the alpha
side, the symmetric-group rule for the lift (which sees only cycle
lengths) gives the first sum; the remaining sets are exactly those of w',
so each term is the induced character of (alpha - h; beta) at w'.  On the
beta side the same holds, and eps, being multiplicative over cycles,
contributes s for the removed cycle and stays on the rest.  The test suite
keeps the induced construction as an independent check through W_7.

The transposed rule evaluates a virtual character sum_b c_b chi^b at every
class without building any chi^b (virtual_character).  Write the rule's
step for an r-cycle as chi_i(w) = sum_j M_ij chi_j(w'), where row i of M
is +1 at each position of _hook_row's plus half for the cycle's sign and
-1 at each of its minus half.  Then sum_i c_i chi_i(w) = sum_j (M^T c)_j
chi_j(w'): the coefficient vector is pushed through the transposed steps,
one cycle at a time in the table's cycle order (positive cycles largest
first, then negative ones largest first), down to W_0, where the one entry
left is the value at w.  Classes that share a cycle prefix share the
pushed vector, and no row of the table is built: the W_16 table takes
about 40 s and 950 MiB, while xi_8 as a virtual character of W_16 takes
about 0.5 s and 30 MiB (CPython 3.11, 2-core x86-64).
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from operator import itemgetter, mul

from .partitions import Partition, _partition_name, partitions


class Bipartition(tuple):
    """(alpha; beta) as the tuple of its two Partitions, equal to its raw
    pair.  Checked; bipartitions() builds through unchecked _of_partitions()."""

    __slots__ = ()

    def __new__(cls, alpha: Iterable[int] = (), beta: Iterable[int] = ()) -> "Bipartition":
        return cls._of_partitions(Partition(alpha), Partition(beta))

    @classmethod
    def _of_partitions(cls, alpha: Partition, beta: Partition) -> "Bipartition":
        return tuple.__new__(cls, (alpha, beta))

    def __getnewargs__(self) -> tuple:  # what copy and pickle pass to __new__
        return tuple(self)

    alpha = property(itemgetter(0))
    beta = property(itemgetter(1))

    @property
    def n(self) -> int:
        return sum(self[0]) + sum(self[1])

    def __repr__(self) -> str:
        return f"Bipartition(alpha={self[0]!r}, beta={self[1]!r})"

    def __str__(self) -> str:
        return f"{_partition_name(self[0])};{_partition_name(self[1])}"


@lru_cache(maxsize=None)
def bipartitions(n: int) -> tuple[Bipartition, ...]:
    """All bipartitions of n in the canonical order: |alpha| descending,
    then reverse-lexicographic within each coordinate."""
    if n < 0:
        raise ValueError("n must be non-negative")
    out = []
    for a in range(n, -1, -1):
        for alpha in partitions(a):
            for beta in partitions(n - a):
                out.append(Bipartition._of_partitions(alpha, beta))
    return tuple(out)


@lru_cache(maxsize=None)
def _class_index(n: int) -> dict[Bipartition, int]:
    """Position in bipartitions(n) of each bipartition, or raw pair."""
    return {c: i for i, c in enumerate(bipartitions(n))}


def group_order(n: int) -> int:
    return 2**n * factorial(n)


@lru_cache(maxsize=None)
def _z(parts: tuple[int, ...]) -> int:
    """z(lambda), the product over lambda's blocks of equal parts of
    (2v)^m m!, for a block of m parts v: the centralizer order of the
    class (lambda; -) in W_|lambda|, and that of (-; lambda) too."""
    z = 1
    for v, m in Counter(parts).items():
        z *= (2 * v) ** m * factorial(m)
    return z


def centralizer_order(c: Bipartition) -> int:
    """Centralizer order of the class (alpha; beta) in W_n: z(alpha) z(beta).

    A positive i-cycle block of multiplicity m contributes i^m m! 2^m,
    a negative one (2i)^m m!; the two expressions agree as (2i)^m m!, so
    the order is the product of one factor per partition, each computed
    once (_z).
    """
    return _z(c[0]) * _z(c[1])


def class_size(c: Bipartition) -> int:
    return group_order(c.n) // centralizer_order(c)


@lru_cache(maxsize=None)
def _class_sizes(n: int) -> tuple[int, ...]:
    order = group_order(n)
    return tuple(order // (_z(alpha) * _z(beta)) for alpha, beta in bipartitions(n))


def _to_dense(n: int, values: Mapping[tuple, int]) -> tuple:
    """Coefficients keyed on the irreducibles of W_n (bipartitions or raw
    pairs) as one value per position of bipartitions(n); absent keys are
    0, any other key raises ValueError."""
    index = _class_index(n)
    dense = [0] * len(index)
    for key, v in values.items():
        try:
            dense[index[key]] = v
        except (KeyError, TypeError):
            raise ValueError(f"{key!s} is not an irreducible of W_{n}") from None
    return tuple(dense)


class ClassFunction(namedtuple("ClassFunction", "n values")):
    """An exact-valued function on the conjugacy classes of W_n, stored as
    the tuple (n, values): one value per class, in the order of
    bipartitions(n); a wrong number of values raises ValueError."""

    __slots__ = ()

    def __new__(cls, n: int, values: Iterable[int | Fraction]) -> "ClassFunction":
        values = tuple(values)
        classes = len(_class_index(n))
        if len(values) != classes:
            raise ValueError(f"W_{n} has {classes} classes, got {len(values)} values")
        return super().__new__(cls, n, values)

    def at(self, c: Bipartition):
        """The value at the class c, a bipartition or its raw pair; anything
        but a class of W_n raises ValueError."""
        try:
            return self.values[_class_index(self.n)[c]]
        except (KeyError, TypeError):
            raise ValueError(f"{c} is not a class of W_{self.n}") from None

    def __repr__(self) -> str:
        nonzero = {str(c): v for c, v in zip(bipartitions(self.n), self.values) if v}
        return f"ClassFunction(n={self.n}, {nonzero})"


def quadratic_character_value(c: Bipartition) -> int:
    """Value on (gamma; delta) of the sign-flip character: each negative
    cycle flips an odd number of points, so the value is (-1)**len(delta).
    Cross-checked against the pointwise definition by the oracle module."""
    return -1 if len(c.beta) % 2 else 1


def _exact(num: int, den: int):
    """num/den as an int when integral, else as a Fraction."""
    return num // den if num % den == 0 else Fraction(num, den)


def inner_product(f: ClassFunction, g: ClassFunction):
    """Standard inner product; all characters here are rational-valued,
    so no conjugation is needed.  Returns an int when integral."""
    if f.n != g.n:
        raise ValueError(f"degree mismatch: {f.n} != {g.n}")
    num = sum(map(mul, map(mul, f.values, g.values), _class_sizes(f.n)))
    return _exact(num, group_order(f.n))


@lru_cache(maxsize=None)
def _splits(parts: tuple[int, ...]) -> dict[int, tuple]:
    """All ways to split a part multiset in two, grouped by the size of
    the first piece.

    Maps each size to tuples (sub, complement, weight); the weight is the
    product over part values of C(m, k), which equals the centralizer
    ratio z / (z' z'') on that coordinate.
    """
    items = sorted(Counter(parts).items(), reverse=True)
    out: dict[int, list] = {}

    def rec(i: int, chosen: list[int], rest: list[int], weight: int) -> None:
        if i == len(items):
            out.setdefault(sum(chosen), []).append(
                (tuple(sorted(chosen, reverse=True)), tuple(sorted(rest, reverse=True)), weight)
            )
            return
        v, m = items[i]
        for k in range(m + 1):
            rec(i + 1, chosen + [v] * k, rest + [v] * (m - k), weight * comb(m, k))

    rec(0, [], [], 1)
    return {size: tuple(rows) for size, rows in out.items()}


def induction_product(f: ClassFunction, g: ClassFunction) -> ClassFunction:
    """The class function induced from f (x) g on W_a x W_b up to W_{a+b}.

    At a class c the value is the centralizer-weighted sum over all splits
    of c's part multisets into a degree-a piece and a degree-b piece.
    Commutative, associative, and takes characters to characters.
    """
    a = f.n
    n = f.n + g.n
    f_index, g_index = _class_index(f.n), _class_index(g.n)
    fv, gv = f.values, g.values
    out = []
    for alpha, beta in bipartitions(n):
        beta_splits = _splits(beta)
        total = 0
        for asize, alpha_splits in _splits(alpha).items():
            for bsub, brest, bw in beta_splits.get(a - asize, ()):
                for asub, arest, aw in alpha_splits:
                    x = fv[f_index[asub, bsub]]
                    if not x:
                        continue
                    y = gv[g_index[arest, brest]]
                    if y:
                        total += aw * bw * x * y
        out.append(total)
    return ClassFunction(n, out)


@lru_cache(maxsize=None)
def _rim_hooks(lam: tuple[int, ...], r: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every rim r-hook of lam, as (lam without the hook, height of the
    hook), found on beta-numbers: a hook moves one bead from b to b - r."""
    ell = len(lam)
    betas = [lam[i] + (ell - 1 - i) for i in range(ell)]
    beta_set = set(betas)
    out = []
    for b in betas:
        nb = b - r
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for x in betas if nb < x < b)
        new_betas = sorted([x for x in betas if x != b] + [nb], reverse=True)
        new_lam = tuple(p for p in (new_betas[i] - (ell - 1 - i) for i in range(ell)) if p)
        out.append((new_lam, height))
    return tuple(out)


@lru_cache(maxsize=None)
def _mn_value(lam: tuple[int, ...], rho: tuple[int, ...]) -> int:
    """Murnaghan-Nakayama by border-strip recursion on beta-numbers."""
    if not rho:
        return 1 if not lam else 0
    return sum((-1) ** h * _mn_value(mu, rho[1:]) for mu, h in _rim_hooks(lam, rho[0]))


def sym_character(alpha: Partition, cycle_type: Partition) -> int:
    """Irreducible symmetric-group character value at a cycle type.

    Strips are peeled off for the largest part first; the recursion is
    memoized on (partition, remaining cycle type).  The package itself does
    not call it: it is the S_n Murnaghan-Nakayama rule behind the tests'
    independent check of the W_n table by the induced construction.
    """
    if sum(alpha) != sum(cycle_type):
        raise ValueError(f"size mismatch: {alpha} vs {cycle_type}")
    return _mn_value(alpha, cycle_type)


@lru_cache(maxsize=None)
def _hook_rows(m: int, r: int) -> list:
    """The rows of the B_n rule's step for an r-cycle on W_m, one per
    irreducible in canonical order, each None until _hook_row builds it.
    The step for a positive and for a negative r-cycle share these rows,
    each signed for both: row[k] enters with +1 and row[k + 1] with -1,
    where k is 0 for a positive cycle and 2 for a negative one.  Every row
    with no rim r-hook is the one shared _NO_HOOK."""
    return [None] * len(_class_index(m))


_NO_HOOK = ((), (), (), ())  # the row of every irreducible with no rim r-hook


def _hook_row(m: int, r: int, i: int) -> tuple[tuple, tuple, tuple, tuple]:
    """Row i of _hook_rows(m, r), built and stored on first use.

    For the i-th irreducible (alpha; beta) of W_m: the positions in
    bipartitions(m - r) of the irreducibles reached by removing a rim
    r-hook from alpha or from beta, alpha's first, signed for both cycle
    signs as (plus, minus) for a positive cycle, then (plus, minus) for a
    negative one.  A hook of height h has sign (-1)**h, and one removed
    from beta for a negative cycle carries one more factor -1; this is
    the one place that sign rule is applied.  A row with no hook is the
    shared _NO_HOOK.
    """
    index = _class_index(m - r)
    alpha, beta = bipartitions(m)[i]
    signed: tuple[list[int], ...] = ([], [], [], [])
    for mu, h in _rim_hooks(alpha, r):
        j = index[mu, beta]
        signed[h % 2].append(j)
        signed[2 + h % 2].append(j)
    for mu, h in _rim_hooks(beta, r):
        j = index[alpha, mu]
        signed[h % 2].append(j)
        signed[3 - h % 2].append(j)
    row = tuple(map(tuple, signed)) if signed[0] or signed[1] else _NO_HOOK
    _hook_rows(m, r)[i] = row
    return row


@lru_cache(maxsize=None)
def _table(n: int) -> tuple[ClassFunction, ...]:
    """All irreducible characters of W_n, by a column DP over the B_n rule.

    A class's cycles are taken positive first, then negative, largest
    first.  The column of a class (every irreducible's value there)
    follows from the column of the class with its first cycle removed, so
    columns are memoized per remaining cycle suffix, for this build only.
    Every column reads every row of its step, and every step on W_m,
    m <= n, is some column's, so each step's unbuilt rows are filled
    once, before the first column.
    """
    for m in range(1, n + 1):
        for r in range(1, m + 1):
            for i, row in enumerate(_hook_rows(m, r)):
                if row is None:
                    _hook_row(m, r, i)
    columns: dict[tuple, tuple[int, ...]] = {((), ()): (1,)}

    def column(gamma: tuple[int, ...], delta: tuple[int, ...], m: int) -> tuple[int, ...]:
        col = columns.get((gamma, delta))
        if col is None:
            if gamma:
                r, k, prev = gamma[0], 0, column(gamma[1:], delta, m - gamma[0])
            else:
                r, k, prev = delta[0], 2, column((), delta[1:], m - delta[0])
            get = prev.__getitem__
            col = tuple(
                sum(map(get, row[k])) - sum(map(get, row[k + 1])) for row in _hook_rows(m, r)
            )
            columns[gamma, delta] = col
        return col

    cols = [column(*c, n) for c in bipartitions(n)]
    return tuple(ClassFunction(n, row) for row in zip(*cols))


def w_irreducible(bp: Bipartition) -> ClassFunction:
    """The irreducible W_n character indexed by a bipartition: its row of
    the character table."""
    return _table(bp.n)[_class_index(bp.n)[bp]]


def virtual_character(n: int, coefficients: Mapping[tuple, int]) -> ClassFunction:
    """The class function sum_b c_b chi^b of W_n for a coefficient c_b per
    irreducible, keyed by its bipartition or raw pair (absent ones are 0),
    without building any chi^b.  Any other key raises ValueError."""
    return ClassFunction(n, _evaluate(n, _to_dense(n, coefficients)))


@lru_cache(maxsize=None)
def _evaluate(n: int, coefficients: tuple) -> tuple:
    """Values at every class of sum_i coefficients[i] * chi_i, by the
    transposed B_n rule.

    Consuming an r-cycle takes the vector over W_m to one over W_{m - r}
    through the transpose of the step for an r-cycle of that sign: each
    nonzero entry is pushed along its row of _hook_rows(m, r), and only
    rows that receive a nonzero entry are built.  The vectors are sparse
    near the top (xi_10 is nonzero on 912 of the 24842 irreducibles of
    W_20, and kappa_r and nu_r have r + 1 and p(r) terms), so a cold
    evaluation of xi_5 builds 3210 of the 10452 rows through W_10.  The
    cycle prefixes are walked depth first in the table's cycle order, so
    each prefix's vector is computed once and only those along the
    current prefix are held.  Memoized across calls: equal coefficient
    vectors, such as the three xi routes' decompositions, are evaluated
    once.
    """
    out = [0] * len(coefficients)
    index = _class_index(n)
    gamma: list[int] = []
    delta: list[int] = []

    def step(vec, m: int, r: int, k: int) -> list:
        pushed = [0] * len(_class_index(m - r))
        rows = _hook_rows(m, r)
        for i, x in enumerate(vec):
            if x:
                row = rows[i] or _hook_row(m, r, i)
                for j in row[k]:
                    pushed[j] += x
                for j in row[k + 1]:
                    pushed[j] -= x
        return pushed

    def negative_cycles(vec, m: int, bound: int) -> None:
        if not m:
            out[index[tuple(gamma), tuple(delta)]] = vec[0]
            return
        for r in range(min(bound, m), 0, -1):
            delta.append(r)
            negative_cycles(step(vec, m, r, 2), m - r, r)
            delta.pop()

    def positive_cycles(vec, m: int, bound: int) -> None:
        for r in range(min(bound, m), 0, -1):
            gamma.append(r)
            positive_cycles(step(vec, m, r, 0), m - r, r)
            gamma.pop()
        negative_cycles(vec, m, m)

    positive_cycles(coefficients, n, n)
    return tuple(out)


def character_table(n: int) -> dict[Bipartition, ClassFunction]:
    """Full character table of W_n, rows in canonical bipartition order."""
    return dict(zip(bipartitions(n), _table(n)))


def decompose(f: ClassFunction) -> dict[Bipartition, int | Fraction]:
    """Coefficients of f on the irreducible characters, keyed by their
    bipartitions, nonzero ones only, in one pass over the character
    table."""
    weighted = tuple(map(mul, f.values, _class_sizes(f.n)))
    order = group_order(f.n)
    out = {}
    for key, chi in zip(bipartitions(f.n), _table(f.n)):
        coeff = _exact(sum(map(mul, weighted, chi.values)), order)
        if coeff:
            out[key] = coeff
    return out

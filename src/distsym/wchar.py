"""Exact class-function algebra on the hyperoctahedral group W_n.

Conjugacy classes and irreducible characters of W_n are both indexed by
bipartitions (alpha; beta) with |alpha| + |beta| = n: alpha collects the
positive cycle lengths of a signed permutation, beta the negative ones.
Everything is integer or Fraction arithmetic; no floats anywhere, so
identities are checked by equality rather than tolerance.

A class function is dense: one value per class, in the canonical order of
``bipartitions(n)``.  One class-index map per n, keyed on raw
(alpha parts, beta parts) tuples, gives each class its position.

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
step for an r-cycle as chi_i(w) = sum_j M_ij chi_j(w'), with M read off
_hook_moves.  Then sum_i c_i chi_i(w) = sum_j (M^T c)_j chi_j(w'): the
coefficient vector is pushed through the transposed steps, one cycle at a
time in the table's cycle order (positive cycles largest first, then
negative ones largest first), down to W_0, where the one entry left is the
value at w.  Classes that share a cycle prefix share the pushed vector, and
no row of the table is built: the W_16 table takes about 40 s and 950 MiB,
while one virtual character of W_16 takes about 1 s and 60 MiB (CPython
3.11, 2-core x86-64).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from operator import add, mul, sub

from .partitions import Partition, partitions


@dataclass(frozen=True)
class Bipartition:
    alpha: Partition
    beta: Partition

    @property
    def n(self) -> int:
        return self.alpha.size + self.beta.size

    def __str__(self) -> str:
        return f"{self.alpha};{self.beta}"

    @classmethod
    def parse(cls, text: str) -> "Bipartition":
        a, _, b = text.partition(";")
        return cls(Partition.parse(a), Partition.parse(b))

    @classmethod
    def of(cls, alpha: tuple[int, ...], beta: tuple[int, ...] = ()) -> "Bipartition":
        return cls(Partition(alpha), Partition(beta))


@lru_cache(maxsize=None)
def bipartitions(n: int) -> tuple[Bipartition, ...]:
    """All bipartitions of n in the canonical order: |alpha| descending,
    then reverse-lexicographic within each coordinate."""
    out = []
    for a in range(n, -1, -1):
        for alpha in partitions(a):
            for beta in partitions(n - a):
                out.append(Bipartition(alpha, beta))
    return tuple(out)


@lru_cache(maxsize=None)
def _class_index(n: int) -> dict[tuple[tuple[int, ...], tuple[int, ...]], int]:
    """Position in bipartitions(n) of each (alpha parts, beta parts)."""
    return {(c.alpha.parts, c.beta.parts): i for i, c in enumerate(bipartitions(n))}


def group_order(n: int) -> int:
    return 2**n * factorial(n)


@lru_cache(maxsize=None)
def centralizer_order(c: Bipartition) -> int:
    """Centralizer order of the class (alpha; beta) in W_n.

    A positive i-cycle block of multiplicity m contributes i^m m! 2^m,
    a negative one (2i)^m m!; the two expressions agree as (2i)^m m!.
    """
    z = 1
    for v, m in Counter(c.alpha.parts).items():
        z *= (2 * v) ** m * factorial(m)
    for v, m in Counter(c.beta.parts).items():
        z *= (2 * v) ** m * factorial(m)
    return z


@lru_cache(maxsize=None)
def class_size(c: Bipartition) -> int:
    return group_order(c.n) // centralizer_order(c)


@lru_cache(maxsize=None)
def _class_sizes(n: int) -> tuple[int, ...]:
    return tuple(class_size(c) for c in bipartitions(n))


def _to_dense(n: int, values: Mapping[Bipartition, int | Fraction], what: str) -> tuple:
    """A mapping keyed on bipartitions of n as one value per position of
    bipartitions(n); absent keys are 0, any other key raises ValueError."""
    index = _class_index(n)
    dense = [0] * len(index)
    for c, v in values.items():
        i = index.get((c.alpha.parts, c.beta.parts)) if isinstance(c, Bipartition) else None
        if i is None:
            raise ValueError(f"{c!s} is not {what} of W_{n}")
        dense[i] = v
    return tuple(dense)


class ClassFunction:
    """An exact-valued function on the conjugacy classes of W_n.

    ``values`` holds one value per class, in the order of bipartitions(n).
    """

    __slots__ = ("n", "values")

    def __init__(self, n: int, values: Mapping[Bipartition, int | Fraction]):
        """Convert a mapping from classes to values; absent classes are 0.
        A key that is not a class of W_n raises ValueError."""
        self.n = n
        self.values = _to_dense(n, values, "a class")

    @classmethod
    def _dense(cls, n: int, values: tuple) -> "ClassFunction":
        f = cls.__new__(cls)
        f.n = n
        f.values = values
        return f

    def at(self, c: Bipartition):
        try:
            return self.values[_class_index(self.n)[c.alpha.parts, c.beta.parts]]
        except KeyError:
            raise ValueError(f"{c} is not a class of W_{self.n}") from None

    @property
    def degree(self):
        return self.at(Bipartition.of((1,) * self.n))

    def _check_degree(self, other: "ClassFunction") -> None:
        if self.n != other.n:
            raise ValueError("degree mismatch")

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        self._check_degree(other)
        return ClassFunction._dense(self.n, tuple(map(add, self.values, other.values)))

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        self._check_degree(other)
        return ClassFunction._dense(self.n, tuple(map(sub, self.values, other.values)))

    def __rmul__(self, scalar) -> "ClassFunction":
        return ClassFunction._dense(self.n, tuple(scalar * v for v in self.values))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ClassFunction)
            and self.n == other.n
            and self.values == other.values
        )

    def __repr__(self) -> str:
        nonzero = {str(c): v for c, v in zip(bipartitions(self.n), self.values) if v}
        return f"ClassFunction(n={self.n}, {nonzero})"

    @classmethod
    def zero(cls, n: int) -> "ClassFunction":
        return cls._dense(n, (0,) * len(_class_index(n)))


def quadratic_character_value(c: Bipartition) -> int:
    """Value on (gamma; delta) of the sign-flip character: each negative
    cycle flips an odd number of points, so the value is (-1)**len(delta).
    Cross-checked against the pointwise definition by the oracle module."""
    return -1 if c.beta.length % 2 else 1


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
    for c in bipartitions(n):
        beta_splits = _splits(c.beta.parts)
        total = 0
        for asize, alpha_splits in _splits(c.alpha.parts).items():
            for bsub, brest, bw in beta_splits.get(a - asize, ()):
                for asub, arest, aw in alpha_splits:
                    x = fv[f_index[asub, bsub]]
                    if not x:
                        continue
                    y = gv[g_index[arest, brest]]
                    if y:
                        total += aw * bw * x * y
        out.append(total)
    return ClassFunction._dense(n, tuple(out))


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
    if alpha.size != cycle_type.size:
        raise ValueError(f"size mismatch: {alpha} vs {cycle_type}")
    return _mn_value(alpha.parts, cycle_type.parts)


@lru_cache(maxsize=None)
def _hook_moves(m: int, r: int, negative: bool) -> tuple[tuple[tuple, tuple], ...]:
    """One step of the B_n rule for an r-cycle, as index lists.

    Per irreducible of W_m, in canonical order: the positions in
    bipartitions(m - r) of the irreducibles reached by removing a rim
    r-hook from alpha or from beta, split into those entering with sign +1
    and with sign -1.  A hook of height h has sign (-1)**h; one removed
    from beta for a negative cycle carries one more factor -1.
    """
    index = _class_index(m - r)
    out = []
    for bp in bipartitions(m):
        alpha, beta = bp.alpha.parts, bp.beta.parts
        signed: tuple[list[int], list[int]] = ([], [])
        for mu, h in _rim_hooks(alpha, r):
            signed[h % 2].append(index[mu, beta])
        for mu, h in _rim_hooks(beta, r):
            signed[(h + negative) % 2].append(index[alpha, mu])
        out.append((tuple(signed[0]), tuple(signed[1])))
    return tuple(out)


@lru_cache(maxsize=None)
def _table(n: int) -> tuple[ClassFunction, ...]:
    """All irreducible characters of W_n, by a column DP over the B_n rule.

    A class's cycles are taken positive first, then negative, largest
    first.  The column of a class (every irreducible's value there)
    follows from the column of the class with its first cycle removed, so
    columns are memoized per remaining cycle suffix.  The memo lives only
    for this build.
    """
    columns: dict[tuple, tuple[int, ...]] = {((), ()): (1,)}

    def column(gamma: tuple[int, ...], delta: tuple[int, ...], m: int) -> tuple[int, ...]:
        col = columns.get((gamma, delta))
        if col is None:
            if gamma:
                r, negative, prev = gamma[0], False, column(gamma[1:], delta, m - gamma[0])
            else:
                r, negative, prev = delta[0], True, column((), delta[1:], m - delta[0])
            get = prev.__getitem__
            col = tuple(
                sum(map(get, plus)) - sum(map(get, minus))
                for plus, minus in _hook_moves(m, r, negative)
            )
            columns[gamma, delta] = col
        return col

    cols = [column(c.alpha.parts, c.beta.parts, n) for c in bipartitions(n)]
    return tuple(ClassFunction._dense(n, row) for row in zip(*cols))


def w_irreducible(bp: Bipartition) -> ClassFunction:
    """The irreducible W_n character indexed by a bipartition: its row of
    the character table."""
    return _table(bp.n)[_class_index(bp.n)[bp.alpha.parts, bp.beta.parts]]


def virtual_character(n: int, coefficients: Mapping[Bipartition, int]) -> ClassFunction:
    """The class function sum_b c_b chi^b of W_n for a coefficient c_b per
    irreducible (absent ones are 0), without building any chi^b.  A key
    that is not an irreducible of W_n raises ValueError."""
    return ClassFunction._dense(n, _evaluate(n, _to_dense(n, coefficients, "an irreducible")))


@lru_cache(maxsize=None)
def _evaluate(n: int, coefficients: tuple) -> tuple:
    """Values at every class of sum_i coefficients[i] * chi_i, by the
    transposed B_n rule.

    Consuming an r-cycle takes the vector over W_m to one over W_{m - r}
    through the transpose of _hook_moves(m, r, negative).  The cycle
    prefixes are walked depth first in the table's cycle order, so each
    prefix's vector is computed once and only those along the current
    prefix are held.  Memoized across calls: equal coefficient vectors,
    such as the three xi routes' decompositions, are evaluated once.
    """
    out = [0] * len(coefficients)
    index = _class_index(n)
    gamma: list[int] = []
    delta: list[int] = []

    def step(vec, m: int, r: int, negative: bool) -> list:
        pushed = [0] * len(_class_index(m - r))
        for x, (plus, minus) in zip(vec, _hook_moves(m, r, negative)):
            if x:
                for j in plus:
                    pushed[j] += x
                for j in minus:
                    pushed[j] -= x
        return pushed

    def negative_cycles(vec, m: int, bound: int) -> None:
        if not m:
            out[index[tuple(gamma), tuple(delta)]] = vec[0]
            return
        for r in range(min(bound, m), 0, -1):
            delta.append(r)
            negative_cycles(step(vec, m, r, True), m - r, r)
            delta.pop()

    def positive_cycles(vec, m: int, bound: int) -> None:
        for r in range(min(bound, m), 0, -1):
            gamma.append(r)
            positive_cycles(step(vec, m, r, False), m - r, r)
            gamma.pop()
        negative_cycles(vec, m, m)

    positive_cycles(coefficients, n, n)
    return tuple(out)


def character_table(n: int) -> dict[Bipartition, ClassFunction]:
    """Full character table of W_n, rows in canonical bipartition order."""
    return dict(zip(bipartitions(n), _table(n)))


def decompose(f: ClassFunction) -> dict[Bipartition, int | Fraction]:
    """Coefficients of f on the irreducible characters, nonzero ones only,
    in one pass over the character table."""
    weighted = tuple(map(mul, f.values, _class_sizes(f.n)))
    order = group_order(f.n)
    out = {}
    for bp, chi in character_table(f.n).items():
        coeff = _exact(sum(map(mul, weighted, chi.values)), order)
        if coeff:
            out[bp] = coeff
    return out

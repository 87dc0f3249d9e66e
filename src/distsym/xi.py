"""The virtual W_{2n}-module xi_n and its two multiplicative building blocks.

kappa_r is the difference of the inductions of the trivial and the
block-swap sign character from the wreath-like subgroup K_r of W_{2r};
nu_m is the induction of the flip-count sign character from the
centralizer of the longest involution.  Both have closed multiplicative
class functions, entered here block by block.  xi_n is assembled by three
independent routes that must agree exactly:

  A. the induction-product sum of kappa_r (x) nu_{n-r} over r,
  B. the signed sum of irreducibles over skew pairs whose difference is an
     even-paired shape, with sign (-1)**(|v|/2), generated directly (no
     candidate is filtered out) by partitions.even_paired_extensions,
  C. the sum of the virtual cells attached to the even-strip special
     symbols of rank 2n.

A route yields its decomposition only.  Its character (XiResult.character)
is that decomposition evaluated by the transposed Murnaghan-Nakayama rule
(wchar.virtual_character) when it is first read, so no route builds an
irreducible character or the character table.

Wherever a coefficient is attached to an irreducible of W_n (kappa_terms,
nu_terms, every route's decomposition, xi_all's comparison), chi^(alpha;
beta) is keyed by its pair of part tuples, which its Bipartition equals
(see wchar).  No route builds a Partition or Bipartition; one is built
from a key only to print its name, in an error payload or verify's rows.

Route A's induction-product sum has a closed form of the same kind as
kappa and nu, so no induction product is computed.  The induced value
of kappa_r (x) nu_{n-r} at a class c of W_{2n} is the sum, over the splits
of c's cycles into a piece of size 2r and the rest, of the split's weight
times kappa_r on the piece and nu_{n-r} on the rest.  A split takes k of
the m cycles of each block (cycles of one length and one sign), and its
weight is the product of C(m, k) over the blocks (wchar._splits).  kappa
and nu are multiplicative over blocks, so each term is a product over
blocks of C(m, k) kappa(v, k) nu(v, m - k), an empty piece giving 1.  The
splits whose kappa piece has odd size are left out of the sum over r;
such a piece holds an odd part, where kappa is 0, so the sum over r is
the sum over every split of c, and it factors over the blocks:

  xi_n(c) = prod over blocks of sum_k C(m, k) kappa(v, k) nu(v, m - k),

one pass of _closed_form with _xi_block.  tests/test_xi.py certifies it
against wchar.induction_product through n = 8.  A block lies in alpha or
in beta, so every such closed form (kappa, nu and xi_n) is a product of
one factor per partition, F(alpha, +) F(beta, -): _closed_form computes
F once per partition and sign, and multiplies two factors per class.

Route A reads ch(kappa_r) = h_r[p_2] = sum_(i=0..2r) (-1)^i h_i h_(2r-i),
proved below, with nu_terms; inducing chi^(lam; -) (x) chi^(mu; beta)
multiplies s_lam s_mu and keeps beta.  h_i and h_(2r-i) commute, so i folds
with 2r - i: each (r, mu) takes i = 0..r once, with weight 2 (-1)^i, or
(-1)^r at i = r, and h_k s_mu adds the horizontal k-strips to mu (Pieri;
I. G. Macdonald, Symmetric Functions and Hall Polynomials, 2nd ed., I.5).
Pieri alone keeps it independent of route B, and sorted into
bipartitions(2n) order it needs no class of W_{2n}, like routes B and C.

The W side as a theorem.  The Frobenius characteristic ch of W_n = Z_2
wr S_n (Macdonald, ch. I, Appendix B) sends chi^(alpha; beta) to
s_alpha(x) s_beta(y), a positive k-cycle to p_k(x) + p_k(y) and a negative
one to p_k(x) - p_k(y); it multiplies under induction and is an isometry
for the Hall form, whose power-sum norms are the centralizer orders z_c.
Summed over all sizes:

  - sum_r ch(kappa_r) = exp(sum_k p_2k(x)/k) = H(x^2) = sum_r h_r[p_2], and
    H(t) H(-t) = H(t^2) gives h_r[p_2] = sum_(i=0..2r) (-1)^i h_i h_(2r-i),
    which route A reads; with Jacobi-Trudi it is sum_(i=0..r) (-1)^i
    s_(2r-i, i) (Macdonald I.8), so kappa_terms holds for every r;
  - sum_m ch(nu_m) = exp(sum_k p_k(x) p_k(y)/k) = Omega(x, y) = sum_alpha
    s_alpha(x) s_alpha(y), the Cauchy identity (I.4), so nu_terms holds for
    every m;
  - so ch(sum_n xi_n) = H(x^2) Omega(x, y).  The block closed form is its
    power-sum expansion and route A's decomposition its Schur expansion,
    so the two agree at every n.

With p_m^+- = p_m(x) +- p_m(y), log ch(sum_n xi_n) is sum_k (p_2k^+ +
p_2k^-)/(2k) + sum_m ((p_m^+)^2 - (p_m^-)^2)/(4m), one term per mode p_m^+-,
and <(p_m^+-)^a, (p_m^+-)^a> = a! (2m)^a.  The Hall norm is a product over
the modes, so, with t marking n, it can be taken mode by mode: for odd m
the two modes p_m^+- together give (1 - t^m)^-1, and the two modes p_2k^+-
give (1 - t^2k)^-1 exp(2 t^k / (k (1 - t^2k))).  The product of those
exponentials is prod_(k odd) (1 - t^k)^-2, so

  sum_n <xi_n, xi_n> t^n = prod_k (1 - t^k)^-1 prod_(k odd) (1 - t^k)^-2

for every n.  tests/test_xi.py checks the blocks against these exponentials
and sums the mode series exactly through n = 21.

What is compared, and where:
  - xi_all compares the three routes' decompositions, at every n;
  - XiResult.character, on first read, compares the evaluated
    decomposition with the closed form of xi_n at every class of W_{2n},
    whatever the route: the routes agree, so they share one character;
  - scripts/rank_scan.py checks A = B = C by decomposition on every row,
    through n = 21 (W_42) in CI;
  - tests/test_xi.py checks that the Pieri expansion of sum_i (-1)^i h_i
    h_(2r-i) is kappa_terms(r) through r = 21, the reach of rank_scan.py.

The stated terms kappa_terms(r) and nu_terms(r) are also checked by
character (kappa_nu_decomposition_check) through r = 6 in tests/test_xi.py
and r = 2 in `distsym verify`.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import cached_property, lru_cache
from math import comb, factorial, prod
from typing import Iterable, Iterator

from .cells import even_strip_specials, make_cell
from .partitions import even_paired_extensions, horizontal_strips, partitions
from .symbols import label
from .wchar import Bipartition, ClassFunction, bipartitions, virtual_character


class RouteDisagreement(Exception):
    """Two constructions of xi_n differ: the closed form and a route's
    evaluated decomposition at a class (XiResult.character), or (with
    at="irreducible", from xi_all) two routes' coefficients at an
    irreducible."""

    def __init__(
        self, n: int, route_a: str, route_b: str, cls: Bipartition, va, vb, at: str = "class"
    ):
        self.payload = {
            "n": n,
            "routes": [route_a, route_b],
            at: str(cls),
            "values": [str(va), str(vb)],
        }
        super().__init__(
            f"xi({n}): routes {route_a} and {route_b} differ at {at} {cls}: {va} != {vb}"
        )


class CoefficientViolation(Exception):
    """A decomposition coefficient fell outside {-1, 0, +1}."""

    def __init__(self, n: int, route: str, key: tuple, coeff):
        bp = Bipartition(*key)
        self.payload = {"n": n, "route": route, "irreducible": str(bp), "coefficient": str(coeff)}
        super().__init__(f"xi({n}) route {route}: coefficient {coeff} at {bp}")


def _kappa_block(value: int, mult: int, negative: bool) -> int:
    return 0 if value % 2 and mult else 2**mult


def _nu_block(value: int, mult: int, negative: bool) -> int:
    if mult % 2:
        return 0
    base = -value if negative else value
    return base ** (mult // 2) * factorial(mult) // factorial(mult // 2)


@lru_cache(maxsize=None)
def _xi_block(value: int, mult: int, negative: bool) -> int:
    """A block's factor of route A's character (see the module docstring):
    the sum over k of C(mult, k) times the kappa value of k of its cycles
    and the nu value of the other mult - k."""
    return sum(
        comb(mult, k) * _kappa_block(value, k, negative) * _nu_block(value, mult - k, negative)
        for k in range(mult + 1)
    )


@lru_cache(maxsize=None)
def _closed_form(r: int, block) -> ClassFunction:
    """The multiplicative class function on W_{2r}: its value at a class
    (alpha; beta) is the product of block(value, mult, negative) over the
    blocks of equal cycles, negative for the blocks of beta.  That is
    F(alpha, +) F(beta, -), with F the product over one partition's blocks,
    so F is computed once per partition of size at most 2r and sign, and
    each class costs one multiplication."""
    if r < 0:
        raise ValueError("r must be non-negative")
    plus, minus = {}, {}
    for k in range(2 * r + 1):
        for p in partitions(k):
            blocks = Counter(p).items()
            plus[p] = prod(block(value, mult, False) for value, mult in blocks)
            minus[p] = prod(block(value, mult, True) for value, mult in blocks)
    return ClassFunction(2 * r, [plus[a] * minus[b] for a, b in bipartitions(2 * r)])


def kappa(r: int) -> ClassFunction:
    """Closed form of the kappa class function on W_{2r}: zero on any
    class with an odd part, 2**multiplicity per even-part block."""
    return _closed_form(r, _kappa_block)


def nu(r: int) -> ClassFunction:
    """Closed form of the nu class function on W_{2r}.

    Per block of part value v and multiplicity k: zero when k is odd,
    otherwise (+-v)**(k/2) * k!/(k/2)! with the minus sign on the negative
    coordinate.
    """
    return _closed_form(r, _nu_block)


def kappa_terms(r: int) -> dict[tuple, int]:
    """Stated decomposition of kappa_r: alternating two-row partitions
    (2r - i, i), with sign (-1)**i, and empty second coordinate."""
    if r < 0:
        raise ValueError("r must be non-negative")
    return {(tuple(p for p in (2 * r - i, i) if p), ()): (-1) ** i for i in range(r + 1)}


def nu_terms(m: int) -> dict[tuple, int]:
    """Stated decomposition of nu_m: (alpha; alpha) over partitions of m."""
    return {(a, a): 1 for a in partitions(m)}


def kappa_nu_decomposition_check(r: int) -> bool:
    """Whether the stated signed sums evaluate to the closed forms; the
    irreducibles are linearly independent, so this certifies the terms."""
    return (
        virtual_character(2 * r, kappa_terms(r)) == kappa(r)
        and virtual_character(2 * r, nu_terms(r)) == nu(r)
    )


def even_paired_pairs(n: int) -> list[tuple[tuple, int]]:
    """All (alpha; beta) of total size 2n with beta inside alpha and the
    skew difference an even-paired shape, with the sign (-1)**(|v|/2):
    beta by decreasing size, in partitions order within a size, and for
    each beta the alphas that even_paired_extensions generates directly."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return [
        ((alpha, beta), sign)
        for bsize in range(n, -1, -1)
        for beta in partitions(bsize)
        for alpha, sign in even_paired_extensions(beta, 2 * (n - bsize))
    ]


class XiResult(namedtuple("XiResult", "n route decomposition")):
    """xi_n by one route: its signed decomposition into the irreducibles
    of W_{2n}, each keyed by its pair of parts, nonzero coefficients only.
    Stored as the tuple (n, route, decomposition); it keeps an instance
    dict, unlike the package's other tuples, for the cached character."""

    def __new__(cls, n: int, route: str, decomposition: dict[tuple, int]) -> "XiResult":
        for key, coeff in decomposition.items():
            if coeff not in (-1, 0, 1):
                raise CoefficientViolation(n, route, key, coeff)
        return super().__new__(cls, n, route, {key: c for key, c in decomposition.items() if c})

    @cached_property
    def character(self) -> ClassFunction:
        """The decomposition evaluated at every class of W_{2n}, on first
        read, and checked against the closed form of xi_n: at the first
        class where they differ it raises RouteDisagreement.  The two are
        expansions of one symmetric function (see the module docstring), so
        this checks the code, not the theorem."""
        n = self.n
        char = virtual_character(2 * n, self.decomposition)
        closed = _closed_form(n, _xi_block)
        if char != closed:
            c, x, y = next(t for t in zip(bipartitions(2 * n), closed.values, char.values)
                           if t[1] != t[2])
            raise RouteDisagreement(n, "A", f"{self.route} decomposition", c, x, y)
        return char


def _canonical_key(alpha: tuple[int, ...], beta: tuple[int, ...]):
    """Sorted in reverse, (alpha parts, beta parts) fall in bipartitions order."""
    return sum(alpha), alpha, beta


# route A meets many (mu, k) more than once (1726 of 4022 calls at n = 12)
_strips = lru_cache(maxsize=None)(horizontal_strips)


def _route_a_decomposition(n: int) -> dict[tuple, int]:
    """The decomposition of sum_r kappa_r (x) nu_(n-r) by Pieri's rule on
    h_r[p_2] and the stated nu terms, folded as in the module docstring,
    in canonical bipartitions(2n) order."""
    acc: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    for r in range(n + 1):
        for (mu, beta), d in nu_terms(n - r).items():
            for i in range(r + 1):
                sign = (-1) ** i * d * (1 if i == r else 2)
                for inner in _strips(mu, i, 1):
                    for outer in _strips(inner, 2 * r - i, 1):
                        acc[outer, beta] = acc.get((outer, beta), 0) + sign
    terms = sorted((k for k, c in acc.items() if c), key=lambda k: _canonical_key(*k),
                   reverse=True)
    return {k: acc[k] for k in terms}


def _signed_sum(terms: Iterable[tuple[tuple, int]]) -> dict[tuple, int]:
    """Add signed irreducibles into a decomposition, in insertion order."""
    decomp: dict[tuple, int] = {}
    for key, sign in terms:
        decomp[key] = decomp.get(key, 0) + sign
    return decomp


def _cell_terms(n: int) -> Iterator[tuple[tuple, int]]:
    """Every cell term as its raw (alpha parts, beta parts) and its sign:
    the label of the term's rows, read off the plain tuple (1, top, bottom)
    with no Symbol built.  A standard cell swaps columnwise pairs, so each
    term keeps Z's defect 1 and its longer row comes first."""
    for z in even_strip_specials(n):
        cell = make_cell(z)
        for sign, (top, bottom) in zip(cell.signs, cell.term_rows()):
            yield label((1, top, bottom))[1:], sign


# each route maps n to its decomposition; xi() wraps it in an XiResult
_ROUTES = {
    "A": _route_a_decomposition,
    "B": lambda n: _signed_sum(even_paired_pairs(n)),
    "C": lambda n: _signed_sum(_cell_terms(n)),
}


def xi(n: int, route: str = "A") -> XiResult:
    """The virtual module at rank parameter n, by the requested route."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if route not in _ROUTES:
        raise ValueError(f"unknown route {route!r}; expected A, B, or C")
    return XiResult(n, route, _ROUTES[route](n))


def xi_all(n: int) -> dict[str, XiResult]:
    """All three routes; a disagreement between their decompositions is a
    hard error naming the first differing irreducible in bipartitions(2n)
    order, with no preference among routes.  No character is evaluated, so
    no class of W_{2n} is needed and this runs at every n."""
    results = {name: xi(n, name) for name in ("A", "B", "C")}
    base = results["A"].decomposition
    for name in ("B", "C"):
        other = results[name].decomposition
        if other != base:
            key = max(
                (k for k in base.keys() | other.keys() if base.get(k, 0) != other.get(k, 0)),
                key=lambda k: _canonical_key(*k),
            )
            raise RouteDisagreement(n, "A", name, Bipartition(*key), base.get(key, 0),
                                    other.get(key, 0), at="irreducible")
    return results

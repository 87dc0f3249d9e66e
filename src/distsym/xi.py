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
against wchar.induction_product through n = 8.

Route A decomposes its induction products from the stated decompositions
kappa_terms x nu_terms: inducing chi^(lam; -) (x) chi^(mu; nu) multiplies
s_lam s_mu on the first coordinate and keeps nu.  Each kappa term is a
two-row lam = (p, q), so by Jacobi-Trudi s_(p,q) = h_p h_q - h_(p+1)
h_(q-1), and each h_k s_mu is the sum of s over the horizontal k-strips
added to mu, by Pieri's rule (I. G. Macdonald, Symmetric Functions and
Hall Polynomials, 2nd ed., ch. I, sections 3 and 5).  This keeps route A
independent of route B's skew-pair description.  The terms are summed on
raw part tuples and sorted into bipartitions(2n) order, so route A needs
no class of W_{2n} and runs at every n, like routes B and C.

The W side as a theorem.  The Frobenius characteristic ch of W_n = Z_2
wr S_n (Macdonald, ch. I, Appendix B) sends chi^(alpha; beta) to
s_alpha(x) s_beta(y), a positive k-cycle to p_k(x) + p_k(y) and a negative
one to p_k(x) - p_k(y); it multiplies under induction and is an isometry
for the Hall form, whose power-sum norms are the centralizer orders z_c.
Summed over all sizes:

  - sum_r ch(kappa_r) = exp(sum_k p_2k(x)/k) = H(x^2) = sum_r h_r[p_2], and
    H(t) H(-t) = H(t^2) with Jacobi-Trudi gives h_r[p_2] = sum_i (-1)^i
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
  - check_route_a compares route A's decomposition's character with its
    closed form at every class of W_{2n}.  It runs where that character
    is evaluated anyway: the CLI's xi command when it shows route A
    (through its bound n = 10), verify's route-agreement row (n = 1..3)
    and scripts/rank_scan.py (its rows through n = 10);
  - scripts/rank_scan.py checks A = B = C by decomposition on every row,
    through n = 21 (W_42) in CI.

The stated terms kappa_terms(r) and nu_terms(r) are also checked by
character (kappa_nu_decomposition_check) through r = 6 in tests/test_xi.py
and r = 2 in `distsym verify`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, factorial
from typing import Iterable

from .cells import even_strip_specials, make_cell
from .partitions import Partition, even_paired_extensions, horizontal_strips, partitions
from .symbols import to_bipartition
from .wchar import Bipartition, ClassFunction, bipartitions, virtual_character


class RouteDisagreement(Exception):
    """Two constructions of xi_n differ: route A's closed-form character
    and its decomposition's character at a class (check_route_a), or (with
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

    def __init__(self, n: int, route: str, bp: Bipartition, coeff):
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


def _closed_form(r: int, block) -> ClassFunction:
    """The multiplicative class function on W_{2r}: its value at a class
    is the product of block(value, mult, negative) over the blocks of equal
    cycles, negative for the blocks of beta."""
    if r < 0:
        raise ValueError("r must be non-negative")
    values = []
    for c in bipartitions(2 * r):
        v = 1
        for parts, negative in ((c.alpha, False), (c.beta, True)):
            for value, mult in Counter(parts.parts).items():
                v *= block(value, mult, negative)
        values.append(v)
    return ClassFunction(2 * r, values)


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


def kappa_terms(r: int) -> dict[Bipartition, int]:
    """Stated decomposition of kappa_r: alternating two-row partitions
    (2r - i, i), with sign (-1)**i, and empty second coordinate."""
    if r < 0:
        raise ValueError("r must be non-negative")
    out = {}
    for i in range(r + 1):
        parts = tuple(p for p in (2 * r - i, i) if p)
        out[Bipartition.of(parts)] = (-1) ** i
    return out


def nu_terms(m: int) -> dict[Bipartition, int]:
    """Stated decomposition of nu_m: (alpha; alpha) over partitions of m."""
    return {Bipartition(a, a): 1 for a in partitions(m)}


def kappa_nu_decomposition_check(r: int) -> bool:
    """Whether the stated signed sums evaluate to the closed forms; the
    irreducibles are linearly independent, so this certifies the terms."""
    return (
        virtual_character(2 * r, kappa_terms(r)) == kappa(r)
        and virtual_character(2 * r, nu_terms(r)) == nu(r)
    )


def even_paired_pairs(n: int) -> list[tuple[Bipartition, int]]:
    """All (alpha; beta) of total size 2n with beta inside alpha and the
    skew difference an even-paired shape, with the sign (-1)**(|v|/2):
    beta by decreasing size, in partitions order within a size, and for
    each beta the alphas that even_paired_extensions generates directly."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return [
        (Bipartition(Partition(alpha), beta), sign)
        for bsize in range(n, -1, -1)
        for beta in partitions(bsize)
        for alpha, sign in even_paired_extensions(beta.parts, 2 * (n - bsize))
    ]


@dataclass
class XiResult:
    """xi_n by one route: its signed decomposition into the irreducibles
    of W_{2n}, nonzero coefficients only."""

    n: int
    route: str
    decomposition: dict[Bipartition, int]

    def __post_init__(self) -> None:
        for bp, coeff in self.decomposition.items():
            if coeff not in (-1, 0, 1):
                raise CoefficientViolation(self.n, self.route, bp, coeff)
        self.decomposition = {bp: c for bp, c in self.decomposition.items() if c}

    @cached_property
    def character(self) -> ClassFunction:
        """The decomposition evaluated at every class of W_{2n}, on first read."""
        return virtual_character(2 * self.n, self.decomposition)


def _canonical_key(alpha: tuple[int, ...], beta: tuple[int, ...]):
    """Sorted in reverse, (alpha parts, beta parts) fall in bipartitions order."""
    return sum(alpha), alpha, beta


def _route_a_decomposition(n: int) -> dict[Bipartition, int]:
    """The decomposition of sum_r kappa_r (x) nu_(n-r) by Jacobi-Trudi and
    Pieri on the stated terms, in canonical bipartitions(2n) order.

    Every kappa term is a two-row (p, q; -); a term of another shape would
    be decomposed wrongly, and check_route_a would fail."""
    acc: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    for r in range(n + 1):
        nu_items = nu_terms(n - r).items()
        for lam, c in kappa_terms(r).items():
            p, q = (lam.alpha.parts + (0, 0))[:2]
            for mu, d in nu_items:
                beta = mu.beta.parts
                for a, b, sign in ((p, q, c * d), (p + 1, q - 1, -c * d)):
                    if b < 0:
                        continue
                    for inner in horizontal_strips(mu.alpha.parts, b, 1):
                        for outer in horizontal_strips(inner, a, 1):
                            acc[outer, beta] = acc.get((outer, beta), 0) + sign
    terms = sorted((k for k, c in acc.items() if c), key=lambda k: _canonical_key(*k),
                   reverse=True)
    return {Bipartition.of(alpha, beta): acc[alpha, beta] for alpha, beta in terms}


def _xi_route_a(n: int) -> XiResult:
    return XiResult(n, "A", _route_a_decomposition(n))


def check_route_a(result: XiResult) -> None:
    """Raise RouteDisagreement at the first class of W_{2n} where route A's
    decomposition, evaluated, differs from its block closed form.

    The closed form and the decomposition are two expansions of one
    symmetric function (see the module docstring), so this checks the
    code, not the theorem; it needs every class of W_{2n}, so it runs
    only where that character is evaluated anyway."""
    n = result.n
    char = _closed_form(n, _xi_block)
    for c, x, y in zip(bipartitions(2 * n), char.values, result.character.values):
        if x != y:
            raise RouteDisagreement(n, "A", "A decomposition", c, x, y)


def _signed_sum(n: int, route: str, terms: Iterable[tuple[Bipartition, int]]) -> XiResult:
    """Add signed irreducibles into a decomposition, in insertion order."""
    decomp: dict[Bipartition, int] = {}
    for bp, sign in terms:
        decomp[bp] = decomp.get(bp, 0) + sign
    return XiResult(n, route, decomp)


def _xi_route_b(n: int) -> XiResult:
    return _signed_sum(n, "B", even_paired_pairs(n))


def _xi_route_c(n: int) -> XiResult:
    terms = (
        (Bipartition(*to_bipartition(sym)), sign)
        for z in even_strip_specials(n)
        for sign, sym in make_cell(z).terms
    )
    return _signed_sum(n, "C", terms)


_ROUTES = {"A": _xi_route_a, "B": _xi_route_b, "C": _xi_route_c}


def xi(n: int, route: str = "A") -> XiResult:
    """The virtual module at rank parameter n, by the requested route."""
    if n < 1:
        raise ValueError("n must be at least 1")
    try:
        builder = _ROUTES[route.upper()]
    except KeyError:
        raise ValueError(f"unknown route {route!r}; expected A, B, or C") from None
    return builder(n)


def xi_all(n: int) -> dict[str, XiResult]:
    """All three routes; a disagreement between their decompositions is a
    hard error naming the first differing irreducible in bipartitions(2n)
    order, with no preference among routes.  Characters are not compared: a
    route's character is a function of its decomposition, and no class of
    W_{2n} is needed, so this runs at every n."""
    results = {name: xi(n, name) for name in ("A", "B", "C")}
    base = results["A"].decomposition
    for name in ("B", "C"):
        other = results[name].decomposition
        if other != base:
            bp = max(
                (bp for bp in base.keys() | other.keys() if base.get(bp, 0) != other.get(bp, 0)),
                key=lambda bp: _canonical_key(bp.alpha.parts, bp.beta.parts),
            )
            raise RouteDisagreement(n, "A", name, bp, base.get(bp, 0), other.get(bp, 0),
                                    at="irreducible")
    return results

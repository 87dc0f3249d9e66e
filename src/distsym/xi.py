"""The virtual W_{2n}-module xi_n and its two multiplicative building blocks.

kappa_r is the difference of the inductions of the trivial and the
block-swap sign character from the wreath-like subgroup K_r of W_{2r};
nu_m is the induction of the flip-count sign character from the
centralizer of the longest involution.  Both have closed multiplicative
class functions, entered here block by block.  xi_n is assembled by three
independent routes that must agree exactly:

  A. the induction-product sum of kappa_r (x) nu_{n-r} over r,
  B. the signed sum of irreducibles over skew pairs whose difference is an
     even-paired shape, with sign (-1)**(|v|/2),
  C. the sum of the virtual cells attached to the even-strip special
     symbols of rank 2n.

No route builds an irreducible character or the character table.  Routes B
and C form their character from their decomposition by the transposed
Murnaghan-Nakayama rule (wchar.virtual_character).  Route A decomposes its
induction products from the stated decompositions kappa_terms x nu_terms:
inducing chi^(lam; -) (x) chi^(mu; nu) multiplies s_lam s_mu on the first
coordinate and keeps nu.  Each kappa term is a two-row lam = (p, q), so by
Jacobi-Trudi s_(p,q) = h_p h_q - h_(p+1) h_(q-1), and each h_k s_mu is the
sum of s over the horizontal k-strips added to mu, by Pieri's rule
(I. G. Macdonald, Symmetric Functions and Hall Polynomials, 2nd ed.,
ch. I, sections 3 and 5).  This keeps route A independent of route B's
skew-pair description.  Route A then checks that its decomposition
evaluates to its induction-product character.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Iterable

from .cells import even_strip_specials, make_cell
from .partitions import SkewShape, gamma2_extensions, hv_split, partitions
from .symbols import to_bipartition
from .wchar import (
    Bipartition,
    ClassFunction,
    _class_index,
    bipartitions,
    decompose,
    induction_product,
    virtual_character,
)


class RouteDisagreement(Exception):
    """Two constructions of xi_n differ: their characters at a class, or
    (with at="irreducible") their coefficients at an irreducible."""

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
    return 0 if value % 2 else 2**mult


def _nu_block(value: int, mult: int, negative: bool) -> int:
    if mult % 2:
        return 0
    base = -value if negative else value
    return base ** (mult // 2) * factorial(mult) // factorial(mult // 2)


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
            for value, mult in parts.multiplicities().items():
                v *= block(value, mult, negative)
        values.append(v)
    return ClassFunction._dense(2 * r, tuple(values))


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
    (i, 2r - i) with empty second coordinate."""
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
    """Whether the closed forms decompose into the stated signed sums."""
    return decompose(kappa(r)) == kappa_terms(r) and decompose(nu(r)) == nu_terms(r)


def even_paired_pairs(n: int) -> list[tuple[Bipartition, int]]:
    """All (alpha; beta) of total size 2n with beta inside alpha and the
    skew difference an even-paired shape, with the sign (-1)**(|v|/2).

    Generation runs over beta first, then over the bounded extensions with
    at most two boxes per column, filtering on the single-column rows.
    """
    out = []
    for bsize in range(n, -1, -1):
        strip = 2 * n - 2 * bsize
        for beta in partitions(bsize):
            for alpha in gamma2_extensions(beta, strip):
                shape = SkewShape(alpha, beta)
                h_rows, v_rows = hv_split(shape)
                if any(r % 2 for r in h_rows):
                    continue
                sign = (-1) ** (sum(v_rows) // 2)
                out.append((Bipartition(alpha, beta), sign))
    return out


@dataclass
class XiResult:
    n: int
    route: str
    character: ClassFunction
    decomposition: dict[Bipartition, int]

    def __post_init__(self) -> None:
        for bp, coeff in self.decomposition.items():
            if coeff not in (-1, 0, 1):
                raise CoefficientViolation(self.n, self.route, bp, coeff)
        self.decomposition = {bp: c for bp, c in self.decomposition.items() if c}


def _require_equal_characters(
    n: int, name_a: str, f: ClassFunction, name_b: str, g: ClassFunction
) -> None:
    """Raise RouteDisagreement at the first class where f and g differ."""
    if f.values != g.values:
        i = next(i for i, (x, y) in enumerate(zip(f.values, g.values)) if x != y)
        cls = bipartitions(2 * n)[i]
        raise RouteDisagreement(n, name_a, name_b, cls, f.values[i], g.values[i])


@lru_cache(maxsize=None)
def _horizontal_strips(mu: tuple[int, ...], k: int) -> tuple[tuple[int, ...], ...]:
    """Every partition lam containing mu with lam / mu a horizontal strip
    of k boxes: mu_i <= lam_i <= mu_(i-1), with at most one new row."""
    rows = mu + (0,)
    out = []

    def rec(i: int, left: int, lam: tuple[int, ...]) -> None:
        if i == len(rows):
            if not left:
                out.append(tuple(p for p in lam if p))
            return
        room = left if i == 0 else min(left, rows[i - 1] - rows[i])
        for add in range(room + 1):
            rec(i + 1, left - add, lam + (rows[i] + add,))

    rec(0, k, ())
    return tuple(out)


def _route_a_decomposition(n: int) -> dict[Bipartition, int]:
    """The decomposition of sum_r kappa_r (x) nu_(n-r) by Jacobi-Trudi and
    Pieri on the stated terms, in canonical bipartitions(2n) order.

    Every kappa term is a two-row (p, q; -); a term of another shape would
    be decomposed wrongly, and route A's evaluation check would fail."""
    acc = [0] * len(bipartitions(2 * n))
    index = _class_index(2 * n)
    for r in range(n + 1):
        nu_items = nu_terms(n - r).items()
        for lam, c in kappa_terms(r).items():
            p, q = (lam.alpha.parts + (0, 0))[:2]
            for mu, d in nu_items:
                for a, b, sign in ((p, q, c * d), (p + 1, q - 1, -c * d)):
                    if b < 0:
                        continue
                    for inner in _horizontal_strips(mu.alpha.parts, b):
                        for outer in _horizontal_strips(inner, a):
                            acc[index[outer, mu.beta.parts]] += sign
    return {bp: c for bp, c in zip(bipartitions(2 * n), acc) if c}


def _xi_route_a(n: int) -> XiResult:
    char = ClassFunction.zero(2 * n)
    for r in range(n + 1):
        char = char + induction_product(kappa(r), nu(n - r))
    result = XiResult(n, "A", char, _route_a_decomposition(n))
    _require_equal_characters(
        n, "A", char, "A decomposition", virtual_character(2 * n, result.decomposition)
    )
    return result


def _signed_sum(n: int, route: str, terms: Iterable[tuple[Bipartition, int]]) -> XiResult:
    """Add signed irreducibles into a decomposition, in insertion order,
    and evaluate it to the character."""
    decomp: dict[Bipartition, int] = {}
    for bp, sign in terms:
        decomp[bp] = decomp.get(bp, 0) + sign
    return XiResult(n, route, virtual_character(2 * n, decomp), decomp)


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
    """All three routes; any disagreement is a hard error naming the first
    differing class, or the first differing irreducible when the
    characters agree and the decompositions do not, with no preference
    among routes."""
    results = {name: xi(n, name) for name in ("A", "B", "C")}
    base = results["A"]
    for name in ("B", "C"):
        other = results[name]
        _require_equal_characters(n, "A", base.character, name, other.character)
        if other.decomposition != base.decomposition:
            bp = next(
                bp for bp in bipartitions(2 * n)
                if base.decomposition.get(bp, 0) != other.decomposition.get(bp, 0)
            )
            raise RouteDisagreement(n, "A", name, bp, base.decomposition.get(bp, 0),
                                    other.decomposition.get(bp, 0), at="irreducible")
    return results

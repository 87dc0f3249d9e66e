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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Iterable

from .cells import even_strip_specials, make_cell
from .partitions import SkewShape, gamma2_extensions, hv_split, partitions
from .symbols import to_bipartition
from .wchar import (
    Bipartition,
    ClassFunction,
    bipartitions,
    decompose,
    induction_product,
    w_irreducible,
)


class RouteDisagreement(Exception):
    """Two construction routes produced different class functions."""

    def __init__(self, n: int, route_a: str, route_b: str, cls: Bipartition, va, vb):
        self.payload = {
            "n": n,
            "routes": [route_a, route_b],
            "class": str(cls),
            "values": [str(va), str(vb)],
        }
        super().__init__(
            f"xi({n}): routes {route_a} and {route_b} differ at class {cls}: {va} != {vb}"
        )


class CoefficientViolation(Exception):
    """A decomposition coefficient fell outside {-1, 0, +1}."""

    def __init__(self, n: int, route: str, bp: Bipartition, coeff):
        self.payload = {"n": n, "route": route, "irreducible": str(bp), "coefficient": str(coeff)}
        super().__init__(f"xi({n}) route {route}: coefficient {coeff} at {bp}")


def _kappa_block(value: int, mult: int) -> int:
    return 0 if value % 2 else 2**mult


def _nu_block(value: int, mult: int, negative: bool) -> int:
    if mult % 2:
        return 0
    base = -value if negative else value
    return base ** (mult // 2) * factorial(mult) // factorial(mult // 2)


def kappa(r: int) -> ClassFunction:
    """Closed form of the kappa class function on W_{2r}: zero on any
    class with an odd part, 2**multiplicity per even-part block."""
    if r < 0:
        raise ValueError("r must be non-negative")
    values = {}
    for c in bipartitions(2 * r):
        v = 1
        for value, mult in c.alpha.multiplicities().items():
            v *= _kappa_block(value, mult)
        for value, mult in c.beta.multiplicities().items():
            v *= _kappa_block(value, mult)
        values[c] = v
    return ClassFunction(2 * r, values)


def nu(m: int) -> ClassFunction:
    """Closed form of the nu class function on W_{2m}.

    Per block of part value v and multiplicity k: zero when k is odd,
    otherwise (+-v)**(k/2) * k!/(k/2)! with the minus sign on the negative
    coordinate.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    values = {}
    for c in bipartitions(2 * m):
        v = 1
        for value, mult in c.alpha.multiplicities().items():
            v *= _nu_block(value, mult, negative=False)
        for value, mult in c.beta.multiplicities().items():
            v *= _nu_block(value, mult, negative=True)
        values[c] = v
    return ClassFunction(2 * m, values)


def kappa_terms(r: int) -> dict[Bipartition, int]:
    """Stated decomposition of kappa_r: alternating two-row partitions
    (i, 2r - i) with empty second coordinate."""
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


def _xi_route_a(n: int) -> XiResult:
    char = ClassFunction.zero(2 * n)
    for r in range(n + 1):
        char = char + induction_product(kappa(r), nu(n - r))
    return XiResult(n, "A", char, decompose(char))


def _signed_sum(n: int, route: str, terms: Iterable[tuple[Bipartition, int]]) -> XiResult:
    """Add signed irreducibles into a decomposition, in insertion order,
    and form the character as the sum of coeff * chi over it."""
    decomp: dict[Bipartition, int] = {}
    for bp, sign in terms:
        decomp[bp] = decomp.get(bp, 0) + sign
    char = ClassFunction.zero(2 * n)
    for bp, coeff in decomp.items():
        char = char + coeff * w_irreducible(bp)
    return XiResult(n, route, char, decomp)


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
    differing class, with no preference among routes."""
    results = {name: xi(n, name) for name in ("A", "B", "C")}
    base = results["A"].character.values
    for name in ("B", "C"):
        other = results[name].character.values
        if other != base:
            i = next(i for i, (x, y) in enumerate(zip(base, other)) if x != y)
            raise RouteDisagreement(n, "A", name, bipartitions(2 * n)[i], base[i], other[i])
    return results

#!/usr/bin/env python3
"""Scan the distinguished-symbol pipeline over a range of ranks.

For each n up to the bound (default 4, at least 1): the size of the
even-strip special-symbol set, the distinguished count sum(2^d), whether
the cuspidal symbol shows up (asserting that exactly one cell carries it),
the coefficient of x^n in prod_k (1-x^k)^-1 * prod_{k odd} (1-x^k)^-2,
which must equal the count, and the number of route B's signed skew
pairs even_paired_pairs(n), whose bipartitions must be distinct (so route
B's pairing <xi, xi> is that number) and must equal the count.  On the W
side the product formula is a theorem: it is the pairing <xi_n, xi_n>
for every n (see the distsym.xi module docstring); that the count equals
the pairing is what the scan checks.

Every row then checks that the three routes give one decomposition of
xi_n: route B's, read off the row's pairs, route A's and route C's; this
evaluates no character.  Rows with n <= cli.XI_MAX_N also check
route A's decomposition against its closed form at every class of W_2n
(check_route_a) and print the self inner product of xi_n, which must
equal the count; with wall-clock timings."""

import argparse
import time

from distsym.cells import distinguished, even_strip_specials
from distsym.cli import XI_MAX_N
from distsym.symbols import cuspidal_symbol
from distsym.wchar import inner_product
from distsym.xi import check_route_a, even_paired_pairs, xi


def product_formula(max_n: int) -> list[int]:
    """The coefficients of x^0..x^max_n in
    prod_k (1-x^k)^-1 * prod_{k odd} (1-x^k)^-2."""
    coeffs = [1] + [0] * max_n
    for k in range(1, max_n + 1):
        for _ in range(3 if k % 2 else 1):
            for i in range(k, max_n + 1):
                coeffs[i] += coeffs[i - k]
    return coeffs


def positive(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-n", type=positive, default=4)
    args = parser.parse_args()

    header = f"{'n':>3} {'rank':>5} {'|S|':>5} {'count':>6} {'formula':>8} {'cuspidal':>9}"
    header += f" {'B pairs':>8} {'A = B = C':>10} {'<xi,xi>':>8} {'seconds':>8}"
    print(header)
    formula = product_formula(args.max_n)
    for n in range(1, args.max_n + 1):
        start = time.monotonic()
        specials = even_strip_specials(n)
        report = distinguished(n)
        if report.count != formula[n]:
            raise SystemExit(f"n = {n}: count {report.count} != product formula {formula[n]}")
        if report.cuspidal_present:
            cusp = cuspidal_symbol(next(d for d in range(n + 1) if d * d + d == 2 * n))
            carriers = [e for e in report.entries if cusp in e.constituents]
            if len(carriers) != 1:
                raise SystemExit(f"n = {n}: the cuspidal {cusp} is in {len(carriers)} cells")
        row = f"{n:>3} {2 * n:>5} {len(specials):>5} {report.count:>6} {formula[n]:>8} "
        row += f"{'yes' if report.cuspidal_present else 'no':>9}"
        pairs = even_paired_pairs(n)
        if len({bp for bp, _ in pairs}) != len(pairs):
            raise SystemExit(f"n = {n}: even_paired_pairs repeats a bipartition")
        if len(pairs) != report.count:
            raise SystemExit(f"n = {n}: {len(pairs)} even-paired pairs != count {report.count}")
        row += f" {len(pairs):>8}"
        # the pairs are distinct, so dict(pairs) is route B's decomposition
        route_a = xi(n, "A")
        for name, decomp in (("A", route_a.decomposition), ("C", xi(n, "C").decomposition)):
            if decomp != dict(pairs):
                raise SystemExit(f"n = {n}: routes B and {name} give different decompositions")
        row += f" {'yes':>10}"
        if n <= XI_MAX_N:
            check_route_a(route_a)
            norm = inner_product(route_a.character, route_a.character)
            if norm != report.count:
                raise SystemExit(f"n = {n}: <xi, xi> = {norm} != count {report.count}")
            row += f" {norm:>8}"
        else:
            row += f" {'-':>8}"
        row += f" {time.monotonic() - start:>8.2f}"
        print(row)


if __name__ == "__main__":
    main()

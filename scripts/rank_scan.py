#!/usr/bin/env python3
"""Scan the distinguished-symbol pipeline over a range of ranks.

For each n up to the bound (default 4): the size of the even-strip
special-symbol set, the distinguished count sum(2^d), whether the
cuspidal symbol shows up (asserting that exactly one cell carries it), the
coefficient of x^n in
prod_k (1-x^k)^-1 * prod_{k odd} (1-x^k)^-2, which must equal the count
(an observation, checked here, not a theorem), and, as a cross-check, the
virtual module xi_n by all three routes (xi_all raises unless they agree)
with its self inner product, which must equal the count; with wall-clock
timings."""

import argparse
import time

from distsym.cells import distinguished, even_strip_specials
from distsym.symbols import cuspidal_symbol
from distsym.wchar import inner_product
from distsym.xi import xi_all


def product_formula(max_n: int) -> list[int]:
    """The coefficients of x^0..x^max_n in
    prod_k (1-x^k)^-1 * prod_{k odd} (1-x^k)^-2."""
    coeffs = [1] + [0] * max_n
    for k in range(1, max_n + 1):
        for _ in range(3 if k % 2 else 1):
            for i in range(k, max_n + 1):
                coeffs[i] += coeffs[i - k]
    return coeffs


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-n", type=int, default=4)
    parser.add_argument(
        "--skip-xi",
        action="store_true",
        help="skip the xi cross-check: the three routes agree and <xi, xi> = count",
    )
    args = parser.parse_args()

    header = f"{'n':>3} {'rank':>5} {'|S|':>5} {'count':>6} {'formula':>8} {'cuspidal':>9}"
    if not args.skip_xi:
        header += f" {'<xi,xi>':>8}"
    header += f" {'seconds':>8}"
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
        if not args.skip_xi:
            char = xi_all(n)["A"].character
            norm = inner_product(char, char)
            if norm != report.count:
                raise SystemExit(f"n = {n}: <xi, xi> = {norm} != count {report.count}")
            row += f" {norm:>8}"
        row += f" {time.monotonic() - start:>8.2f}"
        print(row)


if __name__ == "__main__":
    main()

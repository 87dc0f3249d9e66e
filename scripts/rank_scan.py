#!/usr/bin/env python3
"""Scan the distinguished-symbol pipeline over a range of ranks.

For each n up to the bound (default 4): the size of the even-strip
special-symbol set, the distinguished count sum(2^d), whether the
cuspidal symbol shows up, and, as a cross-check, the virtual module xi_n
by all three routes (xi_all raises unless they agree) with its self inner
product, which must equal the count; with wall-clock timings."""

import argparse
import time

from distsym.cells import distinguished, even_strip_specials
from distsym.wchar import inner_product
from distsym.xi import xi_all


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-n", type=int, default=4)
    parser.add_argument(
        "--skip-xi",
        action="store_true",
        help="skip the xi cross-check: the three routes agree and <xi, xi> = count",
    )
    args = parser.parse_args()

    header = f"{'n':>3} {'rank':>5} {'|S|':>5} {'count':>6} {'cuspidal':>9}"
    if not args.skip_xi:
        header += f" {'<xi,xi>':>8}"
    header += f" {'seconds':>8}"
    print(header)
    for n in range(1, args.max_n + 1):
        start = time.monotonic()
        specials = even_strip_specials(n)
        report = distinguished(n)
        row = f"{n:>3} {2 * n:>5} {len(specials):>5} {report.count:>6} "
        row += f"{'yes' if report.cuspidal_present else 'no':>9}"
        if not args.skip_xi:
            char = xi_all(n)["A"].character
            norm = inner_product(char, char)
            assert norm == report.count, "pairing count mismatch"
            row += f" {norm:>8}"
        row += f" {time.monotonic() - start:>8.2f}"
        print(row)


if __name__ == "__main__":
    main()

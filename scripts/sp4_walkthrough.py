#!/usr/bin/env python3
"""End-to-end walkthrough at the smallest interesting rank.

Prints the W_2 character table, builds the rank-parameter-1 virtual module
by all three routes, shows the two cells at rank 2, and ends with the
distinguished symbol list for Sp_4."""

from distsym.cells import distinguished, even_strip_specials, fourier_constituents, make_cell
from distsym.symbols import Symbol
from distsym.wchar import Bipartition, bipartitions, character_table
from distsym.xi import xi_all


def main() -> None:
    print("== character table of W_2 ==")
    classes = bipartitions(2)
    for bp, char in character_table(2).items():
        row = "  ".join(f"{char.at(c):>3}" for c in classes)
        print(f"  {str(bp):<8} {row}")
    print("  classes:", ", ".join(str(c) for c in classes))

    print("\n== xi_1 by three routes ==")
    results = xi_all(1)
    for name, res in results.items():
        vals = [res.character.at(c) for c in classes]
        print(f"  route {name}: character {vals}")
    decomp = results["A"].decomposition
    terms = " ".join(f"{'+' if s > 0 else '-'}({Bipartition(*k)})" for k, s in decomp.items())
    print(f"  decomposition: {terms}")

    print("\n== cells at rank 2 ==")
    for z in even_strip_specials(1):
        cell = make_cell(z)
        signed_rows = zip(cell.signs, cell.term_rows())
        terms = " ".join(f"{'+' if s > 0 else '-'}R({Symbol(*r)})" for s, r in signed_rows)
        cons = " + ".join(f"rho({s})" for s in fourier_constituents(cell))
        print(f"  Z = {z} (d = {cell.d}):  {terms}  =  {cons}")

    print("\n== distinguished unipotent symbols of Sp_4 ==")
    report = distinguished(1)
    for s in report.union:
        tag = "  <- cuspidal" if s.defect == 3 else ""
        print(f"  {s}{tag}")
    print(f"  total {report.count}, cuspidal present: {report.cuspidal_present}")


if __name__ == "__main__":
    main()

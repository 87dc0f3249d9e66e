"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with -s to watch them).  All comparisons are exact."""

import time

import pytest

from distsym.cells import distinguished, even_strip_specials, fourier_constituents, make_cell
from distsym.oracle import kappa_bruteforce, nu_bruteforce
from distsym.partitions import strip_sign_sum, tab_sign_sum
from distsym.symbols import SpecialSymbol, Symbol, label
from distsym.verify import (
    DOCUMENTED,
    SP12_CONSTITUENTS_REFERENCE,
    XI1_TERMS,
    XI3_DISPLAYED,
    XI3_EXTRA,
    run_verification,
)
from distsym.wchar import (
    Bipartition,
    bipartitions,
    group_order,
    inner_product,
    virtual_character,
    w_irreducible,
)
from distsym.xi import kappa, nu, xi, xi_all
from test_partitions import compositions, horizontal_strip_shape
from test_wchar import degree

W2_CLASSES = [
    Bipartition((1, 1)),
    Bipartition((2,)),
    Bipartition((1,), (1,)),
    Bipartition((), (2,)),
    Bipartition((), (1, 1)),
]


@pytest.fixture(scope="module")
def verification_report():
    return run_verification()


def report(num: int, description: str, ok: bool) -> None:
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {num}: {description}"


def test_criterion_01_xi1_character():
    start = time.monotonic()
    char = xi(1, "A").character
    values = [char.at(c) for c in W2_CLASSES]
    elapsed = time.monotonic() - start
    ok = values == [2, 2, 0, 2, -2] and elapsed < 1.0
    report(1, f"xi_1 character equals (2, 2, 0, 2, -2) in {elapsed:.3f}s", ok)


def test_criterion_02_xi1_decomposition():
    ok = xi(1, "A").decomposition == XI1_TERMS
    report(2, "xi_1 decomposes as (2)+, (1,1)-, (1;1)+", ok)


def test_criterion_03_xi3_decomposition(verification_report):
    start = time.monotonic()
    decomp = xi(3, "A").decomposition
    elapsed = time.monotonic() - start
    displayed = all(decomp.get(bp) == s for bp, s in XI3_DISPLAYED.items())
    extra = {bp: c for bp, c in decomp.items() if bp not in XI3_DISPLAYED}
    marked = any(
        c.name == "xi_3 decomposition vs reference display" and c.status == DOCUMENTED
        for c in verification_report.checks
    )
    ok = displayed and extra == XI3_EXTRA and marked and elapsed < 10.0
    report(
        3,
        f"xi_3 has the 12 tabulated terms plus exactly 4 more, "
        f"discrepancy documented, in {elapsed:.3f}s",
        ok,
    )


def test_criterion_04_route_identity():
    start = time.monotonic()
    ok = True
    for n in range(1, 5):
        results = xi_all(n)  # raises on any route mismatch
        ok = ok and results["A"].decomposition == results["B"].decomposition
        ok = ok and results["B"].decomposition == results["C"].decomposition
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    report(4, f"routes A, B, C agree exactly for n = 1..4 in {elapsed:.2f}s", ok)


def test_criterion_05_closed_forms_vs_bruteforce():
    ok = True
    for n in (1, 2):
        ok = ok and kappa_bruteforce(n) == kappa(n)
        ok = ok and nu_bruteforce(n) == nu(n)
    report(5, "kappa_1,2 and nu_1,2 match the brute-force induced characters", ok)


def test_criterion_06_character_table_orthonormality():
    start = time.monotonic()
    ok = True
    for n in range(1, 7):
        bps = bipartitions(n)
        chars = [w_irreducible(bp) for bp in bps]
        total = sum(degree(ch) ** 2 for ch in chars)
        ok = ok and total == group_order(n)
        for i, a in enumerate(chars):
            for j in range(i, len(chars)):
                expected = 1 if i == j else 0
                if inner_product(a, chars[j]) != expected:
                    ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    report(6, f"W_n tables orthonormal with sum dim^2 = 2^n n!, n <= 6, in {elapsed:.2f}s", ok)


def test_criterion_07_strip_sign_values():
    ok = True
    checked = 0
    for total in range(2, 11, 2):
        for rows in compositions(total):
            shape = horizontal_strip_shape(rows)
            expected = 1 if all(r % 2 == 0 for r in rows) else 0
            if tab_sign_sum(shape) != expected:
                ok = False
            if strip_sign_sum(shape) != expected:
                ok = False
            checked += 1
    report(
        7,
        f"sign sums on all {checked} horizontal strips of size <= 10, "
        f"enumerated and by the merge-rows recursion",
        ok,
    )


def test_criterion_08_self_inner_products():
    got = [inner_product(xi(n, "A").character, xi(n, "A").character) for n in (1, 2, 3)]
    ok = got == [3, 7, 16]
    report(8, f"<xi_n, xi_n> = {got} for n = 1, 2, 3", ok)


def test_criterion_09_rank6_enumeration():
    expected = {
        "0,4|3",
        "0,2,4|1,3",
        "0,2,3,4|1,2,3",
        "0,5|2",
        "2,3|2",
        "0,2,5|1,2",
        "0,6|1",
        "6|-",
    }
    got = {str(z) for z in even_strip_specials(3)}
    ok = got == expected
    report(9, "rank-6 even-strip special symbols match the 8-element list", ok)


def test_criterion_10_rank2_pipeline():
    rep = distinguished(1)
    ok = (
        {str(s) for s in rep.union} == {"2|-", "0,1|2", "0,1,2|-"}
        and rep.cuspidal_present
    )
    report(10, "distinguished(1) = {2|-, 0,1|2, 0,1,2|-} with cuspidal present", ok)


def test_criterion_11_rank6_cell(verification_report):
    z = SpecialSymbol(Symbol.parse("0,2,4|1,3"))
    cell = make_cell(z)
    terms_ok = [(s, str(Symbol(*r))) for s, r in zip(cell.signs, cell.term_rows())] == [
        (1, "0,2,4|1,3"),
        (-1, "1,2,4|0,3"),
        (-1, "0,3,4|1,2"),
        (1, "1,3,4|0,2"),
    ]
    constituents = fourier_constituents(cell)  # raises outside {0, 1}
    computed = {str(s) for s in constituents}
    overlap = len(computed & SP12_CONSTITUENTS_REFERENCE)
    marked = any(
        c.name == "rank-6 d=2 cell constituents vs reference"
        and c.status == DOCUMENTED
        for c in verification_report.checks
    )
    ok = terms_ok and len(constituents) == 4 and overlap >= 3 and marked
    report(
        11,
        f"rank-6 d=2 cell terms exact; {overlap}/4 constituents match, "
        f"mismatch documented",
        ok,
    )


def test_criterion_12_cell_pairings():
    ok = True
    for n in range(1, 5):
        char = xi(n, "A").character
        decomp = xi(n, "A").decomposition
        ok = ok and all(c in (-1, 1) for c in decomp.values())
        ok = ok and decomp.get(((2 * n,), ())) == 1
        for z in even_strip_specials(n):
            cell = make_cell(z)
            terms = {label(Symbol(*r))[1:]: s for s, r in zip(cell.signs, cell.term_rows())}
            if inner_product(char, virtual_character(2 * n, terms)) != 2**z.d:
                ok = False
    report(
        12,
        "for n <= 4: <xi_n, cell(Z)> = 2^d(Z), coefficients in {-1,0,+1}, "
        "trivial coefficient +1",
        ok,
    )

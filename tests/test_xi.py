import importlib.util
import random
from collections import Counter
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from distsym import wchar
from distsym import symbols
from distsym import xi as xi_mod
from distsym.cells import even_strip_specials, make_cell
from distsym.partitions import (
    Partition,
    SkewShape,
    horizontal_strips,
    hv_split,
    is_even_paired_shape,
    partitions,
)
from distsym.wchar import (
    Bipartition,
    ClassFunction,
    bipartitions,
    decompose,
    induction_product,
    inner_product,
    virtual_character,
)
from distsym.xi import (
    CoefficientViolation,
    RouteDisagreement,
    even_paired_pairs,
    kappa,
    kappa_nu_decomposition_check,
    kappa_terms,
    nu,
    nu_terms,
    xi,
    xi_all,
)
from test_cells import term_symbols

_spec = importlib.util.spec_from_file_location(
    "rank_scan", Path(__file__).resolve().parent.parent / "scripts" / "rank_scan.py"
)
rank_scan = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rank_scan)


def trivial_character(n: int) -> ClassFunction:
    """The all-ones class function on W_n."""
    return ClassFunction(n, (1,) * len(bipartitions(n)))

W2 = [
    Bipartition((1, 1)),
    Bipartition((2,)),
    Bipartition((1,), (1,)),
    Bipartition((), (2,)),
    Bipartition((), (1, 1)),
]


class TestKappa:
    def test_kappa1_values(self):
        k = kappa(1)
        assert [k.at(c) for c in W2] == [0, 2, 0, 2, 0]

    def test_kappa2_blocks(self):
        k = kappa(2)
        assert k.at(Bipartition((2, 2))) == 4
        assert k.at(Bipartition((2, 1, 1))) == 0
        assert k.at(Bipartition((), (2, 2))) == 4
        assert k.at(Bipartition((2,), (2,))) == 4

    def test_kappa0(self):
        assert kappa(0) == trivial_character(0)

    def test_terms(self):
        assert kappa_terms(2) == {((4,), ()): 1, ((3, 1), ()): -1, ((2, 2), ()): 1}
        assert kappa_terms(1) == {((2,), ()): 1, ((1, 1), ()): -1}

    @pytest.mark.parametrize("r", range(22))
    def test_terms_are_the_schur_expansion_of_h_r_of_p_2(self, r):
        # h_r[p_2] = sum_i (-1)^i h_i h_(2r-i), unfolded, expanded by Pieri from
        # the empty partition: route A reads this sum, and rank_scan.py reaches
        # r = 21, so kappa_terms stays certified there
        acc = Counter()
        for i in range(2 * r + 1):
            for inner in horizontal_strips((), i, 1):
                for outer in horizontal_strips(inner, 2 * r - i, 1):
                    acc[outer, ()] += (-1) ** i
        assert {key: c for key, c in acc.items() if c} == kappa_terms(r)


class TestNu:
    def test_nu1_values(self):
        n = nu(1)
        assert [n.at(c) for c in W2] == [2, 0, 0, 0, -2]

    def test_nu2_sample_blocks(self):
        n = nu(2)
        assert n.at(Bipartition((1, 1, 1, 1))) == 12  # 1^2 * 4!/2!
        assert n.at(Bipartition((), (1, 1, 1, 1))) == 12
        assert n.at(Bipartition((2, 2))) == 4  # (2)^1 * 2!/1!
        assert n.at(Bipartition((), (2, 2))) == -4
        assert n.at(Bipartition((2,), (2,))) == 0
        assert n.at(Bipartition((3, 1))) == 0

    def test_nu0(self):
        assert nu(0) == trivial_character(0)

    def test_terms(self):
        assert nu_terms(2) == {((2,), (2,)): 1, ((1, 1), (1, 1)): 1}
        assert nu_terms(1) == {((1,), (1,)): 1}

    @pytest.mark.parametrize("r", range(7))
    def test_stated_terms_evaluate_to_the_closed_forms(self, r):
        assert kappa_nu_decomposition_check(r)


class TestXi:
    def test_xi1_character(self):
        res = xi(1, "A")
        assert [res.character.at(c) for c in W2] == [2, 2, 0, 2, -2]

    def test_xi1_decomposition(self):
        assert xi(1, "A").decomposition == {((2,), ()): 1, ((1, 1), ()): -1, ((1,), (1,)): 1}

    def test_routes_agree_small(self):
        for n in (1, 2, 3):
            results = xi_all(n)
            assert results["A"].character == results["B"].character
            assert results["A"].decomposition == results["B"].decomposition
            assert results["B"].decomposition == results["C"].decomposition

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            xi(0, "A")
        with pytest.raises(ValueError):
            xi(1, "D")
        with pytest.raises(ValueError):
            xi(1, "b")
        for build in (kappa, nu, kappa_terms, nu_terms, even_paired_pairs):
            with pytest.raises(ValueError, match="must be non-negative"):
                build(-1)

    def test_self_inner_products(self):
        for n, expected in [(1, 3), (2, 7), (3, 16)]:
            char = xi(n, "A").character
            assert inner_product(char, char) == expected

    def test_coefficient_support_law(self):
        # nonzero coefficient exactly on the even-paired skew pairs, with
        # sign determined by half the doubled-column box count
        for n in (1, 2, 3):
            decomp = xi(n, "A").decomposition
            for bp in bipartitions(2 * n):
                coeff = decomp.get(bp, 0)
                if not bp.alpha.contains(bp.beta):
                    assert coeff == 0
                    continue
                shape = SkewShape(bp.alpha, bp.beta)
                if shape.max_column_boxes() > 2 or not is_even_paired_shape(shape):
                    assert coeff == 0
                    continue
                _, v = hv_split(shape)
                assert coeff == (-1) ** (sum(v) // 2), bp

    def test_trivial_coefficient_is_one(self):
        for n in range(1, 6):
            char = xi(n, "A").character
            assert inner_product(char, trivial_character(2 * n)) == 1

    def test_even_paired_pairs_match_route_a(self):
        for n in (1, 2, 3):
            decomp = xi(n, "A").decomposition
            assert dict(even_paired_pairs(n)) == decomp

    def test_route_b_order(self):
        # beta by decreasing size, in partitions order within a size, then
        # alpha in partitions (decreasing lexicographic) order; the CLI prints
        # route B's decomposition in this order
        def key(pair):
            a, b = map(Partition, pair)
            return (-sum(b), partitions(sum(b)).index(b), partitions(sum(a)).index(a))

        for n in range(1, 9):
            pairs = [pair for pair, _ in even_paired_pairs(n)]
            assert pairs == sorted(pairs, key=key), n
            assert list(xi(n, "B").decomposition) == pairs, n

    def test_xi3_has_sixteen_terms(self):
        decomp = xi(3, "B").decomposition
        assert len(decomp) == 16
        assert decomp[(6,), ()] == 1
        assert decomp[(5, 1), ()] == -1
        assert decomp[(4, 2), ()] == 1
        assert decomp[(3, 3), ()] == -1
        assert decomp[(2, 1), (2, 1)] == 1
        assert decomp[(2, 1, 1), (2,)] == -1

    def test_non_integral_coefficient_is_a_violation(self, monkeypatch):
        key = ((2,), ())
        monkeypatch.setitem(xi_mod._ROUTES, "A", lambda n: {key: Fraction(1, 2)})
        with pytest.raises(CoefficientViolation) as exc:
            xi(1, "A")
        assert exc.value.payload == {
            "n": 1, "route": "A", "irreducible": "2;-", "coefficient": "1/2"
        }


def reference_closed_form(r: int, block) -> ClassFunction:
    """The multiplicative class function on W_{2r}, computed per class,
    with one Counter per class."""
    values = []
    for c in bipartitions(2 * r):
        v = 1
        for parts, negative in zip(c, (False, True)):
            for value, mult in Counter(parts).items():
                v *= block(value, mult, negative)
        values.append(v)
    return ClassFunction(2 * r, values)


class TestRouteAClosedForm:
    @pytest.mark.parametrize("r", range(7))
    def test_closed_forms_match_the_per_class_reference(self, r):
        assert kappa(r) == reference_closed_form(r, xi_mod._kappa_block)
        assert nu(r) == reference_closed_form(r, xi_mod._nu_block)
        want = reference_closed_form(r, xi_mod._xi_block)
        assert xi_mod._closed_form(r, xi_mod._xi_block) == want

    @pytest.mark.parametrize("n", range(1, 9))
    def test_character_is_the_sum_of_induction_products(self, n):
        # certifies the block closed form against the generic induction
        products = [induction_product(kappa(r), nu(n - r)).values for r in range(n + 1)]
        want = ClassFunction(2 * n, map(sum, zip(*products)))
        assert xi_mod._closed_form(n, xi_mod._xi_block) == want
        assert xi(n, "A").character == want

    @pytest.mark.parametrize("n", range(1, 7))
    def test_builds_without_kappa_nu_or_induction(self, monkeypatch, n):
        def refuse(*args):
            raise AssertionError("route A called kappa, nu or induction_product")

        for name in ("kappa", "nu", "induction_product"):
            monkeypatch.setattr(xi_mod, name, refuse, raising=False)
        assert xi(n, "A").decomposition == dict(even_paired_pairs(n))

    def test_closed_form_is_computed_once_for_every_character(self):
        xi_mod._closed_form.cache_clear()
        for result in xi_all(5).values():
            result.character
        xi(5, "B").character
        info = xi_mod._closed_form.cache_info()
        # every read compares with the one cached closed form of xi_5
        assert (info.misses, info.hits, info.currsize) == (1, 3, 1)


class TestTableFree:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_pieri_decomposition_equals_the_table_decomposition(self, n):
        result = xi(n, "A")
        assert list(result.decomposition.items()) == list(decompose(result.character).items())

    def test_xi_all_never_builds_the_table(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"the W_{n} character table was built")

        monkeypatch.setattr(wchar, "_table", refuse)
        wchar._evaluate.cache_clear()
        for n in range(1, 6):
            results = xi_all(n)
            char = results["A"].character
            assert inner_product(char, char) == len(results["A"].decomposition)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_routes_b_and_c_decompose_without_evaluating(self, monkeypatch, n):
        def refuse(*args):
            raise AssertionError("a character was evaluated")

        for module in (wchar, xi_mod):
            monkeypatch.setattr(module, "virtual_character", refuse)
        b, c = xi(n, "B"), xi(n, "C")
        assert b.decomposition == c.decomposition
        with pytest.raises(AssertionError, match="evaluated"):
            b.character

    def test_decomposition_disagreement_names_the_irreducible(self, monkeypatch):
        real = xi_mod._ROUTES["C"]
        first = ((4,), ())

        def dropped_term(n):
            return {key: c for key, c in real(n).items() if key != first}

        monkeypatch.setitem(xi_mod._ROUTES, "C", dropped_term)
        with pytest.raises(RouteDisagreement) as exc:
            xi_all(2)
        assert exc.value.payload == {
            "n": 2, "routes": ["A", "C"], "irreducible": "4;-", "values": ["1", "0"]
        }
        assert str(exc.value) == "xi(2): routes A and C differ at irreducible 4;-: 1 != 0"

    def test_route_a_decomposition_must_evaluate_to_its_character(self, monkeypatch):
        real = xi_mod._ROUTES["A"]
        trivial = ((4,), ())
        value = xi(2, "A").character.values[0]
        monkeypatch.setitem(
            xi_mod._ROUTES, "A", lambda n: {key: c for key, c in real(n).items() if key != trivial}
        )
        # building route A does not check it; reading its character does
        result = xi(2, "A")
        with pytest.raises(RouteDisagreement) as exc:
            result.character
        # dropping the trivial character lowers the value at every class by 1
        assert exc.value.payload == {
            "n": 2,
            "routes": ["A", "A decomposition"],
            "class": str(bipartitions(4)[0]),
            "values": [str(value), str(value - 1)],
        }


class TestEveryN:
    def test_xi_all_needs_no_class_of_w2n(self, monkeypatch):
        def refuse_past_w20(real):
            def listed(n):
                if n > 20:
                    raise AssertionError(f"the classes of W_{n} were listed")
                return real(n)

            return listed

        for module, name in ((wchar, "bipartitions"), (wchar, "_class_index"),
                             (xi_mod, "bipartitions")):
            monkeypatch.setattr(module, name, refuse_past_w20(getattr(module, name)))
        formula = rank_scan.product_formula(12)
        for n in (11, 12):
            decomp = xi_all(n)["A"].decomposition
            assert decomp == dict(even_paired_pairs(n))
            assert len(decomp) == formula[n]
        with pytest.raises(AssertionError, match="W_22"):
            xi(11, "A").character

    @pytest.mark.parametrize("n", range(13))
    def test_canonical_key_gives_bipartitions_order(self, n):
        keys = list(bipartitions(n))
        shuffled = keys[:]
        random.Random(n).shuffle(shuffled)
        assert sorted(shuffled, key=lambda k: xi_mod._canonical_key(*k), reverse=True) == keys

    def test_disagreement_names_the_first_irreducible_in_bipartitions_order(self, monkeypatch):
        # route B lists 2,1;2,1 first and 6;- last of these; bipartitions order
        # puts 6;- first
        real = xi_mod._ROUTES["B"]
        dropped = {((2, 1), (2, 1)), ((5,), (1,)), ((6,), ())}

        def fewer_terms(n):
            return {key: c for key, c in real(n).items() if key not in dropped}

        monkeypatch.setitem(xi_mod._ROUTES, "B", fewer_terms)
        with pytest.raises(RouteDisagreement) as exc:
            xi_all(3)
        assert exc.value.payload == {
            "n": 3, "routes": ["A", "B"], "irreducible": "6;-", "values": ["1", "0"]
        }


class TestRawPairs:
    """Inside the pipeline an irreducible is keyed by its raw pair (alpha
    parts, beta parts): no route builds a Partition or a Bipartition, and
    decompose returns what virtual_character takes."""

    @pytest.mark.parametrize("route", ["A", "B", "C"])
    def test_routes_build_no_partition_or_bipartition(self, monkeypatch, route):
        for n in range(6):
            partitions(n)
            even_strip_specials(n)

        def refuse(name):
            def built(*args, **kwargs):
                raise AssertionError(f"{name} was called")

            return built

        # a tuple subclass is built by __new__ or by its unchecked constructor
        for cls, unchecked in ((Partition, "_of_parts"), (Bipartition, "_of_partitions")):
            for attr in ("__new__", unchecked):
                monkeypatch.setattr(cls, attr, refuse(f"{cls.__name__}.{attr}"))
        formula = rank_scan.product_formula(5)
        for n in range(1, 6):
            assert len(xi(n, route).decomposition) == formula[n]

    def test_route_c_reads_raw_parts_off_the_term_rows(self, monkeypatch):
        # the reference: each term's Symbol taken apart by to_bipartition
        for n in range(1, 9):
            expected = [
                (symbols.to_bipartition(sym), sign)
                for z in even_strip_specials(n)
                for sign, sym in term_symbols(make_cell(z))
            ]
            assert list(xi_mod._cell_terms(n)) == expected

        def refuse(*args, **kwargs):
            raise AssertionError("route C built a symbol or called to_bipartition")

        # route C builds no Symbol: its specials are cached by the reference
        # above, and it reads each term's rows, not the term's symbol
        monkeypatch.setattr(symbols.Symbol, "__new__", refuse)
        monkeypatch.setattr(symbols.Symbol, "_of_rows", refuse)
        monkeypatch.setattr(symbols, "to_bipartition", refuse)
        formula = rank_scan.product_formula(8)
        for n in range(1, 9):
            assert len(xi(n, "C").decomposition) == formula[n]

    @pytest.mark.parametrize("n", range(1, 5))
    def test_decompose_inverts_virtual_character(self, n):
        # decompose lists bipartitions(2n) order, which is route A's order
        canonical = list(xi(n, "A").decomposition.items())
        for route in ("A", "B", "C"):
            d = xi(n, route).decomposition
            back = decompose(virtual_character(2 * n, d))
            assert back == d and list(back.items()) == canonical, route


def _exp_of_quadratic(alpha, beta, top):
    """Coefficients of p**0..p**top in exp(alpha p + beta p**2)."""
    out = [Fraction(1)]
    for a in range(1, top + 1):
        out.append((alpha * out[a - 1] + 2 * beta * (out[a - 2] if a > 1 else 0)) / a)
    return out


def _mode(m, negative, linear=True, quadratic=True):
    """The linear and quadratic coefficients of the mode p_m^+ (or p_m^-)
    in log ch: p_2k^+-/(2k) from kappa, +-(p_m^+-)**2/(4m) from nu."""
    alpha = Fraction(1, m) if linear and m % 2 == 0 else Fraction(0)
    beta = Fraction(-1 if negative else 1, 4 * m) if quadratic else Fraction(0)
    return alpha, beta


def _series_exp(f, top):
    """exp of a power series f with f[0] = 0, through t**top."""
    g = [Fraction(1)] + [Fraction(0)] * top
    for n in range(1, top + 1):
        g[n] = sum(k * f[k] * g[n - k] for k in range(1, n + 1)) / n
    return g


def _series_mul(f, g, top):
    return [sum(f[i] * g[n - i] for i in range(n + 1)) for n in range(top + 1)]


def _geometric(m, top):
    """(1 - t**m)**-1 through t**top."""
    return [Fraction(1 if n % m == 0 else 0) for n in range(top + 1)]


class TestCharacteristicMap:
    """The W-side theorem of distsym.xi's docstring, checked exactly: the
    characteristic of the sum over all sizes is exp of one quadratic per
    mode p_m^+-, and the Hall norm is a product over the modes."""

    @pytest.mark.parametrize(
        "block,linear,quadratic",
        [("_kappa_block", True, False), ("_nu_block", False, True), ("_xi_block", True, True)],
    )
    def test_blocks_are_the_power_sum_coefficients(self, block, linear, quadratic):
        # xi's value on a class is z_c times its coefficient in ch, and a
        # block of mult cycles of length v contributes mult! (2v)**mult to z_c
        fn = getattr(xi_mod, block)
        for v in range(1, 9):
            for negative in (False, True):
                coeffs = _exp_of_quadratic(*_mode(v, negative, linear, quadratic), 10)
                for mult in range(11):
                    want = factorial(mult) * (2 * v) ** mult * coeffs[mult]
                    assert fn(v, mult, negative) == want, (v, mult, negative)

    def test_norm_taken_mode_by_mode_is_the_product_formula(self):
        top = 21
        total = [Fraction(1)] + [Fraction(0)] * top
        for m in range(1, 2 * top + 1):
            mode = [Fraction(1)] + [Fraction(0)] * top
            for negative in (False, True):
                # <p**a, p**a> = a! (2m)**a; t marks n and p_m has degree m in
                # W_2n, so p_m**a sits at t**(m a / 2) (a is even when m is odd)
                coeffs = _exp_of_quadratic(*_mode(m, negative), 2 * top // m)
                norm = [Fraction(0)] * (top + 1)
                for a, f in enumerate(coeffs):
                    if f:
                        norm[m * a // 2] += f * f * factorial(a) * (2 * m) ** a
                mode = _series_mul(mode, norm, top)
            if m % 2:
                assert mode == _geometric(m, top), m
            else:
                k = m // 2
                # 2 t**k / (k (1 - t**2k)) = sum over odd j of (2/k) t**(k j)
                log = [Fraction(2, k) if n % k == 0 and (n // k) % 2 else Fraction(0)
                       for n in range(top + 1)]
                assert mode == _series_mul(_geometric(m, top), _series_exp(log, top), top), m
            total = _series_mul(total, mode, top)
        assert total == rank_scan.product_formula(top)
        for n in range(1, 5):
            char = xi(n, "A").character
            assert inner_product(char, char) == total[n]

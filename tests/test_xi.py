import dataclasses
import importlib
from fractions import Fraction

import pytest

from distsym import wchar
from distsym.partitions import Partition, SkewShape, hv_split, is_even_paired_shape
from distsym.wchar import (
    Bipartition,
    ClassFunction,
    bipartitions,
    decompose,
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

# distsym.xi is the function; the module has to come from importlib
xi_mod = importlib.import_module("distsym.xi")


def trivial_character(n: int) -> ClassFunction:
    """The all-ones class function on W_n."""
    return ClassFunction(n, dict.fromkeys(bipartitions(n), 1))

W2 = [
    Bipartition.of((1, 1)),
    Bipartition.of((2,)),
    Bipartition.of((1,), (1,)),
    Bipartition.of((), (2,)),
    Bipartition.of((), (1, 1)),
]


class TestKappa:
    def test_kappa1_values(self):
        k = kappa(1)
        assert [k.at(c) for c in W2] == [0, 2, 0, 2, 0]

    def test_kappa2_blocks(self):
        k = kappa(2)
        assert k.at(Bipartition.of((2, 2))) == 4
        assert k.at(Bipartition.of((2, 1, 1))) == 0
        assert k.at(Bipartition.of((), (2, 2))) == 4
        assert k.at(Bipartition.of((2,), (2,))) == 4

    def test_kappa0(self):
        assert kappa(0) == trivial_character(0)

    def test_terms(self):
        assert kappa_terms(2) == {
            Bipartition.of((4,)): 1,
            Bipartition.of((3, 1)): -1,
            Bipartition.of((2, 2)): 1,
        }
        assert kappa_terms(1) == {
            Bipartition.of((2,)): 1,
            Bipartition.of((1, 1)): -1,
        }


class TestNu:
    def test_nu1_values(self):
        n = nu(1)
        assert [n.at(c) for c in W2] == [2, 0, 0, 0, -2]

    def test_nu2_sample_blocks(self):
        n = nu(2)
        assert n.at(Bipartition.of((1, 1, 1, 1))) == 12  # 1^2 * 4!/2!
        assert n.at(Bipartition.of((), (1, 1, 1, 1))) == 12
        assert n.at(Bipartition.of((2, 2))) == 4  # (2)^1 * 2!/1!
        assert n.at(Bipartition.of((), (2, 2))) == -4
        assert n.at(Bipartition.of((2,), (2,))) == 0
        assert n.at(Bipartition.of((3, 1))) == 0

    def test_nu0(self):
        assert nu(0) == trivial_character(0)

    def test_terms(self):
        assert nu_terms(2) == {
            Bipartition.of((2,), (2,)): 1,
            Bipartition.of((1, 1), (1, 1)): 1,
        }
        assert nu_terms(1) == {Bipartition.of((1,), (1,)): 1}

    def test_decomposition_checks(self):
        for r in range(3):
            assert kappa_nu_decomposition_check(r)

    @pytest.mark.parametrize("r", range(7))
    def test_stated_terms_evaluate_to_the_closed_forms(self, r):
        assert virtual_character(2 * r, kappa_terms(r)) == kappa(r)
        assert virtual_character(2 * r, nu_terms(r)) == nu(r)


class TestXi:
    def test_xi1_character(self):
        res = xi(1, "A")
        assert [res.character.at(c) for c in W2] == [2, 2, 0, 2, -2]

    def test_xi1_decomposition(self):
        assert xi(1, "A").decomposition == {
            Bipartition.of((2,)): 1,
            Bipartition.of((1, 1)): -1,
            Bipartition.of((1,), (1,)): 1,
        }

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
        for build in (kappa, nu, kappa_terms, nu_terms):
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

    def test_xi3_has_sixteen_terms(self):
        decomp = xi(3, "B").decomposition
        assert len(decomp) == 16
        assert decomp[Bipartition.of((6,))] == 1
        assert decomp[Bipartition.of((5, 1))] == -1
        assert decomp[Bipartition.of((4, 2))] == 1
        assert decomp[Bipartition.of((3, 3))] == -1
        assert decomp[Bipartition.of((2, 1), (2, 1))] == 1
        assert decomp[Bipartition.of((2, 1, 1), (2,))] == -1

    def test_non_integral_coefficient_is_a_violation(self, monkeypatch):
        bp = Bipartition.of((2,))
        monkeypatch.setattr(xi_mod, "_route_a_decomposition", lambda n: {bp: Fraction(1, 2)})
        with pytest.raises(CoefficientViolation) as exc:
            xi(1, "A")
        assert exc.value.payload == {
            "n": 1, "route": "A", "irreducible": "2;-", "coefficient": "1/2"
        }


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

    def test_decomposition_disagreement_names_the_irreducible(self, monkeypatch):
        real = xi_mod._ROUTES["C"]
        first = Bipartition.of((4,))

        def dropped_term(n):
            result = real(n)
            fewer = {bp: c for bp, c in result.decomposition.items() if bp != first}
            return dataclasses.replace(result, decomposition=fewer)

        monkeypatch.setitem(xi_mod._ROUTES, "C", dropped_term)
        with pytest.raises(RouteDisagreement) as exc:
            xi_all(2)
        assert exc.value.payload == {
            "n": 2, "routes": ["A", "C"], "irreducible": "4;-", "values": ["1", "0"]
        }
        assert str(exc.value) == "xi(2): routes A and C differ at irreducible 4;-: 1 != 0"

    def test_route_a_decomposition_must_evaluate_to_its_character(self, monkeypatch):
        real = xi_mod._route_a_decomposition
        trivial = Bipartition.of((4,))
        value = xi(2, "A").character.values[0]
        monkeypatch.setattr(
            xi_mod,
            "_route_a_decomposition",
            lambda n: {bp: c for bp, c in real(n).items() if bp != trivial},
        )
        with pytest.raises(RouteDisagreement) as exc:
            xi(2, "A")
        # dropping the trivial character lowers the value at every class by 1
        assert exc.value.payload == {
            "n": 2,
            "routes": ["A", "A decomposition"],
            "class": str(bipartitions(4)[0]),
            "values": [str(value), str(value - 1)],
        }

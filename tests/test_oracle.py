import pytest

from distsym import oracle
from distsym.oracle import (
    _cycle_type,
    block_subgroup_order,
    block_swap_sign,
    centralizer_subgroup_order,
    compose,
    flip_count_sign,
    in_block_subgroup,
    in_centralizer_subgroup,
    induced_character,
    iter_block_subgroup,
    iter_centralizer_subgroup,
    iter_group,
    kappa_bruteforce,
    long_involution,
    nu_bruteforce,
    sign_flip_character,
    verify_claims,
)
from distsym.wchar import (
    Bipartition,
    bipartitions,
    class_size,
    group_order,
    quadratic_character_value,
)
from distsym.xi import kappa, nu
from test_wchar import degree


class TestGroup:
    @pytest.mark.parametrize("n,order", [(1, 2), (2, 8), (3, 48), (4, 384)])
    def test_sizes(self, n, order):
        assert len(list(iter_group(n))) == order

    def test_iteration_is_deterministic(self):
        assert list(iter_group(3)) == list(iter_group(3))

    def test_compose_identity(self):
        e = tuple(range(1, 4))
        for w in iter_group(3):
            assert compose(w, e) == w == compose(e, w)

    def test_compose_priming_equivariance(self):
        # (u o v) on a primed point is the prime of (u o v) on the plain one
        u, v = (-2, 3, 1), (3, -1, -2)
        uv = compose(u, v)
        for i in range(3):
            img = v[i]
            step = u[abs(img) - 1]
            expected = step if img > 0 else -step
            assert uv[i] == expected


class TestClassOf:
    """The class of an element is its cycle type, the key of _class_index."""

    def test_identity(self):
        assert _cycle_type((1, 2)) == ((1, 1), ())

    def test_single_flip(self):
        assert _cycle_type((-1, 2)) == ((1,), (1,))

    def test_plain_transposition(self):
        assert _cycle_type((2, 1)) == ((2,), ())

    def test_negative_two_cycle(self):
        assert _cycle_type((2, -1)) == ((), (2,))

    def test_class_sizes(self):
        for n in range(1, 5):
            counts: dict = {}
            for w in iter_group(n):
                c = _cycle_type(w)
                counts[c] = counts.get(c, 0) + 1
            expected = {c: class_size(c) for c in bipartitions(n)}
            assert counts == expected

    def test_returns_the_cached_class(self):
        # Independent cycle type: orbits of w on the 2n signed points.  A
        # negative k-cycle is one orbit of size 2k holding both i and -i; a
        # positive one is a pair of k-orbits, one the negative of the other.
        for n in range(1, 5):
            for w in iter_group(n):
                alpha, beta, seen = [], [], set()
                for start in range(1, n + 1):
                    if start in seen:
                        continue
                    orbit, x = [], start
                    while x not in orbit:
                        orbit.append(x)
                        x = w[abs(x) - 1] if x > 0 else -w[abs(x) - 1]
                    seen.update(abs(x) for x in orbit)
                    if -start in orbit:
                        beta.append(len(orbit) // 2)
                    else:
                        alpha.append(len(orbit))
                expected = (tuple(sorted(alpha, reverse=True)), tuple(sorted(beta, reverse=True)))
                assert _cycle_type(w) == expected

    def test_class_of_is_conjugation_invariant(self):
        elements = list(iter_group(2))
        for w in elements:
            cw = _cycle_type(w)
            for g in elements:
                ginv = next(h for h in elements if compose(g, h) == (1, 2))
                assert _cycle_type(compose(compose(g, w), ginv)) == cw


class TestSubgroups:
    def test_orders(self):
        for n in (1, 2):
            k = sum(1 for w in iter_group(2 * n) if in_block_subgroup(w, n))
            assert k == block_subgroup_order(n)
            sigma = long_involution(2 * n)
            m = sum(1 for w in iter_group(2 * n) if in_centralizer_subgroup(w, sigma))
            assert m == centralizer_subgroup_order(n)

    def test_k1_is_whole_group(self):
        # at n = 1 the block subgroup exhausts W_2, so Ind(1) is trivial
        assert block_subgroup_order(1) == group_order(2)
        members = [(w, 1) for w in iter_group(2) if in_block_subgroup(w, 1)]
        ind = induced_character(2, members, block_subgroup_order(1))
        assert degree(ind) == 1

    def test_k2_index(self):
        members = [(w, 1) for w in iter_group(4) if in_block_subgroup(w, 2)]
        ind = induced_character(4, members, block_subgroup_order(2))
        assert degree(ind) == group_order(4) // block_subgroup_order(2) == 3

    def test_block_swap_sign_is_homomorphism(self):
        members = [w for w in iter_group(4) if in_block_subgroup(w, 2)]
        mtab = {w: block_swap_sign(w, 2) for w in members}
        for u in members[:16]:
            for v in members[:16]:
                assert mtab[compose(u, v)] == mtab[u] * mtab[v]

    def test_flip_count_sign_on_centralizer(self):
        sigma = long_involution(2)
        members = [w for w in iter_group(2) if in_centralizer_subgroup(w, sigma)]
        vals = {w: flip_count_sign(w, 1) for w in members}
        assert sorted(vals.values()) == [-1, -1, 1, 1]
        for u in members:
            for v in members:
                assert vals[compose(u, v)] == vals[u] * vals[v]


def _filtered_subgroups(n):
    sigma = long_involution(2 * n)
    k, m = [], []
    for w in iter_group(2 * n):
        if in_block_subgroup(w, n):
            k.append(w)
        if in_centralizer_subgroup(w, sigma):
            m.append(w)
    return k, m


class TestSubgroupGenerators:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_generators_match_the_filtered_subgroups(self, n):
        k, m = _filtered_subgroups(n)
        gen_k = list(iter_block_subgroup(n))
        gen_m = list(iter_centralizer_subgroup(n))
        assert len(gen_k) == len(set(gen_k)) == block_subgroup_order(n)
        assert len(gen_m) == len(set(gen_m)) == centralizer_subgroup_order(n)
        assert set(gen_k) == set(k)
        assert set(gen_m) == set(m)


def _repeats(gen):
    def bad(n):
        ws = list(gen(n))
        ws[-1] = ws[0]
        return iter(ws)

    return bad


def _non_member(gen):
    def bad(n):
        ws = list(gen(n))
        # swaps 1 and 3: it neither keeps the blocks of K_2 nor commutes
        # with the long involution of W_4
        ws[-1] = (3, 2, 1, 4)
        return iter(ws)

    return bad


def _drops(gen):
    def bad(n):
        return iter(list(gen(n))[:-1])

    return bad


# each breach with the part of the guard's message that names it
_BREACHES = {
    "repeat": (_repeats, "repeated"),
    "non-member": (_non_member, "yielded the non-member"),
    "drop": (_drops, "elements, the order is"),
}
_SUBGROUPS = {
    "K": ("iter_block_subgroup", kappa_bruteforce, "kappa_2 closed form vs induced characters"),
    "N": ("iter_centralizer_subgroup", nu_bruteforce, "nu_2 closed form vs induced character"),
}


class TestGeneratorGuard:
    @pytest.mark.parametrize("breach", sorted(_BREACHES))
    @pytest.mark.parametrize("subgroup", sorted(_SUBGROUPS))
    def test_breach_raises(self, monkeypatch, subgroup, breach):
        attr, bruteforce, _ = _SUBGROUPS[subgroup]
        make_bad, message = _BREACHES[breach]
        monkeypatch.setattr(oracle, attr, make_bad(getattr(oracle, attr)))
        with pytest.raises(ArithmeticError, match=f"{subgroup}_2 generator .*{message}"):
            bruteforce(2)

    @pytest.mark.parametrize("breach", sorted(_BREACHES))
    @pytest.mark.parametrize("subgroup", sorted(_SUBGROUPS))
    def test_breach_fails_the_claim(self, monkeypatch, subgroup, breach):
        attr, _, row = _SUBGROUPS[subgroup]
        make_bad, message = _BREACHES[breach]
        monkeypatch.setattr(oracle, attr, make_bad(getattr(oracle, attr)))
        rows = {name: (ok, detail) for name, ok, detail in verify_claims(max_n=2)}
        ok, detail = rows[row]
        assert not ok
        assert detail.startswith(f"error: {subgroup}_2 generator") and message in detail
        # the patched generator serves kappa_n (or nu_n) for every n, nothing else
        kind = row.split("_")[0]
        assert all(ok for name, (ok, _) in rows.items() if not name.startswith(kind + "_"))


def _zero_weight_breach(breach):
    """K_2 with its first element, the identity (kappa weight 0), breached."""
    def bad(n):
        ws = list(iter_block_subgroup(n))
        assert block_swap_sign(ws[0], n) == block_swap_sign(ws[1], n) == 1
        if breach == "repeat":
            ws[1] = ws[0]
        elif breach == "non-member":
            ws[0] = (1, 3, 2, 4)  # keeps w[0] in the first block, so weight 0
        else:
            del ws[0]
        return iter(ws)

    return bad


class TestZeroWeightElements:
    def test_kappa_classifies_only_the_block_swaps(self, monkeypatch):
        # kappa's weight 1 - block_swap_sign is 0 on the block-preserving
        # half of K_n; nu's flip-count sign is never 0
        calls = []
        real = oracle._cycle_type

        def counted(w):
            calls.append(w)
            return real(w)

        monkeypatch.setattr(oracle, "_cycle_type", counted)
        assert kappa_bruteforce(2) == kappa(2)
        assert len(calls) == block_subgroup_order(2) // 2
        assert all(block_swap_sign(w, 2) == -1 for w in calls)
        calls.clear()
        assert nu_bruteforce(2) == nu(2)
        assert len(calls) == centralizer_subgroup_order(2)

    @pytest.mark.parametrize("breach", sorted(_BREACHES))
    def test_guard_still_sees_zero_weight_elements(self, monkeypatch, breach):
        monkeypatch.setattr(oracle, "iter_block_subgroup", _zero_weight_breach(breach))
        _, message = _BREACHES[breach]
        with pytest.raises(ArithmeticError, match=f"K_2 generator .*{message}"):
            kappa_bruteforce(2)


class TestInducedCharacters:
    def test_nu_degree(self):
        for n in (1, 2):
            ind = nu_bruteforce(n)
            assert degree(ind) == group_order(2 * n) // centralizer_subgroup_order(n)

    def test_wrong_subgroup_order_names_the_class(self):
        # K_1 is all of W_2; at the first class, 2;-, the value is 4 * 2 / 9
        members = [(w, 1) for w in iter_block_subgroup(1)]
        with pytest.raises(ArithmeticError) as exc:
            induced_character(2, members, block_subgroup_order(1) + 1)
        assert str(exc.value) == "induced value not integral at 2;-: 8/9"

    @pytest.mark.parametrize("n", [1, 2])
    def test_kappa_matches_closed_form(self, n):
        assert kappa_bruteforce(n) == kappa(n)

    @pytest.mark.parametrize("n", [1, 2])
    def test_nu_matches_closed_form(self, n):
        assert nu_bruteforce(n) == nu(n)


class TestSignFlipCharacter:
    def test_matches_convention(self):
        for n in range(1, 5):
            chi = sign_flip_character(n)
            for c in bipartitions(n):
                assert chi.at(c) == quadratic_character_value(c)

    def test_small_values(self):
        chi = sign_flip_character(2)
        assert chi.at(Bipartition((), (1, 1))) == 1
        assert chi.at(Bipartition((), (2,))) == -1


def test_verify_claims_all_pass():
    rows = verify_claims(max_n=2)
    assert rows and all(ok for _, ok, _ in rows)


@pytest.mark.parametrize("max_n,count", [(0, 10), (1, 13), (2, 16), (3, 17)])
def test_row_names_are_unique_with_w6(max_n, count):
    rows = verify_claims(max_n=max_n, include_w6=True)
    names = [name for name, _, _ in rows]
    assert len(names) == len(set(names)) == count
    assert "kappa_3 closed form vs induced characters" in names
    assert "nu_3 closed form vs induced character" in names
    assert all(ok for _, ok, _ in rows)

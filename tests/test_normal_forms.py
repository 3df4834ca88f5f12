import pytest

from rennermonoids import (
    GeneratorName,
    NormalForm,
    OutsideMonoidError,
    PartialInjection,
)
from oracles import brute_normal_decompose, cheapest_word_costs

SMALL = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("D", 3)]
ORACLE_RANKS = [("A", 2), ("A", 3), ("B", 2), ("D", 3)]


def all_normal_forms(eng):
    """Admissible triples enumerated straight from the coset minima."""
    for e in eng.lattice.elements:
        tm = eng.lattice.type_map(e)
        for w1 in eng.weyl.coset_minima(tm.absorbing, "right"):
            for w2 in eng.weyl.coset_minima(tm.commuting, "left"):
                yield NormalForm(w1, e, w2)


def test_decompose_examples_rook_rank2(engine):
    eng = engine("A", 2)
    weyl, lat = eng.weyl, eng.lattice
    assert eng.normal_decompose(eng.identity) == NormalForm(
        weyl.identity, lat.unit, weyl.identity
    )
    e1, s1 = lat.by_token("e1"), weyl.s(1)
    x = PartialInjection.from_map(2, {2: 1})
    assert x == eng.generators[GeneratorName.e(1)] * s1
    assert eng.normal_decompose(x) == NormalForm(weyl.identity, e1, s1)
    y = PartialInjection.restriction(2, [2])
    assert eng.normal_decompose(y) == NormalForm(s1, e1, s1)


def test_decompose_rejects_outsiders(engine):
    eng = engine("B", 2)
    # 1 -> 1 fixed while 2 -> 4 breaks the signed pairing, so no unit-group
    # permutation extends this map
    x = PartialInjection.from_map(4, {1: 1, 2: 4})
    with pytest.raises(OutsideMonoidError):
        eng.normal_decompose(x)
    with pytest.raises(OutsideMonoidError):
        eng.normal_decompose(PartialInjection.restriction(4, [1, 4]))


def test_decompose_rejects_map_no_unit_extends(engine):
    eng = engine("B", 3)
    # dom {1, 2} is the domain of e2, but 1 -> 1 and 2 -> 6 would force
    # 5 -> 7 - 6 = 1 as well: no signed permutation extends the map
    x = PartialInjection.from_map(6, {1: 1, 2: 6})
    assert eng.normal_decompose(PartialInjection.restriction(6, [1, 2])).e.token == "e2"
    assert brute_normal_decompose(eng, x) is None
    with pytest.raises(OutsideMonoidError):
        eng.normal_decompose(x)


def test_even_orthogonal_engine_refuses_the_rest_of_the_symplectic_monoid(engine):
    # same degree 8; the odd signed permutations and everything they reach
    # lie in B4 only
    eng = engine("D", 4)
    inside = set(eng.elements())
    outside = [x for x in engine("B", 4).elements() if x not in inside]
    assert len(outside) == 3264
    assert sum(x.is_permutation() for x in outside) == 192
    for x in outside:
        with pytest.raises(OutsideMonoidError):
            eng.normal_decompose(x)


@pytest.mark.parametrize("family,rank", [("A", 4), ("B", 3), ("D", 4)])
def test_decompose_matches_scan_of_unit_group(engine, family, rank):
    eng = engine(family, rank)
    for x in eng.elements():
        nf = eng.normal_decompose(x)
        assert (nf.w1, nf.e, nf.w2) == brute_normal_decompose(eng, x)


@pytest.mark.parametrize("family,rank", SMALL + [("A", 4), ("B", 3)])
def test_triple_evaluation_is_a_bijection(engine, family, rank):
    eng = engine(family, rank)
    elements = set(eng.elements())
    seen = {}
    count = 0
    for nf in all_normal_forms(eng):
        count += 1
        v = eng.value(nf)
        assert v not in seen, f"collision: {seen[v]} vs {nf}"
        seen[v] = nf
        assert v in elements
    assert count == len(seen) == len(elements)
    # the decomposition algorithm lands on the same triple for every element
    for v, nf in seen.items():
        assert eng.normal_decompose(v) == nf


@pytest.mark.parametrize("family,rank", SMALL)
def test_membership_invariants_of_decomposition(engine, family, rank):
    eng = engine(family, rank)
    for x in eng.elements():
        nf = eng.normal_decompose(x)
        tm = eng.lattice.type_map(nf.e)
        assert nf.w1 in eng.weyl.coset_minima(tm.absorbing, "right")
        assert nf.w2 in eng.weyl.coset_minima(tm.commuting, "left")
        assert eng.value(nf) == x


def test_multiply_examples(engine):
    eng = engine("A", 2)
    weyl, lat = eng.weyl, eng.lattice
    unit_nf = eng.normal_decompose(eng.identity)
    a = NormalForm(weyl.identity, lat.by_token("e1"), weyl.s(1))
    assert eng.multiply(a, unit_nf) == a
    assert eng.multiply(unit_nf, a) == a
    zero_nf = NormalForm(weyl.identity, lat.zero, weyl.identity)
    assert eng.multiply(a, a) == zero_nf


@pytest.mark.parametrize("family,rank,imax", [("A", 4, 3), ("B", 3, 3)])
def test_sandwich_relation_pattern(engine, family, rank, imax):
    # e_i s_i e_i drops one diagonal rank
    eng = engine(family, rank)
    for i in range(1, imax + 1):
        e = eng.lattice.by_token(f"e{i}")
        nf = eng.normal_decompose(e.idem * eng.weyl.s(i) * e.idem)
        assert nf == NormalForm(
            eng.weyl.identity, eng.lattice.by_token(f"e{i - 1}"), eng.weyl.identity
        )
        # the absorbed form coincides with it
        assert e.idem * eng.weyl.s(i) * e.idem == eng.weyl.s(i) * eng.lattice.by_token(
            f"e{i - 1}"
        ).idem


def test_length_examples(engine):
    eng = engine("A", 2)
    weyl, lat = eng.weyl, eng.lattice
    assert eng.length(NormalForm(weyl.identity, lat.zero, weyl.identity)) == 0
    assert eng.length(NormalForm(weyl.s(1), lat.by_token("e1"), weyl.s(1))) == 2
    for w in weyl:
        assert eng.length_of_element(w) == weyl.length(w)


@pytest.mark.parametrize("family,rank", ORACLE_RANKS)
def test_length_equals_cheapest_word_cost(engine, family, rank):
    eng = engine(family, rank)
    costs = cheapest_word_costs(eng)
    assert set(costs) == set(eng.elements())
    for x, c in costs.items():
        assert eng.length_of_element(x) == c


@pytest.mark.parametrize("family,rank", ORACLE_RANKS)
def test_length_zero_iff_idempotent_in_lattice(engine, family, rank):
    eng = engine(family, rank)
    lattice_idems = {e.idem for e in eng.lattice.elements}
    for x in eng.elements():
        assert (eng.length_of_element(x) == 0) == (x in lattice_idems)


def test_meet_under_examples(engine):
    eng_b = engine("B", 2)
    lat_b, weyl_b = eng_b.lattice, eng_b.weyl
    e2 = lat_b.by_token("e2")
    assert eng_b.meet_under(e2, weyl_b.evaluate([2, 1, 2]), e2).token == "e0"
    eng_d = engine("D", 3)
    lat_d, weyl_d = eng_d.lattice, eng_d.weyl
    got = eng_d.meet_under(
        lat_d.by_token("e3"), weyl_d.evaluate([3, 1, 2]), lat_d.by_token("f3")
    )
    assert got.token == "e0"
    for e in lat_d.elements:
        for f in lat_d.elements:
            assert eng_d.meet_under(e, weyl_d.identity, f) == lat_d.meet(e, f)


def test_evaluate_rejects_unknown_generators(engine):
    eng = engine("B", 2)
    with pytest.raises(ValueError, match="unknown generator e9"):
        eng.evaluate([GeneratorName.s(1), GeneratorName.e(9)])
    with pytest.raises(ValueError, match="unknown generator e9"):
        eng.generator(GeneratorName.e(9))


def test_meet_under_rejects_non_minimal(engine):
    eng = engine("A", 3)
    e1 = eng.lattice.by_token("e1")
    with pytest.raises(ValueError, match="double-coset minimal"):
        eng.meet_under(e1, eng.weyl.s(2), e1)


@pytest.mark.parametrize("family,rank", SMALL)
def test_meet_under_contract(engine, family, rank):
    eng = engine(family, rank)
    lat = eng.lattice
    for e in lat.elements:
        for f in lat.elements:
            for w in eng.meet_under_domain(e, f):
                h = eng.meet_under(e, w, f)
                prod = e.idem * w * f.idem
                assert prod.is_idempotent()
                assert prod == h.idem
                assert h.idem * w == h.idem == w * h.idem
                assert w in eng.weyl.parabolic(lat.type_map(h).absorbing)
                assert lat.leq(h, lat.meet(e, f))


def test_left_mult_examples(engine):
    eng2 = engine("A", 2)
    unit_nf = eng2.normal_decompose(eng2.identity)
    assert eng2.left_mult_generator(1, unit_nf) == NormalForm(
        eng2.weyl.s(1), eng2.lattice.unit, eng2.weyl.identity
    )
    a = NormalForm(eng2.weyl.identity, eng2.lattice.by_token("e1"), eng2.weyl.s(1))
    assert eng2.left_mult_generator(1, a) == NormalForm(
        eng2.weyl.s(1), eng2.lattice.by_token("e1"), eng2.weyl.s(1)
    )
    eng3 = engine("A", 3)
    b = NormalForm(eng3.weyl.identity, eng3.lattice.by_token("e1"), eng3.weyl.identity)
    assert eng3.left_mult_generator(2, b) == b  # s2 is absorbed by e1


@pytest.mark.parametrize("family,rank", SMALL)
def test_left_mult_dichotomy_agrees_with_multiply(engine, family, rank):
    eng = engine(family, rank)
    for x in eng.elements():
        nf = eng.normal_decompose(x)
        absorbing = eng.lattice.type_map(nf.e).absorbing
        right_absorbing = eng.weyl.coset_minima(absorbing, "right")
        for i in eng.weyl.s_indices:
            fast = eng.left_mult_generator(i, nf)
            slow = eng.normal_decompose(eng.weyl.s(i) * x)
            assert fast == slow
            # exactly one side of the dichotomy fires
            stays = eng.weyl.s(i) * nf.w1 in right_absorbing
            absorbed = any(
                eng.weyl.s(i) * nf.w1 == nf.w1 * eng.weyl.s(t) for t in absorbing
            )
            assert stays != absorbed
            if absorbed:
                assert eng.weyl.s(i) * x == x


def test_solomon_delta_examples(engine):
    # the Solomon offset len(w1) - len(w2) of a normal form
    eng = engine("A", 2)
    weyl, lat = eng.weyl, eng.lattice
    delta = lambda nf: weyl.length(nf.w1) - weyl.length(nf.w2)
    for e in lat.elements:
        assert delta(NormalForm(weyl.identity, e, weyl.identity)) == 0
    e1 = lat.by_token("e1")
    assert delta(NormalForm(weyl.s(1), e1, weyl.s(1))) == 0
    assert delta(NormalForm(weyl.s(1), e1, weyl.identity)) == 1


@pytest.mark.parametrize("family,rank", ORACLE_RANKS)
def test_solomon_difference_identity(engine, family, rank):
    # whenever s*x != x, the two length functions move by the same amount
    eng = engine(family, rank)
    weyl = eng.weyl
    for x in eng.elements():
        nf = eng.normal_decompose(x)
        for i in weyl.s_indices:
            y = weyl.s(i) * x
            if y == x:
                continue
            nfy = eng.normal_decompose(y)
            assert nfy.e == nf.e
            delta_x = weyl.length(nf.w1) - weyl.length(nf.w2)
            delta_y = weyl.length(nfy.w1) - weyl.length(nfy.w2)
            assert eng.length_of_element(y) - eng.length_of_element(x) == delta_y - delta_x


@pytest.mark.parametrize("family,rank", ORACLE_RANKS)
def test_left_step_changes_length_by_at_most_one(engine, family, rank):
    eng = engine(family, rank)
    for x in eng.elements():
        lx = eng.length_of_element(x)
        for i in eng.weyl.s_indices:
            assert abs(eng.length_of_element(eng.weyl.s(i) * x) - lx) <= 1


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2)])
def test_length_is_subadditive(engine, family, rank):
    eng = engine(family, rank)
    els = eng.elements()
    lens = {x: eng.length_of_element(x) for x in els}
    for x in els:
        for y in els:
            assert lens[x * y] <= lens[x] + lens[y]


@pytest.mark.parametrize("family,rank", ORACLE_RANKS)
def test_idempotent_multiplication_never_raises_length(engine, family, rank):
    eng = engine(family, rank)
    for x in eng.elements():
        lx = eng.length_of_element(x)
        for e in eng.lattice.nonunit:
            assert eng.length_of_element(x * e.idem) <= lx
            assert eng.length_of_element(e.idem * x) <= lx


@pytest.mark.parametrize("family,rank", ORACLE_RANKS)
def test_length_preserved_iff_meet_replaces_idempotent(engine, family, rank):
    eng = engine(family, rank)
    lat = eng.lattice
    nonabsorbing = {
        e.token: eng.weyl.parabolic(lat.type_map(e).nonabsorbing) for e in lat.nonunit
    }
    for x in eng.elements():
        nf = eng.normal_decompose(x)
        lx = eng.length(nf)
        for e in lat.nonunit:
            nfe = eng.normal_decompose(x * e.idem)
            preserved = eng.length(nfe) == lx
            replaced = nfe == NormalForm(nf.w1, lat.meet(e, nf.e), nf.w2)
            assert preserved == replaced
            if preserved:
                assert nf.w2 in nonabsorbing[e.token]

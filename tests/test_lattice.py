import itertools

import pytest

from oracles import (
    brute_coset_minima,
    brute_up_minima,
    by_token,
    descents,
    reflection_product,
)

SMALL = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("D", 3), ("D", 4)]


def expected_type_map(family, rank, token):
    """Closed-form type maps for the three families, keyed by element token.

    Returns (absorbing, nonabsorbing) as sets of reflection indices.
    """
    k = rank - 1 if family == "A" else rank
    gens = set(range(1, k + 1))
    if token == "1":
        return set(), gens
    j = int(token[1:])
    if family == "A" or family == "B":
        return {i for i in gens if i >= j + 1}, {i for i in gens if i <= j - 1}
    if token == f"f{rank}":
        return set(), {i for i in gens if i != rank - 1}
    if j <= rank - 2:
        return {i for i in gens if i >= j + 1}, {i for i in gens if i <= j - 1}
    return set(), {i for i in gens if i <= j - 1}


def test_lattice_order_rook_is_chain(engine):
    lat = engine("A", 3).lattice
    toks = [e.token for e in lat.elements]
    assert toks == ["e0", "e1", "e2", "1"]
    for a, b in itertools.combinations(lat.elements, 2):
        assert lat.lt(a, b)  # listed order is the chain order


def test_lattice_order_symplectic_is_chain(engine):
    lat = engine("B", 2).lattice
    assert [e.token for e in lat.elements] == ["e0", "e1", "e2", "1"]
    for a, b in itertools.combinations(lat.elements, 2):
        assert lat.lt(a, b)


def test_lattice_order_even_orthogonal_has_diamond(engine):
    lat = engine("D", 3).lattice
    e2, e3, f3, unit = (by_token(lat, t) for t in ("e2", "e3", "f3", "1"))
    assert lat.lt(e2, e3) and lat.lt(e2, f3)
    assert lat.lt(e3, unit) and lat.lt(f3, unit)
    assert not lat.leq(e3, f3) and not lat.leq(f3, e3)


@pytest.mark.parametrize("family,rank", SMALL)
def test_order_is_partial_order_with_unit_top_zero_bottom(engine, family, rank):
    lat = engine(family, rank).lattice
    els = lat.elements
    for a in els:
        assert lat.leq(a, a)
        assert lat.leq(by_token(lat, "e0"), a)
        assert lat.leq(a, by_token(lat, "1"))
    for a, b in itertools.permutations(els, 2):
        if lat.leq(a, b) and lat.leq(b, a):
            assert a == b
    for a, b, c in itertools.product(els, repeat=3):
        if lat.leq(a, b) and lat.leq(b, c):
            assert lat.leq(a, c)


@pytest.mark.parametrize("family,rank", SMALL)
def test_meet_is_greatest_lower_bound(engine, family, rank):
    lat = engine(family, rank).lattice
    for a, b in itertools.product(lat.elements, repeat=2):
        m = lat.meet(a, b)
        assert m.idem == a.idem * b.idem
        assert lat.leq(m, a) and lat.leq(m, b)
        for c in lat.elements:
            if lat.leq(c, a) and lat.leq(c, b):
                assert lat.leq(c, m)


def test_meet_examples(engine):
    lat = engine("A", 4).lattice
    for i in range(4):
        for j in range(4):
            got = lat.meet(by_token(lat, f"e{i}"), by_token(lat, f"e{j}"))
            assert got.token == f"e{min(i, j)}"
    lat_d = engine("D", 3).lattice
    assert lat_d.meet(by_token(lat_d, "e3"), by_token(lat_d, "f3")).token == "e2"
    for e in lat_d.elements:
        assert lat_d.meet(e, by_token(lat_d, "1")) == e


@pytest.mark.parametrize("family,rank", SMALL)
def test_type_maps_match_closed_form_tables(engine, family, rank):
    lat = engine(family, rank).lattice
    for e in lat.elements:
        tm = lat.type_map(e)
        absorbing, nonabsorbing = expected_type_map(family, rank, e.token)
        assert tm.absorbing == absorbing, e.token
        assert tm.nonabsorbing == nonabsorbing, e.token


@pytest.mark.parametrize("family,rank", SMALL)
def test_type_map_partition_and_semantics(engine, family, rank):
    eng = engine(family, rank)
    lat, weyl = eng.lattice, eng.weyl
    for e in lat.elements:
        tm = lat.type_map(e)
        assert tm.absorbing & tm.nonabsorbing == frozenset()
        assert tm.absorbing | tm.nonabsorbing == tm.commuting
        for i in weyl.s_indices:
            s = weyl.s(i)
            commutes = s * e.idem == e.idem * s
            absorbed = commutes and s * e.idem == e.idem
            assert (i in tm.commuting) == commutes
            assert (i in tm.absorbing) == absorbed


@pytest.mark.parametrize("family,rank", SMALL)
def test_centralizer_is_direct_product(engine, family, rank):
    eng = engine(family, rank)
    lat, weyl = eng.lattice, eng.weyl
    for e in lat.elements:
        tm = lat.type_map(e)
        full = weyl.parabolic(tm.commuting)
        ab = weyl.parabolic(tm.absorbing)
        non = weyl.parabolic(tm.nonabsorbing)
        assert len(full) == len(ab) * len(non)
        assert {p * q for p in ab for q in non} == full
        for p in ab:
            for q in non:
                assert p * q == q * p


def _lattice_with_type_map(engine, monkeypatch, mutant):
    """Build the A4 lattice (reflections s1, s2, s3) with every type map
    replaced by ``mutant``."""
    import rennermonoids.lattice as lattice

    eng = engine("A", 4)
    monkeypatch.setattr(lattice, "TypeMap", lambda *sets: mutant)
    return lattice.CrossSectionLattice(eng.fam, eng.generators, eng.weyl)


def test_noncommuting_factors_are_refused(engine, monkeypatch):
    from rennermonoids import TypeMap

    # |W_{1,3}| = 4 = |W_1| * |W_2| passes the count, but s1 s2 != s2 s1.
    mutant = TypeMap(frozenset({1, 3}), frozenset({1}), frozenset({2}))
    with pytest.raises(RuntimeError, match="do not commute elementwise"):
        _lattice_with_type_map(engine, monkeypatch, mutant)


def test_oversized_centralizer_is_refused(engine, monkeypatch):
    from rennermonoids import TypeMap

    # s1 and s3 commute, but |W_{1,2,3}| = 24 > |W_1| * |W_3| = 4.
    mutant = TypeMap(frozenset({1, 2, 3}), frozenset({1}), frozenset({3}))
    with pytest.raises(RuntimeError, match="is not a direct product"):
        _lattice_with_type_map(engine, monkeypatch, mutant)


def test_parabolic_examples(engine):
    eng2 = engine("A", 2)
    tm = eng2.lattice.type_map(by_token(eng2.lattice, "e1"))
    assert eng2.weyl.parabolic(tm.commuting) == frozenset({eng2.weyl.identity})
    eng3 = engine("A", 3)
    lat3, weyl3 = eng3.lattice, eng3.weyl
    tm1 = lat3.type_map(by_token(lat3, "e1"))
    tm_unit = lat3.type_map(by_token(lat3, "1"))
    expected = frozenset({weyl3.identity, weyl3.s(2)})
    assert weyl3.parabolic(tm1.commuting) == expected
    assert weyl3.parabolic(tm1.absorbing) == expected
    assert weyl3.parabolic(tm_unit.commuting) == frozenset(weyl3)
    assert weyl3.parabolic(tm_unit.absorbing) == frozenset({weyl3.identity})


def test_coset_minima_examples(engine):
    eng = engine("A", 2)
    lat, weyl = eng.lattice, eng.weyl
    all_w = frozenset(weyl)
    one = frozenset({weyl.identity})
    unit, e1, e0 = (lat.type_map(by_token(lat, t)) for t in ("1", "e1", "e0"))
    assert frozenset(weyl.iter_coset_minima(unit.commuting, "left")) == one
    assert frozenset(weyl.iter_coset_minima(unit.absorbing, "right")) == all_w
    assert frozenset(weyl.iter_coset_minima(e1.absorbing, "right")) == all_w
    assert frozenset(weyl.iter_coset_minima(e1.commuting, "left")) == all_w
    assert frozenset(weyl.iter_coset_minima(e0.absorbing, "right")) == one
    assert frozenset(weyl.iter_coset_minima(e0.commuting, "left")) == one


@pytest.mark.parametrize("family,rank", SMALL)
def test_coset_minima_definition(engine, family, rank):
    eng = engine(family, rank)
    lat, weyl = eng.lattice, eng.weyl
    for e in lat.elements:
        tm = lat.type_map(e)
        right = frozenset(weyl.iter_coset_minima(tm.commuting, "right"))
        left = frozenset(weyl.iter_coset_minima(tm.commuting, "left"))
        right_absorbing = frozenset(weyl.iter_coset_minima(tm.absorbing, "right"))
        left_absorbing = frozenset(weyl.iter_coset_minima(tm.absorbing, "left"))
        for w in weyl:
            left_d, right_d = descents(weyl, w, "left"), descents(weyl, w, "right")
            assert (w in right) == (not (right_d & tm.commuting))
            assert (w in left) == (not (left_d & tm.commuting))
            assert (w in right_absorbing) == (not (right_d & tm.absorbing))
            assert (w in left_absorbing) == (not (left_d & tm.absorbing))
        assert right == brute_coset_minima(weyl, tm.commuting, "right")
        assert left == brute_coset_minima(weyl, tm.commuting, "left")
        assert right_absorbing == brute_coset_minima(weyl, tm.absorbing, "right")
        assert left_absorbing == brute_coset_minima(weyl, tm.absorbing, "left")


@pytest.mark.parametrize("family,rank", SMALL + [("B", 4)])
def test_reduced_join_domain_matches_up_minima_oracle(engine, family, rank):
    eng = engine(family, rank)
    up = {e.token: brute_up_minima(eng, e) for e in eng.lattice.nonunit}
    for e, f in itertools.product(eng.lattice.nonunit, repeat=2):
        want = up[e.token][0] & up[f.token][1]
        assert eng.reduced_join_domain(e, f) == want, (e.token, f.token)


def test_up_minima_rook(engine):
    eng = engine("A", 3)
    lat, weyl = eng.lattice, eng.weyl
    for i in (1, 2):
        e = by_token(lat, f"e{i}")
        both = eng.reduced_join_domain(e, e)
        assert both == frozenset({weyl.identity, weyl.s(i)})
    for i, j in itertools.permutations((0, 1, 2), 2):
        ei, ej = by_token(lat, f"e{i}"), by_token(lat, f"e{j}")
        assert eng.reduced_join_domain(ei, ej) == frozenset({weyl.identity})


@pytest.mark.parametrize("rank", [2, 3])
def test_up_minima_symplectic(engine, rank):
    # At the top proper idempotent the double-coset minima are the sign-change
    # representatives, one per count 0..rank, with triangular lengths.  Only
    # at rank 2 does that stop at s2 s1 s2.
    eng = engine("B", rank)
    lat, weyl = eng.lattice, eng.weyl
    top = by_token(lat, f"e{rank}")
    both = eng.reduced_join_domain(top, top)
    expected = {weyl.identity, weyl.s(rank), reflection_product(weyl, [rank, rank - 1, rank])}
    if rank == 3:
        expected.add(reflection_product(weyl, [3, 2, 1, 3, 2, 3]))
    assert both == frozenset(expected)
    assert sorted(weyl.length(w) for w in both) == [
        k * (k + 1) // 2 for k in range(rank + 1)
    ]
    for i in range(1, rank):
        e = by_token(lat, f"e{i}")
        assert eng.reduced_join_domain(e, e) == frozenset({weyl.identity, weyl.s(i)})


def test_up_minima_even_orthogonal(engine):
    eng = engine("D", 3)
    lat, weyl = eng.lattice, eng.weyl
    e1, e2, e3, f3 = (by_token(lat, t) for t in ("e1", "e2", "e3", "f3"))
    inter = eng.reduced_join_domain
    assert inter(e1, e1) == frozenset({weyl.identity, weyl.s(1)})
    assert inter(e2, e2) == frozenset({weyl.identity})
    assert inter(e3, e3) == frozenset({weyl.identity, weyl.s(3)})
    assert inter(f3, f3) == frozenset({weyl.identity, weyl.s(2)})
    assert inter(e3, f3) == frozenset({weyl.identity, reflection_product(weyl, [3, 1, 2])})
    assert inter(f3, e3) == frozenset({weyl.identity, reflection_product(weyl, [2, 1, 3])})


@pytest.mark.parametrize("family,rank", SMALL)
def test_up_intersection_trivial_for_comparable_distinct(engine, family, rank):
    eng = engine(family, rank)
    lat, weyl = eng.lattice, eng.weyl
    for e, f in itertools.permutations(lat.nonunit, 2):
        if lat.lt(e, f) or lat.lt(f, e):
            got = eng.reduced_join_domain(e, f)
            assert got == frozenset({weyl.identity}), (e.token, f.token)


@pytest.mark.parametrize("family,rank", SMALL)
def test_subgroup_membership_of_low_coset_minima(engine, family, rank):
    # for h <= e, any centralizer element of h that is left- or right-reduced
    # for e must already lie in the absorbing subgroup of h
    eng = engine(family, rank)
    lat, weyl = eng.lattice, eng.weyl
    for h in lat.elements:
        wh = weyl.parabolic(lat.type_map(h).commuting)
        absorbing = weyl.parabolic(lat.type_map(h).absorbing)
        for e in lat.elements:
            if not lat.leq(h, e):
                continue
            com = lat.type_map(e).commuting
            assert wh & frozenset(weyl.iter_coset_minima(com, "left")) <= absorbing
            assert wh & frozenset(weyl.iter_coset_minima(com, "right")) <= absorbing


@pytest.mark.parametrize("family,rank", SMALL)
def test_nonabsorbing_sets_grow_up_the_lattice(engine, family, rank):
    lat = engine(family, rank).lattice
    for h in lat.elements:
        for e in lat.elements:
            if lat.leq(h, e):
                assert lat.type_map(h).nonabsorbing <= lat.type_map(e).nonabsorbing


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2), ("D", 3)])
def test_lattice_is_a_transversal_of_idempotent_orbits(
    engine, elements, family, rank
):
    eng = engine(family, rank)
    lat, weyl = eng.lattice, eng.weyl
    orbit = {
        e.token: {u * e.idem * u.inverse() for u in weyl} for e in lat.elements
    }
    for a, b in itertools.combinations(lat.elements, 2):
        assert not (orbit[a.token] & orbit[b.token])
    idempotents = {x for x in elements(family, rank) if x * x == x}
    covered = set().union(*orbit.values())
    assert idempotents == covered
    for x in idempotents:
        assert sum(x in orb for orb in orbit.values()) == 1

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from rennermonoids import (
    EnumerationCapExceeded,
    GeneratorName,
    MonoidFamily,
    PartialInjection,
    build_generators,
    enumerate_monoid,
)
from oracles import rook_monoid_size

S, E, F = GeneratorName.s, GeneratorName.e, GeneratorName.f


@pytest.mark.parametrize("family,low", [("A", 1), ("B", 2), ("D", 3)])
def test_weyl_order_past_stops_above_the_limit(family, low):
    for rank in range(low, 11):
        order = MonoidFamily(family, rank).weyl_order
        for limit in (1, 7, 719, 720, 350_000, order):
            got = MonoidFamily(family, rank).weyl_order_past(limit)
            if order <= limit:
                assert got == order
            else:
                assert limit < got <= order


def test_family_validation():
    assert MonoidFamily("A", 1).degree == 1
    assert MonoidFamily("B", 2).degree == 4
    assert MonoidFamily("D", 3).degree == 6
    with pytest.raises(ValueError):
        MonoidFamily("A", 0)
    with pytest.raises(ValueError):
        MonoidFamily("B", 1)
    with pytest.raises(ValueError):
        MonoidFamily("D", 2)
    with pytest.raises(ValueError):
        MonoidFamily("C", 3)


def test_partial_injection_validation():
    with pytest.raises(ValueError):
        PartialInjection((1, 1))
    with pytest.raises(ValueError):
        PartialInjection((3, None))
    with pytest.raises(ValueError):
        PartialInjection.identity(2) * PartialInjection.identity(3)


@pytest.mark.parametrize(
    "image",
    [(2, None, 2), (None, 1, 1), (0, 1), (1, -1), (4, 1, 2), (1, 2, 3, 9)],
)
def test_public_construction_still_validates(image):
    with pytest.raises(ValueError, match="repeated|out of range"):
        PartialInjection(image)
    with pytest.raises(ValueError):
        PartialInjection.from_map(len(image), dict(enumerate(image, start=1)))


@st.composite
def rook_maps(draw, degree):
    """A random injective partial map of the given degree."""
    targets = draw(st.permutations(range(1, degree + 1)))
    defined = draw(st.lists(st.booleans(), min_size=degree, max_size=degree))
    return tuple(t if d else None for t, d in zip(targets, defined))


@st.composite
def rook_pairs(draw):
    n = draw(st.integers(1, 8))
    return draw(rook_maps(n)), draw(rook_maps(n))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(rook_pairs())
def test_unchecked_products_equal_checked_construction(pair):
    a, b = map(PartialInjection, pair)
    n = a.degree
    product = a * b
    checked = PartialInjection(
        tuple(None if b(j) is None else a(b(j)) for j in range(1, n + 1))
    )
    assert product == checked and hash(product) == hash(checked)
    inverse = a.inverse()
    back = {v: j for j, v in enumerate(a.image, start=1) if v is not None}
    checked = PartialInjection(tuple(back.get(j) for j in range(1, n + 1)))
    assert inverse == checked and hash(inverse) == hash(checked)


def test_generators_rook_rank3():
    gens = build_generators(MonoidFamily("A", 3))
    assert gens[S(1)] == PartialInjection.transpositions(3, (1, 2))
    assert gens[S(2)] == PartialInjection.transpositions(3, (2, 3))
    assert gens[E(0)] == PartialInjection.empty(3)
    assert gens[E(1)] == PartialInjection.restriction(3, [1])
    assert gens[E(2)] == PartialInjection.restriction(3, [1, 2])
    # the unit e_3 is not a listed generator
    assert set(gens) == {S(1), S(2), E(0), E(1), E(2)}


def test_generators_symplectic_rank2():
    gens = build_generators(MonoidFamily("B", 2))
    assert gens[S(1)] == PartialInjection.transpositions(4, (1, 2), (3, 4))
    assert gens[S(2)] == PartialInjection.transpositions(4, (2, 3))
    assert set(gens) == {S(1), S(2), E(0), E(1), E(2)}


def test_generators_even_orthogonal_rank3():
    gens = build_generators(MonoidFamily("D", 3))
    assert gens[S(3)] == PartialInjection.transpositions(6, (2, 4), (3, 5))
    assert gens[F(3)] == PartialInjection.restriction(6, [1, 2, 4])
    assert gens[F(3)].rank == 3
    assert set(gens) == {S(1), S(2), S(3), E(0), E(1), E(2), E(3), F(3)}


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 2), ("B", 3), ("D", 3)])
def test_generator_images_are_injective(family, rank):
    for p in build_generators(MonoidFamily(family, rank)).values():
        seen = [v for v in p.image if v is not None]
        assert len(seen) == len(set(seen))


def test_compose_matches_matrix_product():
    s1 = PartialInjection.transpositions(2, (1, 2))
    e1 = PartialInjection.restriction(2, [1])
    e0 = PartialInjection.empty(2)
    assert s1 * s1 == PartialInjection.identity(2)
    assert e1 * s1 == PartialInjection.from_map(2, {2: 1})
    assert e1 * e0 == e0


def test_inverse_examples():
    assert PartialInjection.from_map(2, {2: 1}).inverse() == PartialInjection.from_map(
        2, {1: 2}
    )
    s1 = PartialInjection.transpositions(2, (1, 2))
    assert s1.inverse() == s1
    e1 = PartialInjection.restriction(2, [1])
    assert e1.inverse() == e1


def test_rank_examples():
    gens = build_generators(MonoidFamily("A", 3))
    for j in range(3):
        assert gens[E(j)].rank == j
    assert gens[S(1)].rank == 3
    gens_d = build_generators(MonoidFamily("D", 3))
    assert gens_d[F(3)].rank == 3


@pytest.mark.parametrize(
    "family,rank,size",
    [("A", 1, 2), ("A", 2, 7), ("A", 3, 34), ("A", 4, 209)],
)
def test_rook_sizes_match_counting_oracle(family, rank, size):
    fam = MonoidFamily(family, rank)
    elements = enumerate_monoid(fam)
    assert len(elements) == size == rook_monoid_size(fam.degree)


def test_enumeration_is_deterministic():
    fam = MonoidFamily("B", 2)
    assert enumerate_monoid(fam) == enumerate_monoid(fam)


def test_enumeration_cap_error_names_cap():
    with pytest.raises(EnumerationCapExceeded, match="cap=5"):
        enumerate_monoid(MonoidFamily("A", 3), cap=5)


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2)])
def test_inverse_monoid_law_exhaustive(family, rank):
    for x in enumerate_monoid(MonoidFamily(family, rank)):
        y = x.inverse()
        assert x * y * x == x
        assert y * x * y == y


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2)])
def test_associativity_exhaustive(family, rank):
    els = enumerate_monoid(MonoidFamily(family, rank))
    for x, y, z in itertools.product(els, repeat=3):
        assert (x * y) * z == x * (y * z)


@pytest.mark.parametrize("family,rank", [("B", 2), ("D", 3)])
def test_closure_is_closed_under_inverse(family, rank):
    els = set(enumerate_monoid(MonoidFamily(family, rank)))
    assert all(x.inverse() in els for x in els)

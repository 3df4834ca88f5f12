import itertools
import sys

import pytest
from hypothesis import given, settings, strategies as st

from rennermonoids import (
    EnumerationCapExceeded,
    GeneratorName,
    MonoidFamily,
    PartialInjection,
    RennerMonoid,
    build_generators,
    enumerate_monoid,
)
from rennermonoids.model import byte_table
from oracles import byte_closure, image_bytes, product_closure, rook_monoid_size, weyl_order

S, E, F = GeneratorName.s, GeneratorName.e, GeneratorName.f


@pytest.mark.parametrize("family,low", [("A", 1), ("B", 2), ("D", 3)])
def test_weyl_order_past_stops_above_the_limit(family, low):
    for rank in range(low, 11):
        order = weyl_order(family, rank)
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


@pytest.mark.parametrize("rank", [True, 3.0, "3", None])
def test_family_and_engine_refuse_a_rank_that_is_not_an_int(rank):
    message = f"^family A requires an int rank, got {rank!r}$"
    with pytest.raises(ValueError, match=message):
        MonoidFamily("A", rank)
    with pytest.raises(ValueError, match=message):
        RennerMonoid("A", rank)


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


@pytest.mark.parametrize("value", [1.0, True])
def test_image_values_must_be_ints(value):
    """A float or a bool equal to 1 is refused, not taken as the point 1."""
    with pytest.raises(ValueError, match=f"^image value {value!r} is not an int$"):
        PartialInjection((value, 2, 3, 4, 5, 6))


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


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(1, 8).flatmap(rook_maps))
def test_image_reads_back_as_constructed(image):
    """The image bytes read back as the tuple given, None where undefined,
    through `image`, calls and `domain`."""
    p = PartialInjection(image)
    assert p.image == image and p.degree == len(image)
    assert [p(j) for j in range(1, len(image) + 1)] == list(image)
    assert p.domain() == tuple(j for j, v in enumerate(image, start=1) if v is not None)


def test_generators_rook_rank3():
    gens = build_generators(MonoidFamily("A", 3))
    assert gens[S(1)] == PartialInjection.transpositions(3, (1, 2))
    assert gens[S(2)] == PartialInjection.transpositions(3, (2, 3))
    assert gens[E(0)] == PartialInjection((None,) * 3)
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
    assert len(gens[F(3)].domain()) == 3
    assert set(gens) == {S(1), S(2), S(3), E(0), E(1), E(2), E(3), F(3)}


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 2), ("B", 3), ("D", 3)])
def test_generator_images_are_injective(family, rank):
    for p in build_generators(MonoidFamily(family, rank)).values():
        seen = [v for v in p.image if v is not None]
        assert len(seen) == len(set(seen))


def test_compose_matches_matrix_product():
    s1 = PartialInjection.transpositions(2, (1, 2))
    e1 = PartialInjection.restriction(2, [1])
    e0 = PartialInjection((None,) * 2)
    assert s1 * s1 == PartialInjection.identity(2)
    assert e1 * s1 == PartialInjection((None, 1))
    assert e1 * e0 == e0


def test_inverse_examples():
    assert PartialInjection((None, 1)).inverse() == PartialInjection((2, None))
    s1 = PartialInjection.transpositions(2, (1, 2))
    assert s1.inverse() == s1
    e1 = PartialInjection.restriction(2, [1])
    assert e1.inverse() == e1


def test_rank_examples():
    gens = build_generators(MonoidFamily("A", 3))
    for j in range(3):
        assert len(gens[E(j)].domain()) == j
    assert len(gens[S(1)].domain()) == 3
    gens_d = build_generators(MonoidFamily("D", 3))
    assert len(gens_d[F(3)].domain()) == 3


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


CLOSURE_RANKS = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6)] + [
    ("B", 2), ("B", 3), ("B", 4), ("D", 3), ("D", 4)
]


def decoded(fam):
    """The elements of `enumerate_monoid`, each inverse's image bytes read
    back through the checked constructor and inverted."""
    return [
        PartialInjection(tuple(v or None for v in b)).inverse() for b in enumerate_monoid(fam)
    ]


@pytest.mark.parametrize("family,rank", CLOSURE_RANKS)
def test_enumeration_order_matches_the_product_closure(family, rank):
    fam = MonoidFamily(family, rank)
    assert list(enumerate_monoid(fam)) == [image_bytes(x.inverse()) for x in product_closure(fam)]


@pytest.mark.exhaustive
@pytest.mark.parametrize("family,rank", [("A", 7), ("B", 5), ("D", 5)])
def test_pruned_closure_matches_the_full_search(family, rank):
    fam = MonoidFamily(family, rank)
    assert list(enumerate_monoid(fam)) == byte_closure(fam)


def translate_calls(fam):
    """The `bytes.translate` calls made by one `enumerate_monoid(fam)`,
    counted on the profiler's c_call events, and the number of elements."""
    calls = [0]

    def hook(frame, event, arg):
        if event == "c_call" and getattr(arg, "__name__", None) == "translate" and (
            arg is bytes.translate or type(getattr(arg, "__self__", None)) is bytes
        ):
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        size = len(enumerate_monoid(fam))
    finally:
        sys.setprofile(previous)
    return calls[0], size


@pytest.mark.parametrize("family,rank", [("A", 6), ("B", 4), ("D", 4)])
def test_closure_tries_about_one_product_per_element(family, rank):
    """The full search tries every element times every generator: 146,597,
    125,001 and 106,250 products here, against 13,775, 14,152 and 11,004
    along tree edges."""
    calls, size = translate_calls(MonoidFamily(family, rank))
    assert size - 1 <= calls <= 1.1 * size


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 2), ("D", 3), ("B", 3)])
def test_enumeration_cap_boundary(family, rank):
    fam = MonoidFamily(family, rank)
    keys = byte_closure(fam)
    assert list(enumerate_monoid(fam, cap=len(keys))) == keys
    message = f"^enumeration cap exceeded: cap={len(keys) - 1}$"
    with pytest.raises(EnumerationCapExceeded, match=message):
        enumerate_monoid(fam, cap=len(keys) - 1)


def test_enumeration_past_31_generators_reaches_the_cap():
    """A17 has 33 generators, so its tree-edge masks outgrow a 4-byte int."""
    fam = MonoidFamily("A", 17)
    assert len(build_generators(fam)) == 33
    with pytest.raises(EnumerationCapExceeded, match="cap=2000$"):
        enumerate_monoid(fam, cap=2000)


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 3), ("B", 2), ("D", 3)])
def test_byte_tables_are_products(family, rank):
    fam = MonoidFamily(family, rank)
    gens = list(build_generators(fam).values())
    tables = [(byte_table(g), byte_table(g.inverse())) for g in gens]
    for x in product_closure(fam):
        image, inverse = image_bytes(x), image_bytes(x.inverse())
        for g, (table, inverse_table) in zip(gens, tables):
            assert inverse.translate(inverse_table) == image_bytes((x * g).inverse())
            assert image.translate(table) == image_bytes(g * x)


def test_enumeration_cap_error_names_cap():
    with pytest.raises(EnumerationCapExceeded, match="cap=5"):
        enumerate_monoid(MonoidFamily("A", 3), cap=5)


def test_degree_above_255_is_refused_before_enumerating():
    with pytest.raises(ValueError, match="degree 256"):
        enumerate_monoid(MonoidFamily("A", 256), cap=5)


@pytest.mark.parametrize(
    "build",
    [
        lambda n: PartialInjection(tuple(range(1, n + 1))),
        PartialInjection.identity,
        lambda n: PartialInjection.restriction(n, [1]),
        lambda n: PartialInjection.transpositions(n, (1, 2)),
    ],
    ids=["constructor", "identity", "restriction", "transpositions"],
)
def test_degree_limit_holds_at_construction(build):
    """A PartialInjection holds its image as bytes, so every way to build one
    refuses degree 256 and names the limit; degree 255 still builds."""
    with pytest.raises(ValueError, match="^degree 256 has no byte encoding, the limit is 255$"):
        build(256)
    p = build(255)
    assert p.degree == 255 and p(255) in (255, None) and p.inverse().inverse() == p


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2)])
def test_inverse_monoid_law_exhaustive(family, rank):
    for x in decoded(MonoidFamily(family, rank)):
        y = x.inverse()
        assert x * y * x == x
        assert y * x * y == y


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2)])
def test_associativity_exhaustive(family, rank):
    els = decoded(MonoidFamily(family, rank))
    for x, y, z in itertools.product(els, repeat=3):
        assert (x * y) * z == x * (y * z)


@pytest.mark.parametrize("family,rank", [("B", 2), ("D", 3)])
def test_closure_is_closed_under_inverse(family, rank):
    els = set(decoded(MonoidFamily(family, rank)))
    assert all(x.inverse() in els for x in els)

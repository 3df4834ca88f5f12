import tracemalloc
from pathlib import Path

import pytest

from rennermonoids import (
    GeneratorName,
    MonoidFamily,
    PartialInjection,
    Relation,
    RennerMonoid,
    build_generators,
    coxeter_pairs,
    generate_explicit,
    generate_full,
    generate_reduced,
    relation_lines,
    verify_completeness,
    verify_relations,
    word_str,
)
from oracles import by_token, coxeter_graph_exponents, relation_sort_key

GOLDEN = Path(__file__).parent / "golden"
SMALL = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("D", 3)]
# D4 is the first rank whose Coxeter type is D.
LADDER = [("A", r) for r in range(1, 6)] + [("B", r) for r in range(2, 5)]
LADDER += [("D", r) for r in range(3, 6)]
GENERATORS = {"full": generate_full, "reduced": generate_reduced, "explicit": generate_explicit}
S, E = GeneratorName.s, GeneratorName.e


def golden_lines(name):
    """The relation lines of a golden file, comments and blank lines dropped."""
    text = (GOLDEN / f"{name}.txt").read_text()
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def rewrite(eng, word):
    """The canonical word of the element ``word`` evaluates to."""
    return eng.canonical_word(eng.normal_decompose(eng.evaluate(word)))


def test_alphabet_is_reflections_plus_nonunit_idempotents(engine):
    pres = generate_full(engine("D", 3))
    assert [str(g) for g in pres.alphabet] == [
        "s1",
        "s2",
        "s3",
        "e0",
        "e1",
        "e2",
        "e3",
        "f3",
    ]


def test_full_rook_rank2_contents(engine):
    pres = generate_full(engine("A", 2))
    by_tag = {}
    for r in pres.relations:
        by_tag.setdefault(r.tag, []).append(r)
    assert len(by_tag["COX1"]) == 1
    assert "COX2" not in by_tag
    assert Relation((E(1), S(1), E(1)), (E(0),), "TYM3") in by_tag["TYM3"]


def test_full_symplectic_rank2_has_braid4(engine):
    pres = generate_full(engine("B", 2))
    lines = relation_lines(pres)
    assert "s1 s2 s1 s2 = s2 s1 s2 s1" in lines


def test_degenerate_rook_rank1(engine):
    pres = generate_full(engine("A", 1))
    assert [str(g) for g in pres.alphabet] == ["e0"]
    assert relation_lines(pres) == ["e0 e0 = e0"]


def test_reduced_rook_join_family_shape(engine):
    # joins are the pair meets at w = 1 plus one sandwich per index
    for rank in (3, 4):
        pres = generate_reduced(engine("A", rank))
        tym3 = [r for r in pres.relations if r.tag == "TYM3"]
        n = rank
        assert len(tym3) == n * n + (n - 1)
        for i in range(1, n):
            assert Relation((E(i), S(i), E(i)), (E(i - 1),), "TYM3") in tym3


def test_reduced_symplectic_has_long_sandwich(engine):
    lines = relation_lines(generate_reduced(engine("B", 2)))
    assert "e2 s2 s1 s2 e2 = e0" in lines


def test_reduced_even_orthogonal_branch_relations(engine):
    lines = relation_lines(generate_reduced(engine("D", 3)))
    for expected in (
        "e3 s3 e3 = e1",
        "f3 s2 f3 = e1",
        "e3 s3 s1 s2 f3 = e0",
        "f3 s2 s1 s3 e3 = e0",
    ):
        assert expected in lines


@pytest.mark.parametrize(
    "family,rank",
    [("A", 1), ("A", 2), ("A", 5), ("B", 2), ("B", 4), ("D", 3), ("D", 4), ("D", 5)],
)
def test_coxeter_pairs_match_the_coxeter_graph(engine, family, rank):
    assert coxeter_pairs(engine(family, rank).weyl) == coxeter_graph_exponents(family, rank)


@pytest.mark.parametrize("family,rank", SMALL)
def test_all_flavors_sound(engine, family, rank):
    eng = engine(family, rank)
    for gen in (generate_full, generate_reduced, generate_explicit):
        rep = verify_relations(eng, gen(eng))
        assert rep.ok, (family, rank, gen.__name__, rep.failures[:3])
        assert rep.checked == len(gen(eng).relations)


def test_corrupted_relation_fails_verification(engine):
    eng = engine("A", 2)
    pres = generate_full(eng)
    bad = Relation((E(1), S(1)), (E(0),), "TYM3")
    patched = pres.__class__(
        pres.family, pres.rank, pres.alphabet, pres.relations + (bad,), pres.flavor
    )
    rep = verify_relations(eng, patched)
    assert not rep.ok
    assert rep.failures == (bad,)


@pytest.mark.parametrize("family,rank", [("A", 4), ("B", 3), ("D", 4)])
def test_build_and_joins_build_no_strings(monkeypatch, family, rank):
    """Lattice queries, build tables and joins key elements by their
    idempotent's bytes: no generator name is turned into a string."""

    def refuse(self):
        raise AssertionError(f"str() of a generator name {self.kind}{self.index}")

    monkeypatch.setattr(GeneratorName, "__str__", refuse)
    eng = RennerMonoid(family, rank)
    assert generate_full(eng).relations and generate_reduced(eng).relations


@pytest.mark.parametrize("family,rank", SMALL)
def test_reduced_join_relations_subsumed_by_full(engine, family, rank):
    eng = engine(family, rank)
    full = {(r.lhs, r.rhs) for r in generate_full(eng).relations if r.tag == "TYM3"}
    reduced = {(r.lhs, r.rhs) for r in generate_reduced(eng).relations if r.tag == "TYM3"}
    assert reduced <= full
    assert len(generate_reduced(eng).relations) <= len(generate_full(eng).relations)


def test_completeness_breakdown_rook_rank2(engine):
    rep = verify_completeness(engine("A", 2))
    assert rep.ok
    assert rep.monoid_size == rep.triple_count == rep.value_count == 7
    counts = {tok: a * b for tok, a, b in rep.breakdown}
    assert counts == {"e0": 1, "e1": 4, "1": 2}


@pytest.mark.parametrize(
    "family,rank,size",
    [
        ("A", 1, 2),
        ("A", 2, 7),
        ("A", 3, 34),
        ("A", 4, 209),
        ("B", 2, 57),
        ("B", 3, 757),
        ("D", 3, 541),
    ],
)
def test_completeness_counts(engine, family, rank, size):
    rep = verify_completeness(engine(family, rank))
    assert rep.ok
    assert rep.monoid_size == size
    assert rep.collisions == 0 and rep.missing == 0


def test_completeness_counts_an_element_outside_the_triples(engine, monkeypatch):
    """B3's s3 is an odd signed permutation, so it lies outside D3 (same
    degree 6): a closure that also returns it has one element too many, and
    that element is the one missing from the triples' values."""
    import rennermonoids.monoid as monoid

    closure = monoid.enumerate_monoid
    outsider = bytes(build_generators(MonoidFamily("B", 3))[S(3)].inverse().image)
    monkeypatch.setattr(monoid, "enumerate_monoid", lambda *a: {**closure(*a), outsider: None})
    rep = verify_completeness(engine("D", 3))
    assert (rep.monoid_size, rep.triple_count, rep.value_count) == (542, 541, 541)
    assert rep.missing == 1 and not rep.ok


def test_completeness_counts_a_dropped_element(engine, monkeypatch):
    import rennermonoids.monoid as monoid

    closure = monoid.enumerate_monoid
    monkeypatch.setattr(monoid, "enumerate_monoid", lambda *a: dict.fromkeys([*closure(*a)][:-1]))
    rep = verify_completeness(engine("D", 3))
    assert (rep.monoid_size, rep.triple_count, rep.value_count) == (540, 541, 541)
    assert rep.missing == 0 and not rep.ok


def test_completeness_counts_colliding_values(engine, monkeypatch):
    """At A3, e1 has three left factors and three right ones.  If one of
    its w2^-1 is counted in another's place, the three values of that w2
    collide with the other's, and the three elements they stood for go
    missing."""
    from rennermonoids.coxeter import WeylGroup

    eng = engine("A", 3)
    e1 = by_token(eng.lattice, "e1")
    w2_inv = eng.weyl.coset_minima_images(eng.lattice.type_map(e1).commuting)
    doubled = [w2_inv[0], w2_inv[2], w2_inv[2]]
    real = WeylGroup.coset_minima_images

    def minima(self, I, side="right"):
        found = real(self, I, side)
        return doubled if found == w2_inv else found

    monkeypatch.setattr(WeylGroup, "coset_minima_images", minima)
    rep = verify_completeness(eng)
    assert (rep.monoid_size, rep.triple_count, rep.value_count) == (34, 34, 31)
    assert (rep.collisions, rep.missing) == (3, 3) and not rep.ok


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("D", 4)])
def test_completeness_makes_no_product(engine, family, rank, monkeypatch):
    """The count reads W's bytes and translates: once the engine is built,
    it needs no `PartialInjection` product."""
    eng = engine(family, rank)
    expected = verify_completeness(eng)

    def refuse(self, other):
        raise AssertionError("PartialInjection product")

    monkeypatch.setattr(PartialInjection, "__mul__", refuse)
    assert verify_completeness(eng) == expected


def traced_peak(run):
    """The peak of memory traced while ``run()`` runs, in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("family,rank", [("D", 4), ("B", 4)])
def test_completeness_holds_one_copy_of_the_monoid(engine, family, rank):
    """The count marks its values in the closure's own dict: a second set of
    the values took the peak to 1.34-1.80 times the closure's."""
    eng = engine(family, rank)
    closure = traced_peak(eng.inverse_images)
    assert traced_peak(lambda: verify_completeness(eng)) <= 1.1 * closure


@pytest.mark.exhaustive
@pytest.mark.parametrize("family,rank,size", [("B", 5, 322_021), ("D", 5, 258_661)])
def test_exhaustive_three_way_count(engine, family, rank, size):
    rep = verify_completeness(engine(family, rank))
    assert (rep.monoid_size, rep.triple_count, rep.value_count) == (size, size, size)
    assert rep.missing == 0 and rep.ok


def test_rewrite_examples(engine):
    eng = engine("A", 2)
    assert word_str(rewrite(eng, [E(1), S(1), E(1)])) == "e0"
    assert rewrite(eng, []) == ()
    assert rewrite(eng, [S(1), S(1)]) == ()


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2), ("D", 3)])
def test_rewrite_is_idempotent_and_value_preserving(engine, elements, family, rank):
    eng = engine(family, rank)
    for x in elements(family, rank):
        word = eng.canonical_word(eng.normal_decompose(x))
        assert eng.evaluate(word) == x
        assert rewrite(eng, word) == word
        s_letters = sum(1 for g in word if g.kind == "s")
        assert s_letters == eng.length_of_element(x)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 2), ("D", 3)])
def test_explicit_presentation_matches_golden_file(engine, family, rank):
    eng = engine(family, rank)
    assert relation_lines(generate_explicit(eng)) == golden_lines(f"explicit_{family}{rank}")


@pytest.mark.parametrize(
    "flavor,family,rank", [("reduced", "B", 3), ("reduced", "D", 4), ("full", "D", 4)]
)
def test_generated_presentation_matches_golden_file(engine, flavor, family, rank):
    lines = relation_lines(GENERATORS[flavor](engine(family, rank)))
    assert lines == golden_lines(f"{flavor}_{family}{rank}")


@pytest.mark.parametrize("flavor", GENERATORS)
@pytest.mark.parametrize("family,rank", LADDER)
def test_relations_are_in_the_reference_order(engine, family, rank, flavor):
    eng = engine(family, rank)
    pres = GENERATORS[flavor](eng)
    assert pres.relations == tuple(sorted(pres.relations, key=relation_sort_key(eng)))

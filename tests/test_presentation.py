from pathlib import Path

import pytest

from rennermonoids import (
    GeneratorName,
    Relation,
    coxeter_pairs,
    generate_explicit,
    generate_full,
    generate_reduced,
    relation_lines,
    rewrite_to_normal,
    verify_completeness,
    verify_relations,
    word_str,
)
from oracles import coxeter_graph_exponents

GOLDEN = Path(__file__).parent / "golden"
SMALL = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("D", 3)]
S, E = GeneratorName.s, GeneratorName.e


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


def test_rewrite_examples(engine):
    eng = engine("A", 2)
    assert word_str(rewrite_to_normal(eng, [E(1), S(1), E(1)])) == "e0"
    assert rewrite_to_normal(eng, []) == ()
    assert rewrite_to_normal(eng, [S(1), S(1)]) == ()


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2), ("D", 3)])
def test_rewrite_is_idempotent_and_value_preserving(engine, family, rank):
    eng = engine(family, rank)
    for x in eng.elements():
        word = eng.canonical_word(eng.normal_decompose(x))
        assert eng.evaluate(word) == x
        assert rewrite_to_normal(eng, word) == word
        s_letters = sum(1 for g in word if g.kind == "s")
        assert s_letters == eng.length_of_element(x)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 2), ("D", 3)])
def test_explicit_presentation_matches_golden_file(engine, family, rank):
    eng = engine(family, rank)
    lines = relation_lines(generate_explicit(eng))
    golden = [
        line
        for line in (GOLDEN / f"explicit_{family}{rank}.txt").read_text().splitlines()
        if line and not line.startswith("#")
    ]
    assert lines == golden

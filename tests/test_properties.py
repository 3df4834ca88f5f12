"""Seeded, bounded property tests on random words at ranks beyond exhaustive reach."""

import functools
import operator

import pytest
from hypothesis import given, settings, strategies as st

from rennermonoids import GeneratorName, PartialInjection
from oracles import product_multiply, value
from test_presentation import rewrite

RANKS = [("A", 6), ("B", 4), ("D", 5)]

bounded = settings(max_examples=50, derandomize=True, deadline=None)


def random_word(data, eng):
    """A unit word, at most one idempotent letter, a unit word; or a word in
    the whole alphabet, which tends to fall to low-rank idempotents."""
    s_letters = [g for g in eng.alphabet if g.kind == "s"]
    idem_letters = [g for g in eng.alphabet if g.kind != "s"]
    units = st.lists(st.sampled_from(s_letters), max_size=16)
    sandwich = st.tuples(
        units, st.lists(st.sampled_from(idem_letters), max_size=1), units
    ).map(lambda parts: [g for part in parts for g in part])
    anything = st.lists(st.sampled_from(eng.alphabet), max_size=12)
    return data.draw(st.one_of(sandwich, anything))


@pytest.mark.parametrize("family,rank", [("A", 1), *RANKS])
@bounded
@given(data=st.data())
def test_evaluate_agrees_with_the_checked_product(engine, family, rank, data):
    eng = engine(family, rank)
    if any(g.kind == "s" for g in eng.alphabet):
        word = random_word(data, eng)
    else:  # A1 has no reflection letters
        word = data.draw(st.lists(st.sampled_from(eng.alphabet), max_size=12))
    for w in (word, []):
        product = functools.reduce(operator.mul, (eng.generators[g] for g in w), eng.identity)
        checked = PartialInjection(product.image)
        got = eng.evaluate(w)
        assert got == checked and hash(got) == hash(checked)
    with pytest.raises(ValueError, match="unknown generator s99"):
        eng.evaluate([*word, GeneratorName.s(99)])


def decomposed(data, eng):
    return eng.normal_decompose(eng.evaluate(random_word(data, eng)))


@pytest.mark.parametrize("family,rank", RANKS)
@bounded
@given(data=st.data())
def test_normal_form_round_trip(engine, family, rank, data):
    eng = engine(family, rank)
    x = eng.evaluate(random_word(data, eng))
    nf = eng.normal_decompose(x)
    assert value(nf) == x
    assert eng.normal_decompose(value(nf)) == nf


@pytest.mark.parametrize("family,rank", RANKS)
@bounded
@given(data=st.data())
def test_canonical_word_evaluates_back_with_length_letters(engine, family, rank, data):
    eng = engine(family, rank)
    nf = decomposed(data, eng)
    word = eng.canonical_word(nf)
    assert eng.evaluate(word) == value(nf)
    assert sum(g.kind == "s" for g in word) == eng.length(nf)


@pytest.mark.parametrize("family,rank", RANKS)
@bounded
@given(data=st.data())
def test_left_mult_generator_agrees_with_decomposition(engine, family, rank, data):
    eng = engine(family, rank)
    nf = decomposed(data, eng)
    i = data.draw(st.sampled_from(eng.weyl.s_indices))
    expected = eng.normal_decompose(eng.weyl.s(i) * value(nf))
    assert eng.left_mult_generator(i, nf) == expected
    assert expected == eng.multiply(eng.normal_decompose(eng.generators[GeneratorName.s(i)]), nf)


@pytest.mark.parametrize("family,rank", RANKS)
@bounded
@given(data=st.data())
def test_multiply_equals_the_product_oracle(engine, family, rank, data):
    eng = engine(family, rank)
    a, b = decomposed(data, eng), decomposed(data, eng)
    assert eng.multiply(a, b) == product_multiply(eng, a, b)


@pytest.mark.parametrize("family,rank", RANKS)
@bounded
@given(data=st.data())
def test_multiply_is_associative(engine, family, rank, data):
    eng = engine(family, rank)
    a, b, c = (decomposed(data, eng) for _ in range(3))
    assert eng.multiply(eng.multiply(a, b), c) == eng.multiply(a, eng.multiply(b, c))


@pytest.mark.parametrize("family,rank", RANKS)
@bounded
@given(data=st.data())
def test_join_is_the_product_of_its_factors(engine, family, rank, data):
    eng = engine(family, rank)
    lat, weyl = eng.lattice, eng.weyl
    e, f = (data.draw(st.sampled_from(lat.nonunit)) for _ in range(2))
    w = data.draw(st.sampled_from(sorted(eng.meet_under_domain(e, f), key=lambda w: w.image)))
    assert eng.meet_under(e, w, f).idem == e.idem * w * f.idem
    for i in sorted(lat.type_map(f).commuting):
        with pytest.raises(ValueError, match="double-coset minimal"):
            eng.meet_under(e, w * weyl.s(i), f)
    for i in sorted(lat.type_map(e).commuting):
        with pytest.raises(ValueError, match="double-coset minimal"):
            eng.meet_under(e, weyl.s(i) * w, f)


@pytest.mark.parametrize("family,rank", RANKS)
@bounded
@given(data=st.data())
def test_rewrite_to_normal_is_idempotent(engine, family, rank, data):
    eng = engine(family, rank)
    canon = rewrite(eng, random_word(data, eng))
    assert rewrite(eng, canon) == canon


@pytest.mark.parametrize("family,rank", RANKS)
@bounded
@given(data=st.data())
def test_length_is_subadditive_and_idempotent_letters_never_raise_it(
    engine, family, rank, data
):
    eng = engine(family, rank)
    x, y = (eng.evaluate(random_word(data, eng)) for _ in range(2))
    lx, ly = eng.length_of_element(x), eng.length_of_element(y)
    assert eng.length_of_element(x * y) <= lx + ly
    p = eng.generators[data.draw(st.sampled_from([g for g in eng.alphabet if g.kind != "s"]))]
    assert eng.length_of_element(p * x) <= lx
    assert eng.length_of_element(x * p) <= lx

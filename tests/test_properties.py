"""Seeded, bounded property tests on random words at ranks beyond exhaustive reach."""

import pytest
from hypothesis import given, settings, strategies as st

from rennermonoids import GeneratorName

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


def decomposed(data, eng):
    return eng.normal_decompose(eng.evaluate(random_word(data, eng)))


@pytest.mark.parametrize("family,rank", RANKS)
@bounded
@given(data=st.data())
def test_normal_form_round_trip(engine, family, rank, data):
    eng = engine(family, rank)
    x = eng.evaluate(random_word(data, eng))
    nf = eng.normal_decompose(x)
    assert eng.value(nf) == x
    assert eng.normal_decompose(eng.value(nf)) == nf


@pytest.mark.parametrize("family,rank", RANKS)
@bounded
@given(data=st.data())
def test_canonical_word_evaluates_back_with_length_letters(engine, family, rank, data):
    eng = engine(family, rank)
    nf = decomposed(data, eng)
    word = eng.canonical_word(nf)
    assert eng.evaluate(word) == eng.value(nf)
    assert sum(g.kind == "s" for g in word) == eng.length(nf)


@pytest.mark.parametrize("family,rank", RANKS)
@bounded
@given(data=st.data())
def test_left_mult_generator_agrees_with_decomposition(engine, family, rank, data):
    eng = engine(family, rank)
    nf = decomposed(data, eng)
    i = data.draw(st.sampled_from(eng.weyl.s_indices))
    expected = eng.normal_decompose(eng.weyl.s(i) * eng.value(nf))
    assert eng.left_mult_generator(i, nf) == expected
    assert expected == eng.multiply(eng.normal_decompose(eng.generator(GeneratorName.s(i))), nf)


@pytest.mark.parametrize("family,rank", RANKS)
@bounded
@given(data=st.data())
def test_multiply_is_associative(engine, family, rank, data):
    eng = engine(family, rank)
    a, b, c = (decomposed(data, eng) for _ in range(3))
    assert eng.multiply(eng.multiply(a, b), c) == eng.multiply(a, eng.multiply(b, c))

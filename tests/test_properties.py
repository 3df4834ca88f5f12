"""Seeded, bounded property tests on random words at ranks beyond exhaustive reach.

The algebraic laws also run at the largest ranks the engine builds: A8, B6
and D6 in the default selection, where the normal-form factors are also
checked against the brute-force coset minima, and D7 under `exhaustive`.
"""

import functools
import operator

import pytest
from hypothesis import given, settings, strategies as st

from rennermonoids import GeneratorName, PartialInjection
from oracles import brute_min_coset, join_domains, product_multiply, value
from test_presentation import rewrite

RANKS = [("A", 6), ("B", 4), ("D", 5)]
# The largest ranks with at most 46,080 units, where the round trip also scans
# each coset for its minimum; D7 (322,560 units) is left to `exhaustive`.
LARGEST = [("A", 8), ("B", 6), ("D", 6)]
LAW_RANKS = [*RANKS, *LARGEST, pytest.param("D", 7, marks=pytest.mark.exhaustive)]
# One scan per coset, however many examples land in it.
coset_minimum = functools.lru_cache(maxsize=None)(brute_min_coset)
# One walk of the joins per engine, however many examples read it.
joins_of = functools.lru_cache(maxsize=None)(join_domains)

bounded = settings(max_examples=50, derandomize=True, deadline=None)


@pytest.mark.parametrize("family,rank", LARGEST)
@bounded
@given(data=st.data())
def test_descents_read_off_the_walk_agree_with_products(engine, family, rank, data):
    # past the tuple oracle's ranks: s_i steps back, the left mask holds i
    # exactly when s_i * w_k is earlier in the walk and shorter, and the
    # right mask of w is the left mask of w^-1
    weyl = engine(family, rank).weyl
    k = data.draw(st.integers(0, len(weyl) - 1))
    i = data.draw(st.sampled_from(weyl.s_indices))
    step, left, right = weyl._step[i], weyl._desc["left"], weyl._desc["right"]
    w = PartialInjection(tuple(weyl.images[k]))
    assert step[step[k]] == k
    assert weyl.index(weyl.s(i) * w) == step[k]
    shorter = len(weyl.reduced_word(weyl.s(i) * w)) < len(weyl.reduced_word(w))
    assert bool(left[k] >> i & 1) == (step[k] < k) == shorter
    assert right[k] == left[weyl.index(w.inverse())]


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
        product = functools.reduce(operator.mul, (eng.generators[g] for g in w), eng.weyl.identity)
        checked = PartialInjection(product.image)
        got = eng.evaluate(w)
        assert got == checked and hash(got) == hash(checked)
    with pytest.raises(ValueError, match="unknown generator s99"):
        eng.evaluate([*word, GeneratorName.s(99)])


def decomposed(data, eng):
    return eng.normal_decompose(eng.evaluate(random_word(data, eng)))


@pytest.mark.parametrize("family,rank", LAW_RANKS)
@bounded
@given(data=st.data())
def test_normal_form_round_trip(engine, family, rank, data):
    eng = engine(family, rank)
    x = eng.evaluate(random_word(data, eng))
    nf = eng.normal_decompose(x)
    assert value(nf) == x
    assert eng.normal_decompose(value(nf)) == nf
    if (family, rank) in LARGEST:
        tm = eng.lattice.type_map(nf.e)
        assert coset_minimum(eng.weyl, nf.w1, tm.absorbing, "right") == nf.w1
        assert coset_minimum(eng.weyl, nf.w2, tm.commuting, "left") == nf.w2


@pytest.mark.parametrize("family,rank", RANKS)
@bounded
@given(data=st.data())
def test_canonical_word_evaluates_back_with_length_letters(engine, family, rank, data):
    eng = engine(family, rank)
    nf = decomposed(data, eng)
    word = eng.canonical_word(nf)
    assert eng.evaluate(word) == value(nf)
    assert sum(g.kind == "s" for g in word) == eng.length(nf)


@pytest.mark.parametrize("family,rank", LAW_RANKS)
@bounded
@given(data=st.data())
def test_left_mult_generator_agrees_with_decomposition(engine, family, rank, data):
    eng = engine(family, rank)
    nf = decomposed(data, eng)
    i = data.draw(st.sampled_from(eng.weyl.s_indices))
    expected = eng.normal_decompose(eng.weyl.s(i) * value(nf))
    assert eng.left_mult_generator(i, nf) == expected
    assert expected == eng.multiply(eng.normal_decompose(eng.generators[GeneratorName.s(i)]), nf)


@pytest.mark.parametrize("family,rank", LAW_RANKS)
@bounded
@given(data=st.data())
def test_multiply_equals_the_product_oracle(engine, family, rank, data):
    eng = engine(family, rank)
    a, b = decomposed(data, eng), decomposed(data, eng)
    assert eng.multiply(a, b) == product_multiply(eng, a, b)


@pytest.mark.parametrize("family,rank", LAW_RANKS)
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
    domain = joins_of(eng)[e.token, f.token]
    w = data.draw(st.sampled_from(sorted(domain, key=lambda w: w.image)))
    assert domain[w].idem == e.idem * w * f.idem
    # w is minimal in its double coset: no reflection of either centralizer
    # shortens it
    for i in sorted(lat.type_map(f).commuting):
        assert weyl.length(w * weyl.s(i)) > weyl.length(w)
    for i in sorted(lat.type_map(e).commuting):
        assert weyl.length(weyl.s(i) * w) > weyl.length(w)


@pytest.mark.parametrize("family,rank", RANKS)
@bounded
@given(data=st.data())
def test_rewrite_to_normal_is_idempotent(engine, family, rank, data):
    eng = engine(family, rank)
    canon = rewrite(eng, random_word(data, eng))
    assert rewrite(eng, canon) == canon


@pytest.mark.parametrize("family,rank", LAW_RANKS)
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

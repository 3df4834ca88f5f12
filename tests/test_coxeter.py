from math import factorial

import pytest

from oracles import all_subsets, brute_min_coset, brute_min_double_coset

SMALL = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("D", 3)]


def test_group_sizes_and_max_length(engine):
    assert len(engine("A", 3).weyl) == 6
    assert max(engine("A", 3).weyl.length(w) for w in engine("A", 3).weyl) == 3
    assert len(engine("B", 2).weyl) == 8
    assert max(engine("B", 2).weyl.length(w) for w in engine("B", 2).weyl) == 4
    assert len(engine("A", 1).weyl) == 1


@pytest.mark.parametrize(
    "family,rank,order",
    [("A", 2, 2), ("A", 3, 6), ("A", 4, 24), ("B", 2, 8), ("B", 3, 48), ("D", 3, 24)],
)
def test_group_orders(engine, family, rank, order):
    weyl = engine(family, rank).weyl
    assert len(weyl) == order
    if family == "A":
        assert order == factorial(rank)
    elif family == "B":
        assert order == 2**rank * factorial(rank)
    else:
        assert order == 2 ** (rank - 1) * factorial(rank)


def test_length_examples(engine):
    w3 = engine("A", 3).weyl
    assert w3.length(w3.identity) == 0
    assert w3.length(w3.evaluate([1, 2, 1])) == 3
    wb = engine("B", 2).weyl
    assert wb.length(wb.evaluate([2, 1, 2])) == 3


def test_length_rejects_outsiders(engine):
    from rennermonoids import PartialInjection

    with pytest.raises(ValueError):
        engine("A", 2).weyl.length(PartialInjection.empty(2))


def test_reduced_word_examples(engine):
    weyl = engine("A", 3).weyl
    assert weyl.reduced_word(weyl.identity) == ()
    assert weyl.reduced_word(weyl.evaluate([1, 2, 1])) == (1, 2, 1)
    for i in weyl.s_indices:
        assert weyl.reduced_word(weyl.s(i)) == (i,)


@pytest.mark.parametrize("family,rank", SMALL)
def test_reduced_words_evaluate_back(engine, family, rank):
    weyl = engine(family, rank).weyl
    for w in weyl:
        word = weyl.reduced_word(w)
        assert len(word) == weyl.length(w)
        assert weyl.evaluate(word) == w


@pytest.mark.parametrize("family,rank", SMALL)
def test_length_parity_across_cayley_edges(engine, family, rank):
    weyl = engine(family, rank).weyl
    for w in weyl:
        for i in weyl.s_indices:
            assert abs(weyl.length(weyl.s(i) * w) - weyl.length(w)) == 1


def test_min_coset_rep_examples(engine):
    weyl = engine("A", 3).weyl
    w = weyl.evaluate([1, 2, 1])
    assert weyl.min_coset_rep(weyl.identity, {1, 2}, "right") == weyl.identity
    assert weyl.min_coset_rep(w, {2}, "right") == weyl.evaluate([2, 1])
    assert weyl.min_coset_rep(w, set(), "right") == w


@pytest.mark.parametrize("family,rank", SMALL + [("D", 4)])
def test_descents_from_products(engine, family, rank):
    weyl = engine(family, rank).weyl
    for w in weyl:
        lw = weyl.length(w)
        left = {i for i in weyl.s_indices if weyl.length(weyl.s(i) * w) < lw}
        right = {i for i in weyl.s_indices if weyl.length(w * weyl.s(i)) < lw}
        assert weyl.left_descents(w) == left
        assert weyl.right_descents(w) == right


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2), ("D", 4)])
def test_min_coset_rep_against_brute_force(engine, family, rank):
    weyl = engine(family, rank).weyl
    for gens in all_subsets(weyl.s_indices):
        for w in weyl:
            for side in ("left", "right"):
                rep = weyl.min_coset_rep(w, gens, side)
                assert rep == brute_min_coset(weyl, w, gens, side)
                # length additivity across the factorization w = rep * p
                p = rep.inverse() * w if side == "right" else w * rep.inverse()
                assert weyl.in_parabolic(p, gens)
                assert weyl.length(w) == weyl.length(rep) + weyl.length(p)
                if side == "right":
                    assert not (weyl.right_descents(rep) & set(gens))
                else:
                    assert not (weyl.left_descents(rep) & set(gens))


def test_double_coset_minima_examples(engine):
    weyl = engine("A", 3).weyl
    assert weyl.double_coset_minima({1}, {2}) == {weyl.identity, weyl.evaluate([2, 1])}
    assert weyl.double_coset_minima({1, 2}, {1, 2}) == {weyl.identity}
    assert weyl.double_coset_minima(set(), set()) == frozenset(weyl)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 2)])
def test_double_coset_minima_against_brute_force(engine, family, rank):
    weyl = engine(family, rank).weyl
    for J in all_subsets(weyl.s_indices):
        for I in all_subsets(weyl.s_indices):
            expected = {brute_min_double_coset(weyl, w, J, I) for w in weyl}
            assert weyl.double_coset_minima(J, I) == expected


def test_in_parabolic(engine):
    weyl = engine("A", 3).weyl
    assert weyl.in_parabolic(weyl.identity, set())
    assert not weyl.in_parabolic(weyl.s(1), {2})
    assert weyl.in_parabolic(weyl.evaluate([1, 2]), {1, 2})
    assert weyl.parabolic({2}) == frozenset({weyl.identity, weyl.s(2)})

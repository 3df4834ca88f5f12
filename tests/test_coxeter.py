import os
import subprocess
import sys
from math import factorial
from pathlib import Path

import pytest

from oracles import (
    all_subsets,
    brute_double_coset_minima,
    brute_min_coset,
    descents,
    join_domains,
    reflection_product,
    tuple_weyl_tables,
    weyl_order,
)
from rennermonoids import MonoidFamily, PartialInjection, WeylGroup, build_generators

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
    assert w3.length(reflection_product(w3, [1, 2, 1])) == 3
    wb = engine("B", 2).weyl
    assert wb.length(reflection_product(wb, [2, 1, 2])) == 3


def test_length_rejects_outsiders(engine):
    with pytest.raises(ValueError):
        engine("A", 2).weyl.length(PartialInjection((None,) * 2))


def test_reduced_word_examples(engine):
    weyl = engine("A", 3).weyl
    assert weyl.reduced_word(weyl.identity) == ()
    assert weyl.reduced_word(reflection_product(weyl, [1, 2, 1])) == (1, 2, 1)
    for i in weyl.s_indices:
        assert weyl.reduced_word(weyl.s(i)) == (i,)


@pytest.mark.parametrize("family,rank", SMALL)
def test_reduced_words_evaluate_back(engine, family, rank):
    weyl = engine(family, rank).weyl
    for w in weyl:
        word = weyl.reduced_word(w)
        assert len(word) == weyl.length(w)
        assert reflection_product(weyl, word) == w


@pytest.mark.parametrize("family,rank", SMALL)
def test_length_parity_across_cayley_edges(engine, family, rank):
    weyl = engine(family, rank).weyl
    for w in weyl:
        for i in weyl.s_indices:
            assert abs(weyl.length(weyl.s(i) * w) - weyl.length(w)) == 1


def min_coset(weyl, w, gens, side):
    """The minimum of W_I * w (side "left") or of w * W_I, the inverse of
    the minimum of W_I * w^-1."""
    if side == "left":
        return weyl.min_coset_rep(w, gens)
    return weyl.min_coset_rep(w.inverse(), gens).inverse()


def test_min_coset_rep_examples(engine):
    weyl = engine("A", 3).weyl
    w = reflection_product(weyl, [1, 2, 1])
    # right-side minima: the minimum of w * W_I is that of W_I * w^-1, inverted
    assert weyl.min_coset_rep(weyl.identity.inverse(), {1, 2}).inverse() == weyl.identity
    assert weyl.min_coset_rep(w.inverse(), {2}).inverse() == reflection_product(weyl, [2, 1])
    assert weyl.min_coset_rep(w.inverse(), set()).inverse() == w


@pytest.mark.parametrize("family,rank", SMALL + [("D", 4)])
def test_descents_from_products(engine, family, rank):
    # i is a descent of w on a side iff w is not minimal in its coset by s_i
    weyl = engine(family, rank).weyl
    for w in weyl:
        for side in ("left", "right"):
            tabled = {i for i in weyl.s_indices if min_coset(weyl, w, {i}, side) != w}
            assert tabled == descents(weyl, w, side)


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2), ("D", 4)])
def test_min_coset_rep_against_brute_force(engine, family, rank):
    weyl = engine(family, rank).weyl
    for gens in all_subsets(weyl.s_indices):
        parabolic = weyl.parabolic(gens)
        for w in weyl:
            for side in ("left", "right"):
                rep = min_coset(weyl, w, gens, side)
                assert rep == brute_min_coset(weyl, w, gens, side)
                # length additivity across the factorization w = rep * p
                p = rep.inverse() * w if side == "right" else w * rep.inverse()
                assert p in parabolic
                assert weyl.length(w) == weyl.length(rep) + weyl.length(p)
                assert not (descents(weyl, rep, side) & set(gens))


def test_double_coset_minima_examples(engine):
    # com(e1) = {2} and com(e2) = {1} at A3; every reflection commutes with e0
    eng = engine("A", 3)
    weyl, joins = eng.weyl, join_domains(eng)
    assert set(joins["e2", "e1"]) == {weyl.identity, reflection_product(weyl, [2, 1])}
    assert set(joins["e0", "e0"]) == {weyl.identity}


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 2), ("A", 4), ("B", 3), ("D", 4)])
def test_double_coset_minima_against_brute_force(engine, family, rank):
    # D4 is the first rank whose Coxeter type is D
    eng = engine(family, rank)
    weyl, lat, joins = eng.weyl, eng.lattice, join_domains(eng)
    for e in lat.nonunit:
        for f in lat.nonunit:
            J, I = lat.type_map(e).commuting, lat.type_map(f).commuting
            expected = brute_double_coset_minima(weyl, J, I)
            assert set(joins[e.token, f.token]) == expected, (e.token, f.token)


def test_in_parabolic(engine):
    weyl = engine("A", 3).weyl
    assert weyl.identity in weyl.parabolic(set())
    assert weyl.s(1) not in weyl.parabolic({2})
    assert reflection_product(weyl, [1, 2]) in weyl.parabolic({1, 2})
    assert weyl.parabolic({2}) == frozenset({weyl.identity, weyl.s(2)})


def _weyl_gens(family, rank):
    fam = MonoidFamily(family, rank)
    gens = build_generators(fam).items()
    return {g.index: p for g, p in gens if g.kind == "s"}, fam.degree, weyl_order(family, rank)


TABLE_RANKS = [("A", r) for r in range(1, 8)] + [("B", r) for r in range(2, 6)]
TABLE_RANKS += [("D", r) for r in range(3, 6)]


def _derived_right_steps(weyl):
    # w_k * s_i = (s_i * w_k^-1)^-1: the right step that WeylGroup derives
    # from its left table through inverses instead of storing it
    inv = weyl._inv
    return {i: [inv[col[inv[k]]] for k in range(len(inv))] for i, col in weyl._step.items()}


@pytest.mark.parametrize("family,rank", TABLE_RANKS)
def test_tables_match_tuple_construction(family, rank):
    gens, degree, order = _weyl_gens(family, rank)
    weyl = WeylGroup(gens, degree, order)
    ref = tuple_weyl_tables(gens, degree)
    assert tuple(weyl) == ref["elements"]
    assert weyl.images == list(map(bytes, ref["index"]))
    assert [(tuple(w), k) for w, k in weyl._index.items()] == list(ref["index"].items())
    assert weyl._length == ref["length"]
    # the letters of each reduced word: the supports the BFS would store
    assert [sum({1 << i for i in weyl.reduced_word(w)}) for w in weyl] == ref["support"]
    assert [(i, list(col)) for i, col in weyl._step.items()] == list(ref["step"]["left"].items())
    assert list(_derived_right_steps(weyl).items()) == list(ref["step"]["right"].items())
    for side in ("left", "right"):
        assert weyl._desc[side] == ref["desc"][side]


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("D", 4)])
def test_right_steps_are_products(family, rank):
    # the derived right[i][k] indexes w_k * s_i, computed here by the
    # PartialInjection product
    weyl = WeylGroup(*_weyl_gens(family, rank))
    elements = tuple(weyl)
    for i, col in _derived_right_steps(weyl).items():
        for k, w in enumerate(elements):
            assert elements[col[k]] == w * weyl.s(i)


@pytest.mark.parametrize(
    "order,message",
    [(47, "more than 47 elements"), (49, "48 elements, not 49"), (1000, "48 elements, not 1000")],
)
def test_wrong_order_is_refused(order, message):
    gens, degree, _ = _weyl_gens("B", 3)
    with pytest.raises(ValueError, match=f"^the generators make {message}$"):
        WeylGroup(gens, degree, order)


def test_generator_that_is_no_involution_is_refused():
    gens = {1: PartialInjection.transpositions(3, (1, 2)), 2: PartialInjection((2, 3, 1))}
    with pytest.raises(ValueError, match="^simple reflection 2 is not an involution$"):
        WeylGroup(gens, 3, 6)


def test_edge_inside_a_breadth_first_level_is_refused():
    # the Klein four-group's double transpositions in S4 all have length 1,
    # and (12)(34) * (13)(24) = (14)(23) joins two of them
    pairs = [((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))]
    gens = {i: PartialInjection.transpositions(4, *p) for i, p in enumerate(pairs, start=1)}
    with pytest.raises(RuntimeError, match="not a Coxeter system"):
        WeylGroup(gens, 4, 4)


def test_degree_above_byte_limit_is_refused():
    with pytest.raises(ValueError, match="255"):
        WeylGroup({1: PartialInjection.transpositions(256, (1, 2))}, 256, 2)


# D7, the largest unit group the engine builds, peaks at 166 MB (Python 3.11,
# Linux) with W and its tables on image bytes, and at 242-244 MB with a
# PartialInjection per unit.  The bound leaves 24 MB, about 14%, for other
# machines and Python builds.
D7_PEAK_MB = 190


@pytest.mark.exhaustive
def test_d7_engine_build_peak_rss():
    """Build D7's engine in a fresh interpreter and read its peak resident
    set size (`ru_maxrss`: kilobytes on Linux, bytes on macOS)."""
    code = (
        "import resource\nfrom rennermonoids import RennerMonoid\nRennerMonoid('D', 7)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    peak_mb = int(out) / (1024 * 1024 if sys.platform == "darwin" else 1024)
    assert peak_mb < D7_PEAK_MB, f"D7 engine build peaked at {peak_mb:.1f} MB"

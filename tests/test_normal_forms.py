import operator
import pickle
import random

import pytest

from rennermonoids import (
    GeneratorName,
    NormalForm,
    OutsideMonoidError,
    PartialInjection,
)
from oracles import (
    brute_normal_decompose,
    by_token,
    cheapest_word_costs,
    conjugation_table,
    image_bytes,
    join_domains,
    product_multiply,
    reflection_product,
    value,
    word_costs_01,
)
from test_coxeter import TABLE_RANKS

SMALL = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("D", 3)]
ORACLE_RANKS = [("A", 2), ("A", 3), ("B", 2), ("D", 3)]
# Past the Dijkstra ranks; D4 is the first rank whose Coxeter type is D.
LENGTH_RANKS = [("A", 5), ("B", 4), ("D", 4)]


def all_normal_forms(eng):
    """Admissible triples enumerated straight from the coset minima."""
    for e in eng.lattice.elements:
        tm = eng.lattice.type_map(e)
        for w1 in eng.weyl.iter_coset_minima(tm.absorbing, "right"):
            for w2 in eng.weyl.iter_coset_minima(tm.commuting, "left"):
                yield NormalForm(w1, e, w2)


def test_decompose_examples_rook_rank2(engine):
    eng = engine("A", 2)
    weyl, lat = eng.weyl, eng.lattice
    assert eng.normal_decompose(eng.identity) == NormalForm(
        weyl.identity, by_token(lat, "1"), weyl.identity
    )
    e1, s1 = by_token(lat, "e1"), weyl.s(1)
    x = PartialInjection((None, 1))
    assert x == eng.generators[GeneratorName.e(1)] * s1
    assert eng.normal_decompose(x) == NormalForm(weyl.identity, e1, s1)
    y = PartialInjection.restriction(2, [2])
    assert eng.normal_decompose(y) == NormalForm(s1, e1, s1)


def test_decompose_rejects_outsiders(engine):
    eng = engine("B", 2)
    # 1 -> 1 fixed while 2 -> 4 breaks the signed pairing, so no unit-group
    # permutation extends this map
    x = PartialInjection((1, 4, None, None))
    with pytest.raises(OutsideMonoidError):
        eng.normal_decompose(x)
    with pytest.raises(OutsideMonoidError):
        eng.normal_decompose(PartialInjection.restriction(4, [1, 4]))


def test_decompose_rejects_map_no_unit_extends(engine):
    eng = engine("B", 3)
    # dom {1, 2} is the domain of e2, but 1 -> 1 and 2 -> 6 would force
    # 5 -> 7 - 6 = 1 as well: no signed permutation extends the map
    x = PartialInjection((1, 6, None, None, None, None))
    assert eng.normal_decompose(PartialInjection.restriction(6, [1, 2])).e.token == "e2"
    assert brute_normal_decompose(eng, x) is None
    with pytest.raises(OutsideMonoidError):
        eng.normal_decompose(x)


def test_even_orthogonal_engine_refuses_the_rest_of_the_symplectic_monoid(
    engine, elements
):
    # same degree 8; the odd signed permutations and everything they reach
    # lie in B4 only
    eng = engine("D", 4)
    inside = set(elements("D", 4))
    outside = [x for x in elements("B", 4) if x not in inside]
    assert len(outside) == 3264
    assert sum(None not in x.image for x in outside) == 192
    for x in outside:
        with pytest.raises(OutsideMonoidError):
            eng.normal_decompose(x)


@pytest.mark.parametrize(
    "family,rank,image,message",
    [
        ("B", 2, (1, None, None, 4), "domain (1, 4) matches no conjugate of a lattice idempotent"),
        (
            "B",
            3,
            (1, 6, None, None, None, None),
            "no unit-group permutation extends PartialInjection({1: 1, 2: 6}, degree=6);"
            " element is outside the monoid",
        ),
        (
            "B",
            2,
            (2, 1, 3, 4),
            "no unit-group permutation extends PartialInjection({1: 2, 2: 1, 3: 3, 4: 4},"
            " degree=4); element is outside the monoid",
        ),
    ],
    ids=["no conjugate", "no unit extension", "unit outside W"],
)
def test_decompose_refusal_messages(engine, family, rank, image, message):
    with pytest.raises(OutsideMonoidError) as exc:
        engine(family, rank).normal_decompose(PartialInjection(image))
    assert str(exc.value) == message


def test_decompose_and_multiply_refuse_other_degrees(engine):
    eng, other = engine("A", 3), engine("A", 2)
    with pytest.raises(ValueError) as exc:
        eng.normal_decompose(other.identity)
    assert str(exc.value) == "degree mismatch: expected 3, got 2"
    mine, theirs = eng.normal_decompose(eng.identity), other.normal_decompose(other.identity)
    for a, b, message in [
        (mine, theirs, "degree mismatch: 3 != 2"),
        (theirs, mine, "degree mismatch: 2 != 3"),
        (theirs, theirs, "degree mismatch: expected 3, got 2"),
    ]:
        with pytest.raises(ValueError) as exc:
            eng.multiply(a, b)
        assert str(exc.value) == message


def with_factor_of_a2(a2, a3, factor):
    """A3's identity form with ``factor`` taken from A2's."""
    mine, theirs = a3.normal_decompose(a3.identity), a2.normal_decompose(a2.identity)
    w1, e, w2 = (getattr(theirs if f == factor else mine, f) for f in ("w1", "e", "w2"))
    return NormalForm(w1, e, w2)


@pytest.mark.parametrize("factor", ["w1", "e"])
@pytest.mark.parametrize("foreign_first", [True, False], ids=["foreign*mine", "mine*foreign"])
def test_multiply_names_a_factor_of_another_degree(engine, factor, foreign_first):
    """Whichever operand holds it: A2's w1 gives no 3-point table, and A2's e
    would send 3 to 0 unnoticed."""
    a2, a3 = engine("A", 2), engine("A", 3)
    mine, foreign = a3.normal_decompose(a3.identity), with_factor_of_a2(a2, a3, factor)
    with pytest.raises(ValueError, match="^degree mismatch: 3 != 2$"):
        a3.multiply(*((foreign, mine) if foreign_first else (mine, foreign)))


@pytest.mark.parametrize("factor", ["e", "w2"])
def test_left_mult_names_a_factor_of_another_degree(engine, factor):
    """w1 of another degree: `test_left_mult_rejects_a_normal_form_of_another_degree`."""
    a2, a3 = engine("A", 2), engine("A", 3)
    with pytest.raises(ValueError, match="^degree mismatch: 3 != 2$"):
        a3.left_mult_generator(1, with_factor_of_a2(a2, a3, factor))


@pytest.mark.parametrize("factor", ["w1", "e", "w2"])
@pytest.mark.parametrize("method", ["length", "canonical_word"])
def test_length_and_word_name_a_factor_of_another_degree(engine, factor, method):
    """A2's e would give length 0 and the empty word, and A2's w1 or w2 only
    `not an element of the unit group`."""
    a2, a3 = engine("A", 2), engine("A", 3)
    with pytest.raises(ValueError, match="^degree mismatch: 3 != 2$"):
        getattr(a3, method)(with_factor_of_a2(a2, a3, factor))


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 2), ("D", 3)])
def test_forms_built_from_partial_injections_work_like_the_engines(engine, elements, family, rank):
    """The engine's forms read w1 and w2 as PartialInjections of its unit
    group; a caller's NormalForm of those equals the engine's form and gives
    the same answers."""
    eng = engine(family, rank)
    units = set(eng.weyl)
    xs = elements(family, rank)[::7]
    nfs = [eng.normal_decompose(x) for x in xs]
    rebuilt = [NormalForm(nf.w1, nf.e, nf.w2) for nf in nfs]
    for x, nf, built in zip(xs, nfs, rebuilt):
        assert type(nf.w1) is PartialInjection and nf.w1 in units and nf.w2 in units
        assert nf.w1 * nf.e.idem * nf.w2 == x
        assert built == nf and hash(built) == hash(nf) and repr(built) == repr(nf)
        assert eng.length(built) == eng.length(nf)
        assert eng.canonical_word(built) == eng.canonical_word(nf)
        assert eng.multiply(built, rebuilt[0]) == eng.multiply(nf, nfs[0])
        for i in eng.weyl.s_indices:
            assert eng.left_mult_generator(i, built) == eng.left_mult_generator(i, nf)


@pytest.mark.parametrize("method", ["length", "canonical_word"])
def test_length_and_word_name_a_factor_outside_the_unit_group(engine, method):
    """B2's W holds no transposition of 1 and 2 alone."""
    b2 = engine("B", 2)
    nf = b2.normal_decompose(b2.identity)
    outsider = PartialInjection((2, 1, 3, 4))
    message = r"^not an element of the unit group: PartialInjection\(\{1: 2, 2: 1, 3: 3, 4: 4\}"
    for built in (NormalForm(outsider, nf.e, nf.w2), NormalForm(nf.w1, nf.e, outsider)):
        with pytest.raises(ValueError, match=message):
            getattr(b2, method)(built)


def corrupt_left_factor(eng, x):
    """Point the stored left-factor entry that x looks up at the identity, so
    that the triple found for x (whose w1 is not the identity) no longer
    evaluates to it."""
    table = eng._conjugation[bytes([1 if v else 0 for v in x.image])][3]
    table[bytes(filter(None, x.image))] = eng.weyl.images[0]


def test_decompose_and_multiply_refuse_a_corrupted_table():
    from rennermonoids import RennerMonoid

    eng = RennerMonoid("A", 2)  # not the suite's shared engine: it gets corrupted
    x = eng.evaluate([GeneratorName.s(1), GeneratorName.e(1)])
    nf, unit_nf = eng.normal_decompose(x), eng.normal_decompose(eng.identity)
    e1_nf = eng.normal_decompose(eng.evaluate([GeneratorName.e(1)]))
    corrupt_left_factor(eng, x)
    message = "^normal decomposition does not reproduce its input$"
    with pytest.raises(RuntimeError, match=message):
        eng.normal_decompose(x)
    with pytest.raises(RuntimeError, match=message):
        eng.multiply(unit_nf, nf)
    with pytest.raises(RuntimeError, match=message):
        eng.left_mult_generator(1, e1_nf)  # s1 * e1 is x


@pytest.mark.parametrize(
    "family,rank",
    [*TABLE_RANKS, *[pytest.param("D", r, marks=pytest.mark.exhaustive) for r in (6, 7)]],
)
def test_conjugation_table_matches_the_product_walk(engine, family, rank):
    # keys in the order walked, each entry's e, w2 and e * w2, and the
    # left-factor table its lattice element's orbit shares
    eng = engine(family, rank)
    got, ref = eng._conjugation, conjugation_table(eng)
    assert [(key, e, w2._b, ew2) for key, (e, w2, ew2, _) in got.items()] == [
        (key, *entry[:3]) for key, entry in ref.items()
    ]
    left = {e.idem._b: table for e, _, _, table in got.values()}
    assert all(table is left[e.idem._b] for e, _, _, table in got.values())
    ref_left = {e.idem._b: table for e, _, _, table in ref.values()}
    assert {k: t and list(t.items()) for k, t in left.items()} == {
        k: t and list(t.items()) for k, t in ref_left.items()
    }


@pytest.mark.parametrize("family,rank", [("A", 4), ("B", 3), ("D", 4)])
def test_decompose_matches_scan_of_unit_group(engine, elements, family, rank):
    eng = engine(family, rank)
    for x in elements(family, rank):
        nf = eng.normal_decompose(x)
        assert (nf.w1, nf.e, nf.w2) == brute_normal_decompose(eng, x)


@pytest.mark.parametrize("family,rank", SMALL + [("A", 4), ("B", 3)])
def test_triple_evaluation_is_a_bijection(engine, elements, family, rank):
    eng = engine(family, rank)
    members = set(elements(family, rank))
    seen = {}
    count = 0
    for nf in all_normal_forms(eng):
        count += 1
        v = value(nf)
        assert v not in seen, f"collision: {seen[v]} vs {nf}"
        seen[v] = nf
        assert v in members
    assert count == len(seen) == len(members)
    # the decomposition algorithm lands on the same triple for every element
    for v, nf in seen.items():
        assert eng.normal_decompose(v) == nf


@pytest.mark.parametrize("family,rank", SMALL)
def test_membership_invariants_of_decomposition(engine, elements, family, rank):
    eng = engine(family, rank)
    for x in elements(family, rank):
        nf = eng.normal_decompose(x)
        tm = eng.lattice.type_map(nf.e)
        assert nf.w1 in frozenset(eng.weyl.iter_coset_minima(tm.absorbing, "right"))
        assert nf.w2 in frozenset(eng.weyl.iter_coset_minima(tm.commuting, "left"))
        assert value(nf) == x


def test_multiply_examples(engine):
    eng = engine("A", 2)
    weyl, lat = eng.weyl, eng.lattice
    unit_nf = eng.normal_decompose(eng.identity)
    a = NormalForm(weyl.identity, by_token(lat, "e1"), weyl.s(1))
    assert eng.multiply(a, unit_nf) == a
    assert eng.multiply(unit_nf, a) == a
    zero_nf = NormalForm(weyl.identity, by_token(lat, "e0"), weyl.identity)
    assert eng.multiply(a, a) == zero_nf


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 2)])
def test_multiply_equals_the_product_oracle_on_every_pair(engine, elements, family, rank):
    eng = engine(family, rank)
    nfs = [eng.normal_decompose(x) for x in elements(family, rank)]
    for a in nfs:
        for b in nfs:
            assert eng.multiply(a, b) == product_multiply(eng, a, b)


def test_multiply_takes_normal_forms_of_another_engine_of_its_degree(engine, elements):
    # D3's f3 is no lattice idempotent of B3, whose engine has no table for it
    b3, d3 = engine("B", 3), engine("D", 3)
    nfs = [d3.normal_decompose(x) for x in elements("D", 3)[::7]]
    assert any(nf.e.token == "f3" for nf in nfs)
    for a in nfs:
        for b in nfs:
            assert b3.multiply(a, b) == product_multiply(b3, a, b)


@pytest.mark.exhaustive
@pytest.mark.parametrize("family,rank", [("B", 5), ("D", 5)])
def test_exhaustive_round_trip_and_sampled_products(engine, family, rank):
    eng = engine(family, rank)
    nfs = []
    for x in eng.elements():  # not the suite's memo: 0.3 million elements each
        nf = eng.normal_decompose(x)
        assert value(nf) == x
        nfs.append(nf)
    rng = random.Random(f"{family}{rank}")
    for _ in range(20_000):
        a, b = rng.choice(nfs), rng.choice(nfs)
        assert eng.multiply(a, b) == product_multiply(eng, a, b)
    for _ in range(20_000):
        nf = rng.choice(nfs)
        for i in eng.weyl.s_indices:
            expected = eng.normal_decompose(eng.weyl.s(i) * value(nf))
            assert eng.left_mult_generator(i, nf) == expected


@pytest.mark.parametrize("family,rank,imax", [("A", 4, 3), ("B", 3, 3)])
def test_sandwich_relation_pattern(engine, family, rank, imax):
    # e_i s_i e_i drops one diagonal rank
    eng = engine(family, rank)
    for i in range(1, imax + 1):
        e = by_token(eng.lattice, f"e{i}")
        nf = eng.normal_decompose(e.idem * eng.weyl.s(i) * e.idem)
        assert nf == NormalForm(
            eng.weyl.identity, by_token(eng.lattice, f"e{i - 1}"), eng.weyl.identity
        )
        # the absorbed form coincides with it
        below = by_token(eng.lattice, f"e{i - 1}")
        assert e.idem * eng.weyl.s(i) * e.idem == eng.weyl.s(i) * below.idem


def test_length_examples(engine):
    eng = engine("A", 2)
    weyl, lat = eng.weyl, eng.lattice
    assert eng.length(NormalForm(weyl.identity, by_token(lat, "e0"), weyl.identity)) == 0
    assert eng.length(NormalForm(weyl.s(1), by_token(lat, "e1"), weyl.s(1))) == 2
    for w in weyl:
        assert eng.length_of_element(w) == weyl.length(w)


@pytest.mark.parametrize("family,rank", ORACLE_RANKS)
def test_length_equals_cheapest_word_cost(engine, elements, family, rank):
    eng = engine(family, rank)
    costs = cheapest_word_costs(eng)
    assert set(costs) == set(elements(family, rank))
    for x, c in costs.items():
        assert eng.length_of_element(x) == c


@pytest.mark.parametrize("family,rank", ORACLE_RANKS)
def test_01_bfs_costs_equal_dijkstra_costs(engine, family, rank):
    eng = engine(family, rank)
    costs = cheapest_word_costs(eng)
    assert word_costs_01(eng.fam) == {image_bytes(x): c for x, c in costs.items()}


@pytest.mark.parametrize("family,rank", LENGTH_RANKS)
def test_length_equals_01_bfs_cost(engine, elements, family, rank):
    eng = engine(family, rank)
    costs = word_costs_01(eng.fam)
    els = elements(family, rank)
    assert len(costs) == len(els)
    for x in els:
        assert eng.length_of_element(x) == costs[image_bytes(x)]


@pytest.mark.parametrize("family,rank", LENGTH_RANKS)
def test_length_ignoring_w2_disagrees_with_01_bfs_cost(
    engine, elements, monkeypatch, family, rank
):
    eng = engine(family, rank)
    costs = word_costs_01(eng.fam)
    monkeypatch.setattr(type(eng), "length", lambda self, nf: self.weyl.length(nf.w1))
    els = elements(family, rank)
    assert any(eng.length_of_element(x) != costs[image_bytes(x)] for x in els)


@pytest.mark.parametrize("family,rank", ORACLE_RANKS)
def test_length_zero_iff_idempotent_in_lattice(engine, elements, family, rank):
    eng = engine(family, rank)
    lattice_idems = {e.idem for e in eng.lattice.elements}
    for x in elements(family, rank):
        assert (eng.length_of_element(x) == 0) == (x in lattice_idems)


def test_meet_under_examples(engine):
    eng_b = engine("B", 2)
    s2s1s2 = reflection_product(eng_b.weyl, [2, 1, 2])
    assert join_domains(eng_b)["e2", "e2"][s2s1s2].token == "e0"
    eng_d = engine("D", 3)
    lat_d, weyl_d = eng_d.lattice, eng_d.weyl
    joins_d = join_domains(eng_d)
    assert joins_d["e3", "f3"][reflection_product(weyl_d, [3, 1, 2])].token == "e0"
    for e in lat_d.nonunit:
        for f in lat_d.nonunit:
            assert joins_d[e.token, f.token][weyl_d.identity] == lat_d.meet(e, f)


def test_evaluate_rejects_unknown_generators(engine):
    eng = engine("B", 2)
    with pytest.raises(ValueError, match="unknown generator e9"):
        eng.evaluate([GeneratorName.s(1), GeneratorName.e(9)])


def test_evaluate_names_the_leftmost_unknown_generator(engine):
    eng = engine("B", 2)
    with pytest.raises(ValueError, match="unknown generator e9"):
        eng.evaluate([GeneratorName.e(9), GeneratorName.s(1), GeneratorName.s(99)])


@pytest.mark.parametrize(
    "word,message",
    [
        (["s1"], "unknown generator s1"),
        ([("s", 1)], "unknown generator ('s', 1)"),
        (iter([GeneratorName.s(1), GeneratorName.e(9), GeneratorName.s(99)]), "unknown generator e9"),
        ([GeneratorName.s(1), 5], "unknown generator 5"),
    ],
    ids=["string", "tuple", "one-shot iterator", "integer"],
)
def test_evaluate_names_letters_that_are_not_generators(engine, word, message):
    with pytest.raises(ValueError) as exc:
        engine("B", 2).evaluate(word)
    assert str(exc.value) == message


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("D", 4)])
@pytest.mark.parametrize(
    "letter,message",
    [
        (GeneratorName("x", 1), "unknown generator x1"),
        (GeneratorName("s", -1), "unknown generator s-1"),
        (GeneratorName("e", 99), "unknown generator e99"),
        (GeneratorName("s", "1"), "unknown generator s1"),
    ],
    ids=["unknown kind", "negative index", "index past the rank", "string index"],
)
def test_evaluate_refuses_names_its_tables_do_not_hold(engine, family, rank, letter, message):
    # looked up by kind, then by index: a negative index must not wrap to the
    # last generator, nor "1" find s1
    eng = engine(family, rank)
    for word in ([letter], [GeneratorName.s(1), letter, GeneratorName.e(0)]):
        with pytest.raises(ValueError) as exc:
            eng.evaluate(word)
        assert str(exc.value) == message


def test_evaluate_rejects_unhashable_letters_as_before(engine):
    with pytest.raises(TypeError, match="^unhashable type: 'list'$"):
        engine("B", 2).evaluate([[1]])


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("D", 4)])
def test_evaluate_reads_letters_by_value(engine, family, rank):
    eng = engine(family, rank)
    fresh = tuple(GeneratorName(g.kind, g.index) for g in eng.alphabet)
    assert fresh == eng.alphabet and not any(map(operator.is_, fresh, eng.alphabet))
    assert eng.evaluate(fresh) == eng.evaluate(eng.alphabet)
    assert eng.evaluate(fresh[::-1]) == eng.evaluate(eng.alphabet[::-1])


@pytest.mark.parametrize("family,rank", [("A", 7), ("B", 5), ("D", 5)])
def test_evaluate_does_not_hash_generator_names(engine, monkeypatch, family, rank):
    eng = engine(family, rank)
    expected = eng.identity
    for g in eng.alphabet:
        expected = expected * eng.generators[g]

    def refuse(self):
        raise AssertionError("GeneratorName hashed")

    monkeypatch.setattr(GeneratorName, "__hash__", refuse)
    assert eng.evaluate(eng.alphabet) == expected


def test_queries_leave_the_engine_as_built():
    from rennermonoids import RennerMonoid, verify_completeness

    eng = RennerMonoid("B", 3)
    built = {k: (v, dict(v) if isinstance(v, dict) else None) for k, v in vars(eng).items()}
    x = eng.elements()[-1]
    nf = eng.normal_decompose(x)
    eng.canonical_word(nf)
    eng.multiply(nf, nf)
    eng.left_mult_generator(1, nf)
    assert list(eng.joins()) == list(eng.joins())
    # the count marks its hits in the closure it is handed, not in the engine
    assert verify_completeness(eng) == verify_completeness(eng)
    assert vars(eng).keys() == built.keys()
    for k, v in vars(eng).items():
        assert v is built[k][0], k
        if isinstance(v, dict):
            assert v == built[k][1], k


def test_no_module_holds_a_functools_cache():
    # A functools cache is state filled on use that outlives every engine.
    import importlib
    import pkgutil

    import rennermonoids

    cached = []
    for info in pkgutil.iter_modules(rennermonoids.__path__):
        module = importlib.import_module(f"rennermonoids.{info.name}")
        for name, obj in vars(module).items():
            members = [(name, obj)]
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                members += [(f"{name}.{k}", v) for k, v in vars(obj).items()]
            for label, member in members:
                unwrapped = (getattr(member, a, None) for a in ("__func__", "fget"))
                if any(hasattr(f, "cache_info") for f in (member, *unwrapped)):
                    cached.append(f"{info.name}.{label}")
    assert not cached, f"functools caches in rennermonoids: {cached}"


@pytest.mark.parametrize("family,rank", SMALL)
def test_meet_under_contract(engine, family, rank):
    eng = engine(family, rank)
    lat = eng.lattice
    joins = join_domains(eng)
    for e in lat.nonunit:
        for f in lat.nonunit:
            for w, h in joins[e.token, f.token].items():
                prod = e.idem * w * f.idem
                assert prod * prod == prod
                assert prod == h.idem
                assert h.idem * w == h.idem == w * h.idem
                assert w in eng.weyl.parabolic(lat.type_map(h).absorbing)
                assert lat.leq(h, lat.meet(e, f))


def test_left_mult_examples(engine):
    eng2 = engine("A", 2)
    unit_nf = eng2.normal_decompose(eng2.identity)
    assert eng2.left_mult_generator(1, unit_nf) == NormalForm(
        eng2.weyl.s(1), by_token(eng2.lattice, "1"), eng2.weyl.identity
    )
    a = NormalForm(eng2.weyl.identity, by_token(eng2.lattice, "e1"), eng2.weyl.s(1))
    assert eng2.left_mult_generator(1, a) == NormalForm(
        eng2.weyl.s(1), by_token(eng2.lattice, "e1"), eng2.weyl.s(1)
    )
    eng3 = engine("A", 3)
    b = NormalForm(eng3.weyl.identity, by_token(eng3.lattice, "e1"), eng3.weyl.identity)
    assert eng3.left_mult_generator(2, b) == b  # s2 is absorbed by e1


# -1 must not wrap to the last reflection, nor "1" find s1
@pytest.mark.parametrize("i", [0, 3, -1, 4, "1"])
def test_left_mult_rejects_an_unknown_index(engine, i):
    eng = engine("A", 3)
    nf = eng.normal_decompose(eng.identity)
    with pytest.raises(ValueError, match=f"^no simple reflection with index {i}$"):
        eng.left_mult_generator(i, nf)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("D", 4)])
def test_decompositions_are_normal_forms_like_the_constructed_ones(engine, elements, family, rank):
    """A decomposition is filled through its slots, not by `__init__`: it must
    equal, hash, print and pickle as the form built from fresh equal factors."""
    eng = engine(family, rank)
    for x in elements(family, rank):
        nf = eng.normal_decompose(x)
        assert type(nf) is NormalForm and type(nf.w1) is PartialInjection
        built = NormalForm(PartialInjection(nf.w1.image), nf.e, PartialInjection(nf.w2.image))
        assert nf == built and hash(nf) == hash(built) and repr(nf) == repr(built)
        assert pickle.dumps(nf) == pickle.dumps(built)
    # length still names a factor outside W, on either side
    nf = eng.normal_decompose(eng.identity)
    outsider = PartialInjection.restriction(eng.fam.degree, [1])
    for built in (NormalForm(outsider, nf.e, nf.w2), NormalForm(nf.w1, nf.e, outsider)):
        with pytest.raises(ValueError, match=r"^not an element of the unit group: Partial"):
            eng.length(built)


def test_left_mult_rejects_a_normal_form_of_another_degree(engine):
    a2, a3 = engine("A", 2), engine("A", 3)
    theirs, mine = a2.normal_decompose(a2.identity), a3.normal_decompose(a3.identity)
    for nf in (theirs, NormalForm(a2.identity, mine.e, mine.w2)):
        with pytest.raises(ValueError, match="^degree mismatch: 3 != 2$"):
            a3.left_mult_generator(1, nf)


def test_left_mult_takes_normal_forms_of_another_engine_of_its_degree(engine, elements):
    # D3's f3 is no lattice idempotent of B3, whose engine has no table for it
    b3, d3 = engine("B", 3), engine("D", 3)
    nfs = [d3.normal_decompose(x) for x in elements("D", 3)]
    assert any(nf.e.token == "f3" for nf in nfs)
    for nf in nfs:
        for i in b3.weyl.s_indices:
            expected = b3.normal_decompose(b3.weyl.s(i) * value(nf))
            assert b3.left_mult_generator(i, nf) == expected


@pytest.mark.parametrize("family,rank", SMALL + [("A", 5), ("B", 4), ("D", 4)])
def test_left_mult_dichotomy_agrees_with_multiply(engine, elements, family, rank):
    eng = engine(family, rank)
    weyl, lat = eng.weyl, eng.lattice
    absorbing = {e: lat.type_map(e).absorbing for e in lat.elements}
    right_absorbing = {
        e: frozenset(weyl.iter_coset_minima(absorbing[e], "right")) for e in lat.elements
    }
    for x in elements(family, rank):
        nf = eng.normal_decompose(x)
        for i in weyl.s_indices:
            s = weyl.s(i)
            fast = eng.left_mult_generator(i, nf)
            slow = eng.normal_decompose(s * x)
            assert fast == slow
            # exactly one side of the dichotomy fires
            stays = s * nf.w1 in right_absorbing[nf.e]
            absorbed = any(s * nf.w1 == nf.w1 * weyl.s(t) for t in absorbing[nf.e])
            assert stays != absorbed
            if absorbed:
                assert s * x == x
            # one step: s_i * x = x, or the length moves by exactly one
            assert s * x == x or abs(eng.length(fast) - eng.length(nf)) == 1


def test_solomon_delta_examples(engine):
    # the Solomon offset len(w1) - len(w2) of a normal form
    eng = engine("A", 2)
    weyl, lat = eng.weyl, eng.lattice
    delta = lambda nf: weyl.length(nf.w1) - weyl.length(nf.w2)
    for e in lat.elements:
        assert delta(NormalForm(weyl.identity, e, weyl.identity)) == 0
    e1 = by_token(lat, "e1")
    assert delta(NormalForm(weyl.s(1), e1, weyl.s(1))) == 0
    assert delta(NormalForm(weyl.s(1), e1, weyl.identity)) == 1


@pytest.mark.parametrize("family,rank", ORACLE_RANKS)
def test_solomon_difference_identity(engine, elements, family, rank):
    # whenever s*x != x, the two length functions move by the same amount
    eng = engine(family, rank)
    weyl = eng.weyl
    for x in elements(family, rank):
        nf = eng.normal_decompose(x)
        for i in weyl.s_indices:
            y = weyl.s(i) * x
            if y == x:
                continue
            nfy = eng.normal_decompose(y)
            assert nfy.e == nf.e
            delta_x = weyl.length(nf.w1) - weyl.length(nf.w2)
            delta_y = weyl.length(nfy.w1) - weyl.length(nfy.w2)
            assert eng.length_of_element(y) - eng.length_of_element(x) == delta_y - delta_x


@pytest.mark.parametrize("family,rank", ORACLE_RANKS)
def test_left_step_changes_length_by_at_most_one(engine, elements, family, rank):
    eng = engine(family, rank)
    for x in elements(family, rank):
        lx = eng.length_of_element(x)
        for i in eng.weyl.s_indices:
            assert abs(eng.length_of_element(eng.weyl.s(i) * x) - lx) <= 1


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2)])
def test_length_is_subadditive(engine, elements, family, rank):
    eng = engine(family, rank)
    els = elements(family, rank)
    lens = {x: eng.length_of_element(x) for x in els}
    for x in els:
        for y in els:
            assert lens[x * y] <= lens[x] + lens[y]


@pytest.mark.parametrize("family,rank", ORACLE_RANKS)
def test_idempotent_multiplication_never_raises_length(engine, elements, family, rank):
    eng = engine(family, rank)
    for x in elements(family, rank):
        lx = eng.length_of_element(x)
        for e in eng.lattice.nonunit:
            assert eng.length_of_element(x * e.idem) <= lx
            assert eng.length_of_element(e.idem * x) <= lx


@pytest.mark.parametrize("family,rank", ORACLE_RANKS)
def test_length_preserved_iff_meet_replaces_idempotent(engine, elements, family, rank):
    eng = engine(family, rank)
    lat = eng.lattice
    nonabsorbing = {
        e.token: eng.weyl.parabolic(lat.type_map(e).nonabsorbing) for e in lat.nonunit
    }
    for x in elements(family, rank):
        nf = eng.normal_decompose(x)
        lx = eng.length(nf)
        for e in lat.nonunit:
            nfe = eng.normal_decompose(x * e.idem)
            preserved = eng.length(nfe) == lx
            replaced = nfe == NormalForm(nf.w1, lat.meet(e, nf.e), nf.w2)
            assert preserved == replaced
            if preserved:
                assert nf.w2 in nonabsorbing[e.token]

"""The value types keep what frozen dataclasses gave them.

For each of the ten: its repr, equality and hash of equal copies, no
equality with the tuple of its fields, refused assignment, copies and
pickles, construction by position or keyword, and positional patterns;
and `GeneratorName`'s ordering by (kind, index), which sorts the alphabet
and breaks ties in the TYM3 sort.
"""

import copy
import operator
import pickle

import pytest

from rennermonoids import (
    CompletenessReport,
    GeneratorName,
    LambdaElement,
    MonoidFamily,
    NormalForm,
    PartialInjection,
    Presentation,
    Relation,
    RelationReport,
    TypeMap,
)

S, E = GeneratorName.s, GeneratorName.e


def _e1():
    return LambdaElement(E(1), PartialInjection((1, None)))


def _relation():
    return Relation((S(1), E(1)), (E(1),), "TYM2")


# Type name -> (a factory of fresh equal values, the field names, the repr).
VALUES = {
    "MonoidFamily": (
        lambda: MonoidFamily("A", 2),
        ("family", "rank"),
        "MonoidFamily(family='A', rank=2)",
    ),
    "GeneratorName": (lambda: S(1), ("kind", "index"), "GeneratorName(kind='s', index=1)"),
    "PartialInjection": (
        lambda: PartialInjection((2, None)),
        ("image",),
        "PartialInjection({1: 2}, degree=2)",
    ),
    "LambdaElement": (
        _e1,
        ("name", "idem"),
        "LambdaElement(name=GeneratorName(kind='e', index=1),"
        " idem=PartialInjection({1: 1}, degree=2))",
    ),
    "TypeMap": (
        lambda: TypeMap(frozenset({1}), frozenset({1}), frozenset()),
        ("commuting", "absorbing", "nonabsorbing"),
        "TypeMap(commuting=frozenset({1}), absorbing=frozenset({1}), nonabsorbing=frozenset())",
    ),
    "NormalForm": (
        lambda: NormalForm(PartialInjection((2, 1)), _e1(), PartialInjection((1, 2))),
        ("w1", "e", "w2"),
        "NormalForm(w1=PartialInjection({1: 2, 2: 1}, degree=2),"
        " e=LambdaElement(name=GeneratorName(kind='e', index=1),"
        " idem=PartialInjection({1: 1}, degree=2)),"
        " w2=PartialInjection({1: 1, 2: 2}, degree=2))",
    ),
    "Relation": (
        _relation,
        ("lhs", "rhs", "tag"),
        "Relation(lhs=(GeneratorName(kind='s', index=1), GeneratorName(kind='e', index=1)),"
        " rhs=(GeneratorName(kind='e', index=1),), tag='TYM2')",
    ),
    "Presentation": (
        lambda: Presentation("A", 1, (E(0),), (Relation((E(0), E(0)), (E(0),), "TYM3"),), "full"),
        ("family", "rank", "alphabet", "relations", "flavor"),
        "Presentation(family='A', rank=1, alphabet=(GeneratorName(kind='e', index=0),),"
        " relations=(Relation(lhs=(GeneratorName(kind='e', index=0),"
        " GeneratorName(kind='e', index=0)), rhs=(GeneratorName(kind='e', index=0),),"
        " tag='TYM3'),), flavor='full')",
    ),
    "RelationReport": (
        lambda: RelationReport(3, (_relation(),)),
        ("checked", "failures"),
        "RelationReport(checked=3, failures=(Relation(lhs=(GeneratorName(kind='s', index=1),"
        " GeneratorName(kind='e', index=1)), rhs=(GeneratorName(kind='e', index=1),),"
        " tag='TYM2'),))",
    ),
    "CompletenessReport": (
        lambda: CompletenessReport("A", 1, 2, 2, 2, 0, (("e0", 1, 1), ("1", 1, 1))),
        ("family", "rank", "monoid_size", "triple_count", "value_count", "missing", "breakdown"),
        "CompletenessReport(family='A', rank=1, monoid_size=2, triple_count=2,"
        " value_count=2, missing=0, breakdown=(('e0', 1, 1), ('1', 1, 1)))",
    ),
}


@pytest.mark.parametrize("name", VALUES)
def test_repr_is_the_dataclass_repr(name):
    make, _, text = VALUES[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", VALUES)
def test_equal_copies_are_equal_and_hash_alike(name):
    make, _, _ = VALUES[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert len({a, b}) == 1
    for c in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(c) is type(a) and c == a and hash(c) == hash(a)


@pytest.mark.parametrize("name", VALUES)
def test_a_value_never_equals_the_tuple_of_its_fields(name):
    make, fields, _ = VALUES[name]
    a = make()
    values = tuple(getattr(a, f) for f in fields)
    assert a != values and values != a
    assert a != list(values)


@pytest.mark.parametrize("name", VALUES)
def test_assignment_and_deletion_raise_attribute_error(name):
    make, fields, _ = VALUES[name]
    a = make()
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(a, f, None)
        with pytest.raises(AttributeError):
            delattr(a, f)
    assert a == make()


@pytest.mark.parametrize("name", VALUES)
def test_fields_are_the_positional_and_keyword_arguments_and_patterns(name):
    make, fields, _ = VALUES[name]
    a = make()
    values = [getattr(a, f) for f in fields]
    assert type(a)(*values) == a == type(a)(**dict(zip(fields, values)))
    assert type(a).__match_args__ == fields
    with pytest.raises(TypeError):
        type(a)(*values, None)


def test_unequal_values_of_one_type_differ():
    assert S(1) != S(2) and S(1) != E(1)
    assert MonoidFamily("A", 2) != MonoidFamily("A", 3)
    assert PartialInjection((2, None)) != PartialInjection((None, 2))


def test_generator_names_order_by_kind_then_index(engine):
    assert [str(g) for g in sorted(engine("D", 4).alphabet)] == [
        "e0", "e1", "e2", "e3", "e4", "f4", "s1", "s2", "s3", "s4",
    ]  # fmt: skip
    assert [str(g) for g in sorted(engine("A", 3).alphabet)] == [
        "e0", "e1", "e2", "s1", "s2",
    ]  # fmt: skip
    assert S(1) < S(2) <= S(2) < S(10) and S(10) > S(2) >= S(2) and E(9) < S(1)
    assert not S(2) < S(2) and max(S(3), E(7)) == S(3)


@pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge])
def test_generator_names_do_not_order_against_tuples(op):
    with pytest.raises(TypeError):
        op(GeneratorName("s", 1), ("s", 2))
    with pytest.raises(TypeError):
        op(("s", 2), GeneratorName("s", 1))


def test_normal_form_factors_read_back_as_partial_injections():
    """w1 and w2 are held as image bytes and read back as the PartialInjections
    given, undefined points included; the same factors given as bytes make an
    equal form with the same hash, repr and pickle."""
    w1, w2 = PartialInjection((2, None)), PartialInjection((1, 2))
    nf = NormalForm(w1, _e1(), w2)
    assert type(nf.w1) is PartialInjection and nf.w1 == w1 and nf.w2 == w2
    from_bytes = NormalForm(bytes([2, 0]), _e1(), bytes([1, 2]))
    assert from_bytes == nf and hash(from_bytes) == hash(nf) and repr(from_bytes) == repr(nf)
    assert pickle.dumps(from_bytes) == pickle.dumps(nf)
    assert pickle.loads(pickle.dumps(nf)).w1 == w1

"""Monoid presentations: generation, soundness checks, completeness counting.

Three flavors share one alphabet (simple reflections plus non-unit lattice
idempotents):

  full      idempotent-join relations for every double-coset-minimal w,
  reduced   the same but only for w that centralize everything above,
  explicit  the fixed per-family relation tables, used as golden targets.

The explicit tables are sound, but from rank 3 the B and D tables present
a larger monoid (at D3, f3 s1 = s1 f3 holds but does not follow from them).

Relation tags: COX1 (involutions), COX2 (braid and commutation), TYM1
(commuting idempotent moves), TYM2 (absorbed letters), TYM3 (idempotent
joins e w f = h).  Every flavor lists its relations in that tag order, each
tag built in its final order, except TYM3, which is sorted by its outer
idempotents in lattice order, then by length, then by letters.
"""

from __future__ import annotations

from itertools import combinations, repeat
from operator import countOf
from typing import Sequence

from .coxeter import WeylGroup
from .model import DEFAULT_ENUMERATION_CAP, GeneratorName, _Value, byte_table
from .monoid import RennerMonoid


class Relation(_Value):
    lhs: tuple[GeneratorName, ...]
    rhs: tuple[GeneratorName, ...]
    tag: str


class Presentation(_Value):
    family: str
    rank: int
    alphabet: tuple[GeneratorName, ...]
    relations: tuple[Relation, ...]
    flavor: str


class RelationReport(_Value):
    """Outcome of evaluating every relation in the model."""

    checked: int
    failures: tuple[Relation, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


class CompletenessReport(_Value):
    """Count comparison: enumerated monoid vs admissible normal-form triples."""

    family: str
    rank: int
    monoid_size: int
    triple_count: int
    value_count: int
    missing: int
    breakdown: tuple[tuple[str, int, int], ...]

    @property
    def collisions(self) -> int:
        return self.triple_count - self.value_count

    @property
    def ok(self) -> bool:
        return (
            self.monoid_size == self.triple_count == self.value_count
            and self.missing == 0
        )


def word_str(word: Sequence[GeneratorName]) -> str:
    return " ".join(str(g) for g in word) or "1"


def relation_lines(pres: Presentation) -> list[str]:
    return [f"{word_str(r.lhs)} = {word_str(r.rhs)}" for r in pres.relations]


def braid_word(i: int, j: int, m: int) -> tuple[GeneratorName, ...]:
    """Alternating word s_i s_j s_i ... of length m."""
    return tuple(GeneratorName.s(i if k % 2 == 0 else j) for k in range(m))


def coxeter_pairs(weyl: WeylGroup) -> list[tuple[int, int, int]]:
    """All unordered generator pairs (i, j, m), m the order of s_i * s_j in W.

    Non-edges of the Coxeter graph get m = 2.
    """
    return [(i, j, weyl.coxeter_exponent(i, j)) for i, j in combinations(weyl.s_indices, 2)]


def _coxeter_relations(engine: RennerMonoid) -> list[Relation]:
    rels = [
        Relation((GeneratorName.s(i), GeneratorName.s(i)), (), "COX1")
        for i in engine.weyl.s_indices
    ]
    for i, j, m in coxeter_pairs(engine.weyl):
        rels.append(Relation(braid_word(i, j, m), braid_word(j, i, m), "COX2"))
    return rels


def _type_relations(engine: RennerMonoid) -> list[Relation]:
    lat, S = engine.lattice, GeneratorName.s
    rels = [
        Relation((S(i), e.name), (e.name, S(i)), "TYM1")
        for e in lat.nonunit
        for i in sorted(lat.type_map(e).nonabsorbing)
    ]
    for e in lat.nonunit:
        for i in sorted(lat.type_map(e).absorbing):
            rels.append(Relation((e.name, S(i)), (e.name,), "TYM2"))
            rels.append(Relation((S(i), e.name), (e.name,), "TYM2"))
    return rels


def _presentation(
    engine: RennerMonoid, flavor: str, rels: list[Relation], joins: list[Relation]
) -> Presentation:
    """The relations rels, already in order, then the joins sorted by their
    outer idempotents, length and letters."""
    pos = {g: k for k, g in enumerate(engine.alphabet)}
    joins.sort(key=lambda r: (pos[r.lhs[0]], pos[r.lhs[-1]], len(r.lhs), r.lhs))
    return Presentation(
        engine.fam.family, engine.fam.rank, engine.alphabet, (*rels, *joins), flavor
    )


def _generate(engine: RennerMonoid, flavor: str) -> Presentation:
    """Coxeter and type relations, plus one join relation e w f = h per
    join of each pair of nonunit idempotents, only the upward ones in the
    reduced flavor."""
    joins = [
        Relation((e.name, *map(GeneratorName.s, word), f.name), (h.name,), "TYM3")
        for e, word, f, h, upward in engine.joins()
        if upward or flavor == "full"
    ]
    return _presentation(
        engine, flavor, _coxeter_relations(engine) + _type_relations(engine), joins
    )


def generate_full(engine: RennerMonoid) -> Presentation:
    """Relations with the join family over every double-coset-minimal w."""
    return _generate(engine, "full")


def generate_reduced(engine: RennerMonoid) -> Presentation:
    """Same as full, with the join family restricted to upward coset minima."""
    return _generate(engine, "reduced")


def _explicit_shared(
    engine: RennerMonoid, top: int, j_max: int
) -> tuple[list[Relation], list[Relation]]:
    """COX plus the triangular idempotent families common to all three tables,
    with the absorbing family e_j s_i = s_i e_j = e_j for j <= j_max < i; the
    idempotent meets come second, as joins."""
    S, E = GeneratorName.s, GeneratorName.e
    rels = _coxeter_relations(engine)
    for j in range(1, top + 1):
        for i in range(1, j):
            rels.append(Relation((E(j), S(i)), (S(i), E(j)), "TYM1"))
    for j in range(j_max + 1):
        for i in range(j + 1, top + 1):
            rels.append(Relation((E(j), S(i)), (E(j),), "TYM2"))
            rels.append(Relation((S(i), E(j)), (E(j),), "TYM2"))
    joins = []
    for i in range(top + 1):
        joins.append(Relation((E(i), E(i)), (E(i),), "TYM3"))
        for j in range(i + 1, top + 1):
            joins.append(Relation((E(i), E(j)), (E(i),), "TYM3"))
            joins.append(Relation((E(j), E(i)), (E(i),), "TYM3"))
    return rels, joins


def generate_explicit(engine: RennerMonoid) -> Presentation:
    """The fixed relation table of the family, instantiated at this rank."""
    fam = engine.fam
    S, E = GeneratorName.s, GeneratorName.e
    l = fam.rank
    if fam.family != "D":
        top = fam.degree - 1 if fam.family == "A" else l
        rels, joins = _explicit_shared(engine, top, top - 1)
        for i in range(1, top + 1):
            joins.append(Relation((E(i), S(i), E(i)), (E(i - 1),), "TYM3"))
        if fam.family == "B":
            joins.append(Relation((E(l), S(l), S(l - 1), S(l), E(l)), (E(l - 2),), "TYM3"))
    else:
        F = GeneratorName.f(l)
        # The absorbing family stops at j = l - 2: nothing absorbs into the
        # three rank >= l - 1 idempotents of this family.
        rels, joins = _explicit_shared(engine, l, l - 2)
        joins.append(Relation((F, E(l)), (E(l - 1),), "TYM3"))
        joins.append(Relation((E(l), F), (E(l - 1),), "TYM3"))
        for i in range(1, l):
            joins.append(Relation((E(i), S(i), E(i)), (E(i - 1),), "TYM3"))
        joins.append(Relation((E(l), S(l), E(l)), (E(l - 2),), "TYM3"))
        joins.append(Relation((F, S(l - 1), F), (E(l - 2),), "TYM3"))
        joins.append(Relation((E(l), S(l), S(l - 2), S(l - 1), F), (E(l - 3),), "TYM3"))
        joins.append(Relation((F, S(l - 1), S(l - 2), S(l), E(l)), (E(l - 3),), "TYM3"))
    return _presentation(engine, "explicit", rels, joins)


def verify_relations(engine: RennerMonoid, pres: Presentation) -> RelationReport:
    """Evaluate both sides of every relation in the model; failures are data."""
    failures = tuple(
        r for r in pres.relations if engine.evaluate(r.lhs) != engine.evaluate(r.rhs)
    )
    return RelationReport(len(pres.relations), failures)


def verify_completeness(
    engine: RennerMonoid, cap: int = DEFAULT_ENUMERATION_CAP
) -> CompletenessReport:
    """Compare the enumerated monoid against the admissible triple count.

    Equality of all three counts (enumerated elements, triples, distinct
    triple values) pins down that evaluation is a bijection from triples to
    the monoid.  Both sides are counted in the closure's own encoding, the
    image bytes of inverses (`RennerMonoid.inverse_images`), so no element
    is decoded: (w1 * e * w2)^-1 = w2^-1 * e * w1^-1 is w1^-1's bytes
    translated by the table of w2^-1 * e, which is e's `byte_table`
    translated by w2^-1's bytes, with no product.  Both inverses are W's own
    bytes, as those of the right coset minima are the left ones and back.
    The monoid is held once: each value is marked True in the closure's own
    dict, in place, and is freed on the spot if it is already a key; a value
    outside the closure becomes a key of its own.  Keys still None are then
    the missing ones, and the distinct values are all other keys.
    """
    closure = engine.inverse_images(cap)
    size = len(closure)
    weyl = engine.weyl
    total = 0
    breakdown = []
    unit = weyl.images[0]
    for e in engine.lattice.elements:
        tm = engine.lattice.type_map(e)
        w1_inv = weyl.coset_minima_images(tm.absorbing, "left")
        w2_inv = weyl.coset_minima_images(tm.commuting)
        breakdown.append((e.token, len(w1_inv), len(w2_inv)))
        total += len(w1_inv) * len(w2_inv)
        idem = byte_table(e.idem)
        for w in w2_inv:
            table = idem.translate(bytes.maketrans(unit, w))
            closure.update(zip(map(bytes.translate, w1_inv, repeat(table)), repeat(True)))
    missing = countOf(closure.values(), None)
    return CompletenessReport(
        engine.fam.family,
        engine.fam.rank,
        size,
        total,
        len(closure) - missing,
        missing,
        tuple(breakdown),
    )

"""Monoid presentations: generation, soundness checks, completeness counting.

Three flavors share one alphabet (simple reflections plus non-unit lattice
idempotents):

  full      idempotent-join relations for every double-coset-minimal w,
  reduced   the same but only for w that centralize everything above,
  explicit  the fixed per-family relation tables, used as golden targets.

Relation tags: COX1 (involutions), COX2 (braid and commutation), TYM1
(commuting idempotent moves), TYM2 (absorbed letters), TYM3 (idempotent
joins e w f = h).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .coxeter import WeylGroup
from .model import DEFAULT_ENUMERATION_CAP, GeneratorName, PartialInjection
from .monoid import RennerMonoid


@dataclass(frozen=True)
class Relation:
    lhs: tuple[GeneratorName, ...]
    rhs: tuple[GeneratorName, ...]
    tag: str


@dataclass(frozen=True)
class Presentation:
    family: str
    rank: int
    alphabet: tuple[GeneratorName, ...]
    relations: tuple[Relation, ...]
    flavor: str


@dataclass(frozen=True)
class RelationReport:
    """Outcome of evaluating every relation in the model."""

    checked: int
    failures: tuple[Relation, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class CompletenessReport:
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


def _sort_key(engine: RennerMonoid, rel: Relation):
    lat = engine.lattice
    tag_rank = ["COX1", "COX2", "TYM1", "TYM2", "TYM3"].index(rel.tag)
    lhs_form = tuple((g.kind, g.index) for g in rel.lhs)
    if rel.tag == "COX1":
        return (tag_rank, rel.lhs[0].index)
    if rel.tag == "COX2":
        pair = sorted({g.index for g in rel.lhs})
        return (tag_rank, pair[0], pair[-1], lhs_form)
    if rel.tag in ("TYM1", "TYM2"):
        e = next(g for g in rel.lhs if g.kind != "s")
        s = next(g for g in rel.lhs if g.kind == "s")
        return (tag_rank, lat.position(lat.by_token(str(e))), s.index, lhs_form)
    e, f = rel.lhs[0], rel.lhs[-1]
    mid = tuple(g.index for g in rel.lhs[1:-1])
    return (
        tag_rank,
        lat.position(lat.by_token(str(e))),
        lat.position(lat.by_token(str(f))),
        len(mid),
        mid,
        lhs_form,
    )


def _sorted_relations(engine: RennerMonoid, rels: Iterable[Relation]) -> tuple[Relation, ...]:
    return tuple(sorted(rels, key=lambda r: _sort_key(engine, r)))


def _coxeter_relations(engine: RennerMonoid) -> list[Relation]:
    rels = [
        Relation((GeneratorName.s(i), GeneratorName.s(i)), (), "COX1")
        for i in engine.weyl.s_indices
    ]
    for i, j, m in coxeter_pairs(engine.weyl):
        rels.append(Relation(braid_word(i, j, m), braid_word(j, i, m), "COX2"))
    return rels


def _type_relations(engine: RennerMonoid) -> list[Relation]:
    rels = []
    for e in engine.lattice.nonunit:
        tm = engine.lattice.type_map(e)
        for i in sorted(tm.nonabsorbing):
            s = GeneratorName.s(i)
            rels.append(Relation((s, e.name), (e.name, s), "TYM1"))
        for i in sorted(tm.absorbing):
            s = GeneratorName.s(i)
            rels.append(Relation((s, e.name), (e.name,), "TYM2"))
            rels.append(Relation((e.name, s), (e.name,), "TYM2"))
    return rels


def _generate(engine: RennerMonoid, flavor: str) -> Presentation:
    """Coxeter and type relations, plus one join relation e w f = h per w
    in the join domain of each pair of nonunit idempotents."""
    domain = engine.reduced_join_domain if flavor == "reduced" else engine.meet_under_domain
    rels = _coxeter_relations(engine) + _type_relations(engine)
    for e in engine.lattice.nonunit:
        for f in engine.lattice.nonunit:
            for w in domain(e, f):
                h = engine.meet_under(e, w, f)
                mid = tuple(GeneratorName.s(i) for i in engine.weyl.reduced_word(w))
                rels.append(Relation((e.name, *mid, f.name), (h.name,), "TYM3"))
    return Presentation(
        engine.fam.family,
        engine.fam.rank,
        engine.alphabet,
        _sorted_relations(engine, rels),
        flavor,
    )


def generate_full(engine: RennerMonoid) -> Presentation:
    """Relations with the join family over every double-coset-minimal w."""
    return _generate(engine, "full")


def generate_reduced(engine: RennerMonoid) -> Presentation:
    """Same as full, with the join family restricted to upward coset minima."""
    return _generate(engine, "reduced")


def _explicit_shared(engine: RennerMonoid, top: int) -> list[Relation]:
    """COX plus the triangular idempotent families common to all three tables."""
    S, E = GeneratorName.s, GeneratorName.e
    rels = _coxeter_relations(engine)
    for j in range(1, top + 1):
        for i in range(1, j):
            rels.append(Relation((E(j), S(i)), (S(i), E(j)), "TYM1"))
    for i in range(top + 1):
        for j in range(i, top + 1):
            if i == j:
                rels.append(Relation((E(i), E(i)), (E(i),), "TYM3"))
            else:
                rels.append(Relation((E(i), E(j)), (E(i),), "TYM3"))
                rels.append(Relation((E(j), E(i)), (E(i),), "TYM3"))
    return rels


def _explicit_absorbing(top: int, j_max: int) -> list[Relation]:
    S, E = GeneratorName.s, GeneratorName.e
    rels = []
    for j in range(j_max + 1):
        for i in range(j + 1, top + 1):
            rels.append(Relation((E(j), S(i)), (E(j),), "TYM2"))
            rels.append(Relation((S(i), E(j)), (E(j),), "TYM2"))
    return rels


def generate_explicit(engine: RennerMonoid) -> Presentation:
    """The fixed relation table of the family, instantiated at this rank."""
    fam = engine.fam
    S, E = GeneratorName.s, GeneratorName.e
    l = fam.rank
    if fam.family == "A":
        top = fam.degree - 1
        rels = _explicit_shared(engine, top) + _explicit_absorbing(top, top - 1)
        for i in range(1, top + 1):
            rels.append(Relation((E(i), S(i), E(i)), (E(i - 1),), "TYM3"))
    elif fam.family == "B":
        rels = _explicit_shared(engine, l) + _explicit_absorbing(l, l - 1)
        for i in range(1, l + 1):
            rels.append(Relation((E(i), S(i), E(i)), (E(i - 1),), "TYM3"))
        rels.append(Relation((E(l), S(l), S(l - 1), S(l), E(l)), (E(l - 2),), "TYM3"))
    else:
        F = GeneratorName.f(l)
        # The absorbing family stops at j = l - 2: nothing absorbs into the
        # three rank >= l - 1 idempotents of this family.
        rels = _explicit_shared(engine, l) + _explicit_absorbing(l, l - 2)
        rels.append(Relation((F, E(l)), (E(l - 1),), "TYM3"))
        rels.append(Relation((E(l), F), (E(l - 1),), "TYM3"))
        for i in range(1, l):
            rels.append(Relation((E(i), S(i), E(i)), (E(i - 1),), "TYM3"))
        rels.append(Relation((E(l), S(l), E(l)), (E(l - 2),), "TYM3"))
        rels.append(Relation((F, S(l - 1), F), (E(l - 2),), "TYM3"))
        rels.append(
            Relation((E(l), S(l), S(l - 2), S(l - 1), F), (E(l - 3),), "TYM3")
        )
        rels.append(
            Relation((F, S(l - 1), S(l - 2), S(l), E(l)), (E(l - 3),), "TYM3")
        )
    return Presentation(
        fam.family, fam.rank, engine.alphabet, _sorted_relations(engine, rels), "explicit"
    )


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
    the monoid.
    """
    elements = engine.elements(cap)
    weyl = engine.weyl
    values: set[PartialInjection] = set()
    total = 0
    breakdown = []
    for e in engine.lattice.elements:
        tm = engine.lattice.type_map(e)
        w1s = list(weyl.iter_coset_minima(tm.absorbing, "right"))
        w2s = list(weyl.iter_coset_minima(tm.commuting, "left"))
        breakdown.append((e.token, len(w1s), len(w2s)))
        total += len(w1s) * len(w2s)
        for w1 in w1s:
            prefix = w1 * e.idem
            values.update(prefix * w2 for w2 in w2s)
    missing = sum(1 for x in elements if x not in values)
    return CompletenessReport(
        engine.fam.family,
        engine.fam.rank,
        len(elements),
        total,
        len(values),
        missing,
        tuple(breakdown),
    )


def rewrite_to_normal(
    engine: RennerMonoid, word: Sequence[GeneratorName]
) -> tuple[GeneratorName, ...]:
    """Canonical word for the element the input word represents."""
    return engine.canonical_word(engine.normal_decompose(engine.evaluate(word)))

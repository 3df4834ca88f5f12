"""Normal forms and the word-length function for the modeled monoids.

Every element factors uniquely as w1 * e * w2 with e a lattice idempotent,
w1 right-reduced modulo the absorbing parabolic of e, and w2 left-reduced
modulo the full centralizer parabolic of e.  The length of an element is
the number of simple-reflection letters in a cheapest word for it; the
idempotent letters cost nothing, and on normal forms the length is just
len(w1) + len(w2) in the Coxeter sense.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable

from .coxeter import WeylGroup
from .lattice import CrossSectionLattice, LambdaElement
from .model import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapExceeded,
    GeneratorName,
    MonoidFamily,
    PartialInjection,
    build_generators,
    enumerate_monoid,
)


@dataclass(frozen=True, slots=True)
class NormalForm:
    """The canonical triple; equality of normal forms is equality of elements."""

    w1: PartialInjection
    e: LambdaElement
    w2: PartialInjection


class OutsideMonoidError(ValueError):
    """Partial injection that has no expression inside the modeled monoid."""


# Largest unit group built, checked before any table: D7 (322,560 elements,
# 1.06 million left-factor entries) builds in about 7.5 s and 250 MB on one
# core of a 2-core machine; A8 and B6 pass, A9, B7 and D8 are refused.
MAX_WEYL_ORDER = 350_000


class RennerMonoid:
    """Engine for one family and rank: model, group, lattice, normal forms.

    Two tables are built at construction and never changed: the
    left-factor table of each lattice element and the conjugation table of
    domains.  Normal forms are looked up, not memoised.  Each join
    e * w * f is computed and checked when it is asked for.  The one cache
    filled on use is the enumerated element list, stored in a single
    assignment, so threads may share an engine but may enumerate it twice.
    """

    def __init__(self, family: str, rank: int):
        self.fam = MonoidFamily(family, rank)
        order = self.fam.weyl_order_past(MAX_WEYL_ORDER)
        if order > MAX_WEYL_ORDER:
            raise EnumerationCapExceeded(
                f"unit group of {family}{rank} has at least {order} elements,"
                f" limit {MAX_WEYL_ORDER}"
            )
        self.generators = build_generators(self.fam)
        self.weyl = WeylGroup(
            {g.index: p for g, p in self.generators.items() if g.kind == "s"},
            self.fam.degree,
        )
        self.lattice = CrossSectionLattice(self.fam, self.generators, self.weyl)

        # Left-factor table of each nonunit lattice element e: the values of
        # w1 on dom(e) in increasing order, as bytes -> w1, over the w1
        # right-minimal modulo the absorbing parabolic of e.  Two units agree
        # on dom(e) exactly when they differ by an element of that parabolic,
        # so no key repeats.
        left_factor: dict[str, dict[bytes, PartialInjection]] = {}
        for e in self.lattice.nonunit:
            minima = list(self.weyl.iter_coset_minima(self.lattice.type_map(e).absorbing))
            table = left_factor[e.token] = {
                bytes(compress(w.image, e.idem.image)): w for w in minima
            }
            if len(table) != len(minima):
                raise RuntimeError(f"two left factors under {e.token} agree on its domain")

        # Domain u(dom e) of each conjugate u * e * u^-1 of a lattice element,
        # by a breadth-first walk of its orbit -> (e, w2, e's left-factor
        # table, None for the unit).  w2^-1 carries dom(e) onto the domain in
        # increasing order (w2 has no left descent among the reflections
        # swapping neighbours in dom(e)), so for an x with that domain the
        # values of x * w2^-1 on dom(e) are those of x on its domain, in order.
        self._conjugation: dict[tuple[int, ...], tuple] = {}
        reflections = [self.weyl.s(i) for i in self.weyl.s_indices]
        for e in self.lattice.elements:
            commuting = self.lattice.type_map(e).commuting
            queue = [(e.idem.domain(), self.identity, self.identity)]
            for dom, s, u in queue:
                if dom in self._conjugation:
                    continue
                u = s * u
                w2 = self.weyl.min_coset_rep(u.inverse(), commuting, "left")
                if tuple(map(w2.inverse(), e.idem.domain())) != dom:
                    raise RuntimeError(
                        f"w2^-1 does not carry dom({e.token}) onto {dom} in order"
                    )
                self._conjugation[dom] = (e, w2, left_factor.get(e.token))
                queue += [(tuple(sorted(map(s, dom))), s, u) for s in reflections]

        self._elements: tuple[PartialInjection, ...] | None = None

    @property
    def identity(self) -> PartialInjection:
        return self.weyl.identity

    @property
    def alphabet(self) -> tuple[GeneratorName, ...]:
        return tuple(self.generators)

    def generator(self, name: GeneratorName) -> PartialInjection:
        try:
            return self.generators[name]
        except KeyError:
            raise ValueError(f"unknown generator {name}") from None

    def elements(self, cap: int = DEFAULT_ENUMERATION_CAP) -> tuple[PartialInjection, ...]:
        """All monoid elements in deterministic enumeration order (cached)."""
        if self._elements is None:
            self._elements = tuple(enumerate_monoid(self.fam, cap))
        if len(self._elements) > cap:
            raise EnumerationCapExceeded(f"enumeration cap exceeded: cap={cap}")
        return self._elements

    def evaluate(self, word: Iterable[GeneratorName]) -> PartialInjection:
        """Product of generator letters, word read left to right."""
        out, gens = self.identity, self.generators
        try:
            for g in word:
                out = out * gens[g]
        except KeyError as exc:
            raise ValueError(f"unknown generator {exc.args[0]}") from None
        return out

    def value(self, nf: NormalForm) -> PartialInjection:
        return nf.w1 * nf.e.idem * nf.w2

    def normal_decompose(self, x: PartialInjection) -> NormalForm:
        """The unique canonical triple evaluating to x.

        The domain of x is that of a conjugate u * e * u^-1 of a lattice
        element e, and it alone fixes e and w2 (tabled at construction).
        Then x * w2^-1 = w1 * e, so w1 is the right-minimal unit with the
        values of x * w2^-1 on dom(e), which are the values of x in order:
        one lookup in the left-factor table of e, or, for the unit, x itself
        if it lies in the unit group.  Nothing is memoised: a call reads
        only tables fixed at construction, so threads may share an engine
        freely.
        """
        if x.degree != self.fam.degree:
            raise ValueError(f"degree mismatch: expected {self.fam.degree}, got {x.degree}")
        dom = x.domain()
        conj = self._conjugation.get(dom)
        if conj is None:
            raise OutsideMonoidError(
                f"domain {dom} matches no conjugate of a lattice idempotent"
            )
        e, w2, table = conj
        if table is None:
            w1 = x if x in self.weyl else None
        else:
            w1 = table.get(bytes(filter(None, x.image)))
        if w1 is None:
            raise OutsideMonoidError(
                f"no unit-group permutation extends {x!r}; element is outside the monoid"
            )
        nf = NormalForm(w1, e, w2)
        if self.value(nf) != x:
            raise RuntimeError("normal decomposition does not reproduce its input")
        return nf

    def multiply(self, a: NormalForm, b: NormalForm) -> NormalForm:
        return self.normal_decompose(self.value(a) * self.value(b))

    def length(self, nf: NormalForm) -> int:
        return self.weyl.length(nf.w1) + self.weyl.length(nf.w2)

    def length_of_element(self, x: PartialInjection) -> int:
        return self.length(self.normal_decompose(x))

    def canonical_word(self, nf: NormalForm) -> tuple[GeneratorName, ...]:
        """The canonical word: fixed reduced word of w1, then e, then that of w2."""
        parts = [GeneratorName.s(i) for i in self.weyl.reduced_word(nf.w1)]
        if nf.e.name is not None:
            parts.append(nf.e.name)
        parts.extend(GeneratorName.s(i) for i in self.weyl.reduced_word(nf.w2))
        return tuple(parts)

    def meet_under_domain(self, e: LambdaElement, f: LambdaElement) -> frozenset[PartialInjection]:
        """All w minimal in their double coset for the pair (e, f)."""
        tm = self.lattice.type_map
        return self.weyl.double_coset_minima(tm(e).commuting, tm(f).commuting)

    def reduced_join_domain(
        self, e: LambdaElement, f: LambdaElement
    ) -> frozenset[PartialInjection]:
        """The w of meet_under_domain(e, f) that centralize every idempotent
        strictly above e or f: those in the parabolic of the reflections
        commuting with all of them."""
        lat = self.lattice
        up = set(self.weyl.s_indices)
        for g in lat.elements:
            if lat.lt(e, g) or lat.lt(f, g):
                up &= lat.type_map(g).commuting
        return frozenset(
            w for w in self.meet_under_domain(e, f) if self.weyl.in_parabolic(w, up)
        )

    def meet_under(
        self, e: LambdaElement, w: PartialInjection, f: LambdaElement
    ) -> LambdaElement:
        """The lattice element h equal to e * w * f, for double-coset-minimal w.

        Checks that h * w = h, that w lies in the absorbing parabolic of h
        and that h lies below the meet of e and f.
        """
        lat, weyl = self.lattice, self.weyl
        if (
            w not in weyl
            or weyl.left_descents(w) & lat.type_map(e).commuting
            or weyl.right_descents(w) & lat.type_map(f).commuting
        ):
            raise ValueError(f"w not double-coset minimal for ({e.token}, {f.token}): {w!r}")
        h = lat.by_idem(e.idem * w * f.idem)
        if h.idem * w != h.idem:
            raise RuntimeError(f"{e.token}*w*{f.token} does not absorb its middle factor")
        if not weyl.in_parabolic(w, lat.type_map(h).absorbing):
            raise RuntimeError(
                f"middle factor of {e.token}*w*{f.token} escapes the"
                f" absorbing subgroup of {h.token}"
            )
        if not lat.leq(h, lat.meet(e, f)):
            raise RuntimeError(f"{e.token}*w*{f.token} is not below the plain meet")
        return h

    def left_mult_generator(self, i: int, nf: NormalForm) -> NormalForm:
        """Left multiplication by s_i via the absorb-or-extend dichotomy.

        Either s_i * w1 stays right-reduced modulo the absorbing parabolic
        of e and simply replaces w1, or the product slides across w1 into a
        letter absorbed by e and the element is unchanged.
        """
        s = self.weyl.s(i)
        v = s * nf.w1
        absorbing = self.lattice.type_map(nf.e).absorbing
        if not (self.weyl.right_descents(v) & absorbing):
            return NormalForm(v, nf.e, nf.w2)
        for t in sorted(absorbing):
            if v == nf.w1 * self.weyl.s(t):
                return nf
        raise RuntimeError("left-multiplication dichotomy failed")

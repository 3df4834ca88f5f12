"""Normal forms and the word-length function for the modeled monoids.

Every element factors uniquely as w1 * e * w2 with e a lattice idempotent,
w1 right-reduced modulo the absorbing parabolic of e, and w2 left-reduced
modulo the full centralizer parabolic of e.  The length of an element is
the number of simple-reflection letters in a cheapest word for it; the
idempotent letters cost nothing, and on normal forms the length is just
len(w1) + len(w2) in the Coxeter sense.  Queries run on image bytes, 0
where undefined, as `byte_table` encodes them: the domain mask of x picks
e and w2, its nonzero bytes pick w1, and w1's table must carry the stored
bytes of e * w2 to those of x.  The tables hold the unit group's own image
bytes for w1 and w2, and a normal form's factors wrap the bytes looked up.
"""

from __future__ import annotations

from functools import reduce
from operator import itemgetter
from typing import Iterable

from .coxeter import WeylGroup
from .lattice import CrossSectionLattice, LambdaElement
from .model import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapExceeded,
    GeneratorName,
    MonoidFamily,
    PartialInjection,
    _inverted,
    _unchecked,
    _Value,
    build_generators,
    byte_table,
    enumerate_monoid,
)


class NormalForm(_Value):
    """The canonical triple; equality of normal forms is equality of elements.
    A decomposition's w1 and w2 wrap the image bytes it read, copying none."""

    __slots__ = ("w1", "e", "w2")
    w1: PartialInjection
    e: LambdaElement
    w2: PartialInjection


# `bytes.translate` table taking image bytes to the domain mask: 1 where defined.
_DOMAIN = bytes([0, *[1] * 255])


class OutsideMonoidError(ValueError):
    """Partial injection that has no expression inside the modeled monoid."""


# Largest unit group built, checked before any table: D7 (322,560 elements,
# 1.06 million left-factor entries) builds in 2.4-3.6 s and 170 MB on one
# core of a busy 2-core machine; A8 and B6 pass, A9, B7 and D8 are refused.
MAX_WEYL_ORDER = 350_000


class RennerMonoid:
    """Engine for one family and rank: model, group, lattice, normal forms.

    Two tables are built at construction and never changed: the
    left-factor table of each nonunit lattice element e (the values of w1 on
    dom(e), in order -> w1) and the conjugation table (the domain mask of
    each conjugate of a lattice idempotent -> its e, its w2, the image bytes
    of e * w2 and e's left-factor table).  Normal forms are looked up, not
    memoised, and checked against the input.  Each join
    e * w * f is computed and checked when it is asked for, and the element
    list is enumerated afresh on each call.  Neither the engine nor any
    module of the package holds state filled on use (no functools cache),
    so threads may share an engine freely.
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
        # Keyed by kind, then index, each hashed in C: no GeneratorName.__hash__
        # call and no (kind, index) tuple per letter.
        self._tables: dict[str, dict[int, bytes]] = {"s": {}, "e": {}, "f": {}}
        for g, p in self.generators.items():
            self._tables[g.kind][g.index] = byte_table(p)
        self._unit = bytes(range(1, self.fam.degree + 1))
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
        left_factor: dict[str, dict[bytes, bytes]] = {}
        for e in self.lattice.nonunit:
            minima = self.weyl.coset_minima_images(self.lattice.type_map(e).absorbing)
            at = [j - 1 for j in e.idem.domain()]
            pick = itemgetter(*at) if len(at) > 1 else lambda image: [image[j] for j in at]
            table = left_factor[e.token] = {bytes(pick(w)): w for w in minima}
            if len(table) != len(minima):
                raise RuntimeError(f"two left factors under {e.token} agree on its domain")

        # Domain u(dom e) of each conjugate u * e * u^-1 of a lattice element,
        # by a breadth-first walk of its orbit -> (e, w2 on W's own bytes,
        # image bytes of e * w2, e's left-factor table, None for the unit),
        # keyed by the mask of that domain once the orbit is walked.  w2^-1
        # carries dom(e) onto the domain in increasing order (w2 has no left
        # descent among the reflections swapping neighbours in dom(e)), so for
        # an x with that domain the values of x * w2^-1 on dom(e) are those of
        # x, in order.
        self._idem_tables = {e.idem._b: byte_table(e.idem) for e in self.lattice.elements}
        self._conjugation: dict[bytes, tuple] = {}
        reflections = [self.weyl.s(i) for i in self.weyl.s_indices]
        for e in self.lattice.elements:
            commuting = self.lattice.type_map(e).commuting
            idem = self._idem_tables[e.idem._b]
            orbit: dict[tuple[int, ...], tuple] = {}
            queue = [(e.idem.domain(), self.identity, self.identity)]
            for dom, s, u in queue:
                if dom in orbit:
                    continue
                u = s * u
                w2 = self.weyl.min_coset_rep(u.inverse(), commuting, "left")
                if tuple(map(w2.inverse(), e.idem.domain())) != dom:
                    raise RuntimeError(
                        f"w2^-1 does not carry dom({e.token}) onto {dom} in order"
                    )
                orbit[dom] = (e, w2, w2._b.translate(idem), left_factor.get(e.token))
                queue += [(tuple(sorted(map(s, dom))), s, u) for s in reflections]
            self._conjugation.update((c[2].translate(_DOMAIN), c) for c in orbit.values())

    @property
    def identity(self) -> PartialInjection:
        return self.weyl.identity

    @property
    def alphabet(self) -> tuple[GeneratorName, ...]:
        return tuple(self.generators)

    def inverse_images(self, cap: int = DEFAULT_ENUMERATION_CAP) -> dict[bytes, None]:
        """The `enumerate_monoid` dict, passed on: keyed by the image bytes of
        every element's inverse, 0 where undefined, in its order.  The caller
        owns it, and `verify_completeness` marks its hits in it.

        Refused before enumerating if the monoid has more than ``cap``
        elements: one per normal form, so sum over e of
        [W : W_abs(e)] * [W : W_com(e)].
        """
        order, tm = len(self.weyl), self.lattice.type_map
        size = sum(
            order // self.weyl.parabolic_order(tm(e).absorbing)
            * (order // self.weyl.parabolic_order(tm(e).commuting))
            for e in self.lattice.elements
        )
        if size > cap:
            raise EnumerationCapExceeded(f"enumeration cap exceeded: {size} elements, cap={cap}")
        return enumerate_monoid(self.fam, cap)

    def elements(self, cap: int = DEFAULT_ENUMERATION_CAP) -> tuple[PartialInjection, ...]:
        """All monoid elements in deterministic enumeration order: the keys of
        `inverse_images`, each inverted, under the same cap."""
        return tuple(map(_inverted, self.inverse_images(cap)))

    def evaluate(self, word: Iterable[GeneratorName]) -> PartialInjection:
        """Product of generator letters, word read left to right: the letters'
        byte tables, looked up left to right so that the leftmost unknown
        letter is named, act right to left on the identity's image bytes."""
        word, tables = tuple(word), self._tables
        try:
            steps = [tables[g.kind][g.index] for g in word]
        except (KeyError, AttributeError):
            g = next(g for g in word if g not in self.generators)
            raise ValueError(f"unknown generator {g}") from None
        return _unchecked(reduce(bytes.translate, reversed(steps), self._unit))

    def normal_decompose(self, x: PartialInjection) -> NormalForm:
        """The unique canonical triple evaluating to x.

        The domain of x is that of a conjugate u * e * u^-1 of a lattice
        element e, and it alone fixes e and w2: one lookup of x's domain
        mask in the conjugation table.  Then x * w2^-1 = w1 * e, so w1 is
        the right-minimal unit with the values of x * w2^-1 on dom(e), which
        are the nonzero image bytes of x in order: one lookup in the
        left-factor table of e, or, for the unit, x itself if it lies in the
        unit group.  Nothing is memoised: a call reads only tables fixed at
        construction, so threads may share an engine freely.
        """
        if len(x._b) != len(self._unit):
            raise ValueError(f"degree mismatch: expected {self.fam.degree}, got {x.degree}")
        return self._decompose(x._b)

    def _decompose(
        self,
        image: bytes,
        _new=object.__new__,
        _b=PartialInjection._b.__set__,
        _w1=NormalForm.w1.__set__,
        _e=NormalForm.e.__set__,
        _w2=NormalForm.w2.__set__,
    ) -> NormalForm:
        """`normal_decompose` of the element with these image bytes, checked
        as value = x: w1's table carries the bytes of e * w2 to ``image``.
        The form and its w1 are filled through their slots, with no `__init__`."""
        conj = self._conjugation.get(image.translate(_DOMAIN))
        if conj is None:
            raise OutsideMonoidError(
                f"domain {_unchecked(image).domain()} matches no conjugate of a lattice idempotent"
            )
        e, w2, ew2, table = conj
        if table is None:
            w1 = image if image in self.weyl._index else None
        else:
            w1 = table.get(image.replace(b"\0", b""))
        if w1 is None:
            raise OutsideMonoidError(
                f"no unit-group permutation extends {_unchecked(image)!r};"
                " element is outside the monoid"
            )
        if ew2.translate(bytes.maketrans(self._unit, w1)) != image:
            raise RuntimeError("normal decomposition does not reproduce its input")
        nf, p = _new(NormalForm), _new(PartialInjection)
        _b(p, w1)
        _w1(nf, p)
        _e(nf, e)
        _w2(nf, w2)
        return nf

    def _factors(self, nf: NormalForm) -> tuple[bytes, bytes, bytes]:
        """The image bytes of w1, e and w2.  Raises
        `degree mismatch: n != d` for the first of them, in that order,
        whose degree d is not the engine's n."""
        w1, idem, w2 = nf.w1._b, nf.e.idem._b, nf.w2._b
        n = len(self._unit)
        if not len(w1) == len(idem) == len(w2) == n:
            d = next(len(f) for f in (w1, idem, w2) if len(f) != n)
            raise ValueError(f"degree mismatch: {n} != {d}")
        return w1, idem, w2

    def _image(self, nf: NormalForm) -> bytes:
        """The image bytes of w1 * e * w2: those of w2, translated by the
        tables of e and w1.  The table of an idempotent outside this
        engine's lattice is built on the call."""
        w1, idem, w2 = self._factors(nf)
        table = self._idem_tables.get(idem) or byte_table(nf.e.idem)
        return w2.translate(table).translate(bytes.maketrans(self._unit, w1))

    def multiply(self, a: NormalForm, b: NormalForm) -> NormalForm:
        """a * b: the image bytes of b translated by a's, then decomposed."""
        da, db = len(a.w2._b), len(b.w2._b)
        if da != db:
            raise ValueError(f"degree mismatch: {da} != {db}")
        if db != len(self._unit):
            raise ValueError(f"degree mismatch: expected {self.fam.degree}, got {db}")
        a_table = bytes.maketrans(self._unit, self._image(a))
        return self._decompose(self._image(b).translate(a_table))

    def length(self, nf: NormalForm) -> int:
        """len(w1) + len(w2), each factor's bytes looked up in W's index."""
        w1, _, w2 = self._factors(nf)
        weyl = self.weyl
        try:
            return weyl._length[weyl._index[w1]] + weyl._length[weyl._index[w2]]
        except KeyError:  # W's own lookup names the factor outside it
            return weyl.length(nf.w1) + weyl.length(nf.w2)

    def length_of_element(self, x: PartialInjection) -> int:
        return self.length(self.normal_decompose(x))

    def canonical_word(self, nf: NormalForm) -> tuple[GeneratorName, ...]:
        """The canonical word: fixed reduced word of w1, then e, then that of w2."""
        self._factors(nf)
        left, right = self.weyl.reduced_word(nf.w1), self.weyl.reduced_word(nf.w2)
        parts = [GeneratorName.s(i) for i in left]
        if nf.e.name is not None:
            parts.append(nf.e.name)
        parts.extend(GeneratorName.s(i) for i in right)
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
            or weyl.min_coset_rep(w, lat.type_map(e).commuting, "left") != w
            or weyl.min_coset_rep(w, lat.type_map(f).commuting) != w
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
        """s_i * x: the image bytes of x translated by the table of s_i, then
        decomposed."""
        table = self._tables["s"].get(i)
        if table is None:
            raise ValueError(f"no simple reflection with index {i}")
        return self._decompose(self._image(nf).translate(table))

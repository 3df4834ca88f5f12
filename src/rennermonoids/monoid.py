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
from operator import and_, itemgetter
from typing import Iterable, Iterator

from .coxeter import WeylGroup, _mask
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
# 1.06 million left-factor entries) builds in 1.1-1.25 s and 166 MB on one
# core of a 2-core machine (Python 3.11); A8 and B6 pass, A9, B7 and D8 are
# refused.
MAX_WEYL_ORDER = 350_000


class RennerMonoid:
    """Engine for one family and rank: model, group, lattice, normal forms.

    Four tables are built at construction and never changed: the generator
    and idempotent tables (each letter's and lattice element's `byte_table`),
    the left-factor tables (per nonunit lattice element e, the values of w1
    on dom(e), in order -> w1) and the conjugation table (the domain mask of
    each conjugate of a lattice idempotent -> its e, its w2, the image bytes
    of e * w2 and e's left-factor table).  Normal forms are looked up, not
    memoised, and checked against the input.  The joins are walked
    and checked afresh on each call of `joins`, and the element list is
    enumerated afresh on each call of `elements`.  Neither the engine nor any
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
            order,
        )
        self.lattice = CrossSectionLattice(self.fam, self.generators, self.weyl)

        # Per lattice element e: its byte table, keyed by its image bytes; for
        # a nonunit e its left-factor table, the values of w1 on dom(e) in
        # increasing order (one slice when dom(e) is an interval, as all but
        # the branch idempotent f are), as bytes -> w1, over the w1
        # right-minimal modulo the absorbing parabolic of e (no key repeats:
        # two units agree on dom(e) exactly when they differ by an element of
        # that parabolic); and its orbit, the domain u(dom e) of each
        # conjugate u * e * u^-1, walked breadth-first on W's indices by its
        # left columns from u = 1 -> (e, w2 on W's own bytes, image bytes of
        # e * w2, the left-factor table or None), keyed by the domain's mask:
        # u^-1's image bytes translated by `in_dom`, 1 on dom(e) and 0
        # elsewhere.  A domain keeps the first u that reaches it.  w2 is the
        # minimum of W_com(e) * u^-1, and w2^-1 carries dom(e) onto the domain
        # in increasing order (w2 has no left descent among the reflections
        # swapping neighbours in dom(e)), so for an x with that domain the
        # values of x * w2^-1 on dom(e) are those of x, in order.
        self._idem_tables: dict[bytes, bytes] = {}
        self._conjugation: dict[bytes, tuple] = {}
        weyl = self.weyl
        images, inv = weyl.images, weyl._inv
        cols = [weyl._step[i] for i in weyl.s_indices]
        for e in self.lattice.elements:
            tm = self.lattice.type_map(e)
            idem = self._idem_tables[e.idem._b] = byte_table(e.idem)
            in_dom = idem.translate(_DOMAIN)
            dom = e.idem._b.replace(b"\0", b"")
            table = None
            if e.name is not None:
                minima = weyl.coset_minima_images(tm.absorbing)
                lo, hi = (dom[0] - 1, dom[-1]) if dom else (0, 0)
                if hi - lo == len(dom):
                    keys = map(itemgetter(slice(lo, hi)), minima)
                else:
                    keys = map(bytes, map(itemgetter(*[j - 1 for j in dom]), minima))
                table = dict(zip(keys, minima))
                if len(table) != len(minima):
                    raise RuntimeError(f"two left factors under {e.token} agree on its domain")
            orbit = set()
            walk = [0]
            for k in walk:
                u_inv = images[inv[k]]
                key = u_inv.translate(in_dom)
                if key in orbit:
                    continue
                orbit.add(key)
                w2 = weyl.min_coset_rep(_unchecked(u_inv), tm.commuting, "left")
                ew2 = w2._b.translate(idem)
                if ew2.translate(_DOMAIN) != key or ew2.replace(b"\0", b"") != dom:
                    raise RuntimeError(
                        f"w2^-1 does not carry dom({e.token}) onto"
                        f" {_unchecked(key).domain()} in order"
                    )
                self._conjugation[key] = (e, w2, ew2, table)
                walk += [col[k] for col in cols]

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

    def joins(
        self,
    ) -> Iterator[tuple[LambdaElement, tuple[int, ...], LambdaElement, LambdaElement, bool]]:
        """The joins e * w * f = h of each pair of nonunit lattice elements,
        one per w minimal in W_com(e) * w * W_com(f) (Bjorner-Brenti, GTM
        231, 2.7), as (e, the reduced word of w, f, h, whether w is upward).

        W is walked once per f, by left steps from 1 through the w with no
        right descent in com(f): each such w != 1 steps down to one by
        deleting a left descent, which never adds a right descent, so the
        walk reaches all of them.  Per e, the w with a left descent in
        com(e) are dropped.  w is upward when the letters of its word
        commute with every lattice element strictly above e or f.  h is
        f's image bytes translated by the tables of w and e, looked up in
        the lattice, and checked: h * w = h, w in W_abs(h), h <= e meet f.
        """
        lat, weyl = self.lattice, self.weyl
        com = {g.idem._b: _mask(lat.type_map(g).commuting) for g in lat.elements}
        up = {
            e.idem._b: reduce(and_, [com[g.idem._b] for g in lat.elements if lat.lt(e, g)], -1)
            for e in lat.nonunit
        }
        left, right = weyl._side("left"), weyl._side("right")
        for f in lat.nonunit:
            minima = weyl._walk(weyl.s_indices, right, com[f.idem._b])
            for e in lat.nonunit:
                table, drop, meet = self._idem_tables[e.idem._b], com[e.idem._b], lat.meet(e, f)
                for k in minima:
                    if left[k] & drop:
                        continue
                    w = weyl.images[k]
                    word = weyl.reduced_word(_unchecked(w))
                    value = f.idem._b.translate(bytes.maketrans(self._unit, w)).translate(table)
                    h = lat.by_image.get(value)
                    if h is None:
                        raise RuntimeError(
                            f"idempotent {_unchecked(value)!r} is not in the cross-section lattice"
                        )
                    if w.translate(self._idem_tables[value]) != value:
                        raise RuntimeError(
                            f"{e.token}*w*{f.token} does not absorb its middle factor"
                        )
                    if _mask(word) & ~_mask(lat.type_map(h).absorbing):
                        raise RuntimeError(
                            f"middle factor of {e.token}*w*{f.token} escapes the"
                            f" absorbing subgroup of {h.token}"
                        )
                    if not lat.leq(h, meet):
                        raise RuntimeError(f"{e.token}*w*{f.token} is not below the plain meet")
                    yield e, word, f, h, not _mask(word) & ~(up[e.idem._b] & up[f.idem._b])

    def left_mult_generator(self, i: int, nf: NormalForm) -> NormalForm:
        """s_i * x: the image bytes of x translated by the table of s_i, then
        decomposed."""
        table = self._tables["s"].get(i)
        if table is None:
            raise ValueError(f"no simple reflection with index {i}")
        return self._decompose(self._image(nf).translate(table))

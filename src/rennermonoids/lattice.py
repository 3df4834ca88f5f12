"""Cross-section lattice of diagonal idempotents and their type maps.

Everything here is computed from products in the matrix model.  The
closed-form tables known for the three families are exercised as tests,
never baked in, so a convention mistake in the model cannot hide.  Sets of
unit-group elements (parabolics, coset minima) are not stored: consumers
filter them from the Weyl group's masks with the type maps kept here.
"""

from __future__ import annotations

from .coxeter import WeylGroup
from .model import GeneratorName, MonoidFamily, PartialInjection, _Value


class LambdaElement(_Value):
    """A named idempotent of the cross-section lattice; name None marks the unit.
    It is keyed by its idempotent's image bytes; `token` is for display only."""

    name: GeneratorName | None
    idem: PartialInjection

    @property
    def token(self) -> str:
        return "1" if self.name is None else str(self.name)


class TypeMap(_Value):
    """Simple reflections sorted by their action on one idempotent e.

    commuting: s with s*e = e*s, the disjoint union of the other two sets;
    absorbing: s with s*e = e*s = e;
    nonabsorbing: s with s*e = e*s != e.
    """

    commuting: frozenset[int]
    absorbing: frozenset[int]
    nonabsorbing: frozenset[int]


class CrossSectionLattice:
    """The finite lattice of named idempotents: order, meet and type maps.

    The meet comes from model products, the order from the meet (e <= f iff
    ef = fe = e); type maps are read off generator-by-generator, and the
    construction checks that each centralizer parabolic is the direct product
    of its absorbing and nonabsorbing parts: its order is the product of
    theirs, and the two factors commute elementwise, which holds exactly when
    each absorbing generator commutes with each nonabsorbing one.  Parabolics
    and coset minima are left to `WeylGroup.parabolic` and
    `WeylGroup.coset_minima_images` on the type maps.  Queries key an element
    by its idempotent's image bytes, as `by_image` indexes the elements, so
    another engine's equal element gets the same answer and one not held
    raises KeyError.  Immutable after construction.
    """

    def __init__(
        self,
        fam: MonoidFamily,
        gens: dict[GeneratorName, PartialInjection],
        weyl: WeylGroup,
    ):
        unit = LambdaElement(None, PartialInjection.identity(fam.degree))
        named = [LambdaElement(g, idem) for g, idem in gens.items() if g.kind != "s"]
        self.elements: tuple[LambdaElement, ...] = tuple(named + [unit])
        self.nonunit: tuple[LambdaElement, ...] = tuple(named)
        self.by_image: dict[bytes, LambdaElement] = {e.idem._b: e for e in self.elements}

        self._meet: dict[tuple[bytes, bytes], LambdaElement] = {}
        for a in self.elements:
            for b in self.elements:
                p = a.idem * b.idem
                q = b.idem * a.idem
                if p != q:
                    raise RuntimeError(
                        f"lattice idempotents {a.token} and {b.token} do not commute"
                    )
                m = self.by_image.get(p._b)
                if m is None:
                    raise RuntimeError(f"product of {a.token} and {b.token} left the lattice")
                self._meet[a.idem._b, b.idem._b] = m

        self._types: dict[bytes, TypeMap] = {}
        for e in self.elements:
            com, absd, non = set(), set(), set()
            for i in weyl.s_indices:
                s = weyl.s(i)
                se = s * e.idem
                if se == e.idem * s:
                    com.add(i)
                    (absd if se == e.idem else non).add(i)
            tm = TypeMap(frozenset(com), frozenset(absd), frozenset(non))
            self._types[e.idem._b] = tm
            # `parabolic` lists the smaller factor, as the benchmark's trace
            # contract expects its span from every build; the larger is W at
            # the unit, whose listing would decode every element.
            small, large = sorted((tm.absorbing, tm.nonabsorbing), key=weyl.parabolic_order)
            order = len(weyl.parabolic(small)) * weyl.parabolic_order(large)
            if weyl.parabolic_order(tm.commuting) != order:
                raise RuntimeError(f"centralizer of {e.token} is not a direct product")
            if any(weyl.coxeter_exponent(i, j) != 2 for i in tm.absorbing for j in tm.nonabsorbing):
                raise RuntimeError(f"parabolic factors of {e.token} do not commute elementwise")

    def leq(self, e: LambdaElement, f: LambdaElement) -> bool:
        return self._meet[e.idem._b, f.idem._b].idem._b == e.idem._b

    def lt(self, e: LambdaElement, f: LambdaElement) -> bool:
        return self.leq(e, f) and e.idem._b != f.idem._b

    def meet(self, e: LambdaElement, f: LambdaElement) -> LambdaElement:
        return self._meet[e.idem._b, f.idem._b]

    def type_map(self, e: LambdaElement) -> TypeMap:
        return self._types[e.idem._b]

"""Cross-section lattice of diagonal idempotents and their type maps.

Everything here is computed from products in the matrix model.  The
closed-form tables known for the three families are exercised as tests,
never baked in, so a convention mistake in the model cannot hide.  Sets of
unit-group elements (parabolics, coset minima) are not stored: consumers
filter them from the Weyl group's masks with the type maps kept here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coxeter import WeylGroup
from .model import GeneratorName, MonoidFamily, PartialInjection


@dataclass(frozen=True)
class LambdaElement:
    """A named idempotent of the cross-section lattice; name None marks the unit."""

    name: GeneratorName | None
    idem: PartialInjection

    @property
    def token(self) -> str:
        return "1" if self.name is None else str(self.name)

    @property
    def is_unit(self) -> bool:
        return self.name is None


@dataclass(frozen=True)
class TypeMap:
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

    Order and meet come from model products (e <= f iff ef = fe = e); type
    maps are read off generator-by-generator, and the construction checks
    that each centralizer parabolic is the direct product of its absorbing
    and nonabsorbing parts.  Parabolics and coset minima are left to
    `WeylGroup.parabolic` and `WeylGroup.coset_minima` on the type-map sets.
    Immutable after construction.
    """

    def __init__(
        self,
        fam: MonoidFamily,
        gens: dict[GeneratorName, PartialInjection],
        weyl: WeylGroup,
    ):
        unit = LambdaElement(None, PartialInjection.identity(fam.degree))
        named = [
            LambdaElement(name, idem) for name, idem in gens.items() if name.kind != "s"
        ]
        self.elements: tuple[LambdaElement, ...] = tuple(named + [unit])
        self.unit = unit
        self.zero = named[0]
        self.nonunit: tuple[LambdaElement, ...] = tuple(named)
        self._position = {e.token: k for k, e in enumerate(self.elements)}
        self._by_token = {e.token: e for e in self.elements}
        self._by_idem = {e.idem: e for e in self.elements}

        self._leq: dict[tuple[str, str], bool] = {}
        self._meet: dict[tuple[str, str], LambdaElement] = {}
        for a in self.elements:
            for b in self.elements:
                p = a.idem * b.idem
                q = b.idem * a.idem
                if p != q:
                    raise RuntimeError(
                        f"lattice idempotents {a.token} and {b.token} do not commute"
                    )
                self._leq[a.token, b.token] = p == a.idem
                m = self._by_idem.get(p)
                if m is None:
                    raise RuntimeError(
                        f"product of {a.token} and {b.token} left the lattice"
                    )
                self._meet[a.token, b.token] = m

        self._types: dict[str, TypeMap] = {}
        for e in self.elements:
            com, absd, non = set(), set(), set()
            for i in weyl.s_indices:
                s = weyl.s(i)
                se = s * e.idem
                if se == e.idem * s:
                    com.add(i)
                    (absd if se == e.idem else non).add(i)
            tm = TypeMap(frozenset(com), frozenset(absd), frozenset(non))
            self._types[e.token] = tm
            w_abs = weyl.parabolic(tm.absorbing)
            w_non = weyl.parabolic(tm.nonabsorbing)
            if weyl.parabolic_order(tm.commuting) != len(w_abs) * len(w_non):
                raise RuntimeError(f"centralizer of {e.token} is not a direct product")
            ident = {weyl.identity}  # commutes with everything, so skipped
            for p in w_abs - ident:
                for q in w_non - ident:
                    if p * q != q * p:
                        raise RuntimeError(
                            f"parabolic factors of {e.token} do not commute elementwise"
                        )

    def by_token(self, token: str) -> LambdaElement:
        try:
            return self._by_token[token]
        except KeyError:
            raise ValueError(f"no lattice element named {token!r}") from None

    def by_idem(self, x: PartialInjection) -> LambdaElement:
        e = self._by_idem.get(x)
        if e is None:
            raise RuntimeError(f"idempotent {x!r} is not in the cross-section lattice")
        return e

    def position(self, e: LambdaElement) -> int:
        return self._position[e.token]

    def leq(self, e: LambdaElement, f: LambdaElement) -> bool:
        return self._leq[e.token, f.token]

    def lt(self, e: LambdaElement, f: LambdaElement) -> bool:
        return e.token != f.token and self._leq[e.token, f.token]

    def meet(self, e: LambdaElement, f: LambdaElement) -> LambdaElement:
        return self._meet[e.token, f.token]

    def type_map(self, e: LambdaElement) -> TypeMap:
        return self._types[e.token]

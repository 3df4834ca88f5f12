"""Cross-section lattice of diagonal idempotents, type maps, and coset minima.

Everything here is computed from products in the matrix model.  The
closed-form tables known for the three families are exercised as tests,
never baked in, so a convention mistake in the model cannot hide.
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


@dataclass(frozen=True)
class CosetMinima:
    """Minimal-length coset representatives relative to one idempotent e.

    right: minimal in w * W(e), i.e. no right descent among commuting(e);
    left: minimal in W(e) * w;
    right_absorbing / left_absorbing: the same modulo the absorbing parabolic.
    """

    right: frozenset[PartialInjection]
    left: frozenset[PartialInjection]
    right_absorbing: frozenset[PartialInjection]
    left_absorbing: frozenset[PartialInjection]


@dataclass(frozen=True)
class UpMinima:
    """Coset minima that additionally centralize every idempotent strictly above e."""

    left: frozenset[PartialInjection]
    right: frozenset[PartialInjection]


class CrossSectionLattice:
    """The finite lattice of named idempotents with all derived tables.

    Order and meet come from model products (e <= f iff ef = fe = e); type
    maps are read off generator-by-generator; parabolic subgroups and coset
    minima are filtered from the Weyl group's support and descent bitmasks.
    Immutable after construction.
    """

    def __init__(
        self,
        fam: MonoidFamily,
        gens: dict[GeneratorName, PartialInjection],
        weyl: WeylGroup,
    ):
        self.fam = fam
        self.weyl = weyl
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
        self._centralizer: dict[str, frozenset[PartialInjection]] = {}
        self._absorbing_subgroup: dict[str, frozenset[PartialInjection]] = {}
        self._nonabsorbing_subgroup: dict[str, frozenset[PartialInjection]] = {}
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
            w_full = weyl.parabolic(tm.commuting)
            w_abs = weyl.parabolic(tm.absorbing)
            w_non = weyl.parabolic(tm.nonabsorbing)
            if len(w_full) != len(w_abs) * len(w_non):
                raise RuntimeError(f"centralizer of {e.token} is not a direct product")
            ident = {weyl.identity}  # commutes with everything, so skipped
            for p in w_abs - ident:
                for q in w_non - ident:
                    if p * q != q * p:
                        raise RuntimeError(
                            f"parabolic factors of {e.token} do not commute elementwise"
                        )
            self._centralizer[e.token] = w_full
            self._absorbing_subgroup[e.token] = w_abs
            self._nonabsorbing_subgroup[e.token] = w_non

        self._minima: dict[str, CosetMinima] = {}
        self._up: dict[str, UpMinima] = {}
        for e in self.elements:
            tm = self._types[e.token]
            cm = self._minima[e.token] = CosetMinima(
                right=weyl.coset_minima(tm.commuting, "right"),
                left=weyl.coset_minima(tm.commuting, "left"),
                right_absorbing=weyl.coset_minima(tm.absorbing, "right"),
                left_absorbing=weyl.coset_minima(tm.absorbing, "left"),
            )
            above = [f for f in self.elements if self.lt(e, f)]
            keep = lambda w: all(w in self._centralizer[f.token] for f in above)
            self._up[e.token] = UpMinima(
                left=frozenset(w for w in cm.left if keep(w)),
                right=frozenset(w for w in cm.right if keep(w)),
            )

    def by_token(self, token: str) -> LambdaElement:
        try:
            return self._by_token[token]
        except KeyError:
            raise ValueError(f"no lattice element named {token!r}") from None

    def find_idem(self, x: PartialInjection) -> LambdaElement | None:
        return self._by_idem.get(x)

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

    def centralizer(self, e: LambdaElement) -> frozenset[PartialInjection]:
        return self._centralizer[e.token]

    def absorbing_subgroup(self, e: LambdaElement) -> frozenset[PartialInjection]:
        return self._absorbing_subgroup[e.token]

    def nonabsorbing_subgroup(self, e: LambdaElement) -> frozenset[PartialInjection]:
        return self._nonabsorbing_subgroup[e.token]

    def coset_minima(self, e: LambdaElement) -> CosetMinima:
        return self._minima[e.token]

    def up_minima(self, e: LambdaElement) -> UpMinima:
        return self._up[e.token]

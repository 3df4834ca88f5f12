"""Partial-injection model of three families of Renner monoids.

An element is an injective partial self-map of {1, ..., n}, which is the
map reading of an n-by-n rook matrix (at most one unit entry per row and
column): entry (i, j) = 1 means j maps to i, so the matrix product equals
composition with the right factor acting first.

Families:
  A  the full rook monoid of degree n (unit group the symmetric group),
  B  the symplectic family, matrix degree n = 2 * rank,
  D  the even special orthogonal family, matrix degree n = 2 * rank.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import factorial
from typing import Iterable

DEFAULT_ENUMERATION_CAP = 10**7

_MIN_RANK = {"A": 1, "B": 2, "D": 3}


class EnumerationCapExceeded(RuntimeError):
    """Raised when a monoid enumeration grows past the configured cap."""


@dataclass(frozen=True)
class MonoidFamily:
    """Family letter plus rank; fixes the matrix degree of the model."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in _MIN_RANK:
            raise ValueError(f"unknown family {self.family!r}, expected one of A, B, D")
        lo = _MIN_RANK[self.family]
        if self.rank < lo:
            raise ValueError(f"family {self.family} requires rank >= {lo}, got {self.rank}")

    @property
    def degree(self) -> int:
        return self.rank if self.family == "A" else 2 * self.rank

    @property
    def weyl_order(self) -> int:
        """Order of the unit group in closed form: n!, 2^n n! or 2^(n-1) n! at rank n."""
        return factorial(n := self.rank) << {"A": 0, "B": n, "D": n - 1}[self.family]

    def weyl_order_past(self, limit: int) -> int:
        """The unit group's order if at most ``limit``, else a lower bound above it.

        Multiplies the closed form up one factor k (A) or 2k (B, D; D skips
        k = 1) at a time and stops once past ``limit``, so a huge rank costs
        a few multiplications, not a factorial.
        """
        order = 2 if self.family == "B" else 1
        for k in range(2, self.rank + 1):
            order *= k if self.family == "A" else 2 * k
            if order > limit:
                break
        return order

    @property
    def coxeter_indices(self) -> range:
        """Indices of the simple reflections s_1, ..., s_k."""
        k = self.rank - 1 if self.family == "A" else self.rank
        return range(1, k + 1)


@dataclass(frozen=True, order=True)
class GeneratorName:
    """Symbolic generator: a simple reflection (s), a diagonal idempotent (e),
    or the extra branch idempotent of family D (f)."""

    kind: str
    index: int

    @classmethod
    def s(cls, i: int) -> "GeneratorName":
        return cls("s", i)

    @classmethod
    def e(cls, j: int) -> "GeneratorName":
        return cls("e", j)

    @classmethod
    def f(cls, l: int) -> "GeneratorName":
        return cls("f", l)

    def __str__(self) -> str:
        return f"{self.kind}{self.index}"


@dataclass(frozen=True, slots=True)
class PartialInjection:
    """Injective partial self-map of {1, ..., n}.

    ``image[j - 1]`` holds the image of j, or None where undefined.  Public
    construction checks injectivity; products and inverses, which are
    injective whenever their operands are, go through `_unchecked`.
    """

    image: tuple[int | None, ...]

    def __post_init__(self) -> None:
        n = len(self.image)
        seen = set()
        for v in self.image:
            if v is None:
                continue
            if not 1 <= v <= n:
                raise ValueError(f"image value {v} out of range 1..{n}")
            if v in seen:
                raise ValueError(f"image value {v} repeated, map is not injective")
            seen.add(v)

    @property
    def degree(self) -> int:
        return len(self.image)

    def __call__(self, j: int) -> int | None:
        return self.image[j - 1]

    def __mul__(self, other: "PartialInjection") -> "PartialInjection":
        """Matrix product: apply ``other`` first, then ``self``."""
        if not isinstance(other, PartialInjection):
            return NotImplemented
        img, right = self.image, other.image
        if len(img) != len(right):
            raise ValueError(f"degree mismatch: {len(img)} != {len(right)}")
        return _unchecked(tuple([None if v is None else img[v - 1] for v in right]))

    def inverse(self) -> "PartialInjection":
        """Reverse all arrows; the unique semigroup inverse."""
        img: list[int | None] = [None] * self.degree
        for j, v in enumerate(self.image, start=1):
            if v is not None:
                img[v - 1] = j
        return _unchecked(tuple(img))

    @property
    def rank(self) -> int:
        return sum(v is not None for v in self.image)

    def domain(self) -> tuple[int, ...]:
        return tuple(j for j, v in enumerate(self.image, start=1) if v is not None)

    def is_permutation(self) -> bool:
        return self.rank == self.degree

    def is_idempotent(self) -> bool:
        return self * self == self

    @classmethod
    def identity(cls, n: int) -> "PartialInjection":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def empty(cls, n: int) -> "PartialInjection":
        return cls((None,) * n)

    @classmethod
    def restriction(cls, n: int, points: Iterable[int]) -> "PartialInjection":
        """Identity restricted to ``points``."""
        pts = set(points)
        return cls(tuple(j if j in pts else None for j in range(1, n + 1)))

    @classmethod
    def from_map(cls, n: int, mapping: dict[int, int]) -> "PartialInjection":
        return cls(tuple(mapping.get(j) for j in range(1, n + 1)))

    @classmethod
    def transpositions(cls, n: int, *pairs: tuple[int, int]) -> "PartialInjection":
        """Permutation given as a product of disjoint transpositions."""
        img = list(range(1, n + 1))
        for a, b in pairs:
            img[a - 1], img[b - 1] = img[b - 1], img[a - 1]
        return cls(tuple(img))

    def __repr__(self) -> str:
        body = ", ".join(
            f"{j}: {v}" for j, v in enumerate(self.image, start=1) if v is not None
        )
        return f"PartialInjection({{{body}}}, degree={self.degree})"


def _unchecked(
    image: tuple[int | None, ...],
    _new=object.__new__,
    _set=PartialInjection.image.__set__,
) -> PartialInjection:
    """A PartialInjection from an image known to be injective and in range."""
    p = _new(PartialInjection)
    _set(p, image)
    return p


def build_generators(fam: MonoidFamily) -> dict[GeneratorName, PartialInjection]:
    """Generator table: all simple reflections and all non-unit lattice idempotents.

    The diagonal idempotent e_j restricts the identity to {1, ..., j}.  For
    family D the extra rank-l idempotent f_l restricts the identity to
    {1, ..., l-1} together with l+1.
    """
    n = fam.degree
    l = fam.rank
    gens: dict[GeneratorName, PartialInjection] = {}
    if fam.family == "A":
        for i in fam.coxeter_indices:
            gens[GeneratorName.s(i)] = PartialInjection.transpositions(n, (i, i + 1))
    else:
        # Both doubled families share the signed-permutation chain s_1 .. s_{l-1}.
        for i in range(1, l):
            gens[GeneratorName.s(i)] = PartialInjection.transpositions(
                n, (i, i + 1), (n - i, n - i + 1)
            )
        if fam.family == "B":
            gens[GeneratorName.s(l)] = PartialInjection.transpositions(n, (l, l + 1))
        else:
            gens[GeneratorName.s(l)] = PartialInjection.transpositions(
                n, (l - 1, l + 1), (l, l + 2)
            )
    top = n - 1 if fam.family == "A" else l
    for j in range(top + 1):
        gens[GeneratorName.e(j)] = PartialInjection.restriction(n, range(1, j + 1))
    if fam.family == "D":
        gens[GeneratorName.f(l)] = PartialInjection.restriction(n, [*range(1, l), l + 1])
    return gens


def enumerate_monoid(
    fam: MonoidFamily, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[PartialInjection]:
    """Breadth-first closure of the generators under composition, unit included.

    The returned list is in deterministic insertion order.  Raises
    EnumerationCapExceeded as soon as the closure would outgrow ``cap``.
    """
    gens = list(build_generators(fam).values())
    unit = PartialInjection.identity(fam.degree)
    seen: dict[PartialInjection, None] = {unit: None}
    queue = deque([unit])
    while queue:
        x = queue.popleft()
        for g in gens:
            y = x * g
            if y not in seen:
                if len(seen) >= cap:
                    raise EnumerationCapExceeded(f"enumeration cap exceeded: cap={cap}")
                seen[y] = None
                queue.append(y)
    return list(seen)

"""Partial-injection model of three families of Renner monoids.

An element is an injective partial self-map of {1, ..., n}, which is the
map reading of an n-by-n rook matrix (at most one unit entry per row and
column): entry (i, j) = 1 means j maps to i, so the matrix product equals
composition with the right factor acting first.

Families:
  A  the full rook monoid of degree n (unit group the symmetric group),
  B  the symplectic family, matrix degree n = 2 * rank,
  D  the even special orthogonal family, matrix degree n = 2 * rank.

PartialInjection is the type the package takes and returns, and its
product is the general one.  Hot loops multiply by fixed elements on
images as bytes instead, 0 where undefined, translating them by `byte_table`;
`enumerate_monoid` returns such bytes, those of each element's inverse, as
the keys of an insertion-ordered dict.  Its breadth-first search tries x * g
only when g is a tree edge of x's suffix, the element spelt by x's first
word less its first letter (Froidure and Pin, 1997): any other product has
a shortlex-smaller word and was reached before.  So it makes about one
product per element, in the full search's order.
"""

from __future__ import annotations

from array import array
from functools import partial
from operator import eq, ge, gt, le, lt
from typing import Iterable

DEFAULT_ENUMERATION_CAP = 10**7

_MIN_RANK = {"A": 1, "B": 2, "D": 3}
_setattr = object.__setattr__


class EnumerationCapExceeded(RuntimeError):
    """Raised when a monoid enumeration grows past the configured cap."""


def _compared(op):
    """A rich comparison of the fields, for instances of the same class only."""
    def compare(self, other):
        if other.__class__ is self.__class__:
            return op(self._key(), other._key())
        return NotImplemented

    return compare


class _Value:
    """An immutable record of the fields its class annotates (its ``__match_args__``):
    equal only to its own class's instances with equal fields, hashed and
    pickled as their tuple, and assignment raises AttributeError."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *values: object, **named: object) -> None:
        fields = self.__match_args__
        values += tuple([named.pop(name) for name in fields[len(values) :] if name in named])
        if named or len(values) != len(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
        for name, value in zip(fields, values):
            _setattr(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    __eq__ = _compared(eq)

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        return type(self), self._key()

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class MonoidFamily(_Value):
    """Family letter plus rank; fixes the matrix degree of the model."""

    family: str
    rank: int

    def __init__(self, family: str, rank: int) -> None:
        if family not in _MIN_RANK:
            raise ValueError(f"unknown family {family!r}, expected one of A, B, D")
        lo = _MIN_RANK[family]
        if rank.__class__ is not int:
            raise ValueError(f"family {family} requires an int rank, got {rank!r}")
        if rank < lo:
            raise ValueError(f"family {family} requires rank >= {lo}, got {rank}")
        super().__init__(family, rank)

    @property
    def degree(self) -> int:
        return self.rank if self.family == "A" else 2 * self.rank

    def weyl_order_past(self, limit: int) -> int:
        """The unit group's order if at most ``limit``, else a lower bound above it.

        Multiplies n!, 2^n n! or 2^(n-1) n! at rank n up one factor k (A) or
        2k (B, D; D skips k = 1) at a time and stops once past ``limit``, so
        a huge rank costs a few multiplications, not a factorial.
        """
        order = 2 if self.family == "B" else 1
        for k in range(2, self.rank + 1):
            order *= k if self.family == "A" else 2 * k
            if order > limit:
                break
        return order


class GeneratorName(_Value):
    """Symbolic generator: a simple reflection (s), a diagonal idempotent (e),
    or the extra branch idempotent of family D (f).  Ordered by (kind, index)."""

    kind: str
    index: int

    def __init__(self, kind: str, index: int) -> None:
        _setattr(self, "kind", kind)
        _setattr(self, "index", index)

    def _key(self) -> tuple[str, int]:
        return (self.kind, self.index)

    __lt__, __le__, __gt__, __ge__ = map(_compared, (lt, le, gt, ge))

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


class PartialInjection(_Value):
    """Injective partial self-map of {1, ..., n}.

    ``image[j - 1]`` holds the image of j, or None where undefined.  Public
    construction checks injectivity; products and inverses, which are
    injective whenever their operands are, go through `_unchecked`.
    """

    __slots__ = ("image",)
    image: tuple[int | None, ...]

    def __init__(self, image: tuple[int | None, ...]) -> None:
        _setattr(self, "image", image)
        n = len(image)
        seen = set()
        for v in image:
            if v is None:
                continue
            if v.__class__ is not int:
                raise ValueError(f"image value {v!r} is not an int")
            if not 1 <= v <= n:
                raise ValueError(f"image value {v} out of range 1..{n}")
            if v in seen:
                raise ValueError(f"image value {v} repeated, map is not injective")
            seen.add(v)

    def __eq__(self, other: object) -> bool:  # straight-line, as sets of these are hot
        if other.__class__ is self.__class__:
            return self.image == other.image
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.image,))

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
        return _inverted(self.image)

    def domain(self) -> tuple[int, ...]:
        return tuple(j for j, v in enumerate(self.image, start=1) if v is not None)

    @classmethod
    def identity(cls, n: int) -> "PartialInjection":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def restriction(cls, n: int, points: Iterable[int]) -> "PartialInjection":
        """Identity restricted to ``points``."""
        pts = set(points)
        return cls(tuple(j if j in pts else None for j in range(1, n + 1)))

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


def _encoded(p: PartialInjection) -> bytes:
    """The image bytes of p, 0 where undefined."""
    if len(p.image) > 255:
        raise ValueError(f"degree {p.degree} has no byte encoding, the limit is 255")
    try:
        return bytes(p.image)
    except TypeError:  # None where undefined
        return bytes([v or 0 for v in p.image])


def _decoded(image: bytes) -> PartialInjection:
    """The element with these image bytes, 0 where undefined."""
    return _unchecked(tuple([v or None for v in image]) if 0 in image else tuple(image))


def _inverted(image: tuple[int | None, ...] | bytes) -> PartialInjection:
    """Inverse of the injective map with this image, None or 0 where undefined."""
    img: list[int | None] = [None] * len(image)
    for j, v in enumerate(image, start=1):
        if v:
            img[v - 1] = j
    return _unchecked(tuple(img))


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
        for i in range(1, l):
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


def byte_table(p: PartialInjection) -> bytes:
    """p as a `bytes.translate` table: entry v is p(v), and entry 0 and those
    where p is undefined are 0.  It carries the image bytes of x to p * x's."""
    return (b"\0" + _encoded(p)).ljust(256, b"\0")


def enumerate_monoid(fam: MonoidFamily, cap: int = DEFAULT_ENUMERATION_CAP) -> dict[bytes, None]:
    """Breadth-first closure of the generators under composition, unit included,
    as a dict keyed by the image bytes of each element's inverse, every value
    None.

    As (x * g)^-1 = g^-1 * x^-1, the `byte_table` of g^-1 carries x's inverse
    bytes to x * g's, so no element is decoded.  The dict is the closure's own
    seen-set, handed over uncopied, in insertion order: x before y when x was
    reached first, and the products of one x in generator order.  Raises
    ValueError above degree 255, and EnumerationCapExceeded as soon as the
    closure would outgrow ``cap``.

    Most products are never tried (Froidure and Pin, "Algorithms for
    computing finite semigroups", 1997).  The search first reaches x by its
    shortlex-least word w(x) = a w(s), a the first letter; s is the suffix
    of x.  (s, g) is a tree edge when s * g was new as s was walked.  The
    search tries x * g only along the tree edges of x's suffix: otherwise
    s * g has a word v shortlex-below w(s) g, so a v reaches x * g before
    w(x) g does, and skipping the product loses no element and moves none.
    A new x * g has suffix s * g, the child of s along g.  Suffixes lie one
    word length back, so the walk goes a level at a time and keeps the state
    of two: each element's suffix position in the last level, and the first
    child and tree-edge mask of each element of the last level.
    """
    tables = [byte_table(g.inverse()) for g in build_generators(fam).values()]
    unit = bytes(range(1, fam.degree + 1))
    seen: dict[bytes, None] = {unit: None}
    # Tree-edge mask -> (bit, table, rank of the bit in the mask) per edge;
    # the unit's mask, -1, tries every generator and ranks each child 0, the
    # unit's own position, as the suffix of all of them.
    steps = {-1: tuple((1 << i, table, 0) for i, table in enumerate(tables))}
    # Masks outgrow a 4-byte int from 32 generators on.
    masks_of = list if len(tables) > 31 else partial(array, "i")
    level, suffix = [unit], array("i", [0])
    first, masks = array("i", [0]), masks_of([-1])
    while level:
        nxt: list[bytes] = []
        nxt_suffix, nxt_first, nxt_masks = array("i"), array("i"), masks_of()
        for x, s in zip(level, suffix):
            nxt_first.append(len(nxt))
            base, mask, tree = first[s], masks[s], 0
            edges = steps.get(mask)
            if edges is None:
                bits = [i for i in range(len(tables)) if mask >> i & 1]
                edges = steps[mask] = tuple((1 << i, tables[i], k) for k, i in enumerate(bits))
            for bit, table, k in edges:
                y = x.translate(table)
                if y not in seen:
                    if len(seen) >= cap:
                        raise EnumerationCapExceeded(f"enumeration cap exceeded: cap={cap}")
                    seen[y] = None
                    nxt.append(y)
                    nxt_suffix.append(base + k)
                    tree |= bit
            nxt_masks.append(tree)
        level, suffix, first, masks = nxt, nxt_suffix, nxt_first, nxt_masks
    return seen

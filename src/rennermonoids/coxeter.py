"""Finite Coxeter engine for the unit group of the matrix model.

Lengths come from breadth-first search over the Cayley graph of the simple
reflections, so the same machinery serves every embedding (types A, B, D)
with no per-type inversion formula.  The search walks image bytes, taking
s * w by one `bytes.translate` table per generator.  Only the left action
is stored, with each element's inverse: the right side comes through
inversion, as w * s = (s * w^-1)^-1, so the right descents of w are the
left descents of w^-1.  Coset queries are walks and bitmask tests (bit i
for s_i) on integer-indexed tables: w is minimal in w * W_I iff no right
descent of w lies in I (Bjorner-Brenti, GTM 231, 2.4).
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Iterator

from .model import PartialInjection, _unchecked, byte_table


def _mask(I: Iterable[int]) -> int:
    return sum(1 << i for i in set(I))


def _descents(step: dict[int, list[int]], length: list[int]) -> list[int]:
    """Per element, the mask of generators whose step shortens it."""
    desc = [0] * len(length)
    for i, col in step.items():
        desc = [d | (length[j] < l) << i for d, j, l in zip(desc, col, length)]
    return desc


class WeylGroup:
    """The group generated by the simple-reflection permutations.

    Elements are total PartialInjection values at the boundary and indices
    0..|W|-1 inside (0 is the identity, then breadth-first order).  Descent
    sets stay internal bitmasks: callers ask whether w is minimal in its
    coset as min_coset_rep(w, I, side) == w.  Immutable after construction.
    Raises ValueError above degree 255, which has no byte encoding.
    """

    def __init__(self, gens: dict[int, PartialInjection], degree: int):
        self.degree = degree
        self._s = dict(sorted(gens.items()))
        left: dict[int, list[int]] = {i: [] for i in self._s}
        steps = [(i, byte_table(s), left[i]) for i, s in self._s.items()]
        unit = bytes(range(1, degree + 1))
        images = [unit]
        index = {unit: 0}
        length, support = [0], [0]
        for k, w in enumerate(images):
            for i, table, col in steps:
                v = w.translate(table)
                j = index.get(v)
                if j is None:
                    j = index[v] = len(images)
                    images.append(v)
                    length.append(length[k] + 1)
                    support.append(support[k] | 1 << i)
                col.append(j)
        self._inv = [index[unit.translate(bytes.maketrans(w, unit))] for w in images]
        self._index = {w: k for k, w in enumerate(map(tuple, images))}
        self.elements: tuple[PartialInjection, ...] = tuple(map(_unchecked, self._index))
        self._length, self._support, self._step = length, support, left
        ldesc = _descents(left, length)
        self._desc = {"left": ldesc, "right": [ldesc[j] for j in self._inv]}

    @property
    def identity(self) -> PartialInjection:
        return self.elements[0]

    @property
    def s_indices(self) -> tuple[int, ...]:
        return tuple(self._s)

    def s(self, i: int) -> PartialInjection:
        try:
            return self._s[i]
        except KeyError:
            raise ValueError(f"no simple reflection with index {i}") from None

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[PartialInjection]:
        return iter(self.elements)

    def __contains__(self, w: object) -> bool:
        return isinstance(w, PartialInjection) and w.image in self._index

    def _at(self, w: PartialInjection) -> int:
        try:
            return self._index[w.image]
        except KeyError:
            raise ValueError(f"not an element of the unit group: {w!r}") from None

    def _side(self, side: str) -> list[int]:
        """The descent masks on that side."""
        if side not in self._desc:
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        return self._desc[side]

    def length(self, w: PartialInjection) -> int:
        return self._length[self._at(w)]

    def reduced_word(self, w: PartialInjection) -> tuple[int, ...]:
        """The fixed reduced word: repeatedly strip the lowest left descent."""
        desc, step = self._desc["left"], self._step
        k = self._at(w)
        word: list[int] = []
        while ds := desc[k]:
            i = (ds & -ds).bit_length() - 1
            word.append(i)
            k = step[i][k]
        return tuple(word)

    def min_coset_rep(
        self, w: PartialInjection, I: Iterable[int], side: str = "right"
    ) -> PartialInjection:
        """Minimal-length element of W_I * w (side "left") or w * W_I (side
        "right"), the latter the inverse of the minimum of W_I * w^-1."""
        right = self._side(side) is self._desc["right"]
        desc, step, inv, m = self._desc["left"], self._step, self._inv, _mask(I)
        k = inv[self._at(w)] if right else self._at(w)
        while ds := desc[k] & m:
            k = step[(ds & -ds).bit_length() - 1][k]
        return self.elements[inv[k] if right else k]

    def double_coset_minima(
        self, J: Iterable[int], I: Iterable[int]
    ) -> frozenset[PartialInjection]:
        """All w minimal in W_J * w * W_I: no left descent in J, no right descent in I.

        Walks left steps from 1 through the elements with no right descent in
        I.  Each such w != 1 steps down to one by deleting a left descent,
        which never adds a right descent, so the walk reaches all of them.
        Then drops those with a left descent in J.
        """
        left, right = self._desc["left"], self._desc["right"]
        mj, mi = _mask(J), _mask(I)
        seen = {0}
        queue = [0]
        for k in queue:
            for col in self._step.values():
                j = col[k]
                if j not in seen and not right[j] & mi:
                    seen.add(j)
                    queue.append(j)
        return frozenset(self.elements[k] for k in queue if not left[k] & mj)

    def coxeter_exponent(self, i: int, j: int) -> int:
        """m(i, j): the order of s_i * s_j, which is that of its conjugate
        s_j * s_i, walked on the left-action table."""
        si, sj = self._step[i], self._step[j]
        k, m = sj[si[0]], 1
        while k:
            k, m = sj[si[k]], m + 1
        return m

    def in_parabolic(self, w: PartialInjection, I: Iterable[int]) -> bool:
        """Whether w lies in W_I: whether I holds the letters of a reduced word of w."""
        return not self._support[self._at(w)] & ~_mask(I)

    def parabolic(self, I: Iterable[int]) -> frozenset[PartialInjection]:
        """All elements of the standard parabolic subgroup generated by I."""
        outside = ~_mask(I)
        return frozenset(compress(self.elements, [not m & outside for m in self._support]))

    def parabolic_order(self, I: Iterable[int]) -> int:
        """|W_I|, counted from the support masks without building the subgroup."""
        outside = ~_mask(I)
        return [m & outside for m in self._support].count(0)

    def iter_coset_minima(
        self, I: Iterable[int], side: str = "right"
    ) -> Iterator[PartialInjection]:
        """The w minimal in w * W_I or W_I * w (side "left"), in index order:
        those with no descent on that side in I."""
        m = _mask(I)
        return compress(self.elements, [not d & m for d in self._side(side)])
